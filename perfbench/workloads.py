"""The four benchmark workloads: fixed job lists built from a seed.

A job is one library pipeline that mirrors a CLI subcommand (decomp ->
compile -> eval, count, search, verify).  ``run(state)`` is the timed
part and returns the job's output; ``check(output)`` compares it, untimed,
with a reference from ``refs`` or the brute-force oracles.  Jobs of one
pass run in list order and share ``state``, so a pipeline split over
several jobs (decomposition, compilation, text round trip, evaluation
chunks) hands its intermediate results along.

The library is called through module attributes (``compiler.compile_hom``
rather than a name imported here), so the traced run can rebind them.
Why each workload exists and what it is predicted to show is written up
in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cache, partial
from typing import Any, Callable

import numpy as np

from homforge import (circuit, compiler, gadget_search, graphs, intermediates,
                      oracles, randgen, treedecomp, verify)
from homforge.bp import Arc, LayeredBP
from homforge.circuit import Gate
from homforge.formulas import CNF
from homforge.gadgets import GadgetTriple
from homforge.intermediates import FamilyInstance
from homforge.labels import xedge, xhyper, xvar, yclause, yvert
from homforge.rings import Field

import refs


@dataclass
class Job:
    name: str
    stream: str
    run: Callable[[dict], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    digest: str  # fingerprint of the generated inputs


def pair_labels(G, H) -> list[str]:
    return ([refs.zlabel(u, a) for u in G.vertices() for a in H.vertices()]
            + [refs.ylabel(a, b) for (a, b) in H.edges])


# -- relabelling --------------------------------------------------------------
#
# Where an instance's structure sets its cost, the structure comes from the
# fixed stream seed of the criterion it is taken from, and --seed draws a
# relabelling of it: the inputs and answers differ from seed to seed while
# the work per pass stays the same, so a change between two commits is not
# drowned by one seed drawing bigger instances than another.


def _perm(n: int, rng: random.Random) -> dict[int, int]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return dict(zip(range(1, n + 1), images))


def relabel_graph(G, rng: random.Random):
    pi = _perm(G.n, rng)
    return graphs.Graph.from_edges(G.n, [(pi[u], pi[v]) for (u, v) in G.edges])


def relabel_cnf(cnf: CNF, rng: random.Random) -> CNF:
    pi = _perm(cnf.n, rng)
    return CNF(cnf.n, tuple(tuple(pi[abs(l)] * (1 if l > 0 else -1) for l in c)
                            for c in cnf.clauses))


def relabel_hypergraph(h, rng: random.Random):
    pa, pb, pc = (_perm(h.n, rng) for _ in range(3))
    return graphs.Hypergraph3(h.n, frozenset((pa[a], pb[b], pc[c]) for (a, b, c) in h.edges))


def relabel_bp(bp: LayeredBP, rng: random.Random) -> LayeredBP:
    """Nodes of each layer permuted and arc labels shuffled."""
    perms = [rng.sample(range(size), size) for size in bp.sizes]
    labels = rng.sample([a.label for a in bp.arcs], len(bp.arcs))
    arcs = [Arc(a.layer, perms[a.layer][a.src], perms[a.layer + 1][a.dst], lab)
            for a, lab in zip(bp.arcs, labels)]
    return LayeredBP(bp.sizes, arcs, source=perms[0][bp.source], sink=perms[-1][bp.sink])


def relabel_instance(inst: FamilyInstance, rng: random.Random) -> FamilyInstance:
    """The same family member with its vertices (variables, part
    elements) permuted; assignment values move with their labels."""
    n, family = inst.n, inst.family
    if family == "tdm":
        part = {p: _perm(n, rng) for p in "ABC"}
    else:
        pi = _perm(n, rng)

    def rename(label: str) -> str:
        head, *xs = label.split(":")
        if family == "tdm":
            if head == "X":
                a, b, c = map(int, xs)
                return xhyper(part["A"][a], part["B"][b], part["C"][c])
            p, i = xs[0][0], int(xs[0][1:])
            return yvert(f"{p}{part[p][i]}")
        if head == "Yc":
            return yclause(*(pi[abs(int(l))] * (1 if int(l) > 0 else -1) for l in xs))
        if head == "Yv":
            return yvert(pi[int(xs[0])])
        if len(xs) == 1:
            return xvar(pi[int(xs[0])])
        return xedge(pi[int(xs[0])], pi[int(xs[1])])

    return FamilyInstance(family, n, inst.field,
                          {rename(lab): v for lab, v in inst.assignment.items()})


# -- fields-small -------------------------------------------------------------

SMALL_FIELDS = (Field(2), Field(3), Field(2, 2), Field(5))
CORPUS_SEED, CORPUS_ASSIGN_SEED = 20260823, 99   # criterion 01's seeds
CORPUS_PAIRS, CORPUS_ASSIGNMENTS = 200, 20
CORPUS_MAX_SOURCE = {2: 8, 3: 8, 4: 8, 5: 7}
FAMILY_SEED = 404                                  # criterion 04's seed
FAMILY_SIZES = {"sat": (2, 5), "vc": (2, 8), "cis": (2, 6), "clow": (2, 6),
                "tdm": (1, 2)}


def _corpus_job(G, H, batches, state):
    _width, nice = treedecomp.treewidth_exact(G)
    compiled = compiler.compile_hom(G, nice, H)
    return [compiled.circuit.eval_batch(assign, F) for F, assign in batches]


def _corpus_reference(G, H, batches) -> list[np.ndarray]:
    homs = graphs.enumerate_homs(G, H)
    return [refs.hom_sum_bruteforce(sorted(G.edges), G.n, H.n, homs, assign, F.q)
            for F, assign in batches]


def _corpus_check(want, out) -> bool:
    return len(out) == len(want()) and all(
        np.array_equal(np.asarray(got), ref) for got, ref in zip(out, want()))


def _family_job(inst, state):
    return (intermediates.eval_fast(inst), intermediates.eval_definitional(inst))


def fields_small(seed: int) -> Workload:
    rng = random.Random(CORPUS_SEED)
    relabel = random.Random(seed)
    arng = random.Random(CORPUS_ASSIGN_SEED + seed)
    jobs, digest = [], hashlib.sha256()
    for i in range(CORPUS_PAIRS):
        n_h = rng.randint(2, 5)
        n_g = rng.randint(3, CORPUS_MAX_SOURCE[n_h])
        G, _ = randgen.random_partial_ktree(n_g, rng.randint(1, 3), rng)
        H = randgen.gnp(n_h, 0.25 + 0.6 * rng.random(), rng)
        G, H = relabel_graph(G, relabel), relabel_graph(H, relabel)
        labels = pair_labels(G, H)
        digest.update(repr((sorted(G.edges), sorted(H.edges))).encode())
        batches = []
        for F in SMALL_FIELDS:
            A = np.array([[arng.randrange(F.q) for _ in labels]
                          for _ in range(CORPUS_ASSIGNMENTS)], dtype=np.int64)
            digest.update(A.tobytes())
            batches.append((F, {lab: A[:, j] for j, lab in enumerate(labels)}))
        jobs.append(Job(f"corpus-{i}", "corpus",
                        partial(_corpus_job, G, H, batches),
                        partial(_corpus_check,
                                cache(partial(_corpus_reference, G, H, batches)))))
    # criterion 04's stream with its size ranges, but every (family, n,
    # field) taken once instead of n drawn at random: cis at n = 6 costs
    # ~50x cis at n = 5, so a drawn size mix would put seed luck, not code
    # speed, into wall_ref_s.
    frng = random.Random(FAMILY_SEED)
    for family, (lo, hi) in FAMILY_SIZES.items():
        for n in range(lo, hi + 1):
            for F in SMALL_FIELDS:
                inst = relabel_instance(randgen.random_instance(family, n, F, frng), relabel)
                digest.update(repr(sorted(inst.assignment.items())).encode())
                jobs.append(Job(f"family-{family}-{n}-q{F.q}", "family",
                                partial(_family_job, inst),
                                lambda out: out[0] == out[1]))
    return Workload("fields-small", jobs, digest.hexdigest())


# -- hom-batch ----------------------------------------------------------------

# (n, k, |H|, assignments per field, assignments per eval_batch call).
# Every call is at least 128 wide, so each evaluation job measures a wide
# batch.  The cheap n = 10 and n = 12 circuits get more assignments, cut
# into more chunks, which gives >= 100 jobs in a pass without repeating the
# ~0.3 s fixed per-call cost of the n = 20 circuit many times over.
HOM_SHAPES = ((10, 2, 4, 3072, 128), (12, 3, 4, 3072, 128),
              (16, 3, 5, 1024, 256), (20, 3, 6, 1024, 512))
HOM_FIELDS = (Field(5), Field(2, 2))
# The graphs are fixed and --seed draws the assignments: across graph seeds
# the n = 20 circuit ranges over 31k-40k gates, which would put graph luck
# into wall_ref_s.
HOM_GRAPH_SEED = 2026
HOM_TREEWIDTH_MAX_N = 12


def _hom_decomp(i, G, td, state):
    if G.n <= HOM_TREEWIDTH_MAX_N:
        _width, nice = treedecomp.treewidth_exact(G)
    else:
        nice = treedecomp.make_nice(td, G)
    state[i, "nice"] = nice
    return nice.width()


def _hom_compile(i, G, H, state):
    compiled = compiler.compile_hom(G, state[i, "nice"], H)
    state[i, "compiled"] = compiled
    return (compiled.gate_count, compiled.size_bound, compiled.width)


def _hom_text(i, state):
    c = state[i, "compiled"].circuit
    back = circuit.Circuit.from_text(c.to_text())
    state[i, "circuit"] = back
    return (len(back.gates), back.output, len(c.gates), c.output)


def _hom_eval(i, F, chunk, state):
    return state[i, "circuit"].eval_batch(chunk, F)


def _compile_ok(G, H, k, out) -> bool:
    gates, bound, width = out
    want = 2 * G.n * H.n ** (width + 1) * (2 * H.n + 2 * H.m)
    return width <= k and bound == want and gates <= bound


def hom_batch(seed: int) -> Workload:
    grng = random.Random(HOM_GRAPH_SEED)
    arng = np.random.default_rng(seed)
    jobs, digest = [], hashlib.sha256()
    for i, (n, k, h, count, width) in enumerate(HOM_SHAPES):
        G, td = randgen.random_partial_ktree(n, k, grng)
        H = graphs.Graph.complete(h)
        labels = pair_labels(G, H)
        jobs.append(Job(f"decomp-{n}", "decomp", partial(_hom_decomp, i, G, td),
                        lambda out, k=k: out <= k))
        jobs.append(Job(f"compile-{n}", "compile", partial(_hom_compile, i, G, H),
                        partial(_compile_ok, G, H, k)))
        jobs.append(Job(f"text-{n}", "text", partial(_hom_text, i),
                        lambda out: out[:2] == out[2:]))
        for F in HOM_FIELDS:
            A = arng.integers(0, F.q, size=(len(labels), count), dtype=np.int64)
            digest.update(A.tobytes())
            values = {lab: A[j] for j, lab in enumerate(labels)}
            want = cache(partial(refs.hom_sum_contraction, G.n, sorted(G.edges),
                                   sorted(H.edges), H.n, values, F.q))
            for lo in range(0, count, width):
                hi = lo + width
                chunk = {lab: arr[lo:hi] for lab, arr in values.items()}
                jobs.append(Job(
                    f"eval-{n}-q{F.q}-{lo}", "eval", partial(_hom_eval, i, F, chunk),
                    lambda out, want=want, lo=lo, hi=hi:
                        np.array_equal(np.asarray(out), want()[lo:hi])))
    return Workload("hom-batch", jobs, digest.hexdigest())


# -- coeff-count --------------------------------------------------------------

COEFF_SEED = 505                                  # criterion 05's seed
COEFF_PRIMES = (Field(2), Field(3), Field(5))
# Criterion 05's size ranges, each with its top kept; sizes are listed,
# not drawn, for the same reason as the criterion-04 stream above.  The
# top instances cost ~100x the rest (cis n = 6 is ~2 s), so each appears
# once or twice per pass.
COEFF_SIZES = {
    "sat": (3, 4, 5, 6, 7, 8, 3, 4, 5, 6, 3, 4, 5, 6, 7, 3, 4, 5, 3, 4),
    "vc": (2, 3, 4, 5, 6, 7, 8) * 2 + (2, 3, 4, 5, 6, 7),
    "cis": (2, 3, 4, 5, 6) + (2, 3, 4, 5) * 3 + (2, 3, 4),
    "clow": (3, 4, 5, 6, 7) + (3, 4, 5, 6) * 3 + (3, 4, 5),
    "tdm": (2,) * 20,
}


def _coeff_instance(family: str, n: int, slot: int, rng: random.Random,
                    relabel: random.Random):
    """One instance drawn the way criterion 05 draws it, with n given."""
    if family == "sat":
        return relabel_cnf(randgen.random_cnf(n, 1 + slot % 10, rng), relabel), None
    if family == "vc":
        G = randgen.gnp(n, 0.3 + 0.5 * rng.random(), rng)
        return relabel_graph(G, relabel), rng.randint(0, n)
    if family == "cis":
        G = randgen.gnp(n, 0.3 + 0.6 * rng.random(), rng)
        return relabel_graph(G, relabel), rng.randint(2, n)
    if family == "clow":
        return relabel_graph(randgen.gnp(n, 0.4 + 0.5 * rng.random(), rng), relabel), None
    h = randgen.random_hypergraph(n, rng.randint(0, 8), rng)
    return relabel_hypergraph(h, relabel), None


def _coeff_job(family, inst, F, k, state):
    return intermediates.count_via_coefficient(family, inst, F, k=k).value


def _coeff_reference(family, inst, F, k) -> int:
    p = F.p
    if family == "sat":
        return oracles.count_sat3(inst, p).modp
    if family == "vc":
        return oracles.count_vc(inst, k, p).modp
    if family == "cis":
        return oracles.count_clique(inst, k, p).modp
    if family == "clow":
        # the clow coefficient counts each Hamiltonian cycle in both directions
        return (2 * oracles.count_hc(inst, p).exact) % p
    return oracles.count_3dm(inst, p).modp


def coeff_count(seed: int) -> Workload:
    rng, relabel = random.Random(COEFF_SEED), random.Random(seed)
    jobs, digest = [], hashlib.sha256()
    for family, sizes in COEFF_SIZES.items():
        for slot, n in enumerate(sizes):
            inst, k = _coeff_instance(family, n, slot, rng, relabel)
            F = COEFF_PRIMES[slot % len(COEFF_PRIMES)]
            digest.update(repr((family, F.p, k, inst)).encode())
            want = cache(partial(_coeff_reference, family, inst, F, k))
            jobs.append(Job(f"{family}-{n}-p{F.p}-{slot}", family,
                            partial(_coeff_job, family, inst, F, k),
                            lambda out, want=want: out == want()))
    return Workload("coeff-count", jobs, digest.hexdigest())


# -- gadget-verify ------------------------------------------------------------

# Search seeds are fixed: one search takes 1.1-1.9 s depending on how soon
# its sampler hits rigid blocks, so seeding them from --seed would put
# sampling luck into wall_ref_s.  The triple found with seed 0 (the test
# suite's fixture) feeds every verification job of the pass.
GADGET_SEARCHES = (("triple", 0), ("pair", 0), ("triple", 1))
GADGET_MAX_N = 8
CYCLE_SEED = 606                                  # criterion 06's seed
# The counts put the median job among the gadget bijections and the 90th
# percentile among the depth-1 parse-tree jobs, not on a boundary.
CYCLE_JOBS, BIJECTION_JOBS = 40, 36
# sum sizes of the normal-form circuits: two sums make a depth-1 circuit,
# four a depth-2 one; the labels are drawn from --seed
PARSE_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3)) * 4 + ((2, 2, 2, 2),) * 2
FAULT_SHAPES = ((2, 2),) * 6 + ((2, 2, 2, 2),) * 2
LABEL_POOL = "abcdefgh"


def _search_job(need, s, state):
    found = gadget_search.search_gadgets(GADGET_MAX_N, need, s)
    if (need, s) == GADGET_SEARCHES[0]:
        state["triple"] = found
    return found


def _search_check(out) -> bool:
    blocks = [out.i0, out.i1, out.i2] if isinstance(out, GadgetTriple) else [out.i1, out.i2]
    return _certified(tuple((g.n, tuple(sorted(g.edges))) for g in blocks))


@cache
def _certified(blocks) -> bool:
    return refs.blocks_certified([refs.adjacency(n, edges) for n, edges in blocks])


def _cycle_job(bp, state):
    rep = verify.verify_cycle_identity(bp)
    return (rep.ok, rep.n_homs, rep.factor, rep.n_paths)


def _bijection_job(bp, state):
    rep = verify.verify_gadget_bijection(bp, state["triple"].pair())
    return (rep.ok, rep.n_homs)


def _parse_job(c, fault, state):
    rep = verify.verify_parse_hom_bijection(c, state["triple"], fault_inject=fault)
    return (rep.ok, rep.n_homs, rep.hom_monomials)


def normal_form_circuit(groups: list[list[str]]):
    """An alternating +/x circuit multiplying one sum per group.

    Two groups give mul(add, add); four give the depth-2 shape
    mul(add(mul(add, add)), add(mul(add, add))).
    """
    gates: list[Gate] = []

    def push(g: Gate) -> int:
        gates.append(g)
        return len(gates) - 1

    sums = [push(Gate("add", args=tuple(push(Gate("input", label=lab)) for lab in grp)))
            for grp in groups]
    while len(sums) > 2:
        prods = [push(Gate("mul", args=(sums[j], sums[j + 1])))
                 for j in range(0, len(sums), 2)]
        sums = [push(Gate("add", args=(m,))) for m in prods]
    out = push(Gate("mul", args=tuple(sums)))
    return circuit.Circuit(gates, out)


def _parse_check(groups, fault, out) -> bool:
    ok, n_homs, mons = out
    if fault:
        return ok is False
    want = refs.parse_monomials(groups)
    return ok is True and n_homs == sum(want.values()) and mons == want


def gadget_verify(seed: int) -> Workload:
    rng, relabel = random.Random(CYCLE_SEED), random.Random(seed)
    jobs, digest = [], hashlib.sha256()
    for need, s in GADGET_SEARCHES:
        jobs.append(Job(f"search-{need}-{s}", "search", partial(_search_job, need, s),
                        _search_check))
    for j in range(CYCLE_JOBS):
        ell = (3, 5, 7)[j % 3]
        bp = relabel_bp(randgen.random_layered_bp(ell, rng.randint(1, 3), rng), relabel)
        paths = cache(partial(refs.count_paths, bp.sizes, bp.arcs, bp.source, bp.sink))
        digest.update(repr((bp.sizes, bp.arcs)).encode())
        jobs.append(Job(f"cycle-{ell}-{j}", "cycle", partial(_cycle_job, bp),
                        lambda out, ell=ell, paths=paths:
                            out == (True, 2 * ell * paths(), 2 * ell, paths())))
    for j in range(BIJECTION_JOBS):
        ell = (3, 4, 5)[j % 3]
        bp = relabel_bp(randgen.random_layered_bp(ell, rng.randint(1, 2), rng), relabel)
        paths = cache(partial(refs.count_paths, bp.sizes, bp.arcs, bp.source, bp.sink))
        digest.update(repr((bp.sizes, bp.arcs)).encode())
        jobs.append(Job(f"gadget-bp-{ell}-{j}", "gadget_bp", partial(_bijection_job, bp),
                        lambda out, paths=paths: out == (True, paths())))
    for fault, shapes in ((False, PARSE_SHAPES), (True, FAULT_SHAPES)):
        for j, sizes in enumerate(shapes):
            groups = [[relabel.choice(LABEL_POOL) for _ in range(size)] for size in sizes]
            digest.update(repr((fault, groups)).encode())
            jobs.append(Job(f"parse-{'fault-' if fault else ''}{len(sizes)}sums-{j}",
                            "parse_fault" if fault else "parse_hom",
                            partial(_parse_job, normal_form_circuit(groups), fault),
                            partial(_parse_check, groups, fault)))
    return Workload("gadget-verify", jobs, digest.hexdigest())


WORKLOADS = {
    "fields-small": fields_small,
    "hom-batch": hom_batch,
    "coeff-count": coeff_count,
    "gadget-verify": gadget_verify,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
