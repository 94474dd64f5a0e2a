"""Acceptance suite: the ten headline guarantees, one test per criterion.

Each test funnels its verdict through ``acceptance_log`` so the run ends
with one PASS/FAIL line per criterion in the terminal summary.  Oracles
here are deliberately naive and independent of the code under test:
direct summation over enumerated homomorphisms, exhaustive counting,
and hand-rolled backtracking.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from brute import circuit_eval, count_homs, hom_poly_oracle
from homforge.compiler import compile_hom
from homforge.gadget_search import search_gadgets
from homforge.graphs import Graph, enumerate_homs
from homforge.intermediates import (
    count_via_coefficient,
    eval_definitional,
    eval_fast,
)
from homforge.labels import xedge, yedge, yvert, zvar
from homforge.oracles import (
    count_3dm,
    count_clique,
    count_clows,
    count_hc,
    count_sat3,
    count_vc,
)
from homforge.randgen import (
    gnp,
    random_cnf,
    random_hypergraph,
    random_instance,
    random_layered_bp,
    random_partial_ktree,
    random_path_decomposed,
)
from homforge.rings import Field
from homforge.treedecomp import TreeDecompInput, make_nice, treewidth_exact
from homforge.verify import (
    verify_cycle_identity,
    verify_gadget_bijection,
    verify_parse_hom_bijection,
)
from test_verify import (
    four_layer_bp,
    product_of_sums,
    quad_circuit,
    single_path_bp,
    two_path_bp,
)

FIELDS = (Field(2), Field(3), Field(2, 2), Field(5))


@contextmanager
def criterion(log, name):
    try:
        yield
    except BaseException:
        log.append(f"{name}: FAIL")
        raise
    else:
        log.append(f"{name}: PASS")


# -- shared corpus for criteria 1 and 2 ---------------------------------------

_PAIR_CACHE: list[tuple] = []

# joint caps keep the map space |V(H)|^|V(G)| desk-sized so the brute
# oracle stays fast; both stated bounds (|V(G)| <= 8, |V(H)| <= 5) are hit
_MAX_SOURCE = {2: 8, 3: 8, 4: 8, 5: 7}


def compiled_pairs() -> list[tuple]:
    """200 random (G, H) pairs with exact decompositions, compiled once."""
    if _PAIR_CACHE:
        return _PAIR_CACHE
    rng = random.Random(20260823)
    while len(_PAIR_CACHE) < 200:
        n_h = rng.randint(2, 5)
        n_g = rng.randint(3, _MAX_SOURCE[n_h])
        G, _ = random_partial_ktree(n_g, rng.randint(1, 3), rng)
        width, nice = treewidth_exact(G)
        assert width <= 3
        H = gnp(n_h, 0.25 + 0.6 * rng.random(), rng)
        compiled = compile_hom(G, nice, H)
        _PAIR_CACHE.append((G, H, width, compiled))
    return _PAIR_CACHE


def _pair_labels(G: Graph, H: Graph) -> list[str]:
    return ([zvar(u, a) for u in G.vertices() for a in H.vertices()]
            + [yedge(a, b) for (a, b) in H.edges])


def _factor_matrix(G: Graph, homs, var_ix) -> np.ndarray:
    """Row r lists the variable indices multiplied by homomorphism r."""
    M = np.zeros((len(homs), G.n + G.m), dtype=np.int32)
    for r, phi in enumerate(homs):
        c = 0
        for u in G.vertices():
            M[r, c] = var_ix[zvar(u, phi[u - 1])]
            c += 1
        for (u, v) in G.edges:
            M[r, c] = var_ix[yedge(phi[u - 1], phi[v - 1])]
            c += 1
    return M


def _f4_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F_4 product written out here, sharing nothing with ``Field``.

    Element c0 + 2*c1 is c0 + c1*x in F_2[x]/(x^2 + x + 1); addition is XOR.
    (a0 + a1 x)(b0 + b1 x) = a0 b0 + (a0 b1 + a1 b0) x + a1 b1 x^2, and
    x^2 = x + 1.
    """
    a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
    c0 = (a0 & b0) ^ (a1 & b1)
    c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
    return c0 | c1 << 1


def _oracle_eval(M: np.ndarray, A: np.ndarray, F: Field) -> np.ndarray:
    """Brute-force hom sum for a batch of assignments (rows of A)."""
    batch = A.shape[0]
    if M.shape[0] == 0:
        return np.zeros(batch, dtype=np.int64)
    acc = np.ones((batch, M.shape[0]), dtype=np.int64)
    if F.k == 1:
        for j in range(M.shape[1]):
            acc = acc * A[:, M[:, j]] % F.p
        return acc.sum(axis=1) % F.p
    assert F.q == 4 and F.modulus == (1, 1, 1)
    for j in range(M.shape[1]):
        acc = _f4_mul(acc, A[:, M[:, j]])
    return np.bitwise_xor.reduce(acc, axis=1)


def test_criterion_01_compiler_matches_brute_force(acceptance_log):
    name = ("criterion 01 compiler correctness "
            "(200 pairs x 4 fields x 20 assignments, <= 120 s)")
    with criterion(acceptance_log, name):
        t0 = time.time()
        rng = random.Random(99)
        for (G, H, _width, compiled) in compiled_pairs():
            labels = _pair_labels(G, H)
            var_ix = {lab: i for i, lab in enumerate(labels)}
            homs = enumerate_homs(G, H)
            M = _factor_matrix(G, homs, var_ix)
            for F in FIELDS:
                A = np.array([[rng.randrange(F.q) for _ in labels]
                              for _ in range(20)], dtype=np.int64)
                want = _oracle_eval(M, A, F)
                assignment = {lab: A[:, j] for j, lab in enumerate(labels)}
                got = compiled.circuit.eval_batch(assignment, F)
                assert np.array_equal(got, want), (G.edges, H.edges, F.q)
        assert time.time() - t0 <= 120.0


# sha256 of the to_text of every compiled_pairs() circuit, in order, as the
# dict-table compiler wrote them
CORPUS_TEXT_SHA256 = "741a5d2a970ccf711c4987a317ad6d78ad5bc1132b3a92d30fadf638e066f18e"


def test_criterion_01_corpus_text_is_pinned():
    digest = hashlib.sha256()
    for (_G, _H, _width, compiled) in compiled_pairs():
        digest.update(compiled.circuit.to_text().encode())
    assert digest.hexdigest() == CORPUS_TEXT_SHA256


def test_criterion_02_size_bound_zero_violations(acceptance_log):
    name = "criterion 02 gate-count bound (zero violations over 200 circuits)"
    with criterion(acceptance_log, name):
        records = compiled_pairs()
        assert len(records) >= 200
        for (G, H, width, compiled) in records:
            bound = 2 * G.n * H.n ** (width + 1) * (2 * H.n + 2 * H.m)
            assert compiled.size_bound == bound
            assert compiled.gate_count <= bound


def test_criterion_03_skewness(acceptance_log):
    name = ("criterion 03 skewness (50 join-free compilations skew; "
            "join-bearing cross-eval agrees)")
    with criterion(acceptance_log, name):
        rng = random.Random(303)
        for _ in range(50):
            n, w = rng.randint(3, 9), rng.randint(1, 3)
            G, td, end = random_path_decomposed(n, w, rng)
            nice = make_nice(td, G, root=end)
            assert not nice.has_join()
            H = gnp(rng.randint(2, 4), 0.3 + 0.5 * rng.random(), rng)
            compiled = compile_hom(G, nice, H)
            assert compiled.skew
            assert compiled.circuit.is_skew()

        # one join-bearing decomposition of the same polynomial
        star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
        branching = TreeDecompInput(
            {0: frozenset({1, 2}), 1: frozenset({1, 3}), 2: frozenset({1, 4})},
            [(0, 1), (0, 2)])
        join_nice = make_nice(branching, star)
        assert join_nice.has_join()
        H = Graph.complete(3)
        with_join = compile_hom(star, join_nice, H)
        _w, exact_nice = treewidth_exact(star)
        skew_version = compile_hom(star, exact_nice, H)
        labels = _pair_labels(star, H)
        for F in FIELDS:
            for _ in range(10):
                a = {lab: rng.randrange(F.q) for lab in labels}
                lhs = circuit_eval(with_join.circuit, a, F)
                assert lhs == circuit_eval(skew_version.circuit, a, F)
                assert lhs == hom_poly_oracle(star, H, a, F)


def test_criterion_04_fast_vs_definitional(acceptance_log):
    name = ("criterion 04 fast vs definitional evaluation "
            "(5 families x 4 fields x 100 assignments, <= 120 s)")
    sizes = {"sat": (2, 5), "vc": (2, 8), "cis": (2, 6),
             "clow": (2, 6), "tdm": (1, 2)}
    with criterion(acceptance_log, name):
        t0 = time.time()
        rng = random.Random(404)
        for family, (lo, hi) in sizes.items():
            for F in FIELDS:
                for _ in range(100):
                    inst = random_instance(family, rng.randint(lo, hi), F, rng)
                    assert eval_fast(inst) == eval_definitional(inst), (
                        family, inst.n, F.q, inst.assignment)
        assert time.time() - t0 <= 120.0


def test_criterion_05_coefficient_counting(acceptance_log):
    name = ("criterion 05 coefficient counting vs brute-force oracles "
            "(50 instances x 5 families, p in {2,3,5})")
    with criterion(acceptance_log, name):
        rng = random.Random(505)
        primes = (Field(2), Field(3), Field(5))
        for _ in range(50):
            cnf = random_cnf(rng.randint(3, 8), rng.randint(1, 10), rng)
            for F in primes:
                cc = count_via_coefficient("sat", cnf, F)
                assert cc.value == count_sat3(cnf, F.p).modp
        for _ in range(50):
            n = rng.randint(2, 8)
            G = gnp(n, 0.3 + 0.5 * rng.random(), rng)
            k = rng.randint(0, n)
            for F in primes:
                cc = count_via_coefficient("vc", G, F, k=k)
                assert cc.value == count_vc(G, k, F.p).modp
        for _ in range(50):
            n = rng.randint(2, 6)
            G = gnp(n, 0.3 + 0.6 * rng.random(), rng)
            k = rng.randint(2, n)
            for F in primes:
                cc = count_via_coefficient("cis", G, F, k=k)
                assert cc.value == count_clique(G, k, F.p).modp
        for _ in range(50):
            # pinned convention: the coefficient is twice the number of
            # Hamiltonian cycles; degenerate below 3 vertices, so n >= 3
            n = rng.randint(3, 7)
            G = gnp(n, 0.4 + 0.5 * rng.random(), rng)
            for F in primes:
                cc = count_via_coefficient("clow", G, F)
                assert cc.value == (2 * count_hc(G, F.p).exact) % F.p
        for _ in range(50):
            h = random_hypergraph(2, rng.randint(0, 8), rng)
            for F in primes:
                cc = count_via_coefficient("tdm", h, F)
                assert cc.value == count_3dm(h, F.p).modp


def test_criterion_06_cycle_identity(acceptance_log):
    name = ("criterion 06 cycle identity f = (2l)*y*g "
            "(20 random programs, l in {3,5,7})")
    with criterion(acceptance_log, name):
        rng = random.Random(606)
        ells = [3, 5, 7] + [rng.choice((3, 5, 7)) for _ in range(17)]
        for ell in ells:
            bp = random_layered_bp(ell, rng.randint(1, 3), rng)
            rep = verify_cycle_identity(bp)
            assert rep.ok
            assert rep.identity_holds and rep.every_hom_uses_y_once
            assert rep.n_homs == 2 * ell * rep.n_paths
            assert rep.factor == 2 * ell
            if ell != 5:
                # 2l is invertible mod 5, so scaling recovers y*g
                assert rep.recovery[5] is True
            else:
                # 2l = 10 has no inverse mod 5; noted, not silently skipped
                assert 5 not in rep.recovery
                assert any("no inverse" in note for note in rep.field_notes)


def test_criterion_07_gadget_bijection(acceptance_log, certified_pair):
    name = ("criterion 07 path-gadget bijection Hom(G_l, B_l) <-> s-t paths "
            "(4 programs, <= 10 min)")
    with criterion(acceptance_log, name):
        t0 = time.time()
        rng = random.Random(707)
        programs = [single_path_bp(3), two_path_bp(), four_layer_bp(),
                    random_layered_bp(4, 2, rng)]
        for bp in programs:
            rep = verify_gadget_bijection(bp, certified_pair)
            assert rep.ok
            assert rep.counts_match and rep.n_homs == bp.count_st_paths()
            assert rep.p1_ok and rep.p2_ok and rep.endpoints_ok
            assert rep.monomials_match
        assert time.time() - t0 <= 600.0


def test_criterion_08_parse_hom_bijection(acceptance_log, certified_triple):
    name = ("criterion 08 parse-tree/hom bijection (4 circuits; "
            "fault injection detected)")
    with criterion(acceptance_log, name):
        fixtures = [product_of_sums([["x", "y"], ["u", "v"]]),
                    product_of_sums([["x", "y", "z"], ["u", "v"]]),
                    product_of_sums([["x", "y"], ["x", "y"]]),
                    quad_circuit()]
        for c in fixtures:
            rep = verify_parse_hom_bijection(c, certified_triple)
            assert rep.ok
            assert rep.counts_match and rep.monomials_match
            assert rep.hom_monomials == rep.parse_monomials
        bad = verify_parse_hom_bijection(quad_circuit(), certified_triple,
                                         fault_inject=True)
        assert not bad.ok


# -- criterion 9: hand-rolled re-verification ---------------------------------


def _bfs_reaches_all(G: Graph) -> bool:
    verts = sorted(G.vertices())
    seen = {verts[0]}
    frontier = [verts[0]]
    while frontier:
        v = frontier.pop()
        for w in G.adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == G.n


def _two_colorable(G: Graph) -> bool:
    color: dict[int, int] = {}
    for start in sorted(G.vertices()):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in G.adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def test_criterion_09_gadget_certification(acceptance_log, certified_triple):
    name = ("criterion 09 gadget search + independent re-verification "
            "(rigid, incomparable, connected, non-bipartite)")
    with criterion(acceptance_log, name):
        pair = search_gadgets(8, "pair", seed=0)
        blocks = [pair.i1, pair.i2,
                  certified_triple.i0, certified_triple.i1, certified_triple.i2]
        for g in blocks:
            assert count_homs(g, g, cap=2) == 1      # rigidity
            assert _bfs_reaches_all(g)                   # connectivity
            assert not _two_colorable(g)                 # non-bipartiteness
        for group in ([pair.i1, pair.i2],
                      [certified_triple.i0, certified_triple.i1,
                       certified_triple.i2]):
            for a in group:
                for b in group:
                    if a is not b:
                        assert count_homs(a, b, cap=1) == 0


def test_criterion_10_clow_matrix_identity(acceptance_log):
    name = ("criterion 10 fast walk count vs naive closed-walk enumeration "
            "(50 weighted cases, n <= 6)")
    with criterion(acceptance_log, name):
        rng = random.Random(1010)
        for _ in range(50):
            n = rng.randint(2, 6)
            F = FIELDS[rng.randrange(len(FIELDS))]
            inst = random_instance("clow", n, F, rng)
            fast = eval_fast(inst)
            assert fast == eval_definitional(inst), (n, F.q, inst.assignment)
            # third route: count walks on the subgraph of live edges
            alive = [(u, v) for (u, v) in combinations(range(1, n + 1), 2)
                     if inst.assignment[xedge(u, v)] != 0
                     and inst.assignment[yvert(u)] != 0
                     and inst.assignment[yvert(v)] != 0]
            cnt = count_clows(Graph.from_edges(n, alive), n, F.p)
            assert fast == F.from_int(cnt.exact)
