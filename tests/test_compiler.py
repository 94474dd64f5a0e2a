from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from brute import SymbolicRing, eval_symbolic, hom_poly_oracle
from homforge.circuit import CONST, INPUT, Circuit, CircuitBuilder, Gate
from homforge.compiler import compile_hom
from homforge.graphs import Graph, enumerate_homs
from homforge.labels import yedge, zvar
from homforge.randgen import random_assignment, random_partial_ktree, random_path_decomposed
from homforge.rings import Field
from homforge.treedecomp import TreeDecompInput, make_nice, treewidth_exact, validate_nice


FIELDS = (Field(2), Field(3), Field(2, 2), Field(5))


def all_labels(G: Graph, H: Graph) -> list[str]:
    labs = [zvar(u, a) for u in G.vertices() for a in H.vertices()]
    labs += [yedge(a, b) for (a, b) in sorted(H.edges)]
    return labs


def project(c: Circuit, sigma: dict[str, int | str]) -> Circuit:
    """Substitute inputs per ``sigma`` (0, 1, or a replacement label).

    ``sigma`` must cover every input label; gate structure is unchanged.
    """
    labels = c.input_labels()
    missing = [lab for lab in labels if lab not in sigma]
    if missing:
        raise ValueError(f"projection must cover all inputs; missing {missing}")
    new_gates = []
    for g in c.gates:
        if g.op == INPUT:
            val = sigma[g.label]
            if val in (0, 1) or val in ("0", "1"):
                new_gates.append(Gate(CONST, value=int(val)))
            elif isinstance(val, str) and val and not val.isdigit():
                new_gates.append(replace(g, label=val))
            else:
                raise ValueError(
                    f"projection value for {g.label!r} must be 0, 1, or a label")
        else:
            new_gates.append(g)
    return Circuit(tuple(new_gates), c.output)


def check_pair(G: Graph, H: Graph, rng: random.Random, rounds: int = 8):
    _, d = treewidth_exact(G)
    compiled = compile_hom(G, d, H)
    assert compiled.gate_count <= compiled.size_bound
    labs = all_labels(G, H)
    for F in FIELDS:
        for _ in range(rounds):
            a = {lab: rng.randrange(F.q) for lab in labs}
            got = compiled.circuit.eval(a, F)
            want = hom_poly_oracle(G, H, a, F)
            assert got == want
    return compiled


def test_small_pairs_exact():
    rng = random.Random(31)
    cases = [
        (Graph.path(3), Graph.complete(2)),
        (Graph.cycle(4), Graph.complete(3)),
        (Graph.cycle(5), Graph.cycle(5)),
        (Graph.complete(3), Graph.complete(4)),
        (Graph.empty(3), Graph.complete(2)),
        (Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)]),
         Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])),
    ]
    for G, H in cases:
        check_pair(G, H, rng)


def reachable(c: Circuit) -> set[int]:
    seen, todo = set(), [c.output]
    while todo:
        gid = todo.pop()
        if gid not in seen:
            seen.add(gid)
            todo.extend(c.gates[gid].args)
    return seen


def pruning_cases():
    rng = random.Random(44)
    for _ in range(6):
        G, td, end = random_path_decomposed(rng.randint(3, 7), rng.randint(1, 2), rng)
        yield G, make_nice(td, G, root=end), Graph.complete(rng.randint(2, 4))
    tree = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (4, 5)])
    branching = TreeDecompInput(bags={0: {1, 2}, 1: {1, 3}, 2: {1, 4}, 3: {4, 5}},
                                edges=[(0, 1), (0, 2), (2, 3)])
    yield tree, make_nice(branching, tree), Graph.cycle(5)
    G = Graph.cycle(6)
    yield G, treewidth_exact(G)[1], Graph.complete(3)


def pinned_cases():
    """pruning_cases() and the four hom-batch benchmark pairs, n = 10..20."""
    yield from pruning_cases()
    rng = random.Random(2026)
    for n, k, h in ((10, 2, 4), (12, 3, 4), (16, 3, 5), (20, 3, 6)):
        G, td = random_partial_ktree(n, k, rng)
        yield G, treewidth_exact(G)[1] if n <= 12 else make_nice(td, G), Graph.complete(h)


# sha256 of the to_text of every pinned_cases() circuit, in order, as the
# compiler of the Gate-object circuit wrote them
PINNED_TEXT_SHA256 = "b0f06efad11528c4524c12e2fbe2bc72973a5578d53dd362f02201ad179e4bf6"


def test_compiled_text_is_pinned_and_round_trips():
    digest = hashlib.sha256()
    rng = np.random.default_rng(26)
    for G, d, H in pinned_cases():
        c = compile_hom(G, d, H).circuit
        text = c.to_text()
        digest.update(text.encode())
        back = Circuit.from_text(text)
        assert back.to_text() == text
        for F in FIELDS:
            batch = {lab: rng.integers(0, F.q, size=4) for lab in all_labels(G, H)}
            assert np.array_equal(back.eval_batch(batch, F), c.eval_batch(batch, F))
            a = {lab: int(v[0]) for lab, v in batch.items()}
            assert back.eval(a, F) == c.eval(a, F) == back.eval_batch(batch, F)[0]
    assert digest.hexdigest() == PINNED_TEXT_SHA256


def test_compiled_gates_are_all_live(monkeypatch):
    compiled = [(G, H, compile_hom(G, d, H)) for G, d, H in pruning_cases()]
    for _, _, comp in compiled:
        assert reachable(comp.circuit) == set(range(len(comp.circuit.gates)))
    # the same compilations without pruning in CircuitBuilder.build
    monkeypatch.setattr(CircuitBuilder, "build", lambda self, out: Circuit.from_arrays(
        self.ops, self.keys, self.offsets, self.args, out))
    rng = random.Random(5)
    for (G, d, H), (_, _, pruned) in zip(pruning_cases(), compiled):
        full = compile_hom(G, d, H)
        assert pruned.gate_count <= full.gate_count
        assert pruned.wire_count <= full.wire_count
        assert pruned.skew or not full.skew
        for F in FIELDS:
            a = {lab: rng.randrange(F.q) for lab in all_labels(G, H)}
            assert pruned.circuit.eval(a, F) == full.circuit.eval(a, F)


def test_eval_batch_matches_eval_on_compiled_circuits():
    rng = np.random.default_rng(8)
    for G, d, H in pruning_cases():
        c = compile_hom(G, d, H).circuit
        labs = all_labels(G, H)
        for F in FIELDS:
            for width in ((), (1,), (25,)):
                batch = {lab: rng.integers(0, F.q, size=width) for lab in labs}
                out = np.asarray(c.eval_batch(batch, F))
                assert out.shape == width
                for j in np.ndindex(width):
                    a = {lab: int(arr[j]) for lab, arr in batch.items()}
                    assert int(out[j]) == c.eval(a, F)


def test_hom_count_via_all_ones():
    # with every variable set to 1 the circuit value is |Hom(G, H)| mod p
    for G, H in [(Graph.cycle(4), Graph.complete(3)),
                 (Graph.path(4), Graph.cycle(4))]:
        _, d = treewidth_exact(G)
        compiled = compile_hom(G, d, H)
        n_homs = len(enumerate_homs(G, H))
        for F in FIELDS:
            ones = {lab: F.one for lab in all_labels(G, H)}
            assert compiled.circuit.eval(ones, F) == F.from_int(n_homs)


def test_empty_source_graph():
    G = Graph.empty(2)
    H = Graph.complete(3)
    _, d = treewidth_exact(G)
    compiled = compile_hom(G, d, H)
    F = Field(5)
    ones = {lab: F.one for lab in all_labels(G, H)}
    # every map is a hom: 3^2 = 9
    assert compiled.circuit.eval(ones, F) == F.from_int(9)


def test_no_hom_gives_zero_polynomial():
    # K4 has no homomorphism into K3
    G, H = Graph.complete(4), Graph.complete(3)
    _, d = treewidth_exact(G)
    compiled = compile_hom(G, d, H)
    rng = random.Random(6)
    F = Field(7)
    for _ in range(20):
        a = {lab: rng.randrange(7) for lab in all_labels(G, H)}
        assert compiled.circuit.eval(a, F) == F.zero


def test_compiled_circuit_is_constant_free():
    G, H = Graph.cycle(5), Graph.complete(3)
    _, d = treewidth_exact(G)
    compiled = compile_hom(G, d, H)
    assert compiled.circuit.constants_used() <= {0, 1}


def test_join_free_is_skew():
    rng = random.Random(12)
    for _ in range(15):
        G, td, end = random_path_decomposed(rng.randint(2, 8),
                                            rng.randint(1, 3), rng)
        nice = make_nice(td, G, root=end)
        assert validate_nice(nice, G) == []
        assert not nice.has_join()
        H = Graph.complete(rng.randint(2, 4))
        compiled = compile_hom(G, nice, H)
        assert compiled.skew
        assert compiled.circuit.is_skew()


def test_join_vs_path_same_polynomial():
    # a star compiled from a branching decomposition and from a path-shaped
    # one computes the same polynomial
    G = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    branching = TreeDecompInput(
        bags={0: {1, 2}, 1: {1, 3}, 2: {1, 4}},
        edges=[(0, 1), (0, 2)])
    nice_branch = make_nice(branching, G)
    assert nice_branch.has_join()
    _, nice_exact = treewidth_exact(G)
    H = Graph.cycle(4)
    c1 = compile_hom(G, nice_branch, H)
    c2 = compile_hom(G, nice_exact, H)
    rng = random.Random(3)
    for F in FIELDS:
        for _ in range(10):
            a = {lab: rng.randrange(F.q) for lab in all_labels(G, H)}
            assert c1.circuit.eval(a, F) == c2.circuit.eval(a, F)


def test_nested_joins_give_the_exact_polynomial():
    # compared over the integers: a factor charged twice (Z^2) would pass for
    # Z at every point over F_2
    G = Graph.from_edges(6, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6)])
    td = TreeDecompInput(bags={0: {1, 2}, 1: {1, 3}, 2: {1, 4}, 3: {4, 5}, 4: {4, 6}},
                         edges=[(0, 1), (0, 2), (2, 3), (2, 4)])
    d = make_nice(td, G)
    inner, outer = [t for t in d.postorder() if d.nodes[t].kind == "join"]
    below, todo = set(), [outer]
    while todo:
        t = todo.pop()
        below.add(t)
        todo.extend(d.nodes[t].children)
    assert inner in below
    ring = SymbolicRing()
    for H in (Graph.complete(3), Graph.cycle(5), Graph.path(3)):
        got = eval_symbolic(compile_hom(G, d, H).circuit)
        want = hom_poly_oracle(G, H, {lab: ring.var(lab) for lab in all_labels(G, H)}, ring)
        assert got == want and len(got) == len(enumerate_homs(G, H))


def test_size_bound_formula():
    G, H = Graph.cycle(6), Graph.complete(4)
    _, d = treewidth_exact(G)
    compiled = compile_hom(G, d, H)
    tau = d.width()
    bound = 2 * G.n * H.n ** (tau + 1) * (2 * H.n + 2 * H.m)
    assert compiled.size_bound == bound
    assert compiled.gate_count <= bound


def test_specialize_z_counts_by_edges_only():
    # every Z input set to the constant 1, the Ye inputs left alone
    G, H = Graph.cycle(4), Graph.complete(3)
    _, d = treewidth_exact(G)
    compiled = compile_hom(G, d, H).circuit
    c = project(compiled, {lab: 1 if lab.startswith("Z:") else lab
                           for lab in compiled.input_labels()})
    assert all(lab.startswith("Ye:") for lab in c.input_labels())
    F = Field(5)
    ones = {lab: F.one for lab in c.input_labels()}
    assert c.eval(ones, F) == F.from_int(len(enumerate_homs(G, H)))


def test_project_substitutes_and_validates():
    G, H = Graph.path(3), Graph.complete(2)
    _, d = treewidth_exact(G)
    compiled = compile_hom(G, d, H)
    c = compiled.circuit
    sigma = {}
    for lab in c.input_labels():
        sigma[lab] = "1" if lab.startswith("Z:") else "w"
    proj = project(c, sigma)
    assert set(proj.input_labels()) == {"w"}
    F = Field(3)
    # duplicated edge variable: f = sum over 2 homs of w^2
    assert proj.eval({"w": 1}, F) == F.from_int(2)
    with pytest.raises(ValueError):
        project(c, {lab: "2" for lab in c.input_labels()})


def test_rejects_mismatched_decomposition():
    G = Graph.cycle(5)
    _, d = treewidth_exact(Graph.cycle(4))
    with pytest.raises(ValueError):
        compile_hom(G, d, Graph.complete(3))
