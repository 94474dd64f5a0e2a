from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from brute import (SymbolicRing, circuit_eval, ct_to_text_reference, eval_symbolic,
                   hom_poly_oracle, input_labels)
from homforge.circuit import CONST, INPUT, Circuit, CircuitBuilder, Gate
from homforge.compiler import InvalidDecomposition, compile_hom
from homforge.graphs import Graph, enumerate_homs
from homforge.labels import yedge, zvar
from homforge.randgen import random_assignment, random_partial_ktree, random_path_decomposed
from homforge.rings import Field
from homforge.treedecomp import (DecompNode, NiceTreeDecomp, TreeDecompInput, make_nice,
                                 treewidth_exact, validate_nice)


FIELDS = (Field(2), Field(3), Field(2, 2), Field(5))


@pytest.fixture(autouse=True)
def text_matches_the_line_writer(monkeypatch):
    """Every circuit this module compiles has the text the line-at-a-time
    writer ``ct_to_text_reference`` gives it."""
    real = compile_hom

    def checked(*args, **kwargs):
        compiled = real(*args, **kwargs)
        assert compiled.circuit.to_text() == ct_to_text_reference(compiled.circuit)
        return compiled

    monkeypatch.setitem(globals(), "compile_hom", checked)


def all_labels(G: Graph, H: Graph) -> list[str]:
    labs = [zvar(u, a) for u in G.vertices() for a in H.vertices()]
    labs += [yedge(a, b) for (a, b) in sorted(H.edges)]
    return labs


def project(c: Circuit, sigma: dict[str, int | str]) -> Circuit:
    """Substitute inputs per ``sigma`` (0, 1, or a replacement label).

    ``sigma`` must cover every input label; gate structure is unchanged.
    """
    labels = input_labels(c)
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
            got = circuit_eval(compiled.circuit, a, F)
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
            assert circuit_eval(back, a, F) == circuit_eval(c, a, F) == back.eval_batch(batch, F)[0]
    assert digest.hexdigest() == PINNED_TEXT_SHA256


def _text(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


# A Forget node's folds, each pinned by its exact compiled text as the
# dict-table compiler wrote it: (source, its nice decomposition, target, text)
FORGET_FOLDS = {
    # the term Z:3:3 * Ye:2:3 * 0 is the first to use Z:3:3, so Z:3:3 comes
    # before the mul gate of the term Z:3:2 * Ye:2:3 * Z:4:3 * Ye:2:3
    "zero-child-term-makes-its-inputs": (
        Graph.cycle(4),
        _text("bag 0 leaf 1", "bag 1 intro:3 1 3", "bag 2 intro:4 1 3 4",
              "bag 3 forget:4 1 3", "bag 4 intro:2 1 2 3", "bag 5 forget:3 1 2",
              "bag 6 forget:2 1", "bag 7 forget:1", "child 1 0", "child 2 1",
              "child 3 2", "child 4 3", "child 5 4", "child 6 5", "child 7 6", "root 7"),
        Graph.from_edges(3, [(2, 3)]),
        _text("gate 0 input Z:4:3", "gate 1 input Ye:2:3", "gate 2 mul 0 1 1",
              "gate 3 input Z:4:2", "gate 4 mul 3 1 1", "gate 5 input Z:3:2",
              "gate 6 input Z:3:3", "gate 7 mul 5 1 2", "gate 8 mul 6 1 4",
              "gate 9 input Z:2:3", "gate 10 mul 9 1 7", "gate 11 input Z:2:2",
              "gate 12 mul 11 1 8", "gate 13 input Z:1:2", "gate 14 mul 13 10",
              "gate 15 input Z:1:3", "gate 16 mul 15 12", "gate 17 add 14 16",
              "output 17")),
    # no bag neighbour and a leaf's 1: each term is a bare Z input
    "lone-z-factor-is-the-term": (
        Graph.empty(1),
        _text("bag 0 leaf 1", "bag 1 forget:1", "child 1 0", "root 1"),
        Graph.complete(2),
        _text("gate 0 input Z:1:1", "gate 1 input Z:1:2", "gate 2 add 0 1", "output 2")),
    # vertex 2 mapped to an end of the path 1-2-3 leaves vertex 1 one image:
    # that row's single term (gates 4 and 6) is read with no add gate
    "one-live-term-needs-no-add": (
        Graph.path(2),
        _text("bag 0 leaf 1", "bag 1 intro:2 1 2", "bag 2 forget:1 2", "bag 3 forget:2",
              "child 1 0", "child 2 1", "child 3 2", "root 3"),
        Graph.path(3),
        _text("gate 0 input Z:1:1", "gate 1 input Ye:1:2", "gate 2 mul 0 1",
              "gate 3 input Z:1:2", "gate 4 mul 3 1", "gate 5 input Ye:2:3",
              "gate 6 mul 3 5", "gate 7 input Z:1:3", "gate 8 mul 7 5", "gate 9 add 2 8",
              "gate 10 input Z:2:1", "gate 11 mul 10 4", "gate 12 input Z:2:2",
              "gate 13 mul 12 9", "gate 14 input Z:2:3", "gate 15 mul 14 6",
              "gate 16 add 11 13 15", "output 16")),
}


@pytest.mark.parametrize("case", FORGET_FOLDS)
def test_forget_folds_are_pinned(case):
    G, td, H, text = FORGET_FOLDS[case]
    assert compile_hom(G, NiceTreeDecomp.from_text(td), H).circuit.to_text() == text


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
            assert circuit_eval(pruned.circuit, a, F) == circuit_eval(full.circuit, a, F)


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
                    assert int(out[j]) == circuit_eval(c, a, F)


def test_hom_count_via_all_ones():
    # with every variable set to 1 the circuit value is |Hom(G, H)| mod p
    for G, H in [(Graph.cycle(4), Graph.complete(3)),
                 (Graph.path(4), Graph.cycle(4))]:
        _, d = treewidth_exact(G)
        compiled = compile_hom(G, d, H)
        n_homs = len(enumerate_homs(G, H))
        for F in FIELDS:
            ones = {lab: F.one for lab in all_labels(G, H)}
            assert circuit_eval(compiled.circuit, ones, F) == F.from_int(n_homs)


def test_empty_source_graph():
    G = Graph.empty(2)
    H = Graph.complete(3)
    _, d = treewidth_exact(G)
    compiled = compile_hom(G, d, H)
    F = Field(5)
    ones = {lab: F.one for lab in all_labels(G, H)}
    # every map is a hom: 3^2 = 9
    assert circuit_eval(compiled.circuit, ones, F) == F.from_int(9)


def test_no_hom_gives_zero_polynomial():
    # K4 has no homomorphism into K3
    G, H = Graph.complete(4), Graph.complete(3)
    _, d = treewidth_exact(G)
    compiled = compile_hom(G, d, H)
    rng = random.Random(6)
    F = Field(7)
    for _ in range(20):
        a = {lab: rng.randrange(7) for lab in all_labels(G, H)}
        assert circuit_eval(compiled.circuit, a, F) == F.zero


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
            assert circuit_eval(c1.circuit, a, F) == circuit_eval(c2.circuit, a, F)


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
                           for lab in input_labels(compiled)})
    assert all(lab.startswith("Ye:") for lab in input_labels(c))
    F = Field(5)
    ones = {lab: F.one for lab in input_labels(c)}
    assert circuit_eval(c, ones, F) == F.from_int(len(enumerate_homs(G, H)))


def test_project_substitutes_and_validates():
    G, H = Graph.path(3), Graph.complete(2)
    _, d = treewidth_exact(G)
    compiled = compile_hom(G, d, H)
    c = compiled.circuit
    sigma = {}
    for lab in input_labels(c):
        sigma[lab] = "1" if lab.startswith("Z:") else "w"
    proj = project(c, sigma)
    assert set(input_labels(proj)) == {"w"}
    F = Field(3)
    # duplicated edge variable: f = sum over 2 homs of w^2
    assert circuit_eval(proj, {"w": 1}, F) == F.from_int(2)
    with pytest.raises(ValueError):
        project(c, {lab: "2" for lab in input_labels(c)})


def test_rejects_mismatched_decomposition():
    G = Graph.cycle(5)
    _, d = treewidth_exact(Graph.cycle(4))
    with pytest.raises(InvalidDecomposition) as err:
        compile_hom(G, d, Graph.complete(3))
    assert isinstance(err.value, ValueError)
    assert err.value.problems == validate_nice(d, G) != []
    assert str(err.value) == "invalid nice decomposition: " + "; ".join(err.value.problems)


def test_rejects_out_of_range_only_child():
    # an introduce node whose only child id is past the end raised IndexError
    nodes = (DecompNode(frozenset({1}), "leaf"), DecompNode(frozenset({1, 2}), "intro", 2, (9,)),
             DecompNode(frozenset({2}), "forget", 1, (1,)), DecompNode(frozenset(), "forget", 2, (2,)))
    with pytest.raises(ValueError, match="node 1: child id 9 out of range"):
        compile_hom(Graph.path(2), NiceTreeDecomp(nodes, 3), Graph.complete(2))
