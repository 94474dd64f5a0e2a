from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from brute import gadget_decomp, treewidth_dp_reference
from homforge.gadgets import build_Gk, build_Gm, build_Jn, embed_bp
from homforge.graphs import Graph
from homforge.randgen import random_layered_bp, random_partial_ktree
from homforge.treedecomp import (DecompNode, NiceTreeDecomp, TreeDecompInput, _min_width_order,
                                 heuristic_decomp, make_nice, treewidth_exact, validate_decomp,
                                 validate_nice)
from test_graphs import small_graphs


def test_known_treewidths():
    assert treewidth_exact(Graph.path(5))[0] == 1
    assert treewidth_exact(Graph.cycle(6))[0] == 2
    assert treewidth_exact(Graph.complete(5))[0] == 4
    assert treewidth_exact(Graph.empty(3))[0] == 0
    # 3x3 grid has treewidth 3
    grid = Graph.from_edges(9, [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
                                (1, 4), (4, 7), (2, 5), (5, 8), (3, 6), (6, 9)])
    assert treewidth_exact(grid)[0] == 3


def test_treewidth_decomp_is_valid():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(1, 7)
        G = Graph.from_edges(n, [(u, v) for u in range(1, n + 1)
                                 for v in range(u + 1, n + 1)
                                 if rng.random() < 0.45])
        w, nice = treewidth_exact(G)
        assert validate_nice(nice, G) == []
        assert nice.width() == w


def check_against_dp_reference(G: Graph) -> None:
    width, order = treewidth_dp_reference(G)
    assert _min_width_order(G) == (width, order), sorted(G.edges)
    assert treewidth_exact(G)[0] == width


def test_dp_matches_reference_on_every_small_graph():
    for n in range(1, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            check_against_dp_reference(
                Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1]))


def test_dp_matches_reference_on_random_graphs():
    rng = random.Random(16)
    for _ in range(60):
        n = rng.randint(6, 10)
        p = rng.choice((0.15, 0.3, 0.5, 0.8))
        check_against_dp_reference(
            Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2)
                                 if rng.random() < p]))


@settings(max_examples=150, deadline=None)
@given(small_graphs(8).filter(lambda G: G.n > 0))
def test_dp_matches_reference_hypothesis(G):
    check_against_dp_reference(G)


def test_treewidth_budget():
    with pytest.raises(ValueError):
        treewidth_exact(Graph.empty(13))


def test_validate_nice_catches_corruption():
    G = Graph.complete(3)
    _, nice = treewidth_exact(G)
    text = nice.to_text()
    assert validate_nice(nice, G) == []
    # forgetting the wrong vertex leaves the root bag nonempty
    broken = NiceTreeDecomp.from_text(text.replace("forget:1", "forget:2", 1))
    assert validate_nice(broken, G) != []


def nice(*nodes, root=None) -> NiceTreeDecomp:
    """A NiceTreeDecomp from (bag, kind, vertex, children) tuples, built
    directly so that no reader check stands in front of the validator; the
    root defaults to the last node."""
    return NiceTreeDecomp(tuple(DecompNode(frozenset(b), k, v, tuple(c)) for b, k, v, c in nodes),
                          len(nodes) - 1 if root is None else root)


# the edge 1-2: leaf {1}, introduce 2, forget 1, forget 2 (the root)
LEAF1 = ({1}, "leaf", 0, ())
INTRO2 = ({1, 2}, "intro", 2, (0,))
FORGET1 = ({2}, "forget", 1, (1,))
FORGET2 = (set(), "forget", 2, (2,))
EDGE = Graph.path(2)

# one corrupted decomposition per rule of validate_nice, with its message
NICE_CORRUPTIONS = {
    "unknown kind": (nice(({1}, "shrug", 0, ()), INTRO2, FORGET1, FORGET2), EDGE,
                     "node 0: unknown kind 'shrug'"),
    "child out of range": (nice(LEAF1, ({1, 2}, "intro", 2, (0, 9)), FORGET1, FORGET2), EDGE,
                           "node 1: child id 9 out of range"),
    # an only child out of range: its bag is not read (it raised IndexError,
    # and -1 read the last node's bag)
    "only child past the end": (nice(LEAF1, ({1, 2}, "intro", 2, (9,)), FORGET1, FORGET2),
                                EDGE, "node 1: child id 9 out of range"),
    "only child negative": (nice(LEAF1, ({1, 2}, "intro", 2, (-1,)), FORGET1, FORGET2), EDGE,
                            "node 1: child id -1 out of range"),
    "own child": (nice(LEAF1, ({1, 2}, "intro", 2, (1,)), FORGET1, FORGET2), EDGE,
                  "node 1: is its own child"),
    "two parents": (nice(LEAF1, INTRO2, ({2}, "forget", 1, (1, 0)), FORGET2), EDGE,
                    "node 0: has two parents (1 and 2)"),
    "root is a child": (nice(({1}, "leaf", 0, (3,)), INTRO2, FORGET1, FORGET2), EDGE,
                        "root 3 appears as a child of node 0"),
    "unreachable": (nice(LEAF1, INTRO2, FORGET1, FORGET2, LEAF1, root=3), EDGE,
                    "nodes not reachable from root: [4]"),
    "leaf with children": (nice(({1}, "leaf", 0, (4,)), INTRO2, FORGET1, FORGET2, LEAF1,
                                root=3), EDGE, "node 0: leaf node has children"),
    "leaf bag size": (nice(({1, 2}, "leaf", 0, ()), ({1, 2}, "intro", 2, (0,)), FORGET1,
                           FORGET2), EDGE, "node 0: leaf bag size 2, expected 1"),
    "intro arity": (nice(LEAF1, ({1, 2}, "intro", 2, ()), FORGET1, FORGET2), EDGE,
                    "node 1: introduce node needs exactly 1 child"),
    "intro present": (nice(LEAF1, ({1, 2}, "intro", 1, (0,)), FORGET1, FORGET2), EDGE,
                      "node 1: introduces 1 already present in child bag"),
    "intro bag": (nice(LEAF1, ({2}, "intro", 2, (0,)), ({2}, "forget", 1, (1,)), FORGET2),
                  EDGE, "node 1: bag is not child bag plus 2"),
    "forget arity": (nice(LEAF1, INTRO2, FORGET1, (set(), "forget", 2, ()), root=3), EDGE,
                     "node 3: forget node needs exactly 1 child"),
    "forget absent": (nice(LEAF1, INTRO2, ({2}, "forget", 3, (1,)), FORGET2), EDGE,
                      "node 2: forgets 3 absent from child bag"),
    "forget bag": (nice(LEAF1, INTRO2, ({1}, "forget", 1, (1,)), FORGET2), EDGE,
                   "node 2: bag is not child bag minus 1"),
    "join arity": (nice(LEAF1, INTRO2, ({1, 2}, "join", 0, (1,)), FORGET1, FORGET2), EDGE,
                   "node 2: join node needs exactly 2 children"),
    "join bags": (nice(LEAF1, INTRO2, LEAF1, ({1, 2}, "join", 0, (1, 2)),
                       ({2}, "forget", 1, (3,)), (set(), "forget", 2, (4,))), EDGE,
                  "node 3: join children bags differ from own bag"),
    "root bag": (nice(LEAF1, INTRO2, FORGET1), EDGE, "root bag not empty: [2]"),
    "stray vertex": (nice(LEAF1, INTRO2, FORGET1, FORGET2), Graph.empty(1),
                     "bag vertices not in graph: [2]"),
    "uncovered vertex": (nice(LEAF1, INTRO2, FORGET1, FORGET2), Graph.empty(3),
                         "vertices in no bag: [3]"),
    "uncovered edge": (nice(LEAF1, (set(), "forget", 1, (0,)), ({2}, "intro", 2, (1,)),
                            (set(), "forget", 2, (2,))), EDGE, "edge (1, 2) in no bag"),
    "split vertex": (nice(LEAF1, INTRO2, FORGET1, ({1, 2}, "intro", 1, (2,)),
                          ({2}, "forget", 1, (3,)), (set(), "forget", 2, (4,))), EDGE,
                     "vertex 1: bag nodes form 2 disconnected subtrees"),
}


def test_corruption_cases_start_from_a_valid_decomposition():
    assert validate_nice(nice(LEAF1, INTRO2, FORGET1, FORGET2), EDGE) == []
    joined = nice(LEAF1, INTRO2, LEAF1, ({1, 2}, "intro", 2, (2,)),
                  ({1, 2}, "join", 0, (1, 3)), ({2}, "forget", 1, (4,)),
                  (set(), "forget", 2, (5,)))
    assert validate_nice(joined, EDGE) == []
    assert validate_decomp(TreeDecompInput({0: frozenset({1, 2}), 1: frozenset({2, 3})},
                                           [(0, 1)]), Graph.path(3)) == []


@pytest.mark.parametrize("rule", sorted(NICE_CORRUPTIONS))
def test_validate_nice_rule(rule):
    d, G, msg = NICE_CORRUPTIONS[rule]
    assert msg in validate_nice(d, G)


def test_out_of_range_only_child_reads_no_bag():
    d, G, msg = NICE_CORRUPTIONS["only child negative"]
    # no "bag is not child bag plus 2" read from the last node's bag
    assert validate_nice(d, G) == [msg, "nodes not reachable from root: [0]"]


def td(bags: dict, edges) -> TreeDecompInput:
    return TreeDecompInput({i: frozenset(b) for i, b in bags.items()}, list(edges))


# one corrupted decomposition of the path 1-2-3 per rule of validate_decomp
DECOMP_CORRUPTIONS = {
    "no bags": (td({}, []), "decomposition has no bags"),
    "unknown bag": (td({0: {1, 2}, 1: {2, 3}}, [(0, 5)]), "tree edge (0, 5) uses unknown bag id"),
    "self-loop": (td({0: {1, 2}, 1: {2, 3}}, [(0, 0)]), "tree edge (0, 0) is a self-loop"),
    "repeated": (td({0: {1, 2}, 1: {2, 3}}, [(0, 1), (1, 0)]), "tree edge (1, 0) repeated"),
    "edge count": (td({0: {1, 2}, 1: {2, 3}, 2: {3}}, [(0, 1), (1, 2), (2, 0)]),
                   "3 tree edges for 3 bags; a tree needs 2"),
    "disconnected": (td({0: {1, 2}, 1: {2, 3}, 2: {3}, 3: {3}}, [(0, 1), (1, 2), (2, 0)]),
                     "bag tree is disconnected (1 bags unreachable)"),
    "stray vertex": (td({0: {1, 2}, 1: {2, 3, 4}}, [(0, 1)]), "bag vertices not in graph: [4]"),
    "uncovered vertex": (td({0: {1, 2}}, []), "vertices in no bag: [3]"),
    "uncovered edge": (td({0: {1, 2}, 1: {3}}, [(0, 1)]), "edge (2, 3) in no bag"),
    "split vertex": (td({0: {1, 2}, 1: {2, 3}, 2: {1}}, [(0, 1), (1, 2)]),
                     "vertex 1: bag nodes form 2 disconnected subtrees"),
}


@pytest.mark.parametrize("rule", sorted(DECOMP_CORRUPTIONS))
def test_validate_decomp_rule(rule):
    d, msg = DECOMP_CORRUPTIONS[rule]
    assert msg in validate_decomp(d, Graph.path(3))


def test_make_nice_round_trip():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 8)
        k = rng.randint(1, 3)
        G, td = random_partial_ktree(n, k, rng, keep=rng.uniform(0.4, 1.0))
        assert validate_decomp(td, G) == []
        nice = make_nice(td, G)
        assert validate_nice(nice, G) == []
        assert nice.width() <= td.width()


def test_elimination_decompositions_skip_validation(monkeypatch):
    # they are valid by construction; only the public make_nice checks
    from homforge import treedecomp

    def refuse(td, G):
        raise AssertionError("validate_decomp called")

    monkeypatch.setattr(treedecomp, "validate_decomp", refuse)
    assert treewidth_exact(Graph.cycle(6))[0] == 2
    assert gadget_decomp(Graph.cycle(6)).width() == 2
    with pytest.raises(AssertionError, match="validate_decomp called"):
        make_nice(heuristic_decomp(Graph.cycle(6)), Graph.cycle(6))


def test_make_nice_refuses_invalid_input():
    G = Graph.path(3)
    td = TreeDecompInput({0: frozenset({1, 2}), 1: frozenset({3})}, [(0, 1)])
    with pytest.raises(ValueError, match=r"invalid tree decomposition: edge \(2, 3\) in no bag"):
        make_nice(td, G)
    with pytest.raises(ValueError, match="root bag id 5 not present"):
        make_nice(TreeDecompInput({0: frozenset({1, 2}), 1: frozenset({2, 3})}, [(0, 1)]), G,
                  root=5)
    with pytest.raises(ValueError, match="graphs without vertices"):
        make_nice(td, Graph.empty(0))


def test_heuristic_decomp_valid():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 9)
        G = Graph.from_edges(n, [(u, v) for u in range(1, n + 1)
                                 for v in range(u + 1, n + 1)
                                 if rng.random() < 0.4])
        td = heuristic_decomp(G)
        assert validate_decomp(td, G) == []
        nice = make_nice(td, G)
        assert validate_nice(nice, G) == []
        w, _ = treewidth_exact(G)
        assert nice.width() >= w  # heuristic can't beat the optimum


def test_nice_text_round_trip():
    _, nice = treewidth_exact(Graph.cycle(5))
    again = NiceTreeDecomp.from_text(nice.to_text())
    assert again.to_text() == nice.to_text()
    assert again.width() == nice.width()


def test_nice_from_text_errors():
    with pytest.raises(ValueError):
        NiceTreeDecomp.from_text("bag 0 leaf 1\nroot 7\n")
    with pytest.raises(ValueError):
        NiceTreeDecomp.from_text("bag 0 shrug 1\nroot 0\n")


def test_nice_from_text_names_the_bag_shape():
    # a bag line without its kind used to report "list index out of range"
    with pytest.raises(ValueError,
                       match=r"line 1: expected: bag <id> <kind> \[<vertex> \.\.\.\]"):
        NiceTreeDecomp.from_text("bag 0\nroot 0\n")


def test_gadget_decomp_cycle():
    d = gadget_decomp(Graph.cycle(7))
    assert validate_nice(d, Graph.cycle(7)) == []
    assert d.width() == 2
    assert not d.has_join()


def test_gadget_decomp_structures(certified_pair, certified_triple):
    gk = build_Gk(3, certified_pair)
    d = gadget_decomp(gk)
    assert validate_nice(d, gk.graph) == []
    assert not d.has_join()
    # path gadgets stay narrow no matter the block size
    assert d.width() <= max(b.template.n for b in gk.blocks) + 1

    gm = build_Gm(2, certified_triple)
    d2 = gadget_decomp(gm)
    assert validate_nice(d2, gm.graph) == []

    bp = random_layered_bp(3, 2, random.Random(0))
    bcycle = embed_bp(bp, "cycle")
    d3 = gadget_decomp(bcycle)
    assert validate_nice(d3, bcycle.graph) == []
    assert not d3.has_join()

    bg = embed_bp(bp, "gadget", pair=certified_pair)
    d4 = gadget_decomp(bg)
    assert validate_nice(d4, bg.graph) == []
    assert not d4.has_join()


def test_gadget_decomp_rejects_parse_graphs(certified_triple):
    from homforge.circuit import Circuit, Gate
    gates = [Gate("input", label="x"), Gate("input", label="y"),
             Gate("input", label="u"), Gate("input", label="v"),
             Gate("add", args=(0, 1)), Gate("add", args=(2, 3)),
             Gate("mul", args=(4, 5))]
    J = build_Jn(Circuit(tuple(gates), 6), certified_triple)
    with pytest.raises(ValueError):
        gadget_decomp(J)
