from __future__ import annotations

import random

import pytest

from homforge.gadgets import build_Gk, build_Gm, build_Jn, embed_bp
from homforge.graphs import Graph
from homforge.randgen import random_layered_bp, random_partial_ktree
from homforge.treedecomp import (NiceTreeDecomp, TreeDecompInput, gadget_decomp,
                                 heuristic_decomp, make_nice, treewidth_exact,
                                 validate_decomp, validate_nice)


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
