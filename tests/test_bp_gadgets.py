from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from brute import complete_assignment, distances, edge_label
from homforge import gadgets
from homforge.bp import Arc, LayeredBP
from homforge.circuit import Circuit, Gate
from homforge.gadgets import (ATTACH, L_MARK, P_MARK, R_MARK, GadgetPair,
                              GadgetTriple, build_Gk, build_Gm, build_Jn,
                              certify_blocks, check_normal_form, dump_gadget,
                              embed_bp, gm_size, load_gadget)
from homforge.graphs import Graph, enumerate_homs
from homforge.labels import mono
from homforge.randgen import random_layered_bp
from homforge.rings import Field


def two_path_bp() -> LayeredBP:
    """3 layers, two disjoint s-t paths with labelled arcs."""
    return LayeredBP((1, 2, 1), (
        Arc(0, 0, 0, "a"), Arc(0, 0, 1, "b"),
        Arc(1, 0, 0, "c"), Arc(1, 1, 0, "d"),
    ))


def test_bp_validation():
    with pytest.raises(ValueError):
        LayeredBP((1,), ())  # need at least source and sink layers
    with pytest.raises(ValueError):
        LayeredBP((1, 0, 1), ())
    with pytest.raises(ValueError):
        LayeredBP((1, 1), (Arc(1, 0, 0),))  # arc layer out of range
    with pytest.raises(ValueError):
        LayeredBP((1, 1), (Arc(0, 0, 5),))  # node out of range
    with pytest.raises(ValueError):
        LayeredBP((1, 1), (Arc(0, 0, 0, "w"), Arc(0, 0, 0, "x")))  # dup arc
    with pytest.raises(ValueError):
        LayeredBP((1, 1), (Arc(0, 0, 0, "y"),))  # reserved label
    with pytest.raises(ValueError):
        LayeredBP((1, 1), (Arc(0, 0, 0, 2),))  # labels are 0/1 or a name


def test_bp_paths_and_polynomial():
    bp = two_path_bp()
    assert bp.n_layers == 3
    assert bp.width() == 2
    assert bp.count_st_paths() == 2
    labels = [tuple(a.label for a in path) for path in bp.st_paths()]
    assert labels == [("a", "c"), ("b", "d")]
    f = bp.path_polynomial()
    assert f == Counter([mono(("a", 1), ("c", 1)), mono(("b", 1), ("d", 1))])


def test_bp_zero_labels_kill_arcs():
    bp = LayeredBP((1, 2, 1), (
        Arc(0, 0, 0, "a"), Arc(0, 0, 1, 0),
        Arc(1, 0, 0, "c"), Arc(1, 1, 0, "d"),
    ))
    assert bp.count_st_paths() == 1
    assert len(bp.live_arcs()) == 3


def test_bp_count_matches_enumeration_random():
    rng = random.Random(55)
    for _ in range(30):
        bp = random_layered_bp(rng.randint(2, 6), rng.randint(1, 3), rng)
        assert bp.count_st_paths() == len(bp.st_paths())


def test_bp_text_round_trip():
    bp = two_path_bp()
    again = LayeredBP.from_text(bp.to_text())
    assert again == bp
    with pytest.raises(ValueError, match="line 2"):
        LayeredBP.from_text("layers 1\nwhatever\n")


def test_certified_blocks_properties(certified_triple):
    t = certified_triple
    assert t.certify() == []
    assert t.pair().certify() == []
    for g in (t.i0, t.i1, t.i2):
        assert g.is_connected()
        assert not g.is_bipartite()
        assert len(enumerate_homs(g, g)) == 1
    assert t.c_max >= max(t.i0.n, t.i1.n, t.i2.n) + 1


def test_triple_pair_is_built_once(certified_triple, monkeypatch):
    # the pair's blocks are the triple's, already certified with it
    t = GadgetTriple(certified_triple.i0, certified_triple.i1, certified_triple.i2)
    certified = []
    real = gadgets.certify_blocks
    monkeypatch.setattr(gadgets, "certify_blocks",
                        lambda blocks: certified.append(sorted(blocks)) or real(blocks))
    assert t.pair() is t.pair()
    assert certified == [["I1", "I2"]]


def test_certify_blocks_reports_failures():
    report = certify_blocks({"A": Graph.cycle(4), "B": Graph.complete(3)})
    assert any("bipartite" in r for r in report)
    assert any("rigid" in r for r in report)


def test_gadget_pair_cmax_validation(certified_triple):
    t = certified_triple
    with pytest.raises(ValueError):
        GadgetPair(t.i1, t.i2, c_max=2)
    auto = GadgetPair(t.i1, t.i2)
    assert auto.c_max == max(t.i1.n, t.i2.n) + 1


def test_gadget_json_round_trip(certified_triple):
    blob = json.dumps(dump_gadget(certified_triple))
    back = load_gadget(json.loads(blob))
    assert isinstance(back, GadgetTriple)
    assert back.i0 == certified_triple.i0
    assert back.c_max == certified_triple.c_max
    pair_blob = dump_gadget(certified_triple.pair())
    assert isinstance(load_gadget(pair_blob), GadgetPair)


def test_build_Gk_structure(certified_pair):
    c = certified_pair.c_max
    for k in (1, 2, 4):
        g = build_Gk(k, certified_pair)
        d = distances(g.graph)
        u, a, b, v = (g.anchors[x] for x in ("u", "a", "b", "v"))
        assert d[u][a] == c
        if k > 1:
            assert d[a][b] == k - 1
        else:
            assert a == b
        assert d[u][b] == c + k - 1
        assert d[b][v] == c
        assert g.kind == "path"
        assert len(g.blocks) == 2


def test_build_Gm_structure(certified_triple):
    g = build_Gm(4, certified_triple)
    assert g.kind == "tree"
    # a depth-2 binary tree: 1 + 2 + 4 block copies
    assert len(g.blocks) == 7
    with pytest.raises(ValueError):
        build_Gm(3, certified_triple)  # not a power of two


def test_embed_bp_cycle_mode():
    bp = two_path_bp()
    g = embed_bp(bp, "cycle")
    assert g.kind == "bp_cycle"
    # the target is the program graph plus the marked (s, t) edge
    assert g.graph.n == bp.n_nodes()
    assert g.graph.m == len(bp.live_arcs()) + 1
    s, t = g.anchors["s"], g.anchors["t"]
    assert edge_label(g, s, t) == "y"
    with pytest.raises(ValueError):
        embed_bp(LayeredBP((1, 1), (Arc(0, 0, 0, "w"),)), "cycle")  # even


def test_embed_bp_gadget_mode(certified_pair):
    bp = two_path_bp()
    g = embed_bp(bp, "gadget", pair=certified_pair)
    assert g.kind == "bp_gadget"
    c = certified_pair.c_max
    d = distances(g.graph)
    u, s = g.anchors["u"], g.anchors["s"]
    t, v = g.anchors["t"], g.anchors["v"]
    assert d[u][s] == c
    assert d[t][v] == c
    # BP arcs become graph edges between consecutive layers
    assert d[s][t] == bp.n_layers - 1


def test_embed_bp_assignment_is_complete():
    bp = two_path_bp()
    n = bp.n_nodes() + 2
    g = embed_bp(bp, "cycle")
    assignment = complete_assignment(g, target_size=n)
    assert g.graph.n == bp.n_nodes()
    # one value for every K_n edge variable, absent edges pinned to zero
    assert len(assignment) == n * (n - 1) // 2
    vals = set(assignment.values())
    assert vals <= {0, 1, "a", "b", "c", "d", "y"}
    assert 0 in vals  # padding vertices contribute dead edges


def test_normal_form_accepts_product_of_sums():
    gates = [Gate("input", label="x"), Gate("input", label="y"),
             Gate("input", label="u"), Gate("input", label="v"),
             Gate("add", args=(0, 1)), Gate("add", args=(2, 3)),
             Gate("mul", args=(4, 5))]
    assert check_normal_form(Circuit(tuple(gates), 6)) == []


def test_normal_form_violations():
    # output is an add gate
    c1 = Circuit((Gate("input", label="x"), Gate("input", label="y"),
                  Gate("add", args=(0, 1))), 2)
    assert check_normal_form(c1)

    # constant present
    c2 = Circuit((Gate("const", value=1), Gate("input", label="x"),
                  Gate("add", args=(0, 0)), Gate("add", args=(1, 1)),
                  Gate("mul", args=(2, 3))), 4)
    assert any("const" in v for v in check_normal_form(c2))

    # mul gate fed by an input directly
    c3 = Circuit((Gate("input", label="x"), Gate("input", label="y"),
                  Gate("add", args=(0, 1)), Gate("mul", args=(2, 1))), 3)
    assert check_normal_form(c3)

    # add gate mixing input and mul arguments
    sub = [Gate("input", label="x"), Gate("input", label="y"),
           Gate("add", args=(0, 0)), Gate("add", args=(1, 1)),
           Gate("mul", args=(2, 3)),
           Gate("input", label="z"),
           Gate("add", args=(4, 5)),  # mixes mul and input
           Gate("add", args=(5, 5)),
           Gate("mul", args=(6, 7))]
    assert check_normal_form(Circuit(tuple(sub), 8))


def test_build_Jn_product_of_sums(certified_triple):
    gates = [Gate("input", label="x"), Gate("input", label="y"),
             Gate("input", label="u"), Gate("input", label="v"),
             Gate("add", args=(0, 1)), Gate("add", args=(2, 3)),
             Gate("mul", args=(4, 5))]
    c = Circuit(tuple(gates), 6)
    J = build_Jn(c, certified_triple)
    assert J.kind == "parse"
    assert J.meta["m"] == 2
    # every block copy records which gate and side it represents
    assert all(b.key[0] == "copy" for b in J.blocks)
    J_fault = build_Jn(c, certified_triple, fault_swap_level=1)
    assert J_fault.meta["fault_swap_level"] == 1
    assert J_fault.graph.n == J.graph.n


DEPTH_TWO = """\
gate 0 input a
gate 1 input b
gate 2 input c
gate 3 input d
gate 4 input e
gate 5 add 0 1
gate 6 add 2
gate 7 mul 5 6
gate 8 add 3
gate 9 add 4
gate 10 mul 8 9
gate 11 add 7
gate 12 add 10
gate 13 mul 11 12
output 13
"""


def assert_template_rule(g, triple, swap=None):
    """Blocks follow I_0 / odd I_1 / even I_2 by their depth from the root
    block, flipped only at ``swap``; each path has c_max interior vertices
    and runs from its parent's L/R mark to its child's P_MARK."""
    home = {v: blk for blk in g.blocks for v in blk.vmap.values()}
    root = home[g.anchors["root"]]
    assert g.anchors["root"] == root.vmap[ATTACH]
    depth, kids = {root.key: 0}, {}
    for pth in g.paths:
        parent, child = home[pth.src], home[pth.dst]
        assert pth.src in (parent.vmap[L_MARK], parent.vmap[R_MARK])
        assert pth.dst == child.vmap[P_MARK]
        assert len(pth.interior) == triple.c_max
        walk = [pth.src, *pth.interior, pth.dst]
        assert all(g.graph.has_edge(a, b) for a, b in zip(walk, walk[1:]))
        kids.setdefault(parent.key, []).append(child.key)
    queue = [root.key]
    for key in queue:
        for kid in kids.get(key, []):
            assert depth.setdefault(kid, depth[key] + 1) == depth[key] + 1
            queue.append(kid)
    assert depth.keys() == {blk.key for blk in g.blocks}
    for blk in g.blocks:
        d = depth[blk.key]
        odd = d % 2 == 1
        want = triple.i0 if d == 0 else (triple.i1 if odd != (d == swap) else triple.i2)
        assert blk.template is want, (blk.key, d, swap)


def test_tree_gadgets_follow_the_template_rule(certified_triple):
    g = build_Gm(8, certified_triple)
    assert len(g.blocks) == 15 and len(g.paths) == 14
    assert_template_rule(g, certified_triple)
    for m in (1, 2, 4, 8):
        assert gm_size(m, certified_triple) == build_Gm(m, certified_triple).graph.n
    c = Circuit.from_text(DEPTH_TWO)
    inputs = {("copy", gid, side): lab for gid, lab in enumerate("abcde")
              for side in "LR"}
    for swap in (None, 1, 2):
        J = build_Jn(c, certified_triple, fault_swap_level=swap)
        assert J.meta["depth"] == 2
        assert_template_rule(J, certified_triple, swap)
        # the path into an input block carries the input's label
        for pth in J.paths:
            child = next(b for b in J.blocks if pth.dst in b.vmap.values())
            assert edge_label(J, pth.interior[-1], pth.dst) == inputs.get(child.key, 1)


def test_build_Jn_rejects_non_normal(certified_triple):
    bad = Circuit((Gate("input", label="x"), Gate("input", label="y"),
                   Gate("add", args=(0, 1))), 2)
    with pytest.raises(ValueError):
        build_Jn(bad, certified_triple)
