"""Tests for the bijection and identity verifiers."""

from __future__ import annotations

import re
from collections import Counter

import pytest

from brute import edge_label
from homforge.bp import Arc, LayeredBP
from homforge.circuit import Circuit, Gate
from homforge import verify
from homforge.gadgets import GadgetPair, embed_bp
from homforge.graphs import MAX_SOURCE_VERTICES, Graph
from homforge.labels import mono
from homforge.verify import (
    verify_cycle_identity,
    verify_gadget_bijection,
    verify_parse_hom_bijection,
)


def single_path_bp(ell: int) -> LayeredBP:
    labels = "abcdefgh"
    return LayeredBP((1,) * ell,
                     tuple(Arc(i, 0, 0, labels[i]) for i in range(ell - 1)))


def two_path_bp() -> LayeredBP:
    return LayeredBP((1, 2, 1), (
        Arc(0, 0, 0, "a"), Arc(0, 0, 1, "b"),
        Arc(1, 0, 0, "c"), Arc(1, 1, 0, "d"),
    ))


def four_layer_bp() -> LayeredBP:
    return LayeredBP((1, 2, 2, 1), (
        Arc(0, 0, 0, "a"), Arc(0, 0, 1, "b"),
        Arc(1, 0, 0, "c"), Arc(1, 1, 1, "d"), Arc(1, 0, 1, "e"),
        Arc(2, 0, 0, "f"), Arc(2, 1, 0, "g"),
    ))


def product_of_sums(groups: list[list[str]]) -> Circuit:
    """Normal-form circuit multiplying one sum of inputs per group."""
    assert len(groups) == 2
    gates: list[Gate] = []
    adds = []
    for group in groups:
        ids = []
        for lab in group:
            gates.append(Gate("input", label=lab))
            ids.append(len(gates) - 1)
        gates.append(Gate("add", args=tuple(ids)))
        adds.append(len(gates) - 1)
    gates.append(Gate("mul", args=tuple(adds)))
    return Circuit(tuple(gates), len(gates) - 1)


def quad_circuit() -> Circuit:
    """(x1+x2)(x3+x4)(x5+x6)(x7+x8) as a depth-2 alternating circuit."""
    gates = [Gate("input", label=f"x{i}") for i in range(1, 9)]
    gates += [Gate("add", args=(0, 1)), Gate("add", args=(2, 3)),
              Gate("add", args=(4, 5)), Gate("add", args=(6, 7)),
              Gate("mul", args=(8, 9)), Gate("mul", args=(10, 11)),
              Gate("add", args=(12,)), Gate("add", args=(13,)),
              Gate("mul", args=(14, 15))]
    return Circuit(tuple(gates), 16)


# -- cycle identity -----------------------------------------------------------


def test_cycle_identity_single_path():
    rep = verify_cycle_identity(single_path_bp(3))
    assert rep.ok
    assert rep.ell == 3 and rep.factor == 6
    assert rep.n_paths == 1 and rep.n_homs == 6
    assert rep.every_hom_uses_y_once and rep.identity_holds
    # 6 = 2*3 is divisible by both 2 and 3: only F_5 can invert it
    assert rep.recovery == {5: True}
    assert any("characteristic 2" in note for note in rep.field_notes)
    assert "verdict: ok" in rep.lines()[-1]


def test_cycle_identity_two_paths():
    rep = verify_cycle_identity(two_path_bp())
    assert rep.ok
    assert rep.n_paths == 2 and rep.n_homs == 12
    assert rep.f == Counter({mono(("a", 1), ("c", 1), ("y", 1)): 6,
                             mono(("b", 1), ("d", 1), ("y", 1)): 6})
    assert rep.g == Counter([mono(("a", 1), ("c", 1)), mono(("b", 1), ("d", 1))])


def test_hom_monomial_labels_agree_with_edge_label(certified_pair):
    # the verifiers' label table answers every ordered vertex pair as the
    # edge-at-a-time reference does, a non-edge (a self-pair included) by
    # raising ValueError
    edge = Graph.path(2)
    bp = two_path_bp()
    for B in (embed_bp(bp, "cycle"), embed_bp(bp, "gadget", certified_pair)):
        labels = verify.edge_labels(B)
        for a in B.graph.vertices():
            for b in B.graph.vertices():
                try:
                    lab = edge_label(B, a, b)
                except ValueError as err:
                    with pytest.raises(ValueError, match=re.escape(str(err))):
                        verify.hom_monomial(edge, (a, b), labels)
                    continue
                want = mono((lab, 1)) if lab != 1 else ()
                assert verify.hom_monomial(edge, (a, b), labels) == want, (a, b)


def test_cycle_identity_recovery_depends_on_ell():
    # which fields can invert 2*ell changes with ell
    assert verify_cycle_identity(single_path_bp(5)).recovery == {3: True}
    assert verify_cycle_identity(single_path_bp(7)).recovery == {3: True, 5: True}


def test_cycle_identity_budget_and_parity():
    with pytest.raises(ValueError):
        verify_cycle_identity(single_path_bp(4))  # even
    with pytest.raises(ValueError):
        verify_cycle_identity(single_path_bp(9))  # too many layers
    wide = LayeredBP((1, 4, 1), (
        Arc(0, 0, 0, "a"), Arc(0, 0, 3, "b"),
        Arc(1, 0, 0, "c"), Arc(1, 3, 0, "d"),
    ))
    with pytest.raises(ValueError):
        verify_cycle_identity(wide)  # width 4


# -- gadget bijection ---------------------------------------------------------


def test_gadget_bijection_three_programs(certified_pair):
    for bp in (single_path_bp(3), two_path_bp(), four_layer_bp()):
        rep = verify_gadget_bijection(bp, certified_pair)
        assert rep.ok
        assert rep.counts_match and rep.n_homs == bp.count_st_paths()
        assert rep.p1_ok and rep.p2_ok and rep.endpoints_ok
        assert rep.monomials_match
        assert rep.f == bp.path_polynomial()
        assert "verdict: ok" in rep.lines()[-1]


def test_gadget_bijection_compares_monomials(certified_pair, monkeypatch):
    # a path polynomial that misses a path is caught monomial by monomial
    bp = two_path_bp()
    short = bp.path_polynomial() - Counter([mono(("b", 1), ("d", 1))])
    monkeypatch.setattr(LayeredBP, "path_polynomial", lambda self: short)
    rep = verify_gadget_bijection(bp, certified_pair)
    assert rep.counts_match and not rep.monomials_match and not rep.ok


def test_gadget_bijection_needs_enough_layers(certified_pair):
    squat = LayeredBP((1, 3, 1), (
        Arc(0, 0, 0, "a"), Arc(0, 0, 1, "b"), Arc(0, 0, 2, "c"),
        Arc(1, 0, 0, "d"), Arc(1, 1, 0, "e"), Arc(1, 2, 0, "f"),
    ))
    with pytest.raises(ValueError, match="layers"):
        verify_gadget_bijection(squat, certified_pair)


def test_gadget_bijection_refuses_long_program_before_quadratic_work(certified_pair,
                                                                    monkeypatch):
    # a 1,000-layer program needs a path gadget above the search's source
    # limit; it is refused before the program's target graph is built
    def too_soon(*_args, **_kwargs):
        raise AssertionError("target graph built before the refusal")

    monkeypatch.setattr(verify, "embed_bp", too_soon)
    long_bp = LayeredBP((1,) * 1000, tuple(Arc(l, 0, 0, f"x{l}") for l in range(999)))
    with pytest.raises(ValueError, match=f"homomorphism search takes at most "
                                         f"{MAX_SOURCE_VERTICES} source vertices"):
        verify_gadget_bijection(long_bp, certified_pair)


def test_gadget_bijection_rejects_uncertified_pair():
    with pytest.raises(ValueError, match="certification"):
        bogus = GadgetPair(Graph.cycle(5), Graph.cycle(5))
        verify_gadget_bijection(single_path_bp(3), bogus)


# -- parse-tree / homomorphism bijection --------------------------------------


def test_parse_hom_product_of_sums(certified_triple):
    rep = verify_parse_hom_bijection(
        product_of_sums([["x", "y"], ["u", "v"]]), certified_triple)
    assert rep.ok
    assert rep.m == 2
    assert rep.n_parse_trees == 4 and rep.n_homs == 4
    assert rep.counts_match and rep.monomials_match


def test_parse_hom_fan_in_three(certified_triple):
    rep = verify_parse_hom_bijection(
        product_of_sums([["x", "y", "z"], ["u", "v"]]), certified_triple)
    assert rep.ok and rep.n_parse_trees == 6


def test_parse_hom_repeated_labels(certified_triple):
    # (x+y)(x+y) with disjoint input copies: the monomial x*y appears twice
    rep = verify_parse_hom_bijection(
        product_of_sums([["x", "y"], ["x", "y"]]), certified_triple)
    assert rep.ok
    assert max(rep.parse_monomials.values()) == 2
    assert rep.parse_monomials == rep.hom_monomials


def test_parse_hom_quad(certified_triple):
    rep = verify_parse_hom_bijection(quad_circuit(), certified_triple)
    assert rep.ok
    assert rep.m == 4
    assert rep.n_parse_trees == 16 and rep.n_homs == 16


def test_parse_hom_detects_injected_fault(certified_triple):
    rep = verify_parse_hom_bijection(
        product_of_sums([["x", "y"], ["u", "v"]]), certified_triple,
        fault_inject=True)
    assert not rep.ok
    assert rep.fault_injected
    assert "MISMATCH" in rep.lines()[-1]
    assert "fault injected" in rep.lines()[0]


def test_parse_hom_rejects_non_normal_circuit(certified_triple):
    bad = Circuit((Gate("input", label="x"), Gate("input", label="y"),
                   Gate("add", args=(0, 1))), 2)
    with pytest.raises(ValueError):
        verify_parse_hom_bijection(bad, certified_triple)
