from __future__ import annotations

import random

import pytest

from homforge.formulas import CNF
from homforge.graphs import Graph, Hypergraph3
from homforge.intermediates import (DEF_BUDGETS, FAMILIES, FamilyInstance,
                                    clause_space, count_via_coefficient,
                                    definitional_polynomial, eval_definitional,
                                    eval_fast, hc_from_coefficient, literals,
                                    registry, standard_projection)
from homforge.labels import xedge, xhyper, xvar, yclause, yvert
from homforge.oracles import (count_3dm, count_clique, count_clows, count_hc,
                              count_sat3, count_vc)
from homforge.rings import Field, TruncRing


def test_literal_order():
    assert literals(2) == [1, -1, 2, -2]
    assert len(clause_space(2)) == 64


def test_registry_contents():
    assert registry("sat", 1) == [xvar(1)] + [yclause(*c)
                                              for c in clause_space(1)]
    assert registry("vc", 2) == [xedge(1, 2), yvert(1), yvert(2)]
    assert registry("cis", 2) == registry("vc", 2)
    assert registry("tdm", 1) == [xhyper(1, 1, 1), yvert("A1"), yvert("B1"),
                                  yvert("C1")]
    assert len(registry("tdm", 2)) == 8 + 6
    with pytest.raises(ValueError):
        registry("nope", 2)
    with pytest.raises(ValueError):
        registry("vc", 0)


def test_instance_validation():
    F = Field(3)
    with pytest.raises(ValueError):
        FamilyInstance("vc", 2, F, {xedge(1, 2): 1})  # missing Yv labels
    good = dict.fromkeys(registry("vc", 2), 1)
    good["bogus"] = 1
    with pytest.raises(ValueError):
        FamilyInstance("vc", 2, F, good)
    bad_val = dict.fromkeys(registry("vc", 2), 1)
    bad_val[yvert(1)] = 3  # not an element of F_3
    with pytest.raises(ValueError):
        FamilyInstance("vc", 2, F, bad_val)


def test_replace_values():
    F = Field(5)
    inst = FamilyInstance.all_ones("vc", 3, F)
    inst2 = inst.replace_values({yvert(2): 0})
    assert inst.assignment[yvert(2)] == 1
    assert inst2.assignment[yvert(2)] == 0
    with pytest.raises(ValueError):
        inst.replace_values({"nope": 1})


def test_fast_vc_counts_full_degree_vertices():
    F = Field(3)
    # all ones on 3 vertices: every vertex has both incident edges alive
    inst = FamilyInstance.all_ones("vc", 3, F)
    assert eval_fast(inst) == F.from_int(8)
    # killing edge (1,2) removes vertices 1 and 2 from the full-degree set
    inst2 = inst.replace_values({xedge(1, 2): 0})
    assert eval_fast(inst2) == F.from_int(2)
    # killing a vertex variable removes only that vertex
    inst3 = inst.replace_values({yvert(3): 0})
    assert eval_fast(inst3) == F.from_int(4)


def test_fast_cis_counts_good_edges():
    F = Field(5)
    inst = FamilyInstance.all_ones("cis", 3, F)
    assert eval_fast(inst) == F.from_int(8 % 5)
    inst2 = inst.replace_values({yvert(1): 0})
    # edges (1,2) and (1,3) lose an endpoint: one good edge remains
    assert eval_fast(inst2) == F.from_int(2)


def test_fast_sat_forcing():
    F = Field(3)
    inst = FamilyInstance.all_ones("sat", 2, F)
    assert eval_fast(inst) == F.from_int(4)
    # zero X_1 forces x1 false: half the assignments survive
    assert eval_fast(inst.replace_values({xvar(1): 0})) == F.from_int(2)
    # zero the clause (x1 or x1 or x1): x1 must be false
    assert eval_fast(inst.replace_values({yclause(1, 1, 1): 0})) == F.from_int(2)
    # forcing x1 false and true at once kills everything
    inst3 = inst.replace_values({yclause(1, 1, 1): 0, yclause(-1, -1, -1): 0})
    assert eval_fast(inst3) == F.zero
    # a mixed clause (x1 or not x2) forces x1 false and x2 true
    inst4 = inst.replace_values({yclause(1, -2, 1): 0})
    assert eval_fast(inst4) == F.from_int(1)


def test_fast_tdm_counts_surviving_triples():
    F = Field(3)
    inst = FamilyInstance.all_ones("tdm", 1, F)
    assert eval_fast(inst) == F.from_int(2)
    assert eval_fast(inst.replace_values({xhyper(1, 1, 1): 0})) == F.one
    assert eval_fast(inst.replace_values({yvert("B1"): 0})) == F.one


def test_fast_clow_matrix_powering():
    F = Field(5)
    inst = FamilyInstance.all_ones("clow", 4, F)
    assert eval_fast(inst) == F.from_int(14 % 5)
    inst2 = FamilyInstance.all_ones("clow", 2, F)
    assert eval_fast(inst2) == F.one
    inst1 = FamilyInstance.all_ones("clow", 1, F)
    assert eval_fast(inst1) == F.zero


def test_fast_equals_definitional_random():
    rng = random.Random(77)
    sizes = {"sat": 3, "vc": 4, "cis": 4, "clow": 4, "tdm": 2}
    for family in FAMILIES:
        for F in (Field(2), Field(3), Field(2, 2), Field(5)):
            for _ in range(12):
                n = rng.randint(1, sizes[family])
                assign = {lab: rng.randrange(F.q)
                          for lab in registry(family, n)}
                inst = FamilyInstance(family, n, F, assign)
                assert eval_fast(inst) == eval_definitional(inst), \
                    (family, F.q, n, assign)


def test_definitional_budget_error_mentions_fast_path():
    F = Field(2)
    inst = FamilyInstance.all_ones("cis", 6, F)
    eval_definitional(inst)  # at the budget: fine
    big = FamilyInstance.all_ones("cis", 7, F)
    with pytest.raises(ValueError, match="eval_fast"):
        eval_definitional(big)


def test_definitional_polynomial_vc2():
    # index-2 VC polynomial over F_2: 1 + X(Y1 + Y2 + Y1 Y2)
    p = definitional_polynomial("vc", 2, 2)
    e, y1, y2 = xedge(1, 2), yvert(1), yvert(2)
    from homforge.sparsepoly import ONE_MON, mono
    assert p.coefficient(ONE_MON) == 1
    assert p.coefficient(mono((e, 1), (y1, 1))) == 1
    assert p.coefficient(mono((e, 1), (y2, 1))) == 1
    assert p.coefficient(mono((e, 1), (y1, 1), (y2, 1))) == 1
    assert len(p.terms) == 4
    # exponents scale with q - 1
    p3 = definitional_polynomial("vc", 2, 3)
    assert p3.coefficient(mono((e, 2), (y1, 2))) == 1


def test_eval_definitional_over_trunc_ring():
    F = Field(3)
    inst = FamilyInstance.all_ones("vc", 2, F)
    R = TruncRing(F, 4, 4)
    out = eval_definitional(inst, R)
    # every variable is a nonzero constant, so the value is the (0,0) cell
    assert out.coefficient(0, 0) == eval_definitional(inst)
    with pytest.raises(ValueError):
        eval_definitional(inst, TruncRing(Field(5), 4, 4))
    with pytest.raises(TypeError):
        eval_definitional(inst, Field(3))


def test_standard_projection_validation():
    with pytest.raises(TypeError):
        standard_projection("sat", 2, Graph.complete(2))
    with pytest.raises(ValueError):
        standard_projection("vc", 3, Graph.complete(4))
    with pytest.raises(TypeError):
        standard_projection("tdm", 2, Graph.complete(2))


def test_count_via_coefficient_sat():
    cnf = CNF(4, ((1, 2, 3), (-1, 2, 4), (-2, -3, -4)))
    for p in (2, 3, 5):
        cc = count_via_coefficient("sat", cnf, Field(p))
        assert cc.value == count_sat3(cnf, p).modp
        assert cc.z_degree == 0
        assert cc.t_degree == 3 * (p - 1)
    # duplicate clauses collapse: m counts distinct ordered triples
    dup = CNF(2, ((1, 2, 2), (1, 2, 2)))
    cc = count_via_coefficient("sat", dup, Field(3))
    assert cc.t_degree == 1 * 2
    assert cc.value == count_sat3(dup, 3).modp


def test_count_via_coefficient_vc():
    G = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    for p in (2, 3, 5):
        for k in (2, 3):
            cc = count_via_coefficient("vc", G, Field(p), k=k)
            assert cc.value == count_vc(G, k, p).modp, (p, k)
    with pytest.raises(ValueError):
        count_via_coefficient("vc", G, Field(3))  # k missing


def test_count_via_coefficient_cis():
    G = Graph.complete(4)
    for p in (2, 3, 5):
        cc = count_via_coefficient("cis", G, Field(p), k=3)
        assert cc.value == count_clique(G, 3, p).modp
    with pytest.raises(ValueError):
        count_via_coefficient("cis", G, Field(3), k=1)


def test_count_via_coefficient_clow_convention():
    # the corner coefficient is twice the Hamiltonian cycle count: each
    # undirected cycle is traced once per direction
    K4 = Graph.complete(4)
    assert count_via_coefficient("clow", K4, Field(5)).value == 6 % 5
    assert count_via_coefficient("clow", K4, Field(3)).value == 0
    assert count_via_coefficient("clow", K4, Field(2)).value == 0
    cc5 = count_via_coefficient("clow", Graph.cycle(5), Field(3))
    assert cc5.value == 2 % 3
    assert hc_from_coefficient(cc5) == 1
    assert hc_from_coefficient(
        count_via_coefficient("clow", K4, Field(5))) == 3 % 5
    with pytest.raises(ValueError):
        hc_from_coefficient(count_via_coefficient("clow", K4, Field(2)))


def test_count_via_coefficient_tdm():
    matched = Hypergraph3.from_edges(2, [(1, 1, 1), (2, 2, 2)])
    for p in (2, 3, 5):
        cc = count_via_coefficient("tdm", matched, Field(p))
        assert cc.value == count_3dm(matched, p).modp == 1 % p
    # the absent->1 variant counts extra structures and misses the answer
    strict = count_via_coefficient("tdm", matched, Field(2),
                                   strict_recipe=True)
    assert strict.value != count_3dm(matched, 2).modp
    assert "absent" in strict.note


def test_count_via_coefficient_random_vs_oracles():
    rng = random.Random(101)
    for _ in range(6):
        n = rng.randint(3, 5)
        G = Graph.from_edges(n, [(u, v) for u in range(1, n + 1)
                                 for v in range(u + 1, n + 1)
                                 if rng.random() < 0.6])
        p = rng.choice((2, 3, 5))
        k = rng.randint(2, n)
        assert count_via_coefficient("vc", G, Field(p), k=k).value == \
            count_vc(G, k, p).modp
        assert count_via_coefficient("cis", G, Field(p), k=k).value == \
            count_clique(G, k, p).modp
        assert count_via_coefficient("clow", G, Field(p)).value == \
            (2 * count_hc(G, p).exact) % p


def test_clow_corner_degenerate_below_three_vertices():
    # at n = 2 the corner coefficient counts the single back-and-forth walk
    # per edge, not Hamiltonian cycles (there are none)
    K2 = Graph.complete(2)
    cc = count_via_coefficient("clow", K2, Field(3))
    assert cc.value == 1
    assert count_hc(K2, 3).exact == 0
    assert hc_from_coefficient(cc) == 0 and "no Hamiltonian cycle" in cc.note
    for G in (Graph.complete(1), K2):
        for p in (2, 3, 5):
            assert hc_from_coefficient(
                count_via_coefficient("clow", G, Field(p))) == 0


def test_count_budget_respected():
    with pytest.raises(ValueError):
        count_via_coefficient("cis", Graph.complete(7), Field(2), k=3)
