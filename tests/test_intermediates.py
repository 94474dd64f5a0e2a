from __future__ import annotations

import random

import pytest

from brute import SymbolicRing
from homforge.formulas import CNF
from homforge.graphs import Graph, Hypergraph3
from homforge.intermediates import (DEF_BUDGETS, FAMILIES, FamilyInstance,
                                    _eval_def, clause_space, count_via_coefficient,
                                    eval_definitional, eval_fast, family_plan,
                                    hc_from_coefficient, literals, registry,
                                    standard_projection)
from homforge.labels import xedge, xhyper, xvar, yclause, yvert
from homforge.oracles import (count_3dm, count_clique, count_clows, count_hc,
                              count_sat3, count_vc)
from homforge.randgen import gnp, random_cnf, random_hypergraph
from homforge.rings import CountRing, Field, TruncRing
from homforge.sparsepoly import SparsePoly, mono


def all_ones(family: str, n: int, field: Field) -> FamilyInstance:
    return FamilyInstance(family, n, field, dict.fromkeys(registry(family, n), 1))


def replace_values(inst: FamilyInstance, overrides: dict[str, int]) -> FamilyInstance:
    """A copy of ``inst`` with some values changed; every label must be known."""
    bad = [lab for lab in overrides if lab not in inst.assignment]
    if bad:
        raise ValueError(f"labels not in this family's registry: {bad[:3]}")
    return FamilyInstance(inst.family, inst.n, inst.field, {**inst.assignment, **overrides})


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


def test_family_plan_is_shared_and_holds_no_values():
    F = Field(3)
    inst = all_ones("sat", 2, F)
    other = replace_values(inst, {xvar(1): 0, yclause(1, -2, 1): 2})
    plan = family_plan("sat", 2)
    assert inst.plan is other.plan is plan
    assert inst.values != other.values
    assert inst.values == tuple(inst.assignment[lab] for lab in registry("sat", 2))
    before = repr(sorted(vars(plan).items()))
    for x in (inst, other):
        eval_fast(x)
        eval_definitional(x)
    assert repr(sorted(vars(plan).items())) == before
    # structure only: labels, their index, and int index lists
    assert set(vars(plan)) <= {"family", "n", "nx", "edges", "labels", "index"}
    assert all(isinstance(lab, str) for lab in plan.labels)
    # a clause (a, b, c) sits at (pos(a)*2n + pos(b))*2n + pos(c) after the
    # n variable entries, where pos(l) = 2(|l|-1) + (l < 0)
    pos = {l: 2 * (abs(l) - 1) + (l < 0) for l in literals(2)}
    for a, b, c in clause_space(2):
        assert plan.index[yclause(a, b, c)] == 2 + (pos[a] * 4 + pos[b]) * 4 + pos[c]


def test_replace_values():
    F = Field(5)
    inst = all_ones("vc", 3, F)
    inst2 = replace_values(inst, {yvert(2): 0})
    assert inst.assignment[yvert(2)] == 1
    assert inst2.assignment[yvert(2)] == 0
    with pytest.raises(ValueError):
        replace_values(inst, {"nope": 1})


def test_fast_vc_counts_full_degree_vertices():
    F = Field(3)
    # all ones on 3 vertices: every vertex has both incident edges alive
    inst = all_ones("vc", 3, F)
    assert eval_fast(inst) == F.from_int(8)
    # killing edge (1,2) removes vertices 1 and 2 from the full-degree set
    inst2 = replace_values(inst, {xedge(1, 2): 0})
    assert eval_fast(inst2) == F.from_int(2)
    # killing a vertex variable removes only that vertex
    inst3 = replace_values(inst, {yvert(3): 0})
    assert eval_fast(inst3) == F.from_int(4)


def test_fast_cis_counts_good_edges():
    F = Field(5)
    inst = all_ones("cis", 3, F)
    assert eval_fast(inst) == F.from_int(8 % 5)
    inst2 = replace_values(inst, {yvert(1): 0})
    # edges (1,2) and (1,3) lose an endpoint: one good edge remains
    assert eval_fast(inst2) == F.from_int(2)


def test_fast_sat_forcing():
    F = Field(3)
    inst = all_ones("sat", 2, F)
    assert eval_fast(inst) == F.from_int(4)
    # zero X_1 forces x1 false: half the assignments survive
    assert eval_fast(replace_values(inst, {xvar(1): 0})) == F.from_int(2)
    # zero the clause (x1 or x1 or x1): x1 must be false
    assert eval_fast(replace_values(inst, {yclause(1, 1, 1): 0})) == F.from_int(2)
    # forcing x1 false and true at once kills everything
    inst3 = replace_values(inst, {yclause(1, 1, 1): 0, yclause(-1, -1, -1): 0})
    assert eval_fast(inst3) == F.zero
    # a mixed clause (x1 or not x2) forces x1 false and x2 true
    inst4 = replace_values(inst, {yclause(1, -2, 1): 0})
    assert eval_fast(inst4) == F.from_int(1)


def test_fast_tdm_counts_surviving_triples():
    F = Field(3)
    inst = all_ones("tdm", 1, F)
    assert eval_fast(inst) == F.from_int(2)
    assert eval_fast(replace_values(inst, {xhyper(1, 1, 1): 0})) == F.one
    assert eval_fast(replace_values(inst, {yvert("B1"): 0})) == F.one


def test_fast_clow_matrix_powering():
    F = Field(5)
    inst = all_ones("clow", 4, F)
    assert eval_fast(inst) == F.from_int(14 % 5)
    inst2 = all_ones("clow", 2, F)
    assert eval_fast(inst2) == F.one
    inst1 = all_ones("clow", 1, F)
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
    inst = all_ones("cis", 6, F)
    eval_definitional(inst)  # at the budget: fine
    big = all_ones("cis", 7, F)
    with pytest.raises(ValueError, match="eval_fast"):
        eval_definitional(big)


def definitional_polynomial(family: str, n: int, q: int) -> SparsePoly:
    """Symbolic expansion of the family polynomial with integer coefficients."""
    ring = SymbolicRing(None, bound=500_000)
    return _eval_def(family, n, q, ring, [ring.var(lab) for lab in registry(family, n)])


def test_definitional_polynomial_sat_dense():
    # every factor is a variable, so none is the ring's one: the sum over
    # assignments of the X's of the true variables times the Y's of the
    # satisfied clauses, expanded by brute force
    def satisfied(c, bits):
        return any(((bits >> (abs(l) - 1)) & 1) == (l > 0) for l in c)

    for n in (1, 2):
        for q in (2, 3):
            want: dict = {}
            for bits in range(1 << n):
                m = mono(*((xvar(i), q - 1) for i in range(1, n + 1) if (bits >> (i - 1)) & 1),
                         *((yclause(*c), q - 1) for c in clause_space(n) if satisfied(c, bits)))
                want[m] = want.get(m, 0) + 1
            assert definitional_polynomial("sat", n, q) == SparsePoly(want, None), (n, q)


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
    inst = all_ones("vc", 2, F)
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


@pytest.mark.parametrize("cnf", [
    CNF(3, ((2, 2, 2), (-1, 3, 3))),                  # padded 1- and 2-literal clauses
    CNF(3, ((1, -2, 3), (-3, 2, 2), (1, -2, 3))),     # a repeated clause
    CNF(2, ((1, -2, 1), (-1, 1, 2))),                 # repeated literals, a tautology
    CNF(3, ()),                                       # m = 0
], ids=["padded", "repeated-clause", "repeated-literal", "empty"])
@pytest.mark.parametrize("p", (2, 3, 5))
def test_count_via_coefficient_sat_edge_cases(cnf, p):
    F = Field(p)
    cc = count_via_coefficient("sat", cnf, F)
    assert cc.value == count_sat3(cnf, p).modp
    assert cc.t_degree == len(set(cnf.clauses)) * (p - 1)
    assert_count_table(cc, "sat", cnf, F)


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


def projected_sum(family, instance, q, ring, zero, strict_recipe=False):
    """The family sum over F_q under the standard projection, summed in ``ring``."""
    images = {"0": zero, "1": ring.one, "z": ring.z, "t": ring.t}
    proj = standard_projection(family, instance.n, instance, strict_recipe)
    vals = [images[proj.output[lab]] for lab in registry(family, instance.n)]
    return _eval_def(family, instance.n, q, ring, vals)


def assert_count_table(cc, family, instance, F, strict_recipe=False):
    """The TruncPoly route gives the corner coefficient ``cc`` holds, and the
    CountRing sum's whole count table mod p equals its coefficients."""
    dz, dt, where = cc.z_degree, cc.t_degree, (family, F, instance, strict_recipe)
    R = TruncRing(F, dz, dt)
    poly = projected_sum(family, instance, F.q, R, R.zero, strict_recipe)
    assert cc.value == poly.coefficient(dz, dt), where
    C = CountRing(dz, dt)
    counts = projected_sum(family, instance, F.q, C, C.dead, strict_recipe)
    cells = {(i, j): counts[i << C.shift | j]
             for i in range(dz + 1) for j in range(dt + 1)}
    assert sum(cells.values()) == sum(counts), where
    assert {key: F.from_int(c) for key, c in cells.items()
            if c % F.p} == poly.coeffs, where


def test_count_via_coefficient_matches_trunc_ring():
    # the counting ring against TruncPoly sums, over prime and extension
    # fields: the corner count_via_coefficient reads, and every other cell of
    # the count table mod p; tdm with strict_recipe off sends absent
    # hyperedges to 0
    rng = random.Random(77)
    fields = (Field(2), Field(3), Field(5), Field(7), Field(2, 2), Field(2, 3), Field(3, 2))
    for F in fields:
        for _ in range(4):
            n = rng.randint(2, 4)
            cases = [("sat", random_cnf(n + 1, rng.randint(1, 4), rng), None, False),
                     ("vc", gnp(n + 1, 0.6, rng), rng.randint(0, n + 1), False),
                     ("cis", gnp(n, 0.7, rng), rng.randint(2, n), False),
                     ("clow", gnp(n + 1, 0.7, rng), None, False)]
            hyper = random_hypergraph(2, rng.randint(1, 5), rng)
            cases += [("tdm", hyper, None, True), ("tdm", hyper, None, False)]
            for family, inst, k, strict in cases:
                cc = count_via_coefficient(family, inst, F, k=k, strict_recipe=strict)
                assert_count_table(cc, family, inst, F, strict)


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
