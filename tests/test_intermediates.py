from __future__ import annotations

import random
from itertools import combinations, product

import numpy as np
import pytest

from brute import SymbolicRing, eval_definitional_in_field
from homforge import intermediates
from homforge.formulas import CNF
from homforge.graphs import Graph, Hypergraph3
from homforge.intermediates import (DEF_BUDGETS, FAMILIES, FamilyInstance,
                                    _eval_def, _projected, clause_space,
                                    count_via_coefficient, eval_definitional,
                                    eval_fast, family_plan, hc_from_coefficient,
                                    literals, registry, tdm_vertex)
from homforge.labels import mono, xedge, xhyper, xvar, yclause, yvert
from homforge.oracles import (count_3dm, count_clique, count_clows, count_hc,
                              count_sat3, count_vc)
from homforge.randgen import gnp, random_cnf, random_hypergraph
from homforge.rings import CountRing, Field, TruncRing


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
    assert registry("vc", 0) == registry("tdm", 0) == []
    with pytest.raises(ValueError, match="family index must be at least 0"):
        registry("vc", -1)


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


def test_numpy_int_values_evaluate_as_plain_ints():
    # numpy ints pass the field's check; both evaluators then read Python ints
    F = Field(5)
    for v in (2, np.int64(2)):
        inst = FamilyInstance("vc", 3, F, dict.fromkeys(registry("vc", 3), v))
        assert all(type(x) is int for x in inst.values)
        assert eval_fast(inst) == eval_definitional(inst) == 3


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


# 2^61 - 1 and a 70-bit prime: walk counts mod either overflow 64-bit words
BIG_PRIMES = (2**61 - 1, 1180591620717411303389)


def test_fast_clow_is_exact_over_large_primes():
    # on K_n, a clow with head h walks among the k = n-1-h vertices above
    # it: k choices for the first move, k - 1 for each of the n - 2 moves
    # among them, and the last move goes back to h
    n, F = 20, Field(2**61 - 1)
    want = sum(k * (k - 1) ** (n - 2) for k in range(1, n))
    assert want % F.p == 270096990808978253
    assert eval_fast(all_ones("clow", n, F)) == 270096990808978253
    assert eval_fast(all_ones("clow", 4, Field(BIG_PRIMES[1]))) == 14


def test_fast_equals_definitional_clow_over_large_primes():
    rng = random.Random(2261)
    for p in BIG_PRIMES:
        F = Field(p)
        for n in range(2, DEF_BUDGETS["clow"] + 1):
            for _ in range(3):
                # zeros often enough that the live edges vary
                assign = {lab: rng.choice((0, 1, rng.randrange(p)))
                          for lab in registry("clow", n)}
                inst = FamilyInstance("clow", n, F, assign)
                assert eval_fast(inst) == eval_definitional(inst), (p, n, assign)


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


# every n from 0 up to these, so the field route stays cheap
COUNTED_CAPS = {"sat": 5, "vc": 8, "cis": 5, "clow": 6, "tdm": 2}
COUNTED_FIELDS = (Field(2), Field(3), Field(2, 2), Field(5), Field(7), Field(2, 3),
                  Field(3, 2), Field(2, 4), Field(5, 2), Field(2**61 - 1))


def test_counted_sum_equals_the_field_sum():
    # eval_definitional counts the terms whose (q-1)-th powers are all one;
    # the reference forms every term in the field and adds it
    rng = random.Random(2804)
    for family in FAMILIES:
        for n in range(COUNTED_CAPS[family] + 1):
            for F in COUNTED_FIELDS:
                for _ in range(3):
                    assign = {lab: 0 if rng.random() < 0.2 else rng.randrange(F.q)
                              for lab in registry(family, n)}
                    inst = FamilyInstance(family, n, F, assign)
                    assert eval_definitional(inst) == eval_definitional_in_field(inst), \
                        (family, n, F.q, assign)


def test_counted_sum_powers_each_distinct_value_once(monkeypatch):
    # a sat n = 5 registry holds 1,005 values but at most q distinct ones;
    # each is raised to q-1 once, in the instance field
    rng = random.Random(55)
    calls, field_pow = [], Field.pow
    monkeypatch.setattr(Field, "pow", lambda F, a, e: calls.append((F, a, e)) or field_pow(F, a, e))
    for F in (Field(5), Field(3, 2)):
        assign = {lab: rng.randrange(F.q) for lab in registry("sat", 5)}
        inst = FamilyInstance("sat", 5, F, assign)
        want = eval_fast(inst)
        calls.clear()
        assert eval_definitional(inst) == want
        assert len(inst.values) == 1005
        assert sorted(calls) == sorted((F, v, F.q - 1) for v in set(assign.values()))


def test_counted_sum_refuses_a_power_neither_zero_nor_one(monkeypatch):
    inst = all_ones("vc", 2, Field(5))
    monkeypatch.setattr(Field, "pow", lambda self, a, e: 2)
    with pytest.raises(AssertionError, match="neither 0 nor 1"):
        eval_definitional(inst)


def test_definitional_budget_error_mentions_fast_path():
    F = Field(2)
    inst = all_ones("cis", 6, F)
    eval_definitional(inst)  # at the budget: fine
    big = all_ones("cis", 7, F)
    with pytest.raises(ValueError, match="eval_fast"):
        eval_definitional(big)


def definitional_polynomial(family: str, n: int, q: int) -> dict:
    """Symbolic expansion of the family polynomial with integer coefficients."""
    ring = SymbolicRing(bound=500_000)
    return _eval_def(family, n, q, ring, {i: ring.var(lab)
                                          for i, lab in enumerate(registry(family, n))})


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
            assert definitional_polynomial("sat", n, q) == want, (n, q)


def subset_expansion(items, q: int) -> dict:
    """Sum over every subset of ``items``, each a (label, touched labels)
    pair, of the (q-1)-th powers of the chosen labels and of every label
    the subset touches, each once."""
    want: dict = {}
    for r in range(len(items) + 1):
        for chosen in combinations(items, r):
            touched = {lab for _, labs in chosen for lab in labs}
            m = mono(*((lab, q - 1) for lab, _ in chosen), *((lab, q - 1) for lab in touched))
            want[m] = want.get(m, 0) + 1
    return want


def test_definitional_polynomial_vc_cis_tdm_dense():
    # every factor is a variable, so every term is its own monomial and a
    # dropped or doubled term shows.  vc: a cover holds vertices and
    # touches their edges; cis and tdm: a subset holds edges (hyperedges)
    # and touches their vertices
    n = 3
    pairs = list(combinations(range(1, n + 1), 2))
    for q in (2, 3):
        covers = [(yvert(v), [xedge(*e) for e in pairs if v in e]) for v in range(1, n + 1)]
        assert definitional_polynomial("vc", n, q) == subset_expansion(covers, q), q
        cliques = [(xedge(*e), [yvert(v) for v in e]) for e in pairs]
        assert definitional_polynomial("cis", n, q) == subset_expansion(cliques, q), q
    for n in (1, 2):
        for q in (2, 3):
            matchings = [(xhyper(*e), [yvert(tdm_vertex(part, i)) for part, i in zip("ABC", e)])
                         for e in product(range(1, n + 1), repeat=3)]
            want = subset_expansion(matchings, q)
            assert len(want) == 2 ** n ** 3
            assert definitional_polynomial("tdm", n, q) == want, (n, q)


def test_definitional_polynomial_clow_dense():
    # every clow written out: a closed walk of n moves from its head, the
    # least vertex, through vertices above it and back, never standing
    # still; each move's X and each distinct vertex's Y enter to the power
    # q-1, so a walk that repeats an edge raises its X further
    for n in (3, 4):
        for q in (2, 3):
            want: dict = {}
            for head in range(1, n + 1):
                for inner in product(range(head + 1, n + 1), repeat=n - 1):
                    walk = (head, *inner, head)
                    if any(u == v for u, v in zip(walk, walk[1:])):
                        continue
                    m = mono(*((xedge(u, v), q - 1) for u, v in zip(walk, walk[1:])),
                             *((yvert(v), q - 1) for v in set(walk)))
                    want[m] = want.get(m, 0) + 1
            assert definitional_polynomial("clow", n, q) == want, (n, q)


def test_definitional_polynomial_vc2():
    # index-2 VC polynomial over F_2: 1 + X(Y1 + Y2 + Y1 Y2)
    p = definitional_polynomial("vc", 2, 2)
    e, y1, y2 = xedge(1, 2), yvert(1), yvert(2)
    assert p == {(): 1, mono((e, 1), (y1, 1)): 1, mono((e, 1), (y2, 1)): 1,
                 mono((e, 1), (y1, 1), (y2, 1)): 1}
    # exponents scale with q - 1
    p3 = definitional_polynomial("vc", 2, 3)
    assert p3[mono((e, 2), (y1, 2))] == 1


def test_eval_definitional_over_trunc_ring():
    F = Field(3)
    inst = all_ones("vc", 2, F)
    R = TruncRing(F, 4, 4)
    out = _eval_def("vc", 2, F.q, R, {i: R.monomial(0, 0, v) for i, v in enumerate(inst.values)})
    # every variable is a nonzero constant, so the value is the (0,0) cell
    assert out.coefficient(0, 0) == eval_definitional(inst)


def test_count_via_coefficient_refuses_wrong_instance_type():
    with pytest.raises(TypeError, match="sat projection needs a CNF instance"):
        count_via_coefficient("sat", Graph.complete(2), Field(3))
    with pytest.raises(TypeError, match="vc projection needs a Graph instance"):
        count_via_coefficient("vc", CNF(2, ((1, 2, -1),)), Field(3), k=1)
    with pytest.raises(TypeError, match="tdm projection needs a Hypergraph3 instance"):
        count_via_coefficient("tdm", Graph.complete(2), Field(3))


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


def test_sat_projection_holds_one_entry_per_distinct_clause():
    # the clause slots that no clause fills are one, and stay out of the map
    cnf = CNF(4, ((1, -2, 3), (3, 3, -4), (1, -2, 3), (-1, -1, -1)))
    vals = _projected("sat", cnf, False, ("zero", "z", "t"))
    index = family_plan("sat", 4).index
    assert vals == {index[yclause(*c)]: "t" for c in cnf.distinct_clauses()}
    assert len(vals) == 3


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
    vals = _projected(family, instance, strict_recipe, (zero, ring.z, ring.t))
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


def test_count_ring_is_sized_in_units_of_q_minus_1(monkeypatch):
    # every exponent is a multiple of q-1, so the ring's caps are (m, k)
    # whatever the field; the reported degrees stay raw
    caps = []

    class Recording(CountRing):
        def __init__(self, dz, dt):
            caps.append((dz, dt))
            super().__init__(dz, dt)

    monkeypatch.setattr(intermediates, "CountRing", Recording)
    G, p = Graph.complete(4), 65537
    cc = count_via_coefficient("vc", G, Field(p), k=3)
    assert caps == [(G.m, 3)]
    assert (cc.z_degree, cc.t_degree) == (G.m * (p - 1), 3 * (p - 1))
    assert cc.value == count_vc(G, 3, p).modp == 4


def test_count_budget_respected():
    with pytest.raises(ValueError):
        count_via_coefficient("cis", Graph.complete(7), Field(2), k=3)
