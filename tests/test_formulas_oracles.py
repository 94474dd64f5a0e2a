from __future__ import annotations

import random
from itertools import product

import pytest

from brute import cnf_to_dimacs
from homforge.formulas import CNF
from homforge.graphs import Graph, Hypergraph3
from homforge.oracles import (count_3dm, count_clique, count_clows, count_hc,
                              count_sat3, count_vc)


PETERSEN = Graph.from_edges(10, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
                                 (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
                                 (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)])


def test_cnf_basics():
    cnf = CNF(3, ((1, 2, 3), (-1, 2, 3), (1, 2, 3)))
    assert cnf.m == 3
    assert len(cnf.distinct_clauses()) == 2
    assert cnf.satisfied_by(0b010)  # x2 true satisfies every clause
    assert not cnf.satisfied_by(0b001)  # x1 alone falsifies (-1, 2, 3)
    assert not cnf.satisfied_by(0b000)
    with pytest.raises(ValueError):
        CNF(2, ((1, 2, 3),))
    with pytest.raises(ValueError):
        CNF(2, ((0, 1, 2),))


def test_cnf_dimacs_round_trip():
    cnf = CNF(4, ((1, -2, 3), (-1, 2, 4), (2, 3, -4)))
    again = CNF.from_dimacs(cnf_to_dimacs(cnf))
    assert again == cnf
    # short clauses pad by repeating the final literal
    padded = CNF.from_dimacs("p cnf 2 1\n1 2 0\n")
    assert padded.clauses == ((1, 2, 2),)
    with pytest.raises(ValueError):
        CNF.from_dimacs("p cnf 3 1\n1 2 3 1 0\n")  # four literals
    with pytest.raises(ValueError):
        CNF.from_dimacs("p cnf 3 1\n1 2 3\n")  # missing terminator
    with pytest.raises(ValueError):
        CNF.from_dimacs("1 2 3 0\n")  # missing header


def test_count_sat3_frozen():
    assert count_sat3(CNF(3, ((1, 2, 3),)), 2).exact == 7
    assert count_sat3(CNF(3, ((1, 1, 1),)), 2).exact == 4
    cnf = CNF(4, ((1, 2, 3), (-1, 2, 4), (-2, -3, -4)))
    res = count_sat3(cnf, 3)
    assert res.exact == 10
    assert res.modp == 1
    assert res.modulus == 3


def test_count_sat3_matches_direct_loop():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), min(3, n))
            while len(vs) < 3:
                vs.append(vs[0])
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        cnf = CNF(n, tuple(clauses))
        direct = sum(
            1 for bits in range(1 << n)
            if all(any(((bits >> (abs(l) - 1)) & 1) == (l > 0) for l in c)
                   for c in clauses))
        assert count_sat3(cnf, 5).exact == direct


def test_count_vc_frozen():
    K4 = Graph.complete(4)
    assert count_vc(K4, 2, 3).exact == 0
    assert count_vc(K4, 3, 3).exact == 4
    assert count_vc(K4, 3, 3).modp == 1
    assert count_vc(K4, 4, 3).exact == 1
    assert count_vc(Graph.cycle(5), 3, 2).exact == 5
    assert count_vc(Graph.empty(3), 0, 2).exact == 1


def test_count_clique_frozen():
    assert count_clique(Graph.complete(4), 3, 5).exact == 4
    assert count_clique(Graph.cycle(5), 2, 5).exact == 5
    assert count_clique(Graph.cycle(5), 3, 5).exact == 0
    assert count_clique(PETERSEN, 2, 7).exact == 15


def test_count_hc_frozen():
    assert count_hc(Graph.complete(4), 2).exact == 3
    assert count_hc(Graph.complete(5), 2).exact == 12
    assert count_hc(Graph.cycle(5), 2).exact == 1
    assert count_hc(Graph.cycle(6), 2).exact == 1
    assert count_hc(Graph.path(4), 2).exact == 0
    # the Petersen graph famously has no Hamiltonian cycle
    assert count_hc(PETERSEN, 2).exact == 0
    assert count_hc(Graph.complete(5), 5).modp == 2


def test_count_hc_budget():
    with pytest.raises(ValueError):
        count_hc(Graph.empty(11), 2)


def test_count_3dm_frozen():
    full = Hypergraph3.from_edges(2, [(a, b, c) for a in (1, 2)
                                      for b in (1, 2) for c in (1, 2)])
    assert count_3dm(full, 2).exact == 4  # (2!)^2
    matched = Hypergraph3.from_edges(2, [(1, 1, 1), (2, 2, 2)])
    assert count_3dm(matched, 2).exact == 1
    three = Hypergraph3.from_edges(2, [(1, 1, 1), (1, 2, 2), (2, 2, 2)])
    assert count_3dm(three, 2).exact == 1
    empty = Hypergraph3.from_edges(2, [])
    assert count_3dm(empty, 2).exact == 0


def test_count_clows_frozen():
    assert count_clows(Graph.complete(3), 3, 2).exact == 2
    assert count_clows(Graph.complete(4), 4, 2).exact == 14
    assert count_clows(Graph.cycle(5), 5, 3).exact == 2
    assert count_clows(Graph.complete(5), 5, 3).exact == 134
    assert count_clows(Graph.path(3), 2, 2).exact == 2


def test_count_clows_odd_cycles_have_no_degenerates():
    # an odd-length closed walk on a cycle graph must wrap all the way
    # around, so the full-length clows are exactly the two traversals
    for n in (5, 7):
        assert count_clows(Graph.cycle(n), n, 2).exact == 2
        assert count_hc(Graph.cycle(n), 2).exact == 1
    # even cycles also admit back-and-forth walks
    assert count_clows(Graph.cycle(4), 4, 2).exact == 5


def test_count_clows_budget():
    with pytest.raises(ValueError):
        count_clows(Graph.complete(5), 9, 2)


def test_modp_fields():
    res = count_vc(Graph.complete(4), 3, 5)
    assert res.modp == res.exact % 5
    res2 = count_sat3(CNF(3, ((1, 2, 3),)), 7)
    assert res2.modp == 0
