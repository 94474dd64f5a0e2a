"""Tests for the seeded random instance generators."""

from __future__ import annotations

import random

import pytest

from homforge.intermediates import registry
from homforge.randgen import (
    gnp,
    random_assignment,
    random_cnf,
    random_connected,
    random_hypergraph,
    random_instance,
    random_layered_bp,
    random_partial_ktree,
    random_path_decomposed,
)
from homforge.rings import Field
from homforge.treedecomp import make_nice, validate_nice


def test_generators_are_seed_deterministic():
    a = gnp(8, 0.5, random.Random(11))
    b = gnp(8, 0.5, random.Random(11))
    assert a.edges == b.edges
    c1 = random_cnf(6, 8, random.Random(4))
    c2 = random_cnf(6, 8, random.Random(4))
    assert c1.clauses == c2.clauses


def test_random_connected_is_connected():
    rng = random.Random(2)
    for _ in range(20):
        g = random_connected(rng.randint(2, 9), rng.random() * 0.4, rng)
        assert g.is_connected()


def test_partial_ktree_decomposition_is_valid():
    rng = random.Random(9)
    for _ in range(25):
        n, k = rng.randint(1, 9), rng.randint(1, 3)
        G, td = random_partial_ktree(n, k, rng)
        nice = make_nice(td, G)
        assert validate_nice(nice, G) == []
        assert nice.width() <= k


def test_path_decomposed_is_join_free_when_rooted_at_end():
    rng = random.Random(13)
    for _ in range(25):
        n, w = rng.randint(2, 10), rng.randint(1, 3)
        G, td, end = random_path_decomposed(n, w, rng)
        nice = make_nice(td, G, root=end)
        assert validate_nice(nice, G) == []
        assert nice.width() <= w
        assert not nice.has_join()


def test_random_cnf_shape():
    rng = random.Random(5)
    for _ in range(20):
        n, m = rng.randint(3, 9), rng.randint(1, 12)
        cnf = random_cnf(n, m, rng)
        assert cnf.n == n and len(cnf.clauses) == m
        for cl in cnf.clauses:
            assert len(cl) == 3
            assert len({abs(l) for l in cl}) == 3
            assert all(1 <= abs(l) <= n for l in cl)
    with pytest.raises(ValueError):
        random_cnf(2, 3, rng)


def test_random_hypergraph_shape():
    rng = random.Random(6)
    h = random_hypergraph(3, 10, rng)
    assert h.n == 3 and len(h.edges) == 10
    assert all(1 <= x <= 3 for t in h.edges for x in t)
    # requesting more triples than exist caps at the full space
    assert len(random_hypergraph(2, 100, rng).edges) == 8


def test_random_layered_bp_properties():
    rng = random.Random(8)
    for _ in range(30):
        ell, w = rng.randint(2, 7), rng.randint(1, 3)
        bp = random_layered_bp(ell, w, rng)
        assert bp.n_layers == ell
        assert bp.width() <= w
        assert bp.sizes[0] == bp.sizes[-1] == 1
        assert bp.count_st_paths() >= 1  # a path is always threaded in
        labels = [a.label for a in bp.arcs]
        assert len(labels) == len(set(labels))  # fresh labels, no reuse


def test_random_assignment_ranges():
    rng = random.Random(3)
    F = Field(5)
    vals = random_assignment([f"v{i}" for i in range(50)], F, rng)
    assert set(vals) == {f"v{i}" for i in range(50)}
    assert all(0 <= x < 5 for x in vals.values())
    hit = set(random_assignment([f"v{i}" for i in range(200)],
                                F, rng).values())
    assert hit == {0, 1, 2, 3, 4}


def test_random_instance_is_valid():
    rng = random.Random(12)
    for family, n in (("sat", 2), ("vc", 3), ("cis", 3), ("clow", 4), ("tdm", 1)):
        inst = random_instance(family, n, Field(3), rng)
        assert set(inst.assignment) == set(registry(family, n))
