"""Tests for the rigid-block gadget search."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from homforge import gadget_search
from homforge.gadget_search import (
    EXHAUSTIVE_MAX,
    canonical_form,
    recheck_block,
    rigid_blocks_exhaustive,
    sample_rigid_blocks,
    search_gadgets,
    _prefilter,
)
from homforge.gadgets import GadgetPair, GadgetTriple, dump_gadget
from homforge.graphs import Graph


def test_prefilter_rejects_obvious_non_blocks():
    assert not _prefilter(Graph.path(4).nbr_masks)   # degree-1 endpoints
    assert not _prefilter(Graph.cycle(6).nbr_masks)  # bipartite
    # disconnected
    assert not _prefilter(Graph.from_edges(5, [(1, 2), (2, 3), (1, 3)]).nbr_masks)
    # dominated vertex: N(4) = {1} subset of N(2); folding 4 onto 2 is an endo
    g = Graph.from_edges(4, [(1, 2), (2, 3), (1, 3), (1, 4)])
    assert not _prefilter(g.nbr_masks)


def test_prefilter_is_necessary_not_sufficient():
    # K4 passes every cheap filter but has 24 automorphisms
    from homforge.graphs import is_rigid
    assert _prefilter(Graph.complete(4).nbr_masks)
    assert not is_rigid(Graph.complete(4))


def reference_prefilter(n: int, edges) -> bool:
    """The prefilter's conditions on adjacency sets, by definition."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if any(len(adj[v]) < 2 for v in adj):
        return False
    if any(w != v and w not in adj[v] and adj[v] <= adj[w]
           for v in adj for w in adj):
        return False
    reached, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()] - reached:
            reached.add(w)
            stack.append(w)
    if len(reached) != n:
        return False
    # non-bipartite: some closed walk of odd length, i.e. some vertex
    # reaches itself in an odd number of steps
    parity = {(1, 0)}
    stack = [(1, 0)]
    while stack:
        v, p = stack.pop()
        for w in adj[v]:
            if (w, 1 - p) not in parity:
                parity.add((w, 1 - p))
                stack.append((w, 1 - p))
    return (1, 1) in parity


def test_mask_prefilter_matches_set_reference(monkeypatch):
    checked: list[Graph] = []
    monkeypatch.setattr(gadget_search, "is_rigid", lambda g: checked.append(g) and False)
    for n in range(1, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        passed = []
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            want = reference_prefilter(n, g.edges)
            assert _prefilter(g.nbr_masks) == want, sorted(g.edges)
            if want:
                passed.append(g)
        if n >= 3:
            # the exhaustive sweep builds its masks incrementally: it must
            # test rigidity on exactly the survivors, in edge-set order
            checked.clear()
            rigid_blocks_exhaustive(n)
            assert checked == passed
    assert len(passed) == 1048  # n = 6
    rng = random.Random(2024)
    for _ in range(2400):
        n = rng.randint(7, 9)
        p = rng.choice((0.3, 0.5, 0.7))
        g = Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2)
                                 if rng.random() < p])
        assert _prefilter(g.nbr_masks) == reference_prefilter(n, g.edges), sorted(g.edges)


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(7)
    g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)])
    verts = list(g.vertices())
    for _ in range(5):
        perm = verts[:]
        rng.shuffle(perm)
        relab = {v: perm[i] for i, v in enumerate(verts)}
        h = Graph.from_edges(5, [(relab[u], relab[v]) for (u, v) in g.edges])
        assert canonical_form(h) == canonical_form(g)
    assert canonical_form(Graph.cycle(5)) != canonical_form(g)


def test_no_small_rigid_nonbipartite_blocks_exist():
    # exhaustive up to 6 vertices: the search space is provably empty
    for n in range(3, EXHAUSTIVE_MAX + 1):
        assert rigid_blocks_exhaustive(n) == []
    with pytest.raises(ValueError):
        rigid_blocks_exhaustive(EXHAUSTIVE_MAX + 1)


def test_search_raises_honestly_when_max_n_too_small():
    with pytest.raises(ValueError, match="none exist below 8"):
        search_gadgets(6, "pair")
    with pytest.raises(ValueError):
        search_gadgets(2, "triple")
    with pytest.raises(ValueError):
        search_gadgets(8, "quadruple")


def test_sampling_finds_rigid_blocks_at_eight():
    rng = random.Random(3)
    got = sample_rigid_blocks(8, rng, want=1, max_samples=20000)
    assert got, "expected at least one rigid 8-vertex block from sampling"
    info = recheck_block(got[0])
    assert info["rigid"] and info["self_homs"] == 1


def test_search_gadgets_pair_and_determinism():
    p1 = search_gadgets(8, "pair", seed=0)
    p2 = search_gadgets(8, "pair", seed=0)
    assert isinstance(p1, GadgetPair)
    assert p1.i1.edges == p2.i1.edges and p1.i2.edges == p2.i2.edges
    assert p1.certify() == []


# sha256 of the sorted-key JSON of dump_gadget for each search the
# benchmark runs; they pin the sampler's draw order and the search order
SEARCH_PINS = {
    ("triple", 0): "a04031d9cb0d540a30af50bd920bfc5fb6266675ffb5cc6ae50098caf889528b",
    ("pair", 0): "b92433c93b5d461a29078969f5fb34fca5bad29e1f0def3648117b585cfc3e2e",
    ("triple", 1): "9d51b2873c1b1c20b9f4d016326a580f284eabd84a6f405aeff5e80e4657af56",
}


def test_search_results_are_pinned(certified_triple):
    for (need, seed), digest in SEARCH_PINS.items():
        found = (certified_triple if (need, seed) == ("triple", 0)
                 else search_gadgets(8, need, seed))
        text = json.dumps(dump_gadget(found), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (need, seed, text)


def test_search_compares_each_pool_pair_once(monkeypatch):
    calls: Counter = Counter()
    real = gadget_search.are_incomparable

    def counting(a, b):
        calls[frozenset((id(a), id(b)))] += 1
        return real(a, b)

    monkeypatch.setattr(gadget_search, "are_incomparable", counting)
    for need, seed in SEARCH_PINS:
        calls.clear()
        search_gadgets(8, need, seed)
        assert calls and max(calls.values()) == 1, (need, seed, calls)


def test_certified_triple_properties(certified_triple):
    assert isinstance(certified_triple, GadgetTriple)
    assert certified_triple.certify() == []
    for g in (certified_triple.i0, certified_triple.i1, certified_triple.i2):
        info = recheck_block(g)
        assert info["connected"]
        assert info["non_bipartite"]
        assert info["self_homs"] == 1
        assert info["rigid"]
        assert info["n"] >= 8


def test_recheck_block_counts_endomorphisms():
    info = recheck_block(Graph.cycle(5))
    assert info["self_homs"] == 10  # the dihedral automorphisms
    assert not info["rigid"]
    assert info["non_bipartite"] and info["connected"]
    caps = recheck_block(Graph.complete(5))
    assert caps["self_homs"] == 51  # capped: far more than 50 colourings
    assert not caps["rigid"]
