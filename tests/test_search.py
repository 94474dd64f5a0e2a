"""Tests for the rigid-block gadget search."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from brute import count_homs
from homforge import gadget_search
from homforge.gadget_search import (
    SAMPLE_BUDGETS,
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


def labelled_graphs(n: int):
    """Every graph on vertices 1..n, one per edge subset."""
    pairs = list(combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def test_mask_prefilter_matches_set_reference():
    for n in range(1, 7):
        passed = 0
        for g in labelled_graphs(n):
            want = reference_prefilter(n, g.edges)
            assert _prefilter(g.nbr_masks) == want, sorted(g.edges)
            passed += want
    assert passed == 1048  # n = 6
    rng = random.Random(2024)
    for _ in range(2400):
        n = rng.randint(7, 9)
        p = rng.choice((0.3, 0.5, 0.7))
        g = Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2)
                                 if rng.random() < p])
        assert _prefilter(g.nbr_masks) == reference_prefilter(n, g.edges), sorted(g.edges)


def test_no_small_rigid_nonbipartite_blocks_exist():
    # exhaustive up to 6 vertices, which is why search_gadgets starts at 7:
    # every connected non-bipartite graph has a non-identity endomorphism
    blocks = 0
    for n in range(1, 7):
        for g in labelled_graphs(n):
            if g.is_connected() and not g.is_bipartite():
                blocks += 1
                assert count_homs(g, g, cap=2) == 2, sorted(g.edges)
    assert blocks > 0


def iso_class_representatives(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The vertex pairs of range(n) and one edge mask (bit i for pair i) per
    isomorphism class: the least mask of its orbit under all n! relabellings."""
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    relabel = [[index[tuple(sorted((pi[a], pi[b])))] for a, b in pairs]
               for pi in permutations(range(n))]
    seen: set[int] = set()
    reps = []
    for bits in range(1 << len(pairs)):
        if bits not in seen:
            seen |= {sum(1 << m[i] for i in range(len(pairs)) if bits >> i & 1)
                     for m in relabel}
            reps.append(bits)
    return pairs, reps


def is_block(adj: list[int]) -> bool:
    """Connected and not bipartite, on adjacency masks over range(len(adj))."""
    side = {0: 0}
    stack = [0]
    odd = False
    while stack:
        v = stack.pop()
        for w in range(len(adj)):
            if adj[v] >> w & 1:
                if w not in side:
                    side[w] = 1 - side[v]
                    stack.append(w)
                odd |= side[w] == side[v]
    return odd and len(side) == len(adj)


def count_endomorphisms(adj: list[int], cap: int) -> int:
    """Backtracking count of the maps sending edges to edges, up to ``cap``."""
    n, image, count = len(adj), [0] * len(adj), 0

    def rec(i: int) -> None:
        nonlocal count
        if i == n:
            count += 1
            return
        cand = (1 << n) - 1
        for j in range(i):
            if adj[i] >> j & 1:
                cand &= adj[image[j]]
        while cand and count < cap:
            low = cand & -cand
            cand ^= low
            image[i] = low.bit_length() - 1
            rec(i + 1)

    rec(0)
    return count


def test_no_rigid_nonbipartite_block_has_seven_vertices(certified_triple):
    # Every graph on 7 vertices is isomorphic to one whose vertices 0-4 induce
    # a class representative on 5 vertices (relabel those five), so the
    # representatives, each with every neighbourhood of vertices 5 and 6,
    # cover all of them; each connected non-bipartite one has a non-identity
    # endomorphism.
    assert [len(iso_class_representatives(n)[1]) for n in range(1, 6)] == [1, 2, 4, 11, 34]
    pairs, reps = iso_class_representatives(5)
    graphs = blocks = 0
    for bits in reps:
        base = [0] * 5
        for i, (a, b) in enumerate(pairs):
            if bits >> i & 1:
                base[a] |= 1 << b
                base[b] |= 1 << a
        for n5 in range(1 << 5):
            for n6 in range(1 << 6):
                adj = [m | (n5 >> v & 1) << 5 | (n6 >> v & 1) << 6 for v, m in enumerate(base)]
                adj += [n5 | (n6 >> 5 & 1) << 6, n6]
                graphs += 1
                if is_block(adj):
                    blocks += 1
                    assert count_endomorphisms(adj, cap=2) == 2, adj
    assert graphs == 34 * 2**5 * 2**6 == 69632
    assert blocks == 56155
    # the counter does tell a rigid block: the identity is its one endomorphism
    g = certified_triple.i0
    assert count_endomorphisms([m >> 1 for m in g.nbr_masks[1:]], cap=2) == 1


def test_search_builds_no_graph_below_seven(monkeypatch):
    sizes = set()
    real = gadget_search._prefilter

    def recording(nbr):
        sizes.add(len(nbr) - 1)
        return real(nbr)

    monkeypatch.setattr(gadget_search, "_prefilter", recording)
    search_gadgets(8, "pair", seed=0)
    assert min(sizes) == min(SAMPLE_BUDGETS) == 7


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
    assert count_homs(got[0], got[0], cap=2) == 1


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
        assert g.is_connected()
        assert not g.is_bipartite()
        assert count_homs(g, g, cap=2) == 1
        assert g.n >= 8

