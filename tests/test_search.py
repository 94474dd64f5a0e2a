"""Tests for the rigid-block gadget search."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest

from brute import count_homs, sample_rigid_blocks_reference
from homforge import gadget_search
from homforge.gadget_search import (
    BATCH,
    SAMPLE_BUDGETS,
    SMALLEST_BLOCK,
    sample_rigid_blocks,
    search_gadgets,
    _prefilter,
)
from homforge.gadgets import GadgetPair, GadgetTriple, dump_gadget
from homforge.graphs import Graph, has_hom


def adjacency(graphs, n: int) -> np.ndarray:
    """The (batch, n, n) 0/1 adjacency array of graphs on vertices 1..n."""
    adj = np.zeros((len(graphs), n, n), dtype=np.int32)
    for s, g in enumerate(graphs):
        for u, v in g.edges:
            adj[s, u - 1, v - 1] = adj[s, v - 1, u - 1] = 1
    return adj


def passes(g: Graph) -> bool:
    return bool(_prefilter(adjacency([g], g.n)))


def test_prefilter_rejects_obvious_non_blocks():
    assert not passes(Graph.path(4))   # degree-1 endpoints
    assert not passes(Graph.cycle(6))  # bipartite
    # disconnected
    assert not passes(Graph.from_edges(5, [(1, 2), (2, 3), (1, 3)]))
    # dominated vertex: N(4) = {1} subset of N(2); folding 4 onto 2 is an endo
    g = Graph.from_edges(4, [(1, 2), (2, 3), (1, 3), (1, 4)])
    assert not passes(g)
    # closed twins: N[v] = N[w] for adjacent v, w, so swapping them is an
    # automorphism; both graphs pass every other filter.  Every pair of K4
    # is one, and here only 4 and 5 are (N[4] = N[5] = {1, 3, 4, 5})
    assert not passes(Graph.complete(4))
    assert not passes(Graph.from_edges(6, [(1, 4), (1, 5), (1, 6), (2, 3), (2, 6),
                                           (3, 4), (3, 5), (4, 5)]))


def test_prefilter_is_necessary_not_sufficient():
    # C5 passes every cheap filter but has 10 automorphisms
    from homforge.graphs import is_rigid
    c5 = Graph.cycle(5)
    assert _prefilter(adjacency([c5], 5)) == [(0, list(c5.nbr_masks))]
    assert not is_rigid(c5)


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
    if any(w in adj[v] and adj[v] | {v} == adj[w] | {w} for v in adj for w in adj):
        return False  # closed twins
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


def check_batch(graphs, n: int) -> int:
    """Compare one batch prefilter call with the set reference, graph by
    graph, survivors' masks included; the number that pass."""
    got = dict(_prefilter(adjacency(graphs, n)))
    for s, g in enumerate(graphs):
        assert (s in got) == reference_prefilter(n, g.edges), sorted(g.edges)
        if s in got:
            assert got[s] == list(g.nbr_masks)
    return len(got)


def test_mask_prefilter_matches_set_reference():
    for n in range(1, 7):
        passed = check_batch(list(labelled_graphs(n)), n)
    assert passed == 672  # n = 6
    rng = random.Random(2024)
    by_size: dict[int, list[Graph]] = {7: [], 8: [], 9: []}
    for _ in range(2400):
        n = rng.randint(7, 9)
        p = rng.choice((0.3, 0.5, 0.7))
        by_size[n].append(Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2)
                                               if rng.random() < p]))
    for n, graphs in by_size.items():
        check_batch(graphs, n)


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


def test_search_tests_no_graph_below_eight(monkeypatch):
    # the 7-vertex budget only advances the stream: the prefilter never sees
    # a graph below 8 vertices, and the generator reaches the 8-vertex draws
    # in the state that 1,500 draw-by-draw 7-vertex samples leave it in
    sizes = set()
    states = []
    real_prefilter, real_sample = gadget_search._prefilter, gadget_search.sample_rigid_blocks

    def recording(adj):
        sizes.add(adj.shape[1])
        return real_prefilter(adj)

    def sampling(n, rng, want, max_samples):
        if n == SMALLEST_BLOCK and not states:
            states.append(rng.getstate())
        return real_sample(n, rng, want, max_samples)

    monkeypatch.setattr(gadget_search, "_prefilter", recording)
    monkeypatch.setattr(gadget_search, "sample_rigid_blocks", sampling)
    search_gadgets(8, "pair", seed=0)
    assert min(sizes) == SMALLEST_BLOCK == min(SAMPLE_BUDGETS) + 1 == 8
    ref = random.Random(0)
    assert sample_rigid_blocks_reference(7, ref, 2, SAMPLE_BUDGETS[7]) == []
    assert states == [ref.getstate()]


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


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9])
def test_sampler_follows_the_draw_by_draw_stream(n):
    # the same blocks, the same generator state after the call and the same
    # next draw as one rng.random() per vertex pair: for stops partway
    # through a batch, budgets that run out, and budgets of a batch or more
    stops = 0
    for seed in range(4):
        for want in (0, 1, 3):
            for max_samples in (0, 37, BATCH, 3 * BATCH + 70):
                rng, ref = random.Random(seed), random.Random(seed)
                for r in (rng, ref):  # start mid-key, with a cached gauss
                    r.gauss(0, 1)
                    for _ in range(97 * seed):
                        r.random()
                got = sample_rigid_blocks(n, rng, want, max_samples)
                expected = sample_rigid_blocks_reference(n, ref, want, max_samples)
                assert [g.edges for g in got] == [g.edges for g in expected]
                assert rng.getstate() == ref.getstate()
                assert rng.random() == ref.random()
                stops += 0 < len(got) == max(want, 1)
    assert n < 8 or stops > 0


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
    # each pass over the pool asks are_incomparable about the pairs of the
    # passes before; the verdicts kept on the graphs must leave at most one
    # has_hom search per ordered pair of pool graphs
    calls: Counter = Counter()

    def counting(a, b):
        calls[id(a), id(b)] += 1
        return has_hom(a, b)

    monkeypatch.setattr("homforge.graphs.has_hom", counting)
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

