from __future__ import annotations

import inspect
import random
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import ball_rings, distances, is_homomorphism, search_order_reference
from homforge.circuit import Circuit, Gate
from homforge.gadgets import build_Gk, build_Gm, build_Jn, embed_bp
from homforge.graphs import (MAX_SOURCE_VERTICES, Graph, HomCapExceeded, Hypergraph3,
                             are_incomparable, enumerate_homs, extend_rings,
                             _search_order, has_hom, is_rigid, reach,
                             unimplied_balls)
from homforge.randgen import random_layered_bp
from homforge.verify import _blocks_first_order


def brute_homs(G: Graph, H: Graph) -> list[tuple[int, ...]]:
    out = []
    for image in product(H.vertices(), repeat=G.n):
        if is_homomorphism(G, H, image):
            out.append(image)
    return out


def test_constructors():
    assert Graph.complete(4).m == 6
    assert Graph.cycle(5).m == 5
    assert Graph.path(4).m == 3
    assert Graph.empty(3).m == 0
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(2, 2)])  # no self-loops


def test_edge_normalisation():
    g = Graph.from_edges(3, [(3, 1), (1, 2)])
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert g.degree(1) == 2
    assert g.adj[1] == {2, 3}


def test_components_and_connectivity():
    g = Graph.from_edges(6, [(1, 2), (2, 3), (5, 6)])
    assert reach(g.nbr_masks, 2) == (0b1110, False)
    assert reach(g.nbr_masks, 4) == (0b10000, False)
    assert reach(g.nbr_masks, 6) == (0b1100000, False)
    assert not g.is_connected()
    assert Graph.cycle(4).is_connected()
    assert Graph.empty(0).is_connected() and Graph.empty(1).is_connected()


def test_bipartiteness():
    assert Graph.cycle(4).is_bipartite()
    assert not Graph.cycle(5).is_bipartite()
    assert Graph.path(5).is_bipartite()
    assert not Graph.complete(3).is_bipartite()
    assert Graph.empty(2).is_bipartite()
    # the odd cycle sits in the second component
    assert not Graph.from_edges(6, [(1, 2), (4, 5), (5, 6), (4, 6)]).is_bipartite()


def test_reach_matches_set_searches():
    # every graph on at most 5 vertices: connected iff a search from vertex
    # 1 meets every vertex, bipartite iff some 2-colouring splits every edge
    for n in range(6):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            reached, stack = {1}, [1]
            while stack:
                for w in g.adj.get(stack.pop(), ()):
                    if w not in reached:
                        reached.add(w)
                        stack.append(w)
            assert g.is_connected() == (n <= 1 or len(reached) == n)
            two_colourable = any(all((c >> u & 1) != (c >> v & 1) for u, v in g.edges)
                                 for c in range(1 << (n + 1)))
            assert g.is_bipartite() == two_colourable


def test_distances():
    d = distances(Graph.cycle(6))
    assert d[1][4] == 3
    assert d[2][3] == 1
    g = Graph.from_edges(3, [(1, 2)])
    assert distances(g)[1][3] >= 10**9  # unreachable sentinel


def test_enumerate_homs_against_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        nG, nH = rng.randint(1, 4), rng.randint(1, 4)
        G = Graph.from_edges(nG, [e for e in
                                  [(u, v) for u in range(1, nG + 1)
                                   for v in range(u + 1, nG + 1)]
                                  if rng.random() < 0.5])
        H = Graph.from_edges(nH, [e for e in
                                  [(u, v) for u in range(1, nH + 1)
                                   for v in range(u + 1, nH + 1)]
                                  if rng.random() < 0.5])
        assert enumerate_homs(G, H) == brute_homs(G, H)


def count_homs(G: Graph, H: Graph) -> int:
    return len(enumerate_homs(G, H))


def test_known_hom_counts():
    # homs C4 -> K3: closed walks of length 4 in K3 = trace(A^4) = 18
    assert count_homs(Graph.cycle(4), Graph.complete(3)) == 18
    # proper 3-colourings of a triangle
    assert count_homs(Graph.complete(3), Graph.complete(3)) == 6
    # no hom from an odd cycle into an edge
    assert count_homs(Graph.cycle(5), Graph.complete(2)) == 0
    # path on 3 vertices into an edge: middle vertex picks a side, the ends
    # are forced to the other one
    assert count_homs(Graph.path(3), Graph.complete(2)) == 2


def test_hom_cap():
    with pytest.raises(HomCapExceeded):
        enumerate_homs(Graph.empty(4), Graph.complete(3), cap=10)
    # cap equal to the count passes
    assert len(enumerate_homs(Graph.complete(3), Graph.complete(3), cap=6)) == 6


def test_has_hom():
    assert has_hom(Graph.cycle(6), Graph.complete(2))
    assert not has_hom(Graph.cycle(5), Graph.complete(2))


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(1, n + 1)
                                for v in range(u + 1, n + 1) if rng.random() < p])


# disconnected sources and targets with isolated vertices: a pair of
# vertices at distance "unreachable" in G, and a G-distance beyond the
# eccentricity of an image in H
DISCONNECTED_CASES = [
    (Graph.from_edges(5, [(1, 2), (3, 4)]), Graph.from_edges(4, [(1, 2), (2, 3)])),
    (Graph.path(4), Graph.complete(3)),
    (Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]), Graph.from_edges(5, [(1, 2), (4, 5)])),
    (Graph.from_edges(5, [(1, 2), (2, 3), (1, 3)]),
     Graph.from_edges(5, [(1, 2), (2, 3), (1, 3), (4, 5)])),
    (Graph.empty(3), Graph.from_edges(3, [(1, 2)])),
    (Graph.from_edges(3, [(1, 2)]), Graph.empty(2)),
]


def check_against_brute_force(G: Graph, H: Graph) -> None:
    want = brute_homs(G, H)
    assert has_hom(G, H) == bool(want)
    for prune in (False, True):
        assert enumerate_homs(G, H, distance_prune=prune) == want
        for cap in (0, 1, 3):
            if len(want) > cap:
                with pytest.raises(HomCapExceeded) as exc:
                    enumerate_homs(G, H, cap, distance_prune=prune)
                assert (exc.value.cap, exc.value.partial) == (cap, cap + 1)
            else:
                assert enumerate_homs(G, H, cap, distance_prune=prune) == want
    shuffled = list(G.vertices())
    random.Random(G.n + 7 * H.n).shuffle(shuffled)
    assert enumerate_homs(G, H, order=shuffled, distance_prune=True) == want


def test_distance_prune_preserves_results():
    for G, H in DISCONNECTED_CASES:
        check_against_brute_force(G, H)
    rng = random.Random(4)
    for _ in range(60):
        nG, nH = rng.randint(1, 5), rng.randint(1, 5)
        check_against_brute_force(random_graph(nG, rng.choice((0.3, 0.6)), rng),
                                  random_graph(nH, rng.choice((0.3, 0.6)), rng))


@st.composite
def small_graphs(draw, max_n: int) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])


@settings(max_examples=150, deadline=None)
@given(small_graphs(5), small_graphs(4))
def test_enumerate_homs_matches_brute_force_hypothesis(G, H):
    check_against_brute_force(G, H)


def test_masks_and_balls_match_distances():
    rng = random.Random(9)
    for G in [g for g, _ in DISCONNECTED_CASES] + [random_graph(7, 0.3, rng)
                                                   for _ in range(20)]:
        dist = distances(G)
        for v in G.vertices():
            assert G.nbr_masks[v] == sum(1 << w for w in G.adj[v])
            reach = [w for w in G.vertices() if dist[v][w] < 10**9]
            ecc = max(dist[v][w] for w in reach)
            rings = ball_rings(G.nbr_masks, v)
            assert len(rings) == ecc + 1
            for d, ball in enumerate(rings):
                assert ball == sum(1 << w for w in reach if dist[v][w] <= d)
            # the search's rings, extended on demand in two steps, past the
            # eccentricity too, where every ball is the whole component
            grown = [1 << v]
            for d in (rng.randint(0, ecc + 1), ecc + 2):
                extend_rings(G.nbr_masks, grown, d)
                assert grown == (rings + [rings[-1]] * 3)[:len(grown)]
            assert len(grown) == ecc + 3


@settings(max_examples=200, deadline=None)
@given(small_graphs(8), st.randoms(use_true_random=False))
def test_unimplied_balls_drops_only_implied_tests(G, rnd):
    order = list(G.vertices())
    rnd.shuffle(order)
    dist = distances(G)
    for i, v in enumerate(order):
        earlier = order[:i]
        tests = unimplied_balls(G.nbr_masks, v, sum(1 << w for w in earlier))
        kept = dict(tests)
        assert len(kept) == len(tests) and set(kept) <= set(earlier)
        for w in earlier:
            d = dist[v][w]
            implied = any(dist[v][u] + dist[u][w] == d for u in earlier if u != w)
            if w in kept:
                assert kept[w] == d and 2 <= d < 10**9 and not implied
            elif 2 <= d < 10**9:
                assert implied


def all_pairs_homs(G: Graph, H: Graph, order: list[int]) -> list[tuple[int, ...]]:
    """The search with a ball test for every earlier vertex: the image of v
    lies within d_G(v, w) of the image of each earlier w in its component,
    at distance exactly 1 for a neighbour w."""
    dG, dH = distances(G), distances(H)
    balls: dict[tuple[int, int], int] = {}

    def ball(h: int, d: int) -> int:
        if (h, d) not in balls:
            balls[h, d] = sum(1 << x for x in H.vertices() if dH[h][x] <= d)
        return balls[h, d]

    out: list[tuple[int, ...]] = []
    image: dict[int, int] = {}

    def rec(i: int) -> None:
        if i == len(order):
            out.append(tuple(image[v] for v in G.vertices()))
            return
        v = order[i]
        cand = (1 << (H.n + 1)) - 2
        for w in order[:i]:
            if dG[v][w] < 10**9:
                cand &= ball(image[w], dG[v][w])
            if w in G.adj[v]:
                cand &= ~(1 << image[w])
        for x in H.vertices():
            if cand >> x & 1:
                image[v] = x
                rec(i + 1)

    rec(0)
    return sorted(out)


def test_reduced_kernel_matches_all_pairs_kernel(certified_triple):
    pair = certified_triple.pair()
    rng = random.Random(31)
    cases = []
    for ell in (3, 4):
        bp = random_layered_bp(ell, 2, rng)
        cases.append((build_Gk(ell, pair), embed_bp(bp, "gadget", pair)))
    gates = [Gate("input", label=lab) for lab in "abca"]
    gates += [Gate("add", args=(0, 1)), Gate("add", args=(2, 3)), Gate("mul", args=(4, 5))]
    c = Circuit(tuple(gates), 6)
    for fault in (None, 1):
        J = build_Jn(c, certified_triple, fault_swap_level=fault)
        cases.append((build_Gm(J.meta["m"], certified_triple), J))
    for g, target in cases:
        order = _blocks_first_order(g)
        want = all_pairs_homs(g.graph, target.graph, order)
        assert enumerate_homs(g.graph, target.graph, order=order,
                              distance_prune=True) == want


def test_search_order_matches_frontier_reference():
    # small graphs of every density, disconnected ones among them, and a few
    # large sparse ones
    rng = random.Random(77)
    sizes = [rng.randint(0, 14) for _ in range(3000)] + [60, 120, 200]
    for n in sizes:
        p = rng.choice((0.05, 0.2, 0.5, 0.8)) if n <= 14 else 3 / n
        g = Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2)
                                 if rng.random() < p])
        assert _search_order(g) == search_order_reference(g), sorted(g.edges)


def test_custom_order_checked():
    with pytest.raises(ValueError):
        enumerate_homs(Graph.path(3), Graph.path(3), order=[1, 2])


@pytest.mark.parametrize("prune", [False, True])
def test_source_size_limit(prune):
    # the largest source the search takes is searched, and a larger one is
    # refused before the search starts
    k2 = Graph.complete(2)
    at_limit = Graph.path(MAX_SOURCE_VERTICES)
    assert len(enumerate_homs(at_limit, k2, distance_prune=prune)) == 2
    with pytest.raises(ValueError, match=f"at most {MAX_SOURCE_VERTICES} source vertices"):
        enumerate_homs(Graph.path(MAX_SOURCE_VERTICES + 1), k2, distance_prune=prune)
    with pytest.raises(ValueError, match="source vertices"):
        is_rigid(Graph.cycle(MAX_SOURCE_VERTICES + 1))


@pytest.mark.parametrize("prune", [False, True])
def test_search_depth_needs_no_recursion(prune):
    # the search is one loop over depths, so a source at the size limit
    # needs no more stack than a small one: 50 frames above this one
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        homs = enumerate_homs(Graph.path(MAX_SOURCE_VERTICES), Graph.complete(2),
                              distance_prune=prune)
    finally:
        sys.setrecursionlimit(limit)
    assert homs == [tuple(1 + (i + s) % 2 for i in range(MAX_SOURCE_VERTICES))
                    for s in (0, 1)]


def test_empty_source_has_one_map():
    # the empty map: counted against the cap like any other, and a
    # homomorphism even into the empty graph
    for H in (Graph.empty(0), Graph.complete(3)):
        assert enumerate_homs(Graph.empty(0), H) == [()]
        assert enumerate_homs(Graph.empty(0), H, cap=1, distance_prune=True) == [()]
        with pytest.raises(HomCapExceeded) as exc:
            enumerate_homs(Graph.empty(0), H, cap=0)
        assert (exc.value.cap, exc.value.partial) == (0, 1)
        assert has_hom(Graph.empty(0), H)
    assert is_rigid(Graph.empty(0))
    assert not has_hom(Graph.empty(1), Graph.empty(0))


def test_graph_from_masks_matches_from_edges():
    rng = random.Random(12)
    graphs = [Graph.empty(0), Graph.empty(3), Graph.complete(5), Graph.cycle(7)]
    graphs += [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(200)]
    for g in graphs:
        made = Graph.from_masks(list(g.nbr_masks))
        want = Graph.from_edges(g.n, g.edges)
        assert made == want
        assert (made.edges, made.adj, made.nbr_masks) == (want.edges, want.adj, want.nbr_masks)
    # masks that are not a simple graph's: one-sided, a loop, bit 0, a vertex
    # past n, negative
    for bad in ([0, 0b100, 0], [0, 0b10], [0b10, 0b1], [0, 0b10000, 0, 0], [0, -0b100, 0b10]):
        with pytest.raises(ValueError):
            Graph.from_masks(bad)


def test_rigidity():
    # K2 flips, cycles rotate: none of the small standard graphs are rigid
    assert not is_rigid(Graph.complete(2))
    assert not is_rigid(Graph.cycle(5))
    assert not is_rigid(Graph.path(4))
    assert is_rigid(Graph.complete(1))


def test_incomparability():
    # odd cycles of different sizes map one way only: C3 -> nothing in C5,
    # C5 -> C3 exists (wind around), so NOT incomparable
    assert not are_incomparable(Graph.cycle(5), Graph.complete(3))
    # a triangle and a long even cycle: triangle has no hom into bipartite,
    # C4 has no hom into... C4 -> K3 exists, so not incomparable either
    assert not are_incomparable(Graph.cycle(4), Graph.complete(3))
    # K3 vs K3 trivially comparable
    assert not are_incomparable(Graph.complete(3), Graph.complete(3))


def test_graph_text_round_trip():
    g = Graph.from_edges(5, [(1, 2), (2, 5), (3, 4)])
    assert Graph.from_text(g.to_text()) == g
    with pytest.raises(ValueError):
        Graph.from_text("p 3\ne 1 2\n")
    with pytest.raises(ValueError):
        Graph.from_text("p 3 1\ne 1 9\n")


def test_hypergraph_round_trip():
    h = Hypergraph3.from_edges(2, [(1, 2, 1), (2, 2, 2)])
    assert Hypergraph3.from_text(h.to_text()) == h
    with pytest.raises(ValueError):
        Hypergraph3.from_edges(2, [(0, 1, 1)])
