"""Simple undirected graphs, 3-uniform tripartite hypergraphs, and
homomorphism enumeration.

Vertices are 1..n.  Edges are stored as (min, max) pairs, no self-loops.
A homomorphism G -> H is a map on vertices sending every edge to an edge;
it is represented as a tuple of length n(G) whose i-th entry is the image
of vertex i+1.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .labels import read_lines


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self-loop at {u}")
    return (u, v) if u < v else (v, u)


# the most source vertices enumerate_homs takes: its search recurses once per
# source vertex, and Python's default recursion limit is 1,000 frames (800
# leaves room for the callers' frames), so a larger source is refused with
# ValueError instead of hitting RecursionError
MAX_SOURCE_VERTICES = 800


def check_source_size(n: int) -> None:
    """Refuse a homomorphism-search source with more than MAX_SOURCE_VERTICES."""
    if n > MAX_SOURCE_VERTICES:
        raise ValueError(f"homomorphism search takes at most {MAX_SOURCE_VERTICES} "
                         f"source vertices, got {n}")


def neighbourhood(nbr: Sequence[int], mask: int) -> int:
    """The union of the neighbour masks ``nbr[v]`` over the bits v of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= nbr[low.bit_length() - 1]
        mask ^= low
    return out


def reach(nbr: Sequence[int], start: int) -> tuple[int, bool]:
    """The mask of vertices reached from ``start`` under the neighbour
    masks nbr, and whether an edge joins two vertices of one breadth-first
    layer, that is, whether the component of start has an odd cycle."""
    seen = frontier = 1 << start
    odd = False
    while frontier:
        out = neighbourhood(nbr, frontier)
        odd = odd or bool(out & frontier)
        frontier = out & ~seen
        seen |= frontier
    return seen, odd


def ball_rings(nbr: Sequence[int], h: int) -> list[int]:
    """rings[d] is the mask of vertices within distance d of h under the
    neighbour masks nbr, for d from 0 to the eccentricity of h in its
    component, so rings[-1] is the whole component of h."""
    ball = frontier = 1 << h
    rings = [ball]
    while frontier := neighbourhood(nbr, frontier) & ~ball:
        ball |= frontier
        rings.append(ball)
    return rings


def unimplied_balls(nbr: Sequence[int], v: int, earlier: int) -> list[tuple[int, int]]:
    """The ball tests (w, d) for placing v after the vertex mask earlier:
    each earlier w at distance d >= 2 from v that no other earlier vertex
    lies between on a shortest path.  The rest are implied: at d = 1 by
    the neighbour mask, and through such a u by induction on distance, as
    d_H(phi v, phi w) <= d(v, u) + d(u, w) = d(v, w).  One BFS by layers
    carries the shadow, the layer's vertices with an earlier vertex on a
    shortest path back to v."""
    tests = []
    seen = layer = 1 << v
    shadow = d = 0
    while earlier & ~seen and layer:
        cast = shadow | (layer & earlier)
        layer = neighbourhood(nbr, layer) & ~seen
        shadow = neighbourhood(nbr, cast) & layer
        seen |= layer
        d += 1
        keep = layer & earlier & ~shadow if d >= 2 else 0
        while keep:
            low = keep & -keep
            keep ^= low
            tests.append((low.bit_length() - 1, d))
    return tests


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u},{v}) out of range or unnormalised")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, frozenset(_norm_edge(u, v) for u, v in edges))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, frozenset())

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, combinations(range(1, n + 1), 2))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycles need at least 3 vertices")
        return cls.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(1, n)])

    # -- views ----------------------------------------------------------------

    @cached_property
    def adj(self) -> dict[int, frozenset[int]]:
        nb: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            nb[u].add(v)
            nb[v].add(u)
        return {v: frozenset(s) for v, s in nb.items()}

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and _norm_edge(u, v) in self.edges

    def vertices(self) -> range:
        return range(1, self.n + 1)

    # -- standard predicates --------------------------------------------------

    def is_connected(self) -> bool:
        return self.n <= 1 or reach(self.nbr_masks, 1)[0] == (1 << (self.n + 1)) - 2

    def is_bipartite(self) -> bool:
        left = (1 << (self.n + 1)) - 2
        while left:
            seen, odd = reach(self.nbr_masks, (left & -left).bit_length() - 1)
            if odd:
                return False
            left &= ~seen
        return True

    @cached_property
    def nbr_masks(self) -> tuple[int, ...]:
        """nbr_masks[v] has bit w set for each neighbour w of v (entry 0 unused)."""
        masks = [0] * (self.n + 1)
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    # -- text format ----------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"p {self.n} {self.m}"]
        lines += [f"e {u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        n = m = None
        edges = []

        def line(toks):
            nonlocal n, m
            if toks[0] == "p":
                if n is not None:
                    raise ValueError("duplicate header")
                if len(toks) != 3:
                    raise ValueError("expected 'p <n> <m>'")
                n, m = int(toks[1]), int(toks[2])
            elif toks[0] == "e":
                if n is None:
                    raise ValueError("edge before header")
                if len(toks) != 3:
                    raise ValueError("expected 'e <u> <v>'")
                edges.append((int(toks[1]), int(toks[2])))
            else:
                raise ValueError(f"unrecognised directive {toks[0]!r}")

        read_lines(text, line)
        if n is None:
            raise ValueError("missing 'p <n> <m>' header")
        g = cls.from_edges(n, edges)
        if g.m != m:
            raise ValueError(f"header declares {m} edges, found {g.m}")
        return g


@dataclass(frozen=True)
class Hypergraph3:
    """3-uniform tripartite hypergraph with parts A, B, C of size n each.

    A hyperedge (a, b, c) has part-local coordinates in 1..n.
    """

    n: int
    edges: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"part size {self.n} is negative")
        for e in self.edges:
            if len(e) != 3 or not all(1 <= x <= self.n for x in e):
                raise ValueError(f"hyperedge {e} out of range")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Hypergraph3":
        return cls(n, frozenset(tuple(e) for e in edges))

    def to_text(self) -> str:
        lines = [f"h {self.n}"]
        lines += [f"t {a} {b} {c}" for a, b, c in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph3":
        n = None
        edges = []

        def line(toks):
            nonlocal n
            if toks[0] == "h":
                if n is not None:
                    raise ValueError("duplicate header")
                if len(toks) != 2:
                    raise ValueError("expected 'h <n>'")
                n = int(toks[1])
            elif toks[0] == "t":
                if n is None:
                    raise ValueError("hyperedge before header")
                if len(toks) != 4:
                    raise ValueError("expected 't <a> <b> <c>'")
                edges.append(tuple(int(t) for t in toks[1:]))
            else:
                raise ValueError(f"unrecognised directive {toks[0]!r}")

        read_lines(text, line)
        if n is None:
            raise ValueError("missing 'h <n>' header")
        return cls.from_edges(n, edges)


class HomCapExceeded(RuntimeError):
    def __init__(self, cap: int, partial: int):
        super().__init__(f"homomorphism cap {cap} exceeded (partial count {partial})")
        self.cap = cap
        self.partial = partial


def _search_order(G: Graph) -> list[int]:
    """Max-degree seed, then grow connected (BFS by degree); disconnected
    components follow in the same fashion."""
    rank = {v: (-G.degree(v), v) for v in G.vertices()}.__getitem__
    remaining = set(G.vertices())
    order: list[int] = []
    while remaining:
        frontier = [min(remaining, key=rank)]
        while frontier:
            frontier.sort(key=rank)
            v = frontier.pop(0)
            if v not in remaining:
                continue
            remaining.discard(v)
            order.append(v)
            frontier += [w for w in G.adj[v] if w in remaining]
    return order


def enumerate_homs(
    G: Graph,
    H: Graph,
    cap: int | None = None,
    *,
    order: list[int] | None = None,
    distance_prune: bool = False,
) -> list[tuple[int, ...]]:
    """All homomorphisms G -> H, sorted lexicographically as map tuples.

    cap aborts the search with HomCapExceeded once more than cap maps have
    been found.  distance_prune additionally rejects images that would
    force some pair of vertices closer together than they are in H.  A
    source with more than MAX_SOURCE_VERTICES vertices is refused with
    ValueError before the search starts.

    Candidate images are bit masks over H's vertices: the AND of the
    neighbour masks of the images of v's earlier neighbours and, with
    distance_prune, of the balls of radius dG(v, w) around the image of
    each earlier w that unimplied_balls keeps.  A depth's tests are built
    when the search first reaches it, an image's ball_rings when it is
    first tested.  Candidates are tried in ascending order.
    """
    check_source_size(G.n)
    order = order if order is not None else _search_order(G)
    if sorted(order) != list(G.vertices()):
        raise ValueError("order must be a permutation of the source vertices")
    n = G.n
    pos_of = {v: i for i, v in enumerate(order)}
    # neighbours of order[i] that appear earlier in the order
    earlier_nbrs: list[list[int]] = []
    for i, v in enumerate(order):
        earlier_nbrs.append([w for w in G.adj[v] if pos_of[w] < i])
    nbr = H.nbr_masks
    every = (1 << (H.n + 1)) - 2  # bits 1..H.n
    if distance_prune:
        tests_at: list[list[tuple[int, int]] | None] = [None] * n
        rings_of: dict[int, list[int]] = {}

    results: list[tuple[int, ...]] = []
    image = [0] * (n + 1)  # image[v] for assigned v

    def rec(i: int) -> None:
        if i == n:
            results.append(tuple(image[1:]))
            if cap is not None and len(results) > cap:
                raise HomCapExceeded(cap, len(results))
            return
        v = order[i]
        cand = every
        for w in earlier_nbrs[i]:
            cand &= nbr[image[w]]
        if distance_prune and cand:
            tests = tests_at[i]
            if tests is None:
                earlier = sum(1 << w for w in order[:i])
                tests = tests_at[i] = unimplied_balls(G.nbr_masks, v, earlier)
            for w, d in tests:
                h = image[w]
                rings = rings_of.get(h)
                if rings is None:
                    rings = rings_of[h] = ball_rings(nbr, h)
                cand &= rings[d] if d < len(rings) else rings[-1]
        while cand:
            low = cand & -cand
            cand ^= low
            image[v] = low.bit_length() - 1
            rec(i + 1)

    rec(0)
    results.sort()
    return results


def has_hom(G: Graph, H: Graph) -> bool:
    """Some homomorphism G -> H: the search stops at the first map."""
    try:
        enumerate_homs(G, H, cap=0)
    except HomCapExceeded:
        return True
    return False


def is_rigid(G: Graph) -> bool:
    """Exactly one homomorphism G -> G (necessarily the identity)."""
    try:
        homs = enumerate_homs(G, G, cap=1)
    except HomCapExceeded:
        return False
    assert homs == [tuple(G.vertices())]
    return True


def are_incomparable(G: Graph, H: Graph) -> bool:
    """No homomorphism in either direction."""
    return not has_hom(G, H) and not has_hom(H, G)
