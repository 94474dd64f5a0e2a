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


# the most source vertices enumerate_homs takes.  A larger source is an input
# error (ValueError, CLI exit 2), refused before anything is built: the
# verifiers check a gadget graph's size before building it, and a .gad
# block's c_max may not exceed this.  No larger source can be checked by
# enumeration at desk scale; a depth-10 circuit's tree gadget has 34,790
# vertices
MAX_SOURCE_VERTICES = 800


def check_source_size(n: int) -> None:
    """Refuse a homomorphism-search source with more than MAX_SOURCE_VERTICES."""
    if n > MAX_SOURCE_VERTICES:
        raise ValueError(f"homomorphism search takes at most {MAX_SOURCE_VERTICES} "
                         f"source vertices, got {n}")


def bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


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


def extend_rings(nbr: Sequence[int], rings: list[int], d: int) -> None:
    """Grow rings, the balls around a vertex h (rings[k] is the mask of
    vertices within distance k of h under the neighbour masks nbr, and
    rings[0] is 1 << h), out to rings[d].  Past the eccentricity of h each
    ball is the whole component of h."""
    ball = rings[-1]
    frontier = ball & ~rings[-2] if len(rings) > 1 else ball
    while len(rings) <= d:
        frontier = neighbourhood(nbr, frontier) & ~ball
        ball |= frontier
        rings.append(ball)


def unimplied_balls(nbr: Sequence[int], v: int, earlier: int) -> list[tuple[int, int]]:
    """The ball tests (w, d) for placing v after the vertex mask earlier:
    each earlier w at distance d >= 2 from v that no other earlier vertex
    lies between on a shortest path.  The rest are implied: at d = 1 by
    the neighbour mask, and through such a u by induction on distance, as
    d_H(phi v, phi w) <= d(v, u) + d(u, w) = d(v, w).  One BFS by layers
    carries the shadow, the layer's vertices with an earlier vertex on a
    shortest path back to v.  Once every vertex of a layer is earlier or
    shadowed, each vertex of the next layer lies next to one and is
    shadowed too, so the BFS stops there."""
    tests = []
    seen = layer = 1 << v
    shadow = d = 0
    while earlier & ~seen and layer:
        cast = shadow | (layer & earlier)
        if not layer & ~cast:
            break
        layer = neighbourhood(nbr, layer) & ~seen
        shadow = neighbourhood(nbr, cast) & layer
        seen |= layer
        d += 1
        if d >= 2:
            tests += [(w, d) for w in bits(layer & earlier & ~shadow)]
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
    def from_masks(cls, nbr: Sequence[int]) -> "Graph":
        """The graph on vertices 1..len(nbr) - 1 with neighbour masks nbr,
        as in ``nbr_masks``: symmetric, bit 0 and bit v of nbr[v] clear."""
        n = len(nbr) - 1
        if any(m < 0 for m in nbr):  # bits() would never end
            raise ValueError("neighbour masks must not be negative")
        g = cls(n, frozenset((u, w) for u in range(1, n + 1) for w in bits(nbr[u]) if w > u))
        if g.nbr_masks != tuple(nbr):
            raise ValueError("neighbour masks must be symmetric, with no loops")
        return g

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
    """Max-degree seed, then grow connected: the next vertex is the first
    in (-degree, id) order among the unplaced neighbours of the placed
    vertices, or among all unplaced vertices when there are none (the
    next component)."""
    nbr = G.nbr_masks
    ranked = sorted(G.vertices(), key=lambda v: (-nbr[v].bit_count(), v))
    # bit i of a mask below stands for ranked[i], so the lowest bit is the
    # first vertex in rank order
    rank_bit = [0] * (G.n + 1)
    for i, v in enumerate(ranked):
        rank_bit[v] = 1 << i
    near = [neighbourhood(rank_bit, nbr[v]) for v in ranked]
    left = (1 << G.n) - 1
    reached = 0
    order: list[int] = []
    while left:
        pick = reached & left or left
        i = (pick & -pick).bit_length() - 1
        order.append(ranked[i])
        left ^= 1 << i
        reached |= near[i]
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

    The search is one loop over depths, with no recursion: depth i places
    order[i] and keeps the mask of its candidate images not yet tried.
    Candidate images are bit masks over H's vertices: the AND of the
    neighbour masks of the images of v's earlier neighbours and, with
    distance_prune, of the balls of radius dG(v, w) around the image of
    each earlier w that unimplied_balls keeps.  A depth's ball tests are
    built the first time its neighbour masks leave it a candidate, and the
    balls around an image only out to the largest radius a test has asked
    of them (extend_rings).  A depth left with no candidate is never
    entered.  Candidates are tried in ascending order.
    """
    check_source_size(G.n)
    if order is None:
        order = _search_order(G)
    elif sorted(order) != list(G.vertices()):
        raise ValueError("order must be a permutation of the source vertices")
    n = G.n
    if not n:  # the empty map is the one homomorphism
        if cap is not None and cap < 1:
            raise HomCapExceeded(cap, 1)
        return [()]
    nbrG, nbr = G.nbr_masks, H.nbr_masks
    # per depth i: the mask of the vertices placed before order[i], and
    # which of them are its neighbours
    earlier = [0] * n
    for i in range(1, n):
        earlier[i] = earlier[i - 1] | 1 << order[i - 1]
    earlier_nbrs = [bits(nbrG[v] & placed) for v, placed in zip(order, earlier)]
    tests_at: list[list[tuple[int, int]] | None] = [None] * n
    rings_of: list[list[int] | None] = [None] * (H.n + 1)

    results: list[tuple[int, ...]] = []
    image = [0] * (n + 1)  # image[v] for placed v
    cands = [0] * n  # cands[i]: the images of order[i] left to try
    cands[0] = every = (1 << (H.n + 1)) - 2  # bits 1..H.n
    last, i = n - 1, 0
    while True:
        cand = cands[i]
        if not cand:  # depth i is done: back to the one before
            if not i:
                break
            i -= 1
            continue
        low = cand & -cand
        cands[i] = cand ^ low
        image[order[i]] = low.bit_length() - 1
        if i == last:
            results.append(tuple(image[1:]))
            if cap is not None and len(results) > cap:
                raise HomCapExceeded(cap, len(results))
            continue
        j = i + 1
        cand = every
        for w in earlier_nbrs[j]:
            cand &= nbr[image[w]]
        if distance_prune and cand:
            tests = tests_at[j]
            if tests is None:
                tests = tests_at[j] = unimplied_balls(nbrG, order[j], earlier[j])
            for w, d in tests:
                h = image[w]
                rings = rings_of[h]
                if rings is None:
                    rings = rings_of[h] = [1 << h]
                if d >= len(rings):
                    extend_rings(nbr, rings, d)
                cand &= rings[d]
        if cand:  # a dead end is left at once, without entering depth j
            cands[j] = cand
            i = j
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
