"""Independent references for the benchmark's output checks.

Nothing here calls the compiler, the circuit evaluator, the rings module
or the verifiers: field arithmetic, hom-polynomial contraction, block
certification and path / parse-tree counts are all written out again, so
a defect in the code under test cannot also hide in its reference.  The
one shared dependency is ``graphs.enumerate_homs`` inside
``hom_sum_bruteforce``, the shape criterion 01 of the test suite uses.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import numpy as np

# F_4 = F_2[x] / (x^2 + x + 1), element c0 + c1*x encoded as c0 + 2*c1:
# the encoding of homforge's default modulus for q = 4, rebuilt by hand.
_F4_MUL = np.zeros((4, 4), dtype=np.int64)
for _a, _b in product(range(4), repeat=2):
    a0, a1, b0, b1 = _a & 1, _a >> 1, _b & 1, _b >> 1
    _F4_MUL[_a, _b] = ((a0 * b0 + a1 * b1) & 1) | (((a0 * b1 + a1 * b0 + a1 * b1) & 1) << 1)


class Arith:
    """Vectorised arithmetic of F_q for q in {2, 3, 4, 5}."""

    def __init__(self, q: int):
        if q not in (2, 3, 4, 5):
            raise ValueError(f"no reference arithmetic for q={q}")
        self.q = q

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.q == 4:
            return _F4_MUL[a, b]
        return (a * b) % self.q

    def sum(self, a: np.ndarray, axis: int) -> np.ndarray:
        if self.q == 4:  # characteristic 2: addition is xor of coordinates
            return np.bitwise_xor.reduce(a, axis=axis)
        return a.sum(axis=axis) % self.q


def zlabel(u: int, a: int) -> str:
    return f"Z:{u}:{a}"


def ylabel(a: int, b: int) -> str:
    return f"Ye:{min(a, b)}:{max(a, b)}"


def hom_sum_bruteforce(edges, n: int, h: int, homs,
                       values: dict[str, np.ndarray], q: int) -> np.ndarray:
    """Sum over the given homomorphisms G -> H of their Z/Y monomials.

    ``values`` maps labels to arrays of one shape (B,); ``homs`` lists image
    tuples of vertices 1..n in 1..h.  Returns the B sums in F_q.
    """
    ar = Arith(q)
    ix = {lab: j for j, lab in enumerate(values)}
    A = np.stack(list(values.values()), axis=1)
    if not homs:
        return np.zeros(A.shape[0], dtype=np.int64)
    images = np.array(homs, dtype=np.int64)
    zcol = np.array([[ix.get(zlabel(u, a), -1) for a in range(h + 1)]
                     for u in range(n + 1)], dtype=np.int64)
    ycol = np.array([[ix.get(ylabel(a, b), -1) if a != b else -1 for b in range(h + 1)]
                     for a in range(h + 1)], dtype=np.int64)
    acc = np.ones((A.shape[0], len(homs)), dtype=np.int64)
    for u in range(1, n + 1):
        acc = ar.mul(acc, A[:, zcol[u, images[:, u - 1]]])
    for (u, v) in edges:
        acc = ar.mul(acc, A[:, ycol[images[:, u - 1], images[:, v - 1]]])
    return ar.sum(acc, axis=1)


def _min_degree_order(n: int, edges) -> list[int]:
    adj = {v: set() for v in range(1, n + 1)}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = []
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs - {a}
        order.append(v)
    return order


def _align(vars_: tuple[int, ...], arr: np.ndarray, union: list[int],
           h: int) -> np.ndarray:
    """Reorder a factor over ``vars_`` so it broadcasts against ``union``."""
    present = [v for v in union if v in vars_]
    arr = arr.transpose([0] + [1 + vars_.index(v) for v in present])
    return arr.reshape((arr.shape[0],) + tuple(h if v in vars_ else 1 for v in union))


def hom_sum_contraction(n: int, edges, h_edges, h: int,
                        values: dict[str, np.ndarray], q: int,
                        chunk: int = 128) -> np.ndarray:
    """f(Z, Y) of G -> H by variable elimination on G.

    One factor per vertex (its Z row) and per edge (the Y matrix of H,
    zero off the edges of H), eliminated in min-degree order; sums and
    products run in F_q over a batch of assignments at a time.
    """
    ar = Arith(q)
    batch = len(next(iter(values.values())))
    hset = {(min(a, b), max(a, b)) for (a, b) in h_edges}
    order = _min_degree_order(n, edges)
    out = np.empty(batch, dtype=np.int64)
    for lo in range(0, batch, chunk):
        hi = min(batch, lo + chunk)
        b = hi - lo
        factors: list[tuple[tuple[int, ...], np.ndarray]] = []
        for u in range(1, n + 1):
            z = np.stack([values[zlabel(u, a)][lo:hi] for a in range(1, h + 1)], axis=1)
            factors.append(((u,), z))
        zero = np.zeros(b, dtype=np.int64)
        ymat = np.stack([np.stack([values[ylabel(a, c)][lo:hi]
                                   if (min(a, c), max(a, c)) in hset else zero
                                   for c in range(1, h + 1)], axis=1)
                         for a in range(1, h + 1)], axis=1)
        for (u, v) in edges:
            factors.append(((u, v), ymat))
        for v in order:
            mine = [f for f in factors if v in f[0]]
            factors = [f for f in factors if v not in f[0]]
            union = sorted({x for vars_, _ in mine for x in vars_}, key=lambda x: (x != v, x))
            acc = None
            for vars_, arr in mine:
                aligned = _align(vars_, arr, union, h)
                acc = aligned if acc is None else ar.mul(acc, aligned)
            factors.append((tuple(union[1:]), ar.sum(acc, axis=1)))
        total = np.ones(b, dtype=np.int64)
        for vars_, arr in factors:
            assert not vars_
            total = ar.mul(total, arr)
        out[lo:hi] = total
    return out


# -- block certification ------------------------------------------------------


def count_homs_backtracking(g_adj: dict[int, set[int]], h_adj: dict[int, set[int]],
                            cap: int) -> int:
    """Homomorphisms between adjacency maps, counted up to ``cap``."""
    gv = sorted(g_adj)
    hv = sorted(h_adj)
    img: dict[int, int] = {}
    count = 0

    def rec(i: int) -> None:
        nonlocal count
        if count >= cap:
            return
        if i == len(gv):
            count += 1
            return
        u = gv[i]
        for x in hv:
            if all(x in h_adj[img[w]] for w in g_adj[u] if w in img):
                img[u] = x
                rec(i + 1)
                del img[u]

    rec(0)
    return count


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj = {v: set() for v in range(1, n + 1)}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _connected(adj: dict[int, set[int]]) -> bool:
    start = min(adj)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def _bipartite(adj: dict[int, set[int]]) -> bool:
    color: dict[int, int] = {}
    for s in sorted(adj):
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def blocks_certified(blocks: list[dict[int, set[int]]]) -> bool:
    """Connected, non-bipartite, rigid and pairwise incomparable."""
    for g in blocks:
        if not _connected(g) or _bipartite(g):
            return False
        if count_homs_backtracking(g, g, cap=2) != 1:
            return False
    for i, a in enumerate(blocks):
        for j, b in enumerate(blocks):
            if i != j and count_homs_backtracking(a, b, cap=1) != 0:
                return False
    return True


# -- branching programs and normal-form circuits ------------------------------


def count_paths(sizes, arcs, source: int, sink: int) -> int:
    """Source-to-sink paths of a layered program, constant-0 arcs dead."""
    ways = {(0, source): 1}
    for layer in range(len(sizes) - 1):
        for a in arcs:
            if a.layer == layer and a.label != 0 and (layer, a.src) in ways:
                key = (layer + 1, a.dst)
                ways[key] = ways.get(key, 0) + ways[(layer, a.src)]
    return ways.get((len(sizes) - 1, sink), 0)


def parse_monomials(groups: list[list[str]]) -> Counter:
    """Monomials of a product of sums, one factor chosen per group."""
    out: Counter = Counter()
    for pick in product(*groups):
        out[tuple(sorted(Counter(pick).items()))] += 1
    return out
