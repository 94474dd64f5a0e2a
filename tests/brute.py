"""Brute-force references shared by the tests.

The hom references share no code with what they check: none calls the
compiler or ``graphs.enumerate_homs``; they read a ``Graph`` only through
its vertices, adjacency sets and edges, and ``distances`` runs its own
BFS.  ``complete_assignment`` spells a gadget graph out as an assignment
of every edge variable of a complete graph.  ``eval_symbolic`` expands a
circuit through ``Circuit.eval`` over ``SymbolicRing``, the reference for
parse trees and for compiled polynomials over the integers.
``treewidth_dp_reference`` is the exact treewidth recurrence with one
depth-first fill-degree search per (subset, vertex) pair.
``field_tables_reference`` multiplies and reduces polynomials pair by pair,
``is_prime_trial`` divides by every odd number up to the square root, and
``reachable_reference`` peels dead gates one round per link of a dead chain.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import numpy as np

from homforge.circuit import Circuit
from homforge.gadgets import GadgetGraph
from homforge.graphs import Graph
from homforge.labels import Monomial, mono_mul, yedge, zvar

UNREACHABLE = 10**9  # the distance between vertices in different components


def is_homomorphism(G: Graph, H: Graph, phi) -> bool:
    """Whether phi (phi[u - 1] the image of u) sends every edge of G to an
    edge of H."""
    if len(phi) != G.n or any(not 1 <= h <= H.n for h in phi):
        return False
    return all(phi[v - 1] in H.adj[phi[u - 1]] for u, v in G.edges)


def distances(G: Graph) -> list[list[int]]:
    """All-pairs BFS distances, table indexed [u][v] (row 0 unused);
    vertices in different components are UNREACHABLE apart."""
    table = [[UNREACHABLE] * (G.n + 1)]
    for s in G.vertices():
        d = [UNREACHABLE] * (G.n + 1)
        d[s] = 0
        queue = [s]
        for x in queue:  # the loop also visits what it appends
            for y in G.adj[x]:
                if d[y] == UNREACHABLE:
                    d[y] = d[x] + 1
                    queue.append(y)
        table.append(d)
    return table


def complete_assignment(g: GadgetGraph, target_size: int | None = None) -> dict:
    """An edge-variable assignment for the complete graph on ``target_size``
    (default: exactly |V(g)|) vertices: absent edges map to 0, structural
    edges to 1, and program arcs to their labels."""
    n = g.graph.n
    size = n if target_size is None else target_size
    if size < n:
        raise ValueError(f"target graph needs at least {n} vertices")
    assignment: dict[str, object] = {}
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if j <= n and j in g.graph.adj[i]:
                assignment[yedge(i, j)] = g.labels.get((i, j), 1)
            else:
                assignment[yedge(i, j)] = 0
    return assignment


def count_homs(G: Graph, H: Graph, cap: int) -> int:
    """Plain backtracking homomorphism counter, stopping at ``cap``."""
    gv = sorted(G.vertices())
    hv = sorted(H.vertices())
    count = 0
    img: dict[int, int] = {}

    def rec(i: int) -> None:
        nonlocal count
        if count >= cap:
            return
        if i == len(gv):
            count += 1
            return
        u = gv[i]
        for x in hv:
            if all(x in H.adj[img[w]] for w in G.adj[u] if w in img):
                img[u] = x
                rec(i + 1)
                del img[u]

    rec(0)
    return count


def _elim_degree(adj: list[int], T: int, v: int) -> int:
    """Degree of ``v`` after the vertex set ``T`` has been eliminated.

    Counts vertices outside ``T`` adjacent to ``v`` or connected to it
    through eliminated vertices (the fill-in degree); bitmask encoded.
    """
    seen = 1 << v
    stack = [v]
    ext = 0
    while stack:
        x = stack.pop()
        nb = adj[x]
        ext |= nb & ~T
        t = nb & T & ~seen
        while t:
            low = t & -t
            seen |= low
            stack.append(low.bit_length() - 1)
            t ^= low
    ext &= ~(1 << v)
    return bin(ext).count("1")


def treewidth_dp_reference(G: Graph) -> tuple[int, list[int]]:
    """Treewidth and elimination order by the subset recurrence
    ``f(S) = min over v in S of max(f(S - v), fill-degree of v after S - v)``,
    the least v winning ties, with the fill-degree found by a fresh search."""
    n = G.n
    adj = [0] * n
    for (u, v) in G.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    full = (1 << n) - 1
    f = [0] * (full + 1)
    choice = [0] * (full + 1)
    for S in range(1, full + 1):
        f[S], choice[S] = min((max(f[S & ~(1 << v)], _elim_degree(adj, S & ~(1 << v), v)), v)
                              for v in range(n) if S >> v & 1)
    order = []
    S = full
    while S:
        order.append(choice[S] + 1)
        S &= ~(1 << choice[S])
    return f[full], order[::-1]


def hom_poly_oracle(G: Graph, H: Graph, assignment: dict, ring):
    """Brute-force f(Z, Y): iterate all |V(H)|^|V(G)| maps directly.

    Exponential, so keep |V(H)|^|V(G)| small.
    """
    gverts = list(G.vertices())
    gedges = sorted(G.edges)
    total = ring.zero
    for image in product(H.vertices(), repeat=len(gverts)):
        phi = dict(zip(gverts, image))
        if any(not H.has_edge(phi[u], phi[v]) for (u, v) in gedges):
            continue
        term = ring.one
        for u in gverts:
            term = ring.mul(term, assignment[zvar(u, phi[u])])
        for (u, v) in gedges:
            term = ring.mul(term, assignment[yedge(phi[u], phi[v])])
        total = ring.add(total, term)
    return total


def is_prime_trial(n: int) -> bool:
    """Primality by trial division."""
    if n < 4:
        return n >= 2
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def field_tables_reference(p: int, k: int, modulus: tuple[int, ...]):
    """The add, mul and neg tables of F_p[x]/(modulus) over the element
    encoding sum(c_i * p**i), one polynomial product and reduction per pair."""
    q = p**k

    def coords(a):
        return [a // p**i % p for i in range(k)]

    def index(cs):
        return sum(c % p * p**i for i, c in enumerate(cs))

    def reduce(cs):
        cs = list(cs)
        inv_lead = pow(modulus[-1], p - 2, p)
        for d in range(len(cs) - 1, k - 1, -1):
            scale = cs[d] * inv_lead % p
            for j, m in enumerate(modulus):
                cs[d - k + j] = (cs[d - k + j] - scale * m) % p
        return cs[:k]

    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        ca = coords(a)
        for b in range(q):
            cb = coords(b)
            add[a, b] = index(x + y for x, y in zip(ca, cb))
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(ca):
                for j, y in enumerate(cb):
                    prod[i + j] += x * y
            mul[a, b] = index(reduce(prod))
    neg = np.array([index(-c for c in coords(a)) for a in range(q)], dtype=np.int64)
    return add, mul, neg


def reachable_reference(offsets: np.ndarray, args: np.ndarray, output: int) -> np.ndarray:
    """Per gate, whether output reaches it: peel the gates nothing reads,
    output aside, one round per link of the longest dead chain."""
    n, arity = len(offsets) - 1, offsets[1:] - offsets[:-1]
    reads = np.bincount(args, minlength=n)
    reads[output] += 1
    dead = peel = reads == 0
    while peel.any():
        reads -= np.bincount(args[peel.repeat(arity)], minlength=n)
        peel = (reads == 0) & ~dead
        dead |= peel
    return ~dead


Poly = dict[Monomial, int]  # monomial -> nonzero integer coefficient


def eval_symbolic(c: Circuit, bound: int = 10**6) -> Poly:
    """Expand the circuit into an integer polynomial (terms capped by bound)."""
    ring = SymbolicRing(bound)
    return c.eval({name: ring.var(name) for name in c.input_labels()}, ring)


class BoundExceeded(RuntimeError):
    """Raised when a symbolic expansion grows past the ring's term bound."""


class SymbolicRing:
    """Integer polynomials as ``Poly`` dicts, a ring adapter so generic
    evaluators expand symbolically.  A result with more than ``bound``
    monomials raises BoundExceeded."""

    def __init__(self, bound: int = 10**6):
        self.bound = bound

    zero = property(lambda self: {})
    one = property(lambda self: {(): 1})

    def from_int(self, n: int) -> Poly:
        return {(): n} if n else {}

    def var(self, label: str) -> Poly:
        return {((label, 1),): 1}

    def _checked(self, acc: Counter) -> Poly:
        p = {m: c for m, c in acc.items() if c}
        if len(p) > self.bound:
            raise BoundExceeded(
                f"symbolic result has {len(p)} monomials (bound {self.bound}); "
                "evaluate numerically instead"
            )
        return p

    def add(self, a: Poly, b: Poly) -> Poly:
        acc = Counter(a)
        acc.update(b)
        return self._checked(acc)

    def mul(self, a: Poly, b: Poly) -> Poly:
        acc: Counter = Counter()
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                acc[mono_mul(m1, m2)] += c1 * c2
        return self._checked(acc)

    def pow(self, a: Poly, e: int) -> Poly:
        acc = self.one
        for _ in range(e):
            acc = self.mul(acc, a)
        return acc
