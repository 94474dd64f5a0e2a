"""Brute-force references shared by the tests.

The hom references share no code with what they check: neither calls the
compiler or ``graphs.enumerate_homs``; both read a ``Graph`` only through
its vertices, adjacency sets and edges.  ``eval_symbolic`` expands a
circuit through ``Circuit.eval`` over ``SymbolicRing``, the reference for
parse trees and for compiled polynomials over the integers.
"""

from __future__ import annotations

from itertools import product

from homforge.circuit import Circuit
from homforge.graphs import Graph
from homforge.labels import yedge, zvar
from homforge.rings import Field
from homforge.sparsepoly import BoundExceeded, SparsePoly


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


def eval_symbolic(c: Circuit, field: Field | None = None, bound: int = 10**6) -> SparsePoly:
    """Expand the circuit into a sparse polynomial (terms capped by bound)."""
    ring = SymbolicRing(field, bound)
    return c.eval({name: ring.var(name) for name in c.input_labels()}, ring)


class SymbolicRing:
    """Ring adapter so generic evaluators can produce SparsePoly values.

    Enforces a cap on the number of distinct monomials seen in any single
    intermediate result; expansion past the cap raises BoundExceeded.
    """

    def __init__(self, field: Field | None = None, bound: int = 10**6):
        self.field = field
        self.bound = bound

    @property
    def zero(self) -> SparsePoly:
        return SparsePoly.zero(self.field)

    @property
    def one(self) -> SparsePoly:
        return SparsePoly.const(1, self.field)

    def from_int(self, n: int) -> SparsePoly:
        return SparsePoly.const(n, self.field)

    def var(self, label: str) -> SparsePoly:
        return SparsePoly.var(label, self.field)

    def _checked(self, p: SparsePoly) -> SparsePoly:
        if len(p) > self.bound:
            raise BoundExceeded(
                f"symbolic result has {len(p)} monomials (bound {self.bound}); "
                "evaluate numerically instead"
            )
        return p

    def add(self, a: SparsePoly, b: SparsePoly) -> SparsePoly:
        return self._checked(a + b)

    def mul(self, a: SparsePoly, b: SparsePoly) -> SparsePoly:
        return self._checked(a * b)

    def pow(self, a: SparsePoly, e: int) -> SparsePoly:
        return self._checked(a.pow(e))
