"""Brute-force references shared by the tests.

They share no code with what they check: neither calls the compiler or
``graphs.enumerate_homs``; both read a ``Graph`` only through its
vertices, adjacency sets and edges.
"""

from __future__ import annotations

from itertools import product

from homforge.graphs import Graph
from homforge.labels import yedge, zvar


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
