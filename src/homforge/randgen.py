"""Seeded random instance generators for property suites.

Everything takes an explicit ``random.Random`` so test runs are
reproducible from a single seed.  Graph generators that promise a width
bound return the certifying decomposition along with the graph.
"""

from __future__ import annotations

import random
from itertools import combinations

from .bp import Arc, LayeredBP
from .formulas import CNF
from .graphs import Graph, Hypergraph3
from .intermediates import FamilyInstance, registry
from .rings import Field
from .treedecomp import TreeDecompInput


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected(n: int, p: float, rng: random.Random,
                     tries: int = 200) -> Graph:
    for _ in range(tries):
        g = gnp(n, p, rng)
        if g.is_connected():
            return g
    # fall back: thread a random spanning path through a sparse sample
    order = list(range(1, n + 1))
    rng.shuffle(order)
    g = gnp(n, p, rng)
    edges = set(g.edges) | {(min(a, b), max(a, b))
                            for a, b in zip(order, order[1:])}
    return Graph.from_edges(n, sorted(edges))


def random_partial_ktree(n: int, k: int, rng: random.Random,
                         keep: float = 0.7) -> tuple[Graph, TreeDecompInput]:
    """A random subgraph of a k-tree, with a width-<=k tree decomposition.

    Build a k-tree by repeatedly attaching a fresh vertex to a random
    k-clique, recording one bag per vertex; then drop each edge
    independently with probability ``1 - keep``.  The recorded bags stay
    a valid decomposition of the thinned graph.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    base = min(k + 1, n)
    edges = set(combinations(range(1, base + 1), 2))
    # cliques carry the id of the bag that contains them, so a new bag can
    # attach there and keep every shared vertex on a connected bag set
    cliques = [(tuple(range(1, base + 1)), 0)]
    bags = {0: frozenset(range(1, base + 1))}
    bag_edges = []
    for v in range(base + 1, n + 1):
        host, host_bag = rng.choice(cliques)
        sub = tuple(sorted(rng.sample(host, min(k, len(host)))))
        for u in sub:
            edges.add((min(u, v), max(u, v)))
        nid = len(bags)
        bags[nid] = frozenset(sub) | {v}
        bag_edges.append((host_bag, nid))
        cliques.append((sub + (v,), nid))
    kept = sorted(e for e in edges if rng.random() < keep)
    return Graph.from_edges(n, kept), TreeDecompInput(bags, bag_edges)


def random_path_decomposed(n: int, width: int, rng: random.Random,
                           keep: float = 0.8) -> tuple[Graph, TreeDecompInput, int]:
    """A graph together with a path decomposition of the given width.

    Bags are sliding windows of ``width+1`` consecutive vertices and only
    window pairs may become edges.  Returns (graph, decomposition, id of
    an end bag); rooting ``make_nice`` at an end bag keeps the nice form
    free of Join nodes.
    """
    w = width + 1
    if n < w:
        w = n
    bags = {}
    bag_edges = []
    windows = []
    for i in range(n - w + 1):
        bags[i] = frozenset(range(i + 1, i + w + 1))
        windows.append(list(range(i + 1, i + w + 1)))
        if i:
            bag_edges.append((i - 1, i))
    allowed = {e for win in windows for e in combinations(sorted(win), 2)}
    kept = sorted(e for e in allowed if rng.random() < keep)
    return Graph.from_edges(n, kept), TreeDecompInput(bags, bag_edges), len(bags) - 1


def random_cnf(n: int, m: int, rng: random.Random) -> CNF:
    """m random 3-clauses over n variables, three distinct variables each."""
    if n < 3:
        raise ValueError("need at least 3 variables")
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CNF(n, tuple(clauses))


def random_hypergraph(n: int, m: int, rng: random.Random) -> Hypergraph3:
    space = [(a, b, c) for a in range(1, n + 1)
             for b in range(1, n + 1) for c in range(1, n + 1)]
    return Hypergraph3(n, frozenset(rng.sample(space, min(m, len(space)))))


def random_layered_bp(ell: int, width: int, rng: random.Random) -> LayeredBP:
    """A random program with ``ell`` layers, width <= ``width``, fresh arc
    labels, and at least one source-to-sink path."""
    sizes = [1] + [rng.randint(1, width) for _ in range(ell - 2)] + [1]
    arcs = []
    chosen = set()
    # guaranteed path
    prev = 0
    for l in range(ell - 1):
        nxt = rng.randrange(sizes[l + 1]) if l + 1 < ell - 1 else 0
        chosen.add((l, prev, nxt))
        prev = nxt
    for l in range(ell - 1):
        for i in range(sizes[l]):
            for j in range(sizes[l + 1]):
                if (l, i, j) in chosen or rng.random() < 0.4:
                    arcs.append(Arc(l, i, j, f"w{len(arcs) + 1}"))
    return LayeredBP(sizes, arcs, source=0, sink=0)


def random_assignment(labels, field: Field, rng: random.Random) -> dict[str, int]:
    return {lab: rng.randrange(field.q) for lab in labels}


def random_instance(family: str, n: int, field: Field,
                    rng: random.Random) -> FamilyInstance:
    return FamilyInstance(family, n, field,
                          random_assignment(registry(family, n), field, rng))
