"""Search for rigid, non-bipartite, pairwise-incomparable block graphs.

Gadget constructions need blocks with no nontrivial self-map and no
homomorphism between distinct blocks.  Such graphs are scarce.  No
connected non-bipartite graph on at most 7 vertices is rigid: the tests
walk every graph on up to 6 vertices, and every 7-vertex graph up to
isomorphism.  The search draws seeded random graphs from 7 vertices up,
with a budget per size; the 7-vertex draws only advance the stream.  The
8-vertex blocks we return come from sampling, deterministic through the seed.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import combinations

from .gadgets import GadgetPair, GadgetTriple
from .graphs import Graph, are_incomparable, is_rigid, reach

# per-size sample budgets chosen so the default search reliably reaches a
# triple of 8-vertex blocks in seconds; the n=7 budget only sets the stream
SAMPLE_BUDGETS = {7: 1500, 8: 25000, 9: 25000, 10: 25000}


def _prefilter(nbr: Sequence[int]) -> bool:
    """Cheap necessary conditions for a rigid non-bipartite block.

    ``nbr[v]`` is the neighbour mask of vertex v (entry 0 unused), as in
    ``Graph.nbr_masks``.  A degree-<=1 vertex or a vertex whose
    neighbourhood is contained in a non-neighbour's always yields a
    nontrivial endomorphism; a block must also be connected and not
    bipartite.
    """
    n = len(nbr) - 1
    if n < 3:  # too small for an odd cycle
        return False
    for m in nbr[1:]:
        if not m & (m - 1):
            return False
    for v in range(1, n + 1):
        # the vertices adjacent to every neighbour of v: v itself and any
        # vertex whose neighbourhood contains v's
        common = -1
        m = nbr[v]
        while m:
            low = m & -m
            common &= nbr[low.bit_length() - 1]
            m ^= low
        if common & ~nbr[v] & ~(1 << v):
            return False
    # a block is connected, and an edge inside one breadth-first layer
    # closes an odd cycle
    seen, odd = reach(nbr, 1)
    return odd and seen == (1 << (n + 1)) - 2


def _graph(nbr: Sequence[int]) -> Graph:
    n = len(nbr) - 1
    return Graph.from_edges(n, [(u, w) for u in range(1, n + 1)
                                for w in range(u + 1, n + 1) if nbr[u] >> w & 1])


def _sample_masks(n: int, rng: random.Random) -> list[int]:
    """Neighbour masks of G(n, 1/2), one draw per vertex pair in
    lexicographic order."""
    nbr = [0] * (n + 1)
    for u, v in combinations(range(1, n + 1), 2):
        if rng.random() < 0.5:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
    return nbr


def sample_rigid_blocks(n: int, rng: random.Random, want: int,
                        max_samples: int) -> list[Graph]:
    """Up to ``want`` rigid non-bipartite blocks found by random sampling."""
    found: list[Graph] = []
    for _ in range(max_samples):
        nbr = _sample_masks(n, rng)
        if not _prefilter(nbr):
            continue
        g = _graph(nbr)
        if is_rigid(g):
            found.append(g)
            if len(found) >= want:
                break
    return found


def _find(pool: list[Graph], want: int,
          inc: dict[tuple[int, int], bool]) -> GadgetPair | GadgetTriple | None:
    """The first ``want`` pool blocks, in index order, that are pairwise
    incomparable.  ``inc`` memoizes ``are_incomparable`` by index pair
    across the calls of one search."""
    def incomparable(i: int, j: int) -> bool:
        if (i, j) not in inc:
            inc[i, j] = are_incomparable(pool[i], pool[j])
        return inc[i, j]

    for idx in combinations(range(len(pool)), want):
        if all(incomparable(i, j) for i, j in combinations(idx, 2)):
            return (GadgetPair if want == 2 else GadgetTriple)(*(pool[i] for i in idx))
    return None


def search_gadgets(max_n: int, need: str = "triple",
                   seed: int = 0) -> GadgetPair | GadgetTriple:
    """Find a certified incomparable pair or triple of rigid blocks.

    Draws seeded random graphs of each size from ``min(SAMPLE_BUDGETS)``
    (7) up to ``max_n``, within per-size budgets; smaller graphs are never
    built.  No block has fewer than 8 vertices (a test walks every graph
    up to 7), so the 7-vertex draws only advance the stream.  Raises with
    an honest account when no gadget is found within ``max_n``.
    """
    if need not in ("pair", "triple"):
        raise ValueError("need must be 'pair' or 'triple'")
    rng = random.Random(seed)
    pool: list[Graph] = []
    inc: dict[tuple[int, int], bool] = {}
    want = 2 if need == "pair" else 3
    for n in range(min(SAMPLE_BUDGETS), max_n + 1):
        budget = SAMPLE_BUDGETS.get(n, SAMPLE_BUDGETS[max(SAMPLE_BUDGETS)])
        # keep sampling this size, 500 draws at a time, until the budget
        # runs out or the pool supports the requested gadget
        for spent in range(0, budget, 500):
            pool.extend(sample_rigid_blocks(n, rng, want, min(500, budget - spent)))
            found = _find(pool, want, inc)
            if found is not None:
                return found
    raise ValueError(
        f"no {need} of rigid incomparable non-bipartite blocks found with at "
        f"most {max_n} vertices (none exist below 8; sampling budgets "
        f"exhausted otherwise)")

