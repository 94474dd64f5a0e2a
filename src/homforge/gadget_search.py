"""Search for rigid, non-bipartite, pairwise-incomparable block graphs.

Gadget constructions need blocks with no nontrivial self-map and no
homomorphism between distinct blocks.  Such graphs are scarce.  No
connected non-bipartite graph on at most 7 vertices is rigid: the tests
walk every graph on up to 6 vertices, and every 7-vertex graph up to
isomorphism.  The search draws seeded random graphs from 7 vertices up,
with a budget per size; the 7-vertex draws only advance the stream.  The
8-vertex blocks we return come from sampling, deterministic through the seed.

A sample is G(n, 1/2) with one ``random.Random.random()`` draw per vertex
pair, in lexicographic pair order, an edge where the draw is below 1/2.
CPython builds each such float from two 32-bit Mersenne Twister words and
the float is below 1/2 exactly when the first word is below 2^31, so the
sampler draws a whole batch of samples, two words per pair, in one
``getrandbits`` call on the same generator.  It rejects a batch's
non-blocks with array tests and passes only the survivors, in sample
order, to the rigidity check.  When the wanted blocks are found partway
through a batch, it rewinds the generator to the words those samples
used, so the stream, and the state it leaves, are exactly those of the
draw-by-draw sampler.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

from .gadgets import GadgetPair, GadgetTriple
from .graphs import Graph, are_incomparable, is_rigid, reach

# per-size sample budgets chosen so the default search reliably reaches a
# triple of 8-vertex blocks in seconds; the n=7 budget only sets the stream
SAMPLE_BUDGETS = {7: 1500, 8: 25000, 9: 25000, 10: 25000}

# samples per getrandbits call, and per pool check of search_gadgets
BATCH = 500


def _prefilter(adj: np.ndarray) -> list[tuple[int, list[int]]]:
    """The samples of a batch that pass cheap necessary conditions for a
    rigid non-bipartite block, as (index, neighbour masks) in index order.

    ``adj`` is a (batch, n, n) 0/1 adjacency array over vertices 1..n; the
    masks are as in ``Graph.nbr_masks`` (entry 0 unused).  A degree-<=1
    vertex, or a vertex v whose neighbourhood is contained in that of a
    non-neighbour w != v, always yields a nontrivial endomorphism; a block
    must also be connected and not bipartite.
    """
    n = adj.shape[1]
    if n < 3:  # too small for an odd cycle
        return []
    deg = adj.sum(axis=2)
    # common[s, v, w] = |N(v) & N(w)|, which is deg(v) iff N(v) <= N(w)
    common = adj @ adj.transpose(0, 2, 1)
    dominated = (common == deg[:, :, None]) & (adj == 0) & ~np.eye(n, dtype=bool)
    keep = np.flatnonzero((deg >= 2).all(axis=1) & ~dominated.any(axis=(1, 2)))
    rows = np.packbits(adj[keep], axis=2, bitorder="little")
    full = (1 << (n + 1)) - 2
    out = []
    for s, packed in zip(keep.tolist(), rows):
        nbr = [0] + [int.from_bytes(r.tobytes(), "little") << 1 for r in packed]
        # a block is connected, and an edge inside one breadth-first layer
        # closes an odd cycle
        seen, odd = reach(nbr, 1)
        if odd and seen == full:
            out.append((s, nbr))
    return out


def sample_rigid_blocks(n: int, rng: random.Random, want: int,
                        max_samples: int) -> list[Graph]:
    """Up to ``want`` rigid non-bipartite blocks among ``max_samples``
    draws of G(n, 1/2) from ``rng``, stopping after the sample that
    completes them (after the first block when ``want`` <= 0).  ``rng`` is
    left as one ``random()`` call per vertex pair would leave it."""
    pairs = n * (n - 1) // 2
    upper = np.triu_indices(n, 1)  # the vertex pairs in lexicographic order
    found: list[Graph] = []
    for start in range(0, max_samples, BATCH):
        size = min(BATCH, max_samples - start)
        before = rng.getstate()
        words = 2 * pairs * size
        # getrandbits puts the first word drawn in the lowest 32 bits
        raw = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                            dtype="<u4")
        adj = np.zeros((size, n, n), dtype=np.int32)
        adj[:, upper[0], upper[1]] = adj[:, upper[1], upper[0]] = (
            raw[::2] < 1 << 31).reshape(size, pairs)
        for s, nbr in _prefilter(adj):
            g = Graph.from_masks(nbr)
            if is_rigid(g):
                found.append(g)
                if len(found) >= want:
                    rng.setstate(before)
                    rng.getrandbits(64 * pairs * (s + 1))
                    return found
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
        # keep sampling this size, one batch at a time, until the budget
        # runs out or the pool supports the requested gadget
        for spent in range(0, budget, BATCH):
            pool.extend(sample_rigid_blocks(n, rng, want, min(BATCH, budget - spent)))
            found = _find(pool, want, inc)
            if found is not None:
                return found
    raise ValueError(
        f"no {need} of rigid incomparable non-bipartite blocks found with at "
        f"most {max_n} vertices (none exist below 8; sampling budgets "
        f"exhausted otherwise)")

