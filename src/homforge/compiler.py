"""Compile (G, nice decomposition, H) into a homomorphism-polynomial circuit.

The produced circuit evaluates the generalized homomorphism polynomial

    f(Z, Y) = sum over homomorphisms phi: G -> H of
              prod_u Z[u, phi(u)] * prod_{(u,v) in E(G)} Ye[phi(u), phi(v)]

by the H-colouring dynamic program over the decomposition (Diaz, Serna,
Thilikos, TCS 2002).  Each node t keeps one gate per mapping phi of its bag:
the sum, over extensions of phi to the vertices forgotten below t, of the
factors charged so far.  A vertex's factors are charged once, at the Forget
node that removes it: its Z factor and the Ye factor of every edge to a
vertex still in the bag.  The root bag is empty and vertex subtrees are
connected, so every vertex is forgotten exactly once, and of the two
endpoints of an edge the first one forgotten still has the other in its
bag.  Leaf and Introduce nodes emit no gate (Introduce only zeroes the
mappings that break an H edge), and a Join multiplies its children's
gates, whose factors are disjoint.  Join-free decompositions give skew
circuits.

A node's table is a flat list of gate ids, one per mapping of its bag,
row-major over the bag's vertices in order of introduction (digit i is
H-vertex i + 1).  Gates are appended as the tables are walked, in an order
that the compiled text pins: a Forget node emits one mul gate per term in
its child's row order, each after the Z and Ye inputs it is the first to
use (a term whose child gate is the zero constant emits none but still
makes its inputs), then one add gate per row with two or more live terms;
a Join emits its products in row order.  The folds are the builder's: 0
annihilates, 1 drops out, and a lone factor or term stands for itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from .circuit import OP_ADD, OP_MUL, Circuit, CircuitBuilder
from .graphs import Graph
from .labels import yedge, zvar
from .treedecomp import NiceTreeDecomp, validate_nice


# Largest number of bag-table entries, sum over nodes t of |V(H)|^|bag_t|,
# that compile_hom builds.  The n = 20 benchmark compile into K6 holds
# 51,655 and a 14-cycle into K20 holds 101,241 (0.49 s on 2 vCPUs); a 14-cycle
# into K50 holds 1,532,601 and took 15.7 s and 890 MiB.
TABLE_LIMIT = 10**6


def check_table_size(d: NiceTreeDecomp, target_n: int) -> None:
    """Refuse a compile whose bag tables, one entry per node and mapping of
    its bag into a target on ``target_n`` vertices, pass ``TABLE_LIMIT``."""
    entries = sum(target_n ** len(nd.bag) for nd in d.nodes)
    if entries > TABLE_LIMIT:
        raise ValueError(f"compile builds at most {TABLE_LIMIT} bag-table entries, "
                         f"got {entries}")


class InvalidDecomposition(ValueError):
    """``compile_hom``'s refusal; ``problems`` lists what ``validate_nice`` found."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid nice decomposition: " + "; ".join(problems))
        self.problems = problems


@dataclass
class CompiledHom:
    """A compiled circuit plus the compile-time facts tests care about."""

    circuit: Circuit
    width: int
    gate_count: int
    wire_count: int
    size_bound: int
    skew: bool


def size_bound(G: Graph, H: Graph, width: int) -> int:
    """Gate-count bound 2|V(G)| * |V(H)|^(width+1) * (2|V(H)| + 2|E(H)|)."""
    return 2 * G.n * H.n ** (width + 1) * (2 * H.n + 2 * H.m)


def compile_hom(G: Graph, d: NiceTreeDecomp, H: Graph) -> CompiledHom:
    """Run the bag dynamic program and emit the circuit of its live gates."""
    errs = validate_nice(d, G)
    if errs:
        raise InvalidDecomposition(errs)
    if H.n < 1:
        raise ValueError("target graph needs at least one vertex")
    check_table_size(d, H.n)

    b = CircuitBuilder()
    n, push = H.n, b._push
    zero, one = b.const(0), b.const(1)
    adj = [m >> 1 for m in H.nbr_masks[1:]]  # bit j of adj[i]: H-vertices i+1, j+1 adjacent
    grid = cache(lambda k: list(product(range(n), repeat=k)))  # row -> its images
    # ye[a][h] = ye[h][a]: the id of input Ye:a+1:h+1, or 0 (the zero constant's
    # id, never an input's) until a term first uses it
    ye = [[0] * n for _ in range(n)]

    def allowed(k: int, pos: list[int]) -> list[int]:
        """Per row of a k-vertex table, the mask of H-vertices adjacent to
        the row's image of each vertex at a position in pos."""
        masks = [(1 << n) - 1] * n ** k
        for i in pos:
            masks = [m & adj[row[i]] for m, row in zip(masks, grid(k))]
        return masks

    # per node: its bag's vertices in order of introduction, and its table
    axes: dict[int, list[int]] = {}
    table: dict[int, list[int]] = {}

    for t in d.postorder():
        nd = d.nodes[t]
        if nd.kind == "leaf":
            axes[t], table[t] = list(nd.bag), [one] * n
        elif nd.kind == "intro":
            ax, child = axes.pop(nd.children[0]), table.pop(nd.children[0])
            masks = allowed(len(ax), [i for i, v in enumerate(ax) if G.has_edge(nd.vertex, v)])
            axes[t] = ax + [nd.vertex]
            table[t] = [g1 if m >> h & 1 else zero
                        for g1, m in zip(child, masks) for h in range(n)]
        elif nd.kind == "forget":
            ax, child = axes.pop(nd.children[0]), table.pop(nd.children[0])
            u = nd.vertex
            stride = n ** (len(ax) - 1 - ax.index(u))
            ax.remove(u)
            axes[t] = ax
            # u's Ye factors, in order of neighbour vertex
            pos = [ax.index(v) for v in sorted(v for v in ax if G.has_edge(u, v))]
            masks = allowed(len(ax), pos)
            images = [[row[i] for i in pos] for row in grid(len(ax))]
            z = [0] * n  # z[h]: the id of input Z:u:h+1, or 0 until first used
            terms: list[list[int]] = [[] for _ in masks]
            # the child's rows in order: u's image h splits row r = pre + s of t
            # into the digits of pre, before u's, and those of s, after them
            walk = product(range(0, len(masks), stride), range(n), range(stride))
            for (pre, h, s), g1 in zip(walk, child):
                r = pre + s
                # a term breaking an H edge is zero (and yedge(h, h) is no label)
                if not masks[r] >> h & 1:
                    continue
                # inputs are made on first use, by a zero term too
                zh = z[h]
                if not zh:
                    zh = z[h] = b.input(zvar(u, h + 1))
                factors = [zh]
                for a in images[r]:
                    y = ye[a][h]
                    if not y:
                        y = ye[a][h] = ye[h][a] = b.input(yedge(a + 1, h + 1))
                    factors.append(y)
                if g1 != zero:
                    if g1 != one:
                        factors.append(g1)
                    terms[r].append(push(OP_MUL, None, factors) if len(factors) > 1 else zh)
            table[t] = [push(OP_ADD, None, ts) if len(ts) > 1 else ts[0] if ts else zero
                        for ts in terms]
        else:  # join
            t1, t2 = nd.children
            ax, ax2 = axes.pop(t1), axes.pop(t2)
            rows, other = table.pop(t1), table.pop(t2)
            if ax2 != ax:  # t2's rows in t1's order: idx[r] is t2's row for t1's row r
                idx = [0]
                for v in ax:
                    step = n ** (len(ax) - 1 - ax2.index(v))
                    idx = [i + j for i in idx for j in range(0, n * step, step)]
                other = [other[i] for i in idx]
            axes[t] = ax
            table[t] = [zero if zero in (g1, g2) else g2 if g1 == one else g1 if g2 == one
                        else push(OP_MUL, None, [g1, g2]) for g1, g2 in zip(rows, other)]

    out = table[d.root][0]
    circuit = b.build(out)

    width = d.width()
    bound = size_bound(G, H, width)
    if len(circuit) > bound:
        raise AssertionError(
            f"compiled circuit has {len(circuit)} gates, "
            f"exceeding the bound {bound}")
    bad_consts = circuit.constants_used() - {0, 1}
    if bad_consts:
        raise AssertionError(f"non-{{0,1}} constants emitted: {sorted(bad_consts)}")

    return CompiledHom(
        circuit=circuit,
        width=width,
        gate_count=len(circuit),
        wire_count=circuit.wire_count(),
        size_bound=bound,
        skew=circuit.is_skew(),
    )

