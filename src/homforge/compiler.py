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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .circuit import Circuit, CircuitBuilder
from .graphs import Graph
from .labels import yedge, zvar
from .treedecomp import NiceTreeDecomp, validate_nice


@dataclass
class CompiledHom:
    """A compiled circuit plus the compile-time facts tests care about."""

    circuit: Circuit
    n_source: int
    n_target: int
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
    if H.n < 1:
        raise ValueError("target graph needs at least one vertex")
    errs = validate_nice(d, G)
    if errs:
        raise ValueError("invalid nice decomposition: " + "; ".join(errs))

    b = CircuitBuilder()
    hs = list(H.vertices())
    zero = b.const(0)
    z_input = cache(lambda u, h: b.input(zvar(u, h)))
    y_input = cache(lambda a, h: b.input(yedge(a, h)))
    nbr, every = H.nbr_masks, (1 << (H.n + 1)) - 2  # every: bits 1..H.n

    def images(phi: tuple[int, ...], nbr_pos: list[int]) -> int:
        """Bit mask of the h adjacent in H to phi[i] for each i in nbr_pos."""
        mask = every
        for i in nbr_pos:
            mask &= nbr[phi[i]]
        return mask

    # per node: sorted bag, and map phi-tuple -> gate id
    bag_sorted: dict[int, list[int]] = {}
    table: dict[int, dict[tuple[int, ...], int]] = {}

    for t in d.postorder():
        nd = d.nodes[t]
        bs = sorted(nd.bag)
        bag_sorted[t] = bs
        if nd.kind == "leaf":
            table[t] = {(h,): b.const(1) for h in hs}
        elif nd.kind == "intro":
            t1 = nd.children[0]
            pos = bs.index(nd.vertex)
            child_bs = bag_sorted[t1]
            nbr_pos = [i for i, v in enumerate(child_bs) if G.has_edge(nd.vertex, v)]
            ok = {phi1: images(phi1, nbr_pos) for phi1 in table[t1]}
            table[t] = {phi1[:pos] + (h,) + phi1[pos:]: g1 if ok[phi1] >> h & 1 else zero
                        for phi1, g1 in table[t1].items() for h in hs}
        elif nd.kind == "forget":
            t1 = nd.children[0]
            u = nd.vertex
            pos = bag_sorted[t1].index(u)
            nbr_pos = [i for i, v in enumerate(bs) if G.has_edge(u, v)]
            terms: dict[tuple[int, ...], list[int]] = {}
            ok = {}
            for phi1, g1 in table[t1].items():
                phi, h = phi1[:pos] + phi1[pos + 1:], phi1[pos]
                if phi not in terms:
                    terms[phi], ok[phi] = [], images(phi, nbr_pos)
                # a term breaking an H edge is zero (and yedge(h, h) is no label)
                if ok[phi] >> h & 1:
                    factors = [z_input(u, h)]
                    factors += [y_input(phi[i], h) for i in nbr_pos]
                    factors.append(g1)
                    terms[phi].append(b.mul(factors))
            table[t] = {phi: b.add(ts) for phi, ts in terms.items()}
        else:  # join
            t1, t2 = nd.children
            table[t] = {phi: b.mul([g1, table[t2][phi]])
                        for phi, g1 in table[t1].items()}

    out = table[d.root][()]
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
        n_source=G.n,
        n_target=H.n,
        width=width,
        gate_count=len(circuit),
        wire_count=circuit.wire_count(),
        size_bound=bound,
        skew=circuit.is_skew(),
    )

