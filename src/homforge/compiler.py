"""Compile (G, nice decomposition, H) into a homomorphism-polynomial circuit.

The produced circuit evaluates the generalized homomorphism polynomial

    f(Z, Y) = sum over homomorphisms phi: G -> H of
              prod_u Z[u, phi(u)] * prod_{(u,v) in E(G)} Ye[phi(u), phi(v)]

by dynamic programming over the decomposition.  Each node t keeps one gate
per partial mapping phi of its bag, plus a companion "stripped" gate whose
value omits the Z/Y factors contributed by the current bag; the companion
gates let Join nodes combine subtrees without double-counting shared
factors.  Companions are emitted at every node, and ``CircuitBuilder.build``
drops those that nothing reads.  Join-free decompositions give skew circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .circuit import CONST, Circuit, CircuitBuilder, Gate, INPUT
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
    # per node: sorted bag, map phi-tuple -> gate id, map phi-tuple -> stripped id
    bag_sorted: dict[int, list[int]] = {}
    main: dict[int, dict[tuple[int, ...], int]] = {}
    stripped: dict[int, dict[tuple[int, ...], int]] = {}

    for t in d.postorder():
        nd = d.nodes[t]
        bs = sorted(nd.bag)
        bag_sorted[t] = bs
        if nd.kind == "leaf":
            u = bs[0]
            main[t] = {(h,): b.input(zvar(u, h)) for h in hs}
            stripped[t] = {(h,): b.const(1) for h in hs}
        elif nd.kind == "intro":
            t1 = nd.children[0]
            u = nd.vertex
            pos = bs.index(u)
            child_bs = bag_sorted[t1]
            nbrs = [v for v in child_bs if G.has_edge(u, v)]
            nbr_pos = [child_bs.index(v) for v in nbrs]
            zero = b.const(0)
            mt: dict[tuple[int, ...], int] = {}
            st: dict[tuple[int, ...], int] = {}
            for phi1, g1 in main[t1].items():
                for h in hs:
                    phi = phi1[:pos] + (h,) + phi1[pos:]
                    if all(H.has_edge(phi1[i], h) for i in nbr_pos):
                        factors = [b.input(zvar(u, h))]
                        factors += [b.input(yedge(phi1[i], h)) for i in nbr_pos]
                        factors.append(g1)
                        mt[phi] = b.mul(factors)
                        st[phi] = stripped[t1][phi1]
                    else:
                        mt[phi] = zero
                        st[phi] = zero
            main[t] = mt
            stripped[t] = st
        elif nd.kind == "forget":
            t1 = nd.children[0]
            u = nd.vertex
            child_bs = bag_sorted[t1]
            pos = child_bs.index(u)
            nbrs = [v for v in bs if G.has_edge(u, v)]
            nbr_pos = [bs.index(v) for v in nbrs]
            groups: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
            for phi1, g1 in main[t1].items():
                phi = phi1[:pos] + phi1[pos + 1:]
                groups.setdefault(phi, []).append(
                    (phi1[pos], g1, stripped[t1][phi1]))
            mt = {}
            st = {}
            for phi, entries in groups.items():
                mt[phi] = b.add([g1 for _, g1, _ in entries])
                terms = []
                for h, _, s1 in entries:
                    if all(H.has_edge(phi[i], h) for i in nbr_pos):
                        factors = [b.input(zvar(u, h))]
                        factors += [b.input(yedge(phi[i], h)) for i in nbr_pos]
                        factors.append(s1)
                        terms.append(b.mul(factors))
                st[phi] = b.add(terms)
            main[t] = mt
            stripped[t] = st
        else:  # join
            t1, t2 = nd.children
            mt = {}
            st = {}
            for phi, g1 in main[t1].items():
                mt[phi] = b.mul([g1, stripped[t2][phi]])
                st[phi] = b.mul([stripped[t1][phi], stripped[t2][phi]])
            main[t] = mt
            stripped[t] = st

    out = main[d.root][()]
    circuit = b.build(out)

    width = d.width()
    bound = size_bound(G, H, width)
    if len(circuit.gates) > bound:
        raise AssertionError(
            f"compiled circuit has {len(circuit.gates)} gates, "
            f"exceeding the bound {bound}")
    bad_consts = circuit.constants_used() - {0, 1}
    if bad_consts:
        raise AssertionError(f"non-{{0,1}} constants emitted: {sorted(bad_consts)}")

    return CompiledHom(
        circuit=circuit,
        n_source=G.n,
        n_target=H.n,
        width=width,
        gate_count=len(circuit.gates),
        wire_count=circuit.wire_count(),
        size_bound=bound,
        skew=circuit.is_skew(),
    )


def specialize_z(c: "CompiledHom | Circuit") -> Circuit:
    """Replace every Z input by the constant 1, leaving Ye inputs alone."""
    circuit = c.circuit if isinstance(c, CompiledHom) else c
    sigma = {}
    for lab in circuit.input_labels():
        sigma[lab] = 1 if lab.startswith("Z:") else lab
    return project(circuit, sigma)


def project(c: Circuit, sigma: dict[str, int | str]) -> Circuit:
    """Substitute inputs per ``sigma`` (0, 1, or a replacement label).

    ``sigma`` must cover every input label; gate structure is unchanged.
    """
    labels = c.input_labels()
    missing = [lab for lab in labels if lab not in sigma]
    if missing:
        raise ValueError(f"projection must cover all inputs; missing {missing}")
    new_gates = []
    for g in c.gates:
        if g.op == INPUT:
            val = sigma[g.label]
            if val in (0, 1) or val in ("0", "1"):
                new_gates.append(Gate(CONST, value=int(val)))
            elif isinstance(val, str) and val and not val.isdigit():
                new_gates.append(replace(g, label=val))
            else:
                raise ValueError(
                    f"projection value for {g.label!r} must be 0, 1, or a label")
        else:
            new_gates.append(g)
    return Circuit(tuple(new_gates), c.output)


def hom_poly_oracle(G: Graph, H: Graph, assignment: dict, ring):
    """Brute-force f(Z, Y): iterate all |V(H)|^|V(G)| maps directly.

    Deliberately independent of both the compiler and the backtracking
    enumerator; exponential, so keep |V(H)|^|V(G)| small.
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
