"""Desk-scale verification of the gadget bijections and the cycle identity.

Three checks, each comparing an object computed by brute-force
homomorphism enumeration against an independently computed combinatorial
object:

* cycle identity: homomorphisms from an odd cycle into an embedded
  branching program (with a y-labelled closing edge) produce exactly
  (2*ell) * y * (path-sum of the program);
* gadget bijection: homomorphisms from the path gadget G_ell into the
  block-framed program B_ell correspond one-to-one to source-sink paths;
* parse/hom bijection: homomorphisms from the tree gadget G_m into the
  circuit encoding J_n correspond one-to-one to parse trees, monomial by
  monomial.

A polynomial is a ``Counter`` of monomials (``labels.Monomial``) whose
counts are its integer coefficients.  Reports carry the compared
quantities so failures are inspectable; every ``ok`` field is computed,
never assumed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .bp import LayeredBP
from .circuit import Circuit
from .gadgets import (GadgetGraph, GadgetPair, GadgetTriple, build_Gk,
                      build_Gm, build_Jn, embed_bp, gm_size)
from .graphs import Graph, check_source_size, enumerate_homs
from .labels import Monomial, mono, mono_mul
from .rings import Field

HOM_CAP = 10 ** 6  # the most homomorphisms any verifier enumerates
RECOVERY_FIELDS = (2, 3, 5)  # where the cycle identity is divided by 2*ell


def _blocks_first_order(g: GadgetGraph) -> list[int]:
    """Search order for hom enumeration out of a block gadget.

    All block vertices come first (each block in breadth-first order from
    its designated vertex), then the connecting-path interiors.  With
    every path's two endpoints already pinned, distance pruning confines
    path images to geodesics instead of letting them wander.  A path
    vertex keeps at most one ball test, around the pinned far end: its
    placed path neighbour lies on every shortest path back to the rest.
    """
    order: list[int] = []
    for blk in g.blocks:
        start = min(blk.vmap)
        seen = {start}
        queue = [start]
        while queue:
            x = queue.pop(0)
            order.append(blk.vmap[x])
            for ynb in sorted(blk.template.adj[x]):
                if ynb not in seen:
                    seen.add(ynb)
                    queue.append(ynb)
    for pth in g.paths:
        order.extend(pth.interior)
    if len(order) != g.graph.n:
        raise ValueError("gadget metadata does not cover the graph")
    return order


def edge_labels(target: GadgetGraph) -> dict[tuple[int, int], str | int]:
    """Both orientations of every target edge, mapped to its label or 1."""
    table = {}
    for e in target.graph.edges:
        table[e] = table[e[::-1]] = target.labels.get(e, 1)
    return table


def hom_monomial(G: Graph, phi: tuple[int, ...], labels: dict) -> Monomial:
    """Product of target edge labels picked up by a homomorphism; ``labels``
    is the target's ``edge_labels`` table."""
    pairs = []
    for (u, v) in G.edges:
        a, b = phi[u - 1], phi[v - 1]
        lab = labels.get((a, b))
        if lab is None:
            raise ValueError(f"no edge {(min(a, b), max(a, b))}")
        if lab != 1:
            pairs.append((lab, 1))
    return mono(*pairs)


@dataclass
class CycleIdentityReport:
    ok: bool
    ell: int
    factor: int
    n_paths: int
    n_homs: int
    every_hom_uses_y_once: bool
    identity_holds: bool
    f: Counter
    g: Counter
    recovery: dict[int, bool]
    field_notes: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [
            f"cycle identity: ell={self.ell} factor={self.factor} "
            f"paths={self.n_paths} homs={self.n_homs}",
            f"  every hom uses y exactly once: {self.every_hom_uses_y_once}",
            f"  f == {self.factor}*y*g over the integers: {self.identity_holds}",
        ]
        out.extend(f"  {note}" for note in self.field_notes)
        out.append(f"verdict: {'ok' if self.ok else 'MISMATCH'}")
        return out


def verify_cycle_identity(bp: LayeredBP) -> CycleIdentityReport:
    """Check f_{C_ell, B} = (2*ell) * y * g for the cycle embedding of bp."""
    ell = bp.n_layers
    if ell % 2 == 0 or ell < 3:
        raise ValueError("the cycle identity needs an odd number of layers >= 3")
    if ell > 7 or bp.width() > 3:
        raise ValueError("budget: at most 7 layers and width 3 for symbolic work")
    B = embed_bp(bp, "cycle")
    C = Graph.cycle(ell)
    homs = enumerate_homs(C, B.graph, cap=HOM_CAP)

    y_once = True
    f: Counter = Counter()
    labels = edge_labels(B)
    for phi in homs:
        m = hom_monomial(C, phi, labels)
        if dict(m).get("y") != 1:
            y_once = False
        f[m] += 1

    g = bp.path_polynomial()
    factor = 2 * ell
    yg = {mono_mul((("y", 1),), m): c for m, c in g.items()}
    identity = f == Counter({m: factor * c for m, c in yg.items()})

    recovery: dict[int, bool] = {}
    notes = []
    for q in RECOVERY_FIELDS:
        F = Field(q)
        if F.p == 2:
            notes.append(f"F_{F.q}: factor {factor} has no inverse in "
                         "characteristic 2 (the identity is not divisible)")
            continue
        if factor % F.p == 0:
            notes.append(f"F_{F.q}: factor {factor} is divisible by the "
                         f"characteristic {F.p}; no inverse, g not recoverable")
            continue
        inv = F.inv(F.from_int(factor))
        # both sides over F_q, zero coefficients dropped
        scaled = {m: r for m, c in f.items() if (r := F.mul(F.from_int(c), inv))}
        rec_ok = scaled == {m: r for m, c in yg.items() if (r := F.from_int(c))}
        recovery[F.q] = rec_ok
        notes.append(f"F_{F.q}: scaling by {factor}^-1 = {inv} recovers y*g: {rec_ok}")

    ok = y_once and identity and all(recovery.values())
    return CycleIdentityReport(ok, ell, factor, bp.count_st_paths(), len(homs),
                               y_once, identity, f, g, recovery, notes)


@dataclass
class GadgetBijectionReport:
    ok: bool
    ell: int
    n_paths: int
    n_homs: int
    counts_match: bool
    p1_ok: bool
    p2_ok: bool
    endpoints_ok: bool
    monomials_match: bool
    f: Counter
    g: Counter

    def lines(self) -> list[str]:
        return [
            f"gadget bijection: ell={self.ell} paths={self.n_paths} homs={self.n_homs}",
            f"  |Hom(G_ell, B_ell)| == #s-t paths: {self.counts_match}",
            f"  (P1) I_1 mapped identically: {self.p1_ok}",
            f"  (P2) I_2 mapped identically: {self.p2_ok}",
            f"  a -> s and b -> t: {self.endpoints_ok}",
            f"  monomial multisets equal (f = g): {self.monomials_match}",
            f"verdict: {'ok' if self.ok else 'MISMATCH'}",
        ]


def verify_gadget_bijection(bp: LayeredBP, pair: GadgetPair) -> GadgetBijectionReport:
    """Check Hom(G_ell, B_ell) <-> s-t paths with pinned blocks/endpoints."""
    ell = bp.n_layers
    if ell <= bp.width():
        raise ValueError(
            f"need more layers ({ell}) than program width ({bp.width()})")
    Gk = build_Gk(ell, pair)
    check_source_size(Gk.graph.n)  # the search would refuse Gk; spare building B
    B = embed_bp(bp, "gadget", pair)

    order = _blocks_first_order(Gk)
    homs = enumerate_homs(Gk.graph, B.graph, cap=HOM_CAP,
                          order=order, distance_prune=True)

    g_i1, g_i2 = Gk.block(("I1",)), Gk.block(("I2",))
    b_i1, b_i2 = B.block(("I1",)), B.block(("I2",))
    a_v, b_v = Gk.anchors["a"], Gk.anchors["b"]
    s_v, t_v = B.anchors["s"], B.anchors["t"]

    p1 = all(phi[g_i1.vmap[x] - 1] == b_i1.vmap[x]
             for phi in homs for x in g_i1.vmap)
    p2 = all(phi[g_i2.vmap[x] - 1] == b_i2.vmap[x]
             for phi in homs for x in g_i2.vmap)
    endpoints = all(phi[a_v - 1] == s_v and phi[b_v - 1] == t_v for phi in homs)

    labels = edge_labels(B)
    f = Counter(hom_monomial(Gk.graph, phi, labels) for phi in homs)
    g = bp.path_polynomial()
    counts_match = len(homs) == bp.count_st_paths()
    monomials = f == g

    ok = counts_match and p1 and p2 and endpoints and monomials
    return GadgetBijectionReport(ok, ell, bp.count_st_paths(), len(homs),
                                 counts_match, p1, p2, endpoints, monomials, f, g)


@dataclass
class ParseHomReport:
    ok: bool
    m: int
    n_parse_trees: int
    n_homs: int
    counts_match: bool
    monomials_match: bool
    fault_injected: bool
    parse_monomials: Counter
    hom_monomials: Counter

    def lines(self) -> list[str]:
        return [
            f"parse/hom bijection: m={self.m} parse trees={self.n_parse_trees} "
            f"homs={self.n_homs}"
            + (" (fault injected)" if self.fault_injected else ""),
            f"  |Hom(G_m, J_n)| == #parse trees: {self.counts_match}",
            f"  monomial multisets equal: {self.monomials_match}",
            f"verdict: {'ok' if self.ok else 'MISMATCH'}",
        ]


def verify_parse_hom_bijection(c: Circuit, triple: GadgetTriple, *,
                               fault_inject: bool = False) -> ParseHomReport:
    """Check Hom(G_m, J_n) <-> parse trees of c, monomial by monomial.

    ``fault_inject`` assembles J_n with one level's blocks swapped; a
    correct verifier must then report a mismatch.
    """
    J = build_Jn(c, triple, fault_swap_level=1 if fault_inject else None)
    m = J.meta["m"]
    check_source_size(gm_size(m, triple))  # the search would refuse G_m; spare building it
    Gm = build_Gm(m, triple)

    trees = c.parse_trees()
    parse_mons: Counter = Counter()
    for t in trees:
        assert t.coeff == 1, "normal-form circuits are constant-free"
        parse_mons[t.monomial] += 1

    order = _blocks_first_order(Gm)
    homs = enumerate_homs(Gm.graph, J.graph, cap=HOM_CAP,
                          order=order, distance_prune=True)
    labels = edge_labels(J)
    hom_mons = Counter(hom_monomial(Gm.graph, phi, labels) for phi in homs)

    counts_match = len(homs) == len(trees)
    monomials = hom_mons == parse_mons
    ok = counts_match and monomials
    return ParseHomReport(ok, m, len(trees), len(homs), counts_match,
                          monomials, fault_inject, parse_mons, hom_mons)
