"""Five polynomial families over F_q with easy evaluation but hard coefficients.

Each family index n fixes a variable registry (edge/literal structure
variables X and vertex/clause variables Y).  The module provides:

* ``eval_definitional`` — the defining exponential sum, generic over the
  evaluation ring (field, truncated bivariate ring, or symbolic);
* ``eval_fast`` — the polynomial-time evaluation over F_q, exploiting the
  fact that every exponent is a multiple of q-1, so only zero/nonzero
  patterns of the assignment matter;
* ``standard_projection`` / ``count_via_coefficient`` — substituting z/t
  for the variables of a concrete instance turns a single coefficient of
  the family polynomial into the answer of a #P-style counting problem.

Exponent convention: all variables appear as (q-1)-th powers, so by
Fermat a nonzero value contributes 1 and a zero value kills the term.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .formulas import CNF
from .graphs import Graph, Hypergraph3
from .labels import xedge, xhyper, xvar, yclause, yvert
from .rings import CountRing, Field, TruncRing

FAMILIES = ("sat", "vc", "cis", "clow", "tdm")

# largest index for which the definitional sum is enumerable
DEF_BUDGETS = {"sat": 12, "vc": 12, "cis": 6, "clow": 7, "tdm": 2}

TDM_PARTS = ("A", "B", "C")


def literals(n: int) -> list[int]:
    """All 2n literals in the fixed order 1, -1, 2, -2, ..."""
    return [s * i for i in range(1, n + 1) for s in (1, -1)]


def clause_space(n: int) -> list[tuple[int, int, int]]:
    """All 8n^3 ordered literal triples."""
    return list(product(literals(n), repeat=3))


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def _triples(n: int) -> list[tuple[int, int, int]]:
    return list(product(range(1, n + 1), repeat=3))


def tdm_vertex(part: str, i: int) -> str:
    return f"{part}{i}"


def registry(family: str, n: int) -> list[str]:
    """Ordered list of variable labels for the index-n family polynomial."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if n < 1:
        raise ValueError("family index must be at least 1")
    if family == "sat":
        return [xvar(i) for i in range(1, n + 1)] + \
               [yclause(*c) for c in clause_space(n)]
    if family in ("vc", "cis", "clow"):
        return [xedge(u, v) for (u, v) in _pairs(n)] + \
               [yvert(v) for v in range(1, n + 1)]
    return [xhyper(*e) for e in _triples(n)] + \
           [yvert(tdm_vertex(part, i))
            for part in TDM_PARTS for i in range(1, n + 1)]


@dataclass
class FamilyInstance:
    """A family member with a total assignment into its field."""

    family: str
    n: int
    field: Field
    assignment: dict[str, int]

    def __post_init__(self):
        labels = registry(self.family, self.n)
        need = set(labels)
        got = set(self.assignment)
        if got != need:
            missing = sorted(need - got)[:3]
            extra = sorted(got - need)[:3]
            raise ValueError(
                f"assignment must cover the registry exactly; "
                f"missing {missing}, unexpected {extra}")
        for v in self.assignment.values():
            self.field._check(v)

    @classmethod
    def all_ones(cls, family: str, n: int, field: Field) -> "FamilyInstance":
        return cls(family, n, field, {lab: 1 for lab in registry(family, n)})

    def replace_values(self, overrides: dict[str, int]) -> "FamilyInstance":
        bad = [lab for lab in overrides if lab not in self.assignment]
        if bad:
            raise ValueError(f"labels not in this family's registry: {bad[:3]}")
        merged = dict(self.assignment)
        merged.update(overrides)
        return FamilyInstance(self.family, self.n, self.field, merged)


def _budget_check(family: str, n: int) -> None:
    cap = DEF_BUDGETS[family]
    if n > cap:
        raise ValueError(
            f"definitional evaluation of {family} is limited to n <= {cap} "
            f"(got {n}); eval_fast has no such limit")


def eval_definitional(inst: FamilyInstance, ring=None):
    """The defining sum, evaluated in ``ring`` (default: the instance field).

    When a truncated ring over the same field is supplied, the instance's
    field values are embedded as constants; this is how coefficients of
    the z/t projections are extracted.
    """
    _budget_check(inst.family, inst.n)
    if ring is None:
        ring = inst.field
        val = dict(inst.assignment)
    elif isinstance(ring, TruncRing):
        if ring.field != inst.field:
            raise ValueError("truncated ring must sit over the instance field")
        val = {lab: ring.monomial(0, 0, v) for lab, v in inst.assignment.items()}
    else:
        raise TypeError("ring must be None or a TruncRing over the same field")
    return _eval_def(inst.family, inst.n, inst.field.q, ring, val)


def _eval_def(family: str, n: int, q: int, ring, val):
    qm1 = q - 1
    if family == "sat":
        return _def_sat(n, ring, val, qm1)
    if family == "vc":
        return _def_vc(n, ring, val, qm1)
    if family == "cis":
        return _def_cis(n, ring, val, qm1)
    if family == "clow":
        return _def_clow(n, ring, val, qm1)
    return _def_tdm(n, ring, val, qm1)


def _factors(ring, values, qm1: int) -> list:
    """The (q-1)-th powers of ``values``, with None standing for the ring's
    one, so each sum tests a factor once instead of once per term."""
    one = ring.one
    out = []
    for v in values:
        f = one if v == one else ring.pow(v, qm1)
        out.append(None if f == one else f)
    return out


def _product(mul, factors):
    """Product of the factors that are not None, or None if there are none."""
    acc = None
    for f in factors:
        if f is not None:
            acc = f if acc is None else mul(acc, f)
    return acc


def _def_sat(n: int, ring, val, qm1: int):
    lits = literals(n)
    L = len(lits)
    one = ring.one
    mul = ring.mul
    Y = dict(zip(product(range(L), repeat=3), _factors(
        ring, [val[yclause(*c)] for c in product(lits, repeat=3)], qm1)))
    X = _factors(ring, [val[xvar(i)] for i in range(1, n + 1)], qm1)

    # group the satisfied-clause product by the first true literal:
    # row[i] covers clauses whose first literal i is true, pair[i, j] those
    # with i false and second literal j true, and bare Y entries the rest.
    row = [_product(mul, (Y[i, j, k] for j in range(L) for k in range(L)))
           for i in range(L)]
    pair = {(i, j): _product(mul, (Y[i, j, k] for k in range(L)))
            for i in range(L) for j in range(L)}

    total = ring.zero
    for bits in range(1 << n):
        true_idx = []
        false_idx = []
        for pos, l in enumerate(lits):
            v = (bits >> (abs(l) - 1)) & 1
            if (v == 1) == (l > 0):
                true_idx.append(pos)
            else:
                false_idx.append(pos)
        term = one
        for i in range(n):
            if (bits >> i) & 1 and X[i] is not None:
                term = mul(term, X[i])
        for i in true_idx:
            if row[i] is not None:
                term = mul(term, row[i])
        for i in false_idx:
            for j in true_idx:
                f = pair[i, j]
                if f is not None:
                    term = mul(term, f)
        for i in false_idx:
            for j in false_idx:
                for k in true_idx:
                    f = Y[i, j, k]
                    if f is not None:
                        term = mul(term, f)
        total = ring.add(total, term)
    return total


def _def_vc(n: int, ring, val, qm1: int):
    one = ring.one
    mul = ring.mul
    pairs = _pairs(n)
    X = _factors(ring, [val[xedge(*e)] for e in pairs], qm1)
    Y = _factors(ring, [val[yvert(v)] for v in range(1, n + 1)], qm1)
    total = ring.zero
    for bits in range(1 << n):
        term = one
        for (u, v), f in zip(pairs, X):
            if f is not None and ((bits >> (u - 1)) & 1 or (bits >> (v - 1)) & 1):
                term = mul(term, f)
        for v in range(n):
            if (bits >> v) & 1 and Y[v] is not None:
                term = mul(term, Y[v])
        total = ring.add(total, term)
    return total


def _touch_sum(ring, edges, X, Y):
    """Sum over every subset S of ``edges`` of the product of X[e] over e in S
    times Y[v] over the vertices v that S touches (each vertex once).

    ``edges`` lists distinct vertex indices into Y.  Subsets are walked
    depth-first, so subsets that share a prefix share its product; every
    subset still adds its own term.
    """
    mul = ring.mul
    # step[idx][fresh]: X of edge idx times Y of the endpoints in bitmask
    # ``fresh``, the ones that no earlier edge of the subset touched
    masks, step = [], []
    for x, e in zip(X, edges):
        masks.append(sum(1 << v for v in e))
        step.append({sum(1 << v for v in s): _product(mul, (x, *(Y[v] for v in s)))
                     for r in range(len(e) + 1) for s in combinations(e, r)})
    total = ring.zero

    def walk(start: int, term, touched: int) -> None:
        nonlocal total
        total = ring.add(total, term)
        for idx in range(start, len(edges)):
            f = step[idx][masks[idx] & ~touched]
            walk(idx + 1, term if f is None else mul(term, f), touched | masks[idx])

    walk(0, ring.one, 0)
    return total


def _def_cis(n: int, ring, val, qm1: int):
    pairs = _pairs(n)
    X = _factors(ring, [val[xedge(*e)] for e in pairs], qm1)
    Y = _factors(ring, [val[yvert(v)] for v in range(1, n + 1)], qm1)
    return _touch_sum(ring, [(u - 1, v - 1) for (u, v) in pairs], X, Y)


def _def_clow(n: int, ring, val, qm1: int):
    mul = ring.mul
    pairs = _pairs(n)
    Y = _factors(ring, [val[yvert(v)] for v in range(1, n + 1)], qm1)
    # X[u, w] is the factor for the move u -> w; step[u, w] also carries
    # Y of w, for a move onto a vertex the walk has not visited yet
    X, step = {}, {}
    for (u, v), f in zip(pairs, _factors(ring, [val[xedge(*e)] for e in pairs], qm1)):
        X[u, v] = X[v, u] = f
        step[u, v] = _product(mul, (f, Y[v - 1]))
        step[v, u] = _product(mul, (f, Y[u - 1]))
    total = ring.zero
    if n < 2:
        return total

    def extend(head: int, cur: int, steps_left: int, term, visited: int):
        nonlocal total
        if steps_left == 1:
            f = X[cur, head]
            total = ring.add(total, term if f is None else mul(term, f))
            return
        for w in range(head + 1, n + 1):
            if w != cur:
                f = X[cur, w] if (visited >> w) & 1 else step[cur, w]
                extend(head, w, steps_left - 1, term if f is None else mul(term, f),
                       visited | (1 << w))

    for head in range(1, n):
        base = ring.one if Y[head - 1] is None else Y[head - 1]
        for w in range(head + 1, n + 1):
            f = step[head, w]
            extend(head, w, n - 1, base if f is None else mul(base, f),
                   (1 << head) | (1 << w))
    return total


def _def_tdm(n: int, ring, val, qm1: int):
    # vertex index: part A at 0..n-1, B at n..2n-1, C at 2n..3n-1
    triples = _triples(n)
    X = _factors(ring, [val[xhyper(*e)] for e in triples], qm1)
    Y = _factors(ring, [val[yvert(tdm_vertex(part, i))]
                        for part in TDM_PARTS for i in range(1, n + 1)], qm1)
    edges = [(a - 1, n + b - 1, 2 * n + c - 1) for (a, b, c) in triples]
    return _touch_sum(ring, edges, X, Y)


# -- fast evaluation ----------------------------------------------------------


def eval_fast(inst: FamilyInstance) -> int:
    """Polynomial-time evaluation over the instance field.

    Because every variable enters as a (q-1)-th power, the value depends
    only on which assignment entries are zero; each family then reduces to
    counting structures in a 0/1-masked instance.
    """
    fam = inst.family
    if fam == "sat":
        return _fast_sat(inst)
    if fam == "vc":
        return _fast_vc(inst)
    if fam == "cis":
        return _fast_cis(inst)
    if fam == "clow":
        return _fast_clow(inst)
    return _fast_tdm(inst)


def _fast_sat(inst: FamilyInstance) -> int:
    n, F, val = inst.n, inst.field, inst.assignment
    forced: dict[int, bool] = {}

    def force(var: int, b: bool) -> bool:
        if var in forced and forced[var] != b:
            return False
        forced[var] = b
        return True

    for i in range(1, n + 1):
        if val[xvar(i)] == 0 and not force(i, False):
            return 0
    for c in clause_space(n):
        if val[yclause(*c)] == 0:
            # the clause variable kills every assignment satisfying it, so
            # all three literals must come out false
            for l in set(c):
                if not force(abs(l), l < 0):
                    return 0
    free = n - len(forced)
    return F.from_int(pow(2, free, F.p))


def _fast_vc(inst: FamilyInstance) -> int:
    n, F, val = inst.n, inst.field, inst.assignment
    full = 0
    for v in range(1, n + 1):
        if val[yvert(v)] == 0:
            continue
        if all(val[xedge(v, w)] != 0 for w in range(1, n + 1) if w != v):
            full += 1
    return F.from_int(pow(2, full, F.p))


def _fast_cis(inst: FamilyInstance) -> int:
    n, F, val = inst.n, inst.field, inst.assignment
    good = 0
    for (u, v) in _pairs(n):
        if val[xedge(u, v)] != 0 and val[yvert(u)] != 0 and val[yvert(v)] != 0:
            good += 1
    return F.from_int(pow(2, good, F.p))


def _fast_clow(inst: FamilyInstance) -> int:
    n, F, val = inst.n, inst.field, inst.assignment
    if n < 2:
        return 0
    p = F.p
    A = np.zeros((n + 1, n + 1), dtype=np.int64)
    for (u, v) in _pairs(n):
        if val[xedge(u, v)] != 0 and val[yvert(u)] != 0 and val[yvert(v)] != 0:
            A[u, v] = A[v, u] = 1
    total = 0
    for head in range(1, n + 1):
        Ai = A.copy()
        Ai[:head, :] = 0
        Ai[:, :head] = 0
        Anext = Ai.copy()
        Anext[head, :] = 0
        Anext[:, head] = 0
        mid = np.eye(n + 1, dtype=np.int64)
        e = n - 2
        base = Anext
        while e:
            if e & 1:
                mid = (mid @ base) % p
            base = (base @ base) % p
            e >>= 1
        prod = (Ai @ mid % p) @ Ai % p
        total += int(prod[head, head])
    return F.from_int(total % p)


def _fast_tdm(inst: FamilyInstance) -> int:
    n, F, val = inst.n, inst.field, inst.assignment
    alive = 0
    for (a, b, c) in _triples(n):
        if val[xhyper(a, b, c)] == 0:
            continue
        if val[yvert(tdm_vertex("A", a))] == 0:
            continue
        if val[yvert(tdm_vertex("B", b))] == 0:
            continue
        if val[yvert(tdm_vertex("C", c))] == 0:
            continue
        alive += 1
    return F.from_int(pow(2, alive, F.p))


# -- projections and coefficient counting -------------------------------------


@dataclass
class ProjectionSpec:
    """Total substitution of a family registry into {0, 1, z, t}."""

    family: str
    n: int
    output: dict[str, str]


def standard_projection(family: str, n: int, instance,
                        strict_recipe: bool = False) -> ProjectionSpec:
    """Map family variables to z/t/1 so coefficients count instance witnesses.

    ``instance`` is a CNF (sat), Graph (vc/cis/clow), or Hypergraph3 (tdm)
    whose size must equal the family index.  For tdm the recipe here sends
    absent hyperedges to 0 rather than 1; ``strict_recipe=True`` restores
    the absent->1 variant, under which the coefficient also counts subsets
    of absent hyperedges and the matching identity fails.
    """
    out: dict[str, str] = {}
    if family == "sat":
        if not isinstance(instance, CNF):
            raise TypeError("sat projection needs a CNF instance")
        if instance.n != n:
            raise ValueError(
                f"instance has {instance.n} variables but family index is {n}")
        lits = set(literals(n))
        for c in instance.clauses:
            if any(l not in lits for l in c):
                raise ValueError(f"clause {c} uses literals outside the registry")
        chosen = {yclause(*c) for c in instance.distinct_clauses()}
        for lab in registry(family, n):
            out[lab] = "t" if lab in chosen else "1"
    elif family in ("vc", "cis", "clow"):
        if not isinstance(instance, Graph):
            raise TypeError(f"{family} projection needs a Graph instance")
        if instance.n != n:
            raise ValueError(
                f"instance has {instance.n} vertices but family index is {n}")
        for (u, v) in _pairs(n):
            out[xedge(u, v)] = "z" if instance.has_edge(u, v) else "1"
        for v in range(1, n + 1):
            out[yvert(v)] = "t"
    elif family == "tdm":
        if not isinstance(instance, Hypergraph3):
            raise TypeError("tdm projection needs a Hypergraph3 instance")
        if instance.n != n:
            raise ValueError(
                f"instance has part size {instance.n} but family index is {n}")
        absent = "1" if strict_recipe else "0"
        for e in _triples(n):
            out[xhyper(*e)] = "z" if e in instance.edges else absent
        for part in TDM_PARTS:
            for i in range(1, n + 1):
                out[yvert(tdm_vertex(part, i))] = "t"
    else:
        raise ValueError(f"unknown family {family!r}")
    return ProjectionSpec(family, n, out)


@dataclass
class CoefficientCount:
    """The extracted coefficient plus what it is supposed to count."""

    value: int
    z_degree: int
    t_degree: int
    field: Field
    n: int
    note: str = ""


def count_via_coefficient(family: str, instance, field: Field,
                          k: int | None = None,
                          strict_recipe: bool = False) -> CoefficientCount:
    """Evaluate the projected family sum and read off the corner coefficient.

    Every projected variable is 0, 1, z or t, so every term of the sum is 0
    or one monomial z^i t^j with coefficient 1, and the coefficient at
    (dz, dt) is the number of terms landing there, mod p.  The sum runs in
    a CountRing, which counts those terms per monomial.

    sat: #satisfying assignments;  vc: #size-k vertex covers;
    cis: #size-k cliques (k >= 2);  tdm: #perfect matchings;
    clow: twice the number of Hamiltonian cycles (each undirected cycle is
    traced by two closed walks), so the cycle count itself is recoverable
    only in odd characteristic.
    """
    qm1 = field.q - 1
    note = ""
    if family == "sat":
        n = instance.n
        m = len(instance.distinct_clauses())
        dz, dt = 0, m * qm1
    elif family == "vc":
        if k is None:
            raise ValueError("vc counting needs the cover size k")
        n = instance.n
        if not 0 <= k <= n:
            raise ValueError(f"cover size {k} out of range 0..{n}")
        dz, dt = instance.m * qm1, k * qm1
    elif family == "cis":
        if k is None:
            raise ValueError("cis counting needs the clique size k")
        n = instance.n
        if k == 1:
            raise ValueError(
                "size-1 cliques are invisible to the coefficient identity: "
                "edge subsets never span exactly one vertex")
        if not 0 <= k <= n:
            raise ValueError(f"clique size {k} out of range 0..{n}")
        dz, dt = (k * (k - 1) // 2) * qm1, k * qm1
    elif family == "clow":
        n = instance.n
        dz, dt = n * qm1, n * qm1
        if n < 3:
            note = ("graphs with fewer than 3 vertices have no Hamiltonian "
                    "cycle; the coefficient counts back-and-forth walks")
        else:
            note = "coefficient equals 2 * (#Hamiltonian cycles) mod p"
    elif family == "tdm":
        n = instance.n
        dz, dt = n * qm1, 3 * n * qm1
        if strict_recipe:
            note = "strict absent->1 recipe: coefficient also counts absent-edge subsets"
    else:
        raise ValueError(f"unknown family {family!r}")
    _budget_check(family, n)

    proj = standard_projection(family, n, instance, strict_recipe=strict_recipe)
    ring = CountRing(dz, dt)
    images = {"0": ring.dead, "1": ring.one, "z": ring.z, "t": ring.t}
    val = {lab: images[sym] for lab, sym in proj.output.items()}
    total = _eval_def(family, n, field.q, ring, val)
    coeff = field.from_int(total[dz << ring.shift | dt])
    return CoefficientCount(coeff, dz, dt, field, n, note)


def hc_from_coefficient(cc: CoefficientCount) -> int:
    """Recover #Hamiltonian cycles mod p from a clow coefficient.

    Below three vertices there is no Hamiltonian cycle, so the answer is 0
    whatever the coefficient (which then counts the walks u -> v -> u).
    """
    if cc.n < 3:
        return 0
    F = cc.field
    if F.p == 2:
        raise ValueError(
            "the clow coefficient is twice the cycle count, and 2 is not "
            "invertible in characteristic 2")
    return F.mul(cc.value, F.inv(F.from_int(2)))
