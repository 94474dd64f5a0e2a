"""Five polynomial families over F_q with easy evaluation but hard coefficients.

Each family index n >= 0 fixes a variable registry (edge/literal structure
variables X and vertex/clause variables Y); index 0 is the empty instance.
The module provides:

* ``eval_definitional`` — the defining exponential sum over the instance
  field, counted: every term is 0 or 1, and the sum counts in
  ``CountRing`` the terms whose (q-1)-th powers are all one (``_eval_def``
  sums in any ring with zero/one/add/mul/pow);
* ``eval_fast`` — the polynomial-time evaluation over F_q, exploiting the
  fact that every exponent is a multiple of q-1, so only zero/nonzero
  patterns of the assignment matter; it counts in Python ints, exact for
  every prime;
* ``count_via_coefficient`` — substituting z/t for the variables of a
  concrete instance (the standard projection) turns a single coefficient
  of the family polynomial into the answer of a #P-style counting problem.

Values travel as tuples in registry order; ``FamilyInstance`` reads its
label dict into one once.  The sums read int index lists from a
``FamilyPlan``, built once per (family, n), and their values keyed by
registry index, a missing index standing for one: a sat projection holds
one entry per distinct clause, not n + 8n^3 slots.  The sat, vc, cis and
tdm sums run through one frontier walk, ``_walk``, which still forms and
adds every one of their 2^N terms.  Both clow routes are frontier walks
from each head, a closed walk's least vertex: the sum keeps one term per
walk prefix, the fast route one walk count mod p per current vertex.

Exponent convention: all variables appear as (q-1)-th powers, so by
Fermat a nonzero value contributes 1 and a zero value kills the term.
``eval_definitional`` does not assume this: it computes each power in the
field and refuses one that is neither 0 nor 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product

from .formulas import CNF
from .graphs import Graph, Hypergraph3, bits
from .labels import xedge, xhyper, xvar, yclause, yvert
from .rings import CountRing, Field

FAMILIES = ("sat", "vc", "cis", "clow", "tdm")

# largest index for which the definitional sum is enumerable
DEF_BUDGETS = {"sat": 12, "vc": 12, "cis": 6, "clow": 7, "tdm": 2}

TDM_PARTS = ("A", "B", "C")

# Largest registry, in labels, that family_plan builds.  `homforge eval` at
# vc n = 1413 (997,578 labels) takes 3.9 s and 289 MiB on 2 vCPUs.
REGISTRY_LIMIT = 10**6


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
    return list(family_plan(family, n).labels)


@dataclass(frozen=True)
class FamilyPlan:
    """What depends on (family, n) alone; it holds no values.

    A value tuple in registry order is the ``nx`` X variables followed by
    the Y variables.  For vc/cis/clow/tdm, ``edges`` lists the Y indices
    that each X variable joins: the 0-based endpoints of an edge, or a tdm
    triple with part A at 0..n-1, B at n..2n-1 and C at 2n..3n-1.  For sat
    it is empty: clause (a, b, c) is Y entry ``(pos(a)*2n + pos(b))*2n +
    pos(c)``, where literal l sits at position ``pos(l) = 2(|l|-1) + (l <
    0)``, and ``_positions`` reads the positions back off the index.  The
    labels and their index are built on first use, so the sums, which read
    no label, never build them.
    """

    family: str
    n: int
    nx: int
    edges: tuple[tuple[int, ...], ...]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        n = self.n
        if self.family == "sat":
            return (*(xvar(i) for i in range(1, n + 1)),
                    *(yclause(*c) for c in clause_space(n)))
        if self.family == "tdm":
            return (*(xhyper(*e) for e in _triples(n)),
                    *(yvert(tdm_vertex(part, i)) for part in TDM_PARTS
                      for i in range(1, n + 1)))
        return (*(xedge(u, v) for (u, v) in _pairs(n)),
                *(yvert(v) for v in range(1, n + 1)))

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}


@lru_cache(maxsize=64)
def family_plan(family: str, n: int) -> FamilyPlan:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if n < 0:
        raise ValueError("family index must be at least 0")
    size = {"sat": n + 8 * n**3, "tdm": n**3 + 3 * n}.get(family, n * (n - 1) // 2 + n)
    if size > REGISTRY_LIMIT:
        raise ValueError(f"a family registry holds at most {REGISTRY_LIMIT} labels; "
                         f"{family} n={n} has {size}")
    if family == "sat":
        nx, edges = n, ()
    elif family == "tdm":
        edges = tuple((a - 1, n + b - 1, 2 * n + c - 1) for (a, b, c) in _triples(n))
        nx = len(edges)
    else:
        edges = tuple(combinations(range(n), 2))
        nx = len(edges)
    return FamilyPlan(family, n, nx, edges)


def _positions(idx: int, n: int) -> tuple[int, int, int]:
    """Literal positions of the clause at sat Y index ``idx``."""
    ij, k = divmod(idx, 2 * n)
    i, j = divmod(ij, 2 * n)
    return i, j, k


@dataclass
class FamilyInstance:
    """A family member with a total assignment into its field.

    The assignment is read once, at construction, into ``values``, a tuple
    of Python ints in registry order; the evaluators read only that tuple.
    """

    family: str
    n: int
    field: Field
    assignment: dict[str, int]

    def __post_init__(self):
        self.plan = family_plan(self.family, self.n)
        need, got = self.plan.index.keys(), self.assignment.keys()
        if got != need:
            missing = sorted(need - got)[:3]
            extra = sorted(got - need)[:3]
            raise ValueError(
                f"assignment must cover the registry exactly; "
                f"missing {missing}, unexpected {extra}")
        # checked, then stored as Python ints: numpy ints pass the check but
        # not the evaluators' three-argument pow
        self.values = tuple(int(self.field._check(self.assignment[lab]))
                            for lab in self.plan.labels)


def _budget_check(family: str, n: int) -> None:
    cap = DEF_BUDGETS[family]
    if n > cap:
        raise ValueError(
            f"definitional evaluation of {family} is limited to n <= {cap} "
            f"(got {n}); eval_fast has no such limit")


def eval_definitional(inst: FamilyInstance) -> int:
    """The defining sum over the instance field, counted.

    Every value enters as its (q-1)-th power, computed in the field once
    per distinct value (at most q calls), so every term is 0 or 1 and the
    sum is the number of terms that are 1, mod p.  A power 0 is
    ``CountRing(0, 0)``'s dead term and a power 1 its one; the sum then
    runs as ``count_via_coefficient``'s does.
    """
    _budget_check(inst.family, inst.n)
    F, ring = inst.field, CountRing(0, 0)
    powers = {v: F.pow(v, F.q - 1) for v in dict.fromkeys(inst.values)}
    vals = {}
    for i, v in enumerate(inst.values):
        f = powers[v]
        if f == 0:
            vals[i] = ring.dead
        elif f != 1:
            raise AssertionError(f"{v}^{F.q - 1} = {f} in F_{F.q}, neither 0 nor 1")
    total = _eval_def(inst.family, inst.n, 2, ring, vals)
    return F.from_int(total[0])


def _eval_def(family: str, n: int, q: int, ring, vals: dict):
    """The defining sum of ``vals``, ring elements keyed by registry index,
    a missing index standing for one; only the (q-1)-th powers that are not
    one reach the family's sum."""
    plan = family_plan(family, n)
    one, pow_, nx = ring.one, ring.pow, plan.nx
    X, Y = {}, {}
    for i, v in vals.items():
        if v != one and (f := pow_(v, q - 1)) != one:
            if i < nx:
                X[i] = f
            else:
                Y[i - nx] = f
    return _DEFS[family](plan, ring, X, Y)


def _product(mul, factors):
    """Product of the factors that are not None, or None if there are none."""
    acc = None
    for f in factors:
        if f is not None:
            acc = f if acc is None else mul(acc, f)
    return acc


def _walk(ring, choices, touch: dict):
    """Sum over one option per item of the options' own factors times the
    factor of every bit the options touch, each bit counted once.

    ``choices[i]`` lists item i's options as (own factor or None, touch
    mask); ``touch`` maps a bit to its factor, a missing bit standing for
    one.  The frontier holds one term per choice prefix beside the mask of
    the bits that prefix touched, so every term is formed and added.  An
    option's step factor depends only on the bits it newly touches, and a
    memo per option keeps it by those bits.
    """
    mul, live = ring.mul, sum(1 << j for j in touch)
    terms, seen = [ring.one], [0]
    for options in choices:
        next_terms, next_seen = [], []
        for own, mask in options:
            mask &= live
            if own is None and not mask:
                next_terms += terms
                next_seen += seen
                continue
            memo = {}
            for term, s in zip(terms, seen):
                fresh = mask & ~s
                f = memo.get(fresh, memo)  # memo itself marks a miss
                if f is memo:
                    f = memo[fresh] = _product(mul, (own, *map(touch.get, bits(fresh))))
                next_terms.append(term if f is None else mul(term, f))
                next_seen.append(s | mask)
        terms, seen = next_terms, next_seen
    total = ring.zero
    for term in terms:
        total = ring.add(total, term)
    return total


def _def_sat(plan: FamilyPlan, ring, X, Y):
    # variable v is false or true, which makes literal -v or +v true; a
    # literal touches the clauses that hold it.  Clauses over the same
    # literals are touched together, so one bit stands for all of them.
    n, mul = plan.n, ring.mul
    by_literals = {}
    for idx, f in Y.items():
        key = frozenset(_positions(idx, n))
        by_literals[key] = mul(by_literals[key], f) if key in by_literals else f
    masks = [0] * (2 * n)
    for b, key in enumerate(by_literals):
        for pos in key:
            masks[pos] |= 1 << b
    choices = [((None, masks[2 * v + 1]), (X.get(v), masks[2 * v])) for v in range(n)]
    return _walk(ring, choices, dict(enumerate(by_literals.values())))


def _def_vc(plan: FamilyPlan, ring, X, Y):
    # a vertex is out of the cover or in it, and then touches its edges
    masks = [0] * plan.n
    for e, ends in enumerate(plan.edges):
        for v in ends:
            masks[v] |= 1 << e
    return _walk(ring, [((None, 0), (Y.get(v), m)) for v, m in enumerate(masks)], X)


def _def_touch(plan: FamilyPlan, ring, X, Y):
    # cis and tdm: an edge is out of the subset or in it, and then touches
    # its vertices
    return _walk(ring, [((None, 0), (X.get(e), sum(1 << v for v in ends)))
                        for e, ends in enumerate(plan.edges)], Y)


def _def_clow(plan: FamilyPlan, ring, X, Y):
    # a clow is a closed walk of n moves from its head, its least vertex,
    # through vertices above the head and back to it.  The frontier holds
    # one entry per walk prefix: (term, current vertex, visited mask)
    n, mul = plan.n, ring.mul
    # Xm[u, w] is the factor for the move u -> w; step[u, w] also carries
    # Y of w, for a move onto a vertex the walk has not visited yet
    Xm, step = {}, {}
    for idx, (u, v) in enumerate(plan.edges):
        Xm[u, v] = Xm[v, u] = f = X.get(idx)
        step[u, v] = _product(mul, (f, Y.get(v)))
        step[v, u] = _product(mul, (f, Y.get(u)))

    def moves(frontier, above):
        for term, cur, seen in frontier:
            for w in above:
                if w != cur:
                    f = Xm[cur, w] if seen >> w & 1 else step[cur, w]
                    yield term if f is None else mul(term, f), w, seen | 1 << w

    total = ring.zero
    for head in range(n - 1):
        above = range(head + 1, n)
        frontier = [(Y.get(head, ring.one), head, 0)]
        for _ in range(n - 2):
            frontier = list(moves(frontier, above))
        # the last move and the closing edge go straight into the total
        for term, w, _ in moves(frontier, above):
            f = Xm[w, head]
            total = ring.add(total, term if f is None else mul(term, f))
    return total


_DEFS = {"sat": _def_sat, "vc": _def_vc, "cis": _def_touch, "clow": _def_clow,
         "tdm": _def_touch}


# -- fast evaluation ----------------------------------------------------------


def eval_fast(inst: FamilyInstance) -> int:
    """Polynomial-time evaluation over the instance field.

    Because every variable enters as a (q-1)-th power, the value depends
    only on which assignment entries are zero; each family then reduces to
    counting structures in a 0/1-masked instance.
    """
    return _FASTS[inst.family](inst)


def _fast_sat(inst: FamilyInstance) -> int:
    n, F, vals = inst.n, inst.field, inst.values
    forced: dict[int, bool] = {}

    def force(var: int, b: bool) -> bool:
        if var in forced and forced[var] != b:
            return False
        forced[var] = b
        return True

    for v in range(n):
        if vals[v] == 0 and not force(v, False):
            return 0
    for idx, y in enumerate(vals[n:]):
        if y == 0:
            # the clause variable kills every assignment satisfying it, so
            # all three literals must come out false: a positive literal
            # (even position) forces its variable false, a negative one true
            for pos in set(_positions(idx, n)):
                if not force(pos >> 1, bool(pos & 1)):
                    return 0
    free = n - len(forced)
    return F.from_int(pow(2, free, F.p))


def _fast_vc(inst: FamilyInstance) -> int:
    nx, vals = inst.plan.nx, inst.values
    # a vertex is full when its own value and every incident edge's are nonzero
    full = [y != 0 for y in vals[nx:]]
    for (u, v), x in zip(inst.plan.edges, vals[:nx]):
        if x == 0:
            full[u] = full[v] = False
    return inst.field.from_int(pow(2, sum(full), inst.field.p))


def _alive(inst: FamilyInstance) -> list[tuple[int, ...]]:
    """The edges whose own value and every endpoint's value are nonzero."""
    nx, vals = inst.plan.nx, inst.values
    Y = vals[nx:]
    return [e for e, x in zip(inst.plan.edges, vals[:nx])
            if x != 0 and all(Y[v] != 0 for v in e)]


def _fast_alive(inst: FamilyInstance) -> int:
    """cis and tdm: two to the number of live edges (hyperedges)."""
    return inst.field.from_int(pow(2, len(_alive(inst)), inst.field.p))


def _fast_clow(inst: FamilyInstance) -> int:
    # closed walks on the live edges: from each head, walk counts mod p per
    # current vertex above the head, one move out of the head, n - 2 moves
    # among the vertices above it, then an edge back to the head
    n, p = inst.n, inst.field.p
    nbrs = [[] for _ in range(n)]
    for u, v in _alive(inst):
        nbrs[u].append(v)
        nbrs[v].append(u)
    total = 0
    for head in range(n - 1):
        counts = {w: 1 for w in nbrs[head] if w > head}
        for _ in range(n - 2):
            nxt = {}
            for u, c in counts.items():
                for w in nbrs[u]:
                    if w > head:
                        nxt[w] = nxt.get(w, 0) + c
            counts = {w: c % p for w, c in nxt.items()}
        total += sum(counts.get(w, 0) for w in nbrs[head])
    return inst.field.from_int(total)


_FASTS = {"sat": _fast_sat, "vc": _fast_vc, "cis": _fast_alive, "clow": _fast_clow,
          "tdm": _fast_alive}


# -- projections and coefficient counting -------------------------------------


_INSTANCE_TYPES = {"sat": CNF, "vc": Graph, "cis": Graph, "clow": Graph,
                   "tdm": Hypergraph3}


def _projected(family: str, instance, strict_recipe: bool, images) -> dict:
    """The standard projection of ``instance``: the images that are not one,
    keyed by registry index, each given as its entry of ``images``, the
    images of (0, z, t).  A sat projection holds one entry per distinct
    clause and none for the other clause slots.

    For tdm, absent hyperedges go to 0; ``strict_recipe`` sends them to 1,
    under which the coefficient also counts subsets of absent hyperedges
    and the matching identity fails.
    """
    zero, z, t = images
    n = instance.n
    if family == "sat":
        out = {}
        for c in instance.clauses:
            if any(not 0 < abs(l) <= n for l in c):
                raise ValueError(f"clause {c} uses literals outside the registry")
            a, b, d = (2 * (abs(l) - 1) + (l < 0) for l in c)
            out[n + (a * 2 * n + b) * 2 * n + d] = t
        return out
    if family == "tdm":
        keys, ny = _triples(n), 3 * n
        out = {i: z if e in instance.edges else zero for i, e in enumerate(keys)
               if not strict_recipe or e in instance.edges}
    else:
        keys, ny = _pairs(n), n
        out = {i: z for i, (u, v) in enumerate(keys) if instance.has_edge(u, v)}
    out.update((len(keys) + i, t) for i in range(ny))
    return out


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
    kind = _INSTANCE_TYPES.get(family)
    if kind is None:
        raise ValueError(f"unknown family {family!r}")
    if not isinstance(instance, kind):
        raise TypeError(f"{family} projection needs a {kind.__name__} instance")
    note, n = "", instance.n
    if family == "sat":
        dz, dt = 0, len(instance.distinct_clauses())
    elif family == "vc":
        if k is None:
            raise ValueError("vc counting needs the cover size k")
        if not 0 <= k <= n:
            raise ValueError(f"cover size {k} out of range 0..{n}")
        dz, dt = instance.m, k
    elif family == "cis":
        if k is None:
            raise ValueError("cis counting needs the clique size k")
        if k == 1:
            raise ValueError(
                "size-1 cliques are invisible to the coefficient identity: "
                "edge subsets never span exactly one vertex")
        if not 0 <= k <= n:
            raise ValueError(f"clique size {k} out of range 0..{n}")
        dz, dt = k * (k - 1) // 2, k
    elif family == "clow":
        dz, dt = n, n
        if n < 3:
            note = ("graphs with fewer than 3 vertices have no Hamiltonian "
                    "cycle; the coefficient counts back-and-forth walks")
        else:
            note = "coefficient equals 2 * (#Hamiltonian cycles) mod p"
    else:
        dz, dt = n, 3 * n
        if strict_recipe:
            note = "strict absent->1 recipe: coefficient also counts absent-edge subsets"
    _budget_check(family, n)

    # every exponent is a multiple of q-1, so the ring counts degrees in
    # units of q-1: z stands for z^(q-1) and t for t^(q-1), and each factor
    # enters to the first power, as over F_2
    ring = CountRing(dz, dt)
    vals = _projected(family, instance, strict_recipe, (ring.dead, ring.z, ring.t))
    total = _eval_def(family, n, 2, ring, vals)
    coeff = field.from_int(total[dz << ring.shift | dt])
    qm1 = field.q - 1
    return CoefficientCount(coeff, dz * qm1, dt * qm1, field, n, note)


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
