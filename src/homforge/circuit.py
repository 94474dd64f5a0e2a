"""Arithmetic circuits: a DAG of const / input / add / mul gates.

Gates are stored in topological order (arguments always point at earlier
ids) with a single designated output.  Add and mul take one or more
arguments.  Evaluation is generic over any ring exposing zero / one /
from_int / add / mul, so the same circuit can be run over a finite field,
a truncated polynomial ring, or the symbolic ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import labels as lbl
from .rings import Field
from .sparsepoly import Monomial, SparsePoly, SymbolicRing, mono_mul

CONST, INPUT, ADD, MUL = "const", "input", "add", "mul"


@dataclass(frozen=True)
class Gate:
    op: str
    value: int = 0
    label: str = ""
    args: tuple[int, ...] = ()


@dataclass(frozen=True)
class ParseTree:
    """A parse tree of a multiplicatively disjoint circuit.

    gates is the set of gate ids kept by the tree; coeff multiplies out the
    constant leaves and monomial collects the input-leaf labels.
    """

    gates: frozenset[int]
    coeff: int
    monomial: Monomial


class Circuit:
    def __init__(self, gates: list[Gate], output: int):
        for gid, g in enumerate(gates):
            if g.op in (ADD, MUL):
                if not g.args:
                    raise ValueError(f"gate {gid}: {g.op} needs at least one argument")
                if any(a < 0 or a >= gid for a in g.args):
                    raise ValueError(f"gate {gid}: arguments must reference earlier gates")
            elif g.op == INPUT:
                if not lbl.is_valid_label(g.label):
                    raise ValueError(f"gate {gid}: bad input label {g.label!r}")
            elif g.op != CONST:
                raise ValueError(f"gate {gid}: unknown op {g.op!r}")
        if not 0 <= output < len(gates):
            raise ValueError("output id out of range")
        self.gates = list(gates)
        self.output = output

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gates)

    def input_labels(self) -> list[str]:
        seen = []
        have = set()
        for g in self.gates:
            if g.op == INPUT and g.label not in have:
                have.add(g.label)
                seen.append(g.label)
        return seen

    def constants_used(self) -> set[int]:
        return {g.value for g in self.gates if g.op == CONST}

    def wire_count(self) -> int:
        return sum(len(g.args) for g in self.gates)

    def counts_by_op(self) -> dict[str, int]:
        out = {CONST: 0, INPUT: 0, ADD: 0, MUL: 0}
        for g in self.gates:
            out[g.op] += 1
        return out

    # -- evaluation -----------------------------------------------------------

    def eval(self, assignment: dict[str, object], ring):
        """Evaluate over any ring; assignment maps input labels to ring values."""
        vals: list[object] = [None] * len(self.gates)
        for gid, g in enumerate(self.gates):
            if g.op == CONST:
                vals[gid] = ring.from_int(g.value)
            elif g.op == INPUT:
                if g.label not in assignment:
                    raise ValueError(f"unassigned input {g.label!r}")
                v = assignment[g.label]
                if isinstance(ring, Field):  # reduced or range-checked, as in eval_batch
                    v = ring.from_int(v) if ring.k == 1 else ring._check(v)
                vals[gid] = v
            elif g.op == ADD:
                acc = vals[g.args[0]]
                for a in g.args[1:]:
                    acc = ring.add(acc, vals[a])
                vals[gid] = acc
            else:
                acc = vals[g.args[0]]
                for a in g.args[1:]:
                    acc = ring.mul(acc, vals[a])
                vals[gid] = acc
        return vals[self.output]

    def eval_batch(self, assignment: dict[str, np.ndarray], field: Field) -> np.ndarray:
        """Vectorised evaluation of many field assignments at once.

        Each label maps to an int array; all arrays share one shape.  Live gates
        fill one value matrix a ``_groups`` group at a time.  The matrix has the
        narrowest unsigned dtype that holds every intermediate value: over F_p
        (p-1)^2 + (p-1), with a sum or product reduced mod p just before it
        could overflow and once at the end of its group; over F_q the largest
        add/mul table index q*q - 1.  Inputs are reduced mod p over F_p and
        must lie in range(q) over F_q before they are narrowed, so every value
        is exact.  Returns a new int64 array, not a view of the matrix.
        """
        width = np.shape(next(iter(assignment.values()))) if assignment else ()
        prime, p, q = field.k == 1, field.p, field.q
        if prime and (p - 1) ** 2 >= 2**63:
            raise ValueError(f"eval_batch needs (p-1)^2 < 2^63; p = {p}")
        need = (p - 1) ** 2 + p - 1 if prime else q * q - 1
        dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                     if need <= np.iinfo(t).max)
        cap = np.iinfo(dtype).max
        tables = {} if prime else {ADD: field._add_table.ravel().astype(dtype),
                                   MUL: field._mul_table.ravel().astype(dtype)}
        n_rows, out, leaves, groups = self._groups
        # leaves are filled and checked in int64, so 257 cannot wrap into range
        leaf = np.empty((leaves[-1][2].stop, *width), dtype=np.int64)
        for op, key, rows in leaves:
            if op == INPUT and key not in assignment:
                raise ValueError(f"unassigned input {key!r}")
            leaf[rows] = field.from_int(key) if op == CONST else assignment[key]
        if prime:
            leaf %= p
        elif leaf.size and (leaf.min() < 0 or leaf.max() >= q):
            raise ValueError(f"inputs over F_{q} must lie in range({q})")
        vals = np.empty((n_rows, *width), dtype=dtype)
        vals[:len(leaf)] = leaf
        buf = np.empty((max((r.stop - r.start for _, r, _ in groups), default=0), *width), dtype)
        p_, q_ = dtype(p), dtype(q)
        for op, rows, args in groups:
            acc, arg = vals[rows], buf[:rows.stop - rows.start]
            # the plan's rows are in range; "clip" skips the copy "raise" makes,
            # and gathering into arg skips the one an overlap with vals makes
            vals.take(args[0], axis=0, out=arg, mode="clip")
            acc[...] = arg
            top = p - 1  # the largest value acc can hold, over F_p
            for col in args[1:]:
                vals.take(col, axis=0, out=arg, mode="clip")
                if not prime:
                    acc *= q_
                    acc += arg
                    tables[op].take(acc, out=acc, mode="clip")
                    continue
                if (top + p - 1 if op == ADD else top * (p - 1)) > cap:
                    acc %= p_
                    top = p - 1
                if op == ADD:
                    acc += arg
                    top += p - 1
                else:
                    acc *= arg
                    top *= p - 1
            if top >= p:
                acc %= p_
        return vals[out].astype(np.int64)

    def eval_symbolic(self, field: Field | None = None, bound: int = 10**6) -> SparsePoly:
        """Expand the circuit into a sparse polynomial (terms capped by bound)."""
        ring = SymbolicRing(field, bound)
        assignment = {name: ring.var(name) for name in self.input_labels()}
        return self.eval(assignment, ring)

    @cached_property
    def _groups(self) -> tuple[int, int, list[tuple], list[tuple]]:
        """eval_batch's plan over the live gates: (rows, output row, leaves, groups).

        Gates are grouped by (level, op, key): leaves have level 0, other gates
        one more than their deepest argument; key is a constant's value, an
        input's label or an arity.  Each group owns a run of rows, leaves first,
        and the others read argument rows, shape (arity, gates), of earlier ones.
        """
        live = _live(self.gates, self.output)
        level = [0] * len(self.gates)
        members: dict[tuple[int, str, object], list[int]] = {}
        for gid, g in enumerate(self.gates):
            if live[gid]:
                level[gid] = 1 + max(map(level.__getitem__, g.args), default=-1)
                key = g.value if g.op == CONST else g.label if g.op == INPUT else len(g.args)
                members.setdefault((level[gid], g.op, key), []).append(gid)
        row: dict[int, int] = {}
        leaves, groups = [], []
        for (lv, op, key), gids in sorted(members.items()):
            lo = len(row)
            if lv:
                args = np.array([[row[a] for a in self.gates[gid].args] for gid in gids]).T
                groups.append((op, slice(lo, lo + len(gids)), args))
            else:
                leaves.append((op, key, slice(lo, lo + len(gids))))
            row.update((gid, lo + i) for i, gid in enumerate(gids))
        return len(row), row[self.output], leaves, groups

    # -- structural predicates ------------------------------------------------

    def is_skew(self) -> bool:
        """True iff every mul gate has at most one add/mul argument (with
        multiplicity, so mul(g, g) on an internal gate g is not skew)."""
        internal = [g.op in (ADD, MUL) for g in self.gates]
        for g in self.gates:
            if g.op == MUL:
                if sum(1 for a in g.args if internal[a]) > 1:
                    return False
        return True

    def descendants(self) -> list[frozenset[int]]:
        """Per gate, the set of gate ids in its sub-circuit (itself included)."""
        out: list[frozenset[int]] = []
        for gid, g in enumerate(self.gates):
            acc = {gid}
            for a in g.args:
                acc |= out[a]
            out.append(frozenset(acc))
        return out

    def is_mult_disjoint(self) -> bool:
        """True iff for every mul gate the argument sub-circuits are pairwise
        disjoint (repeated arguments therefore fail)."""
        desc = self.descendants()
        for g in self.gates:
            if g.op != MUL or len(g.args) < 2:
                continue
            union: set[int] = set()
            total = 0
            for a in g.args:
                union |= desc[a]
                total += len(desc[a])
            if len(union) != total:
                return False
        return True

    # -- parse trees ----------------------------------------------------------

    def count_parse_trees(self) -> int:
        counts = [0] * len(self.gates)
        for gid, g in enumerate(self.gates):
            if g.op in (CONST, INPUT):
                counts[gid] = 1
            elif g.op == ADD:
                counts[gid] = sum(counts[a] for a in g.args)
            else:
                c = 1
                for a in g.args:
                    c *= counts[a]
                counts[gid] = c
        return counts[self.output]

    def parse_trees(self, bound: int = 10**4) -> list[ParseTree]:
        """Enumerate all parse trees of a multiplicatively disjoint circuit.

        A parse tree keeps the output, all arguments of every kept mul gate,
        and exactly one argument of every kept add gate.
        """
        if not self.is_mult_disjoint():
            raise ValueError("parse-tree enumeration requires a multiplicatively disjoint circuit")
        total = self.count_parse_trees()
        if total > bound:
            raise ValueError(f"{total} parse trees exceed bound {bound}")

        memo: dict[int, list[ParseTree]] = {}

        def rec(gid: int) -> list[ParseTree]:
            if gid in memo:
                return memo[gid]
            g = self.gates[gid]
            if g.op == CONST:
                res = [ParseTree(frozenset([gid]), g.value, ())]
            elif g.op == INPUT:
                res = [ParseTree(frozenset([gid]), 1, ((g.label, 1),))]
            elif g.op == ADD:
                res = [
                    ParseTree(t.gates | {gid}, t.coeff, t.monomial)
                    for a in g.args
                    for t in rec(a)
                ]
            else:
                res = [ParseTree(frozenset([gid]), 1, ())]
                for a in g.args:
                    res = [
                        ParseTree(t.gates | s.gates, t.coeff * s.coeff,
                                  mono_mul(t.monomial, s.monomial))
                        for t in res
                        for s in rec(a)
                    ]
            memo[gid] = res
            return res

        return rec(self.output)

    # -- text format ----------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for gid, g in enumerate(self.gates):
            if g.op == CONST:
                lines.append(f"gate {gid} const {g.value}")
            elif g.op == INPUT:
                lines.append(f"gate {gid} input {g.label}")
            else:
                lines.append(f"gate {gid} {g.op} " + " ".join(str(a) for a in g.args))
        lines.append(f"output {self.output}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        gates: list[Gate] = []
        output = None

        def line(toks):
            nonlocal output
            if toks[0] == "output":
                if len(toks) != 2:
                    raise ValueError("malformed output line")
                if output is not None:
                    raise ValueError("duplicate output line")
                output = int(toks[1])
            elif toks[0] == "gate":
                if len(toks) < 3:
                    raise ValueError("malformed gate line")
                if int(toks[1]) != len(gates):
                    raise ValueError("gate ids must be consecutive from 0")
                op = toks[2]
                if op == CONST:
                    if len(toks) != 4:
                        raise ValueError("const gate takes one value")
                    gates.append(Gate(CONST, value=int(toks[3])))
                elif op == INPUT:
                    if len(toks) != 4:
                        raise ValueError("input gate takes one label")
                    gates.append(Gate(INPUT, label=toks[3]))
                elif op in (ADD, MUL):
                    gates.append(Gate(op, args=tuple(int(t) for t in toks[3:])))
                else:
                    raise ValueError(f"unknown gate op {op!r}")
            else:
                raise ValueError(f"unrecognised directive {toks[0]!r}")

        lbl.read_lines(text, line)
        if output is None:
            raise ValueError("missing output line")
        return cls(gates, output)


class CircuitBuilder:
    """Incremental construction with shared constant and input gates."""

    def __init__(self):
        self.gates: list[Gate] = []
        self._consts: dict[int, int] = {}
        self._inputs: dict[str, int] = {}

    def const(self, v: int) -> int:
        if v not in self._consts:
            self._consts[v] = self._push(Gate(CONST, value=v))
        return self._consts[v]

    def input(self, label: str) -> int:
        if label not in self._inputs:
            self._inputs[label] = self._push(Gate(INPUT, label=label))
        return self._inputs[label]

    def add(self, args: list[int]) -> int:
        """Sum of gates; zero constants are dropped, empty sums fold to 0."""
        zero = self._consts.get(0)
        args = [a for a in args if a != zero]
        if not args:
            return self.const(0)
        if len(args) == 1:
            return args[0]
        return self._push(Gate(ADD, args=tuple(args)))

    def mul(self, args: list[int]) -> int:
        """Product of gates; unit constants are dropped, zero annihilates."""
        zero = self._consts.get(0)
        one = self._consts.get(1)
        if zero is not None and zero in args:
            return zero
        args = [a for a in args if a != one]
        if not args:
            return self.const(1)
        if len(args) == 1:
            return args[0]
        return self._push(Gate(MUL, args=tuple(args)))

    def _push(self, g: Gate) -> int:
        self.gates.append(g)
        return len(self.gates) - 1

    def build(self, output: int) -> Circuit:
        """The gates that output reaches, in their order, renumbered from 0."""
        live = _live(self.gates, output)
        new_id = [n - 1 for n in accumulate(live)]
        return Circuit([Gate(g.op, g.value, g.label, tuple([new_id[a] for a in g.args]))
                        for g, keep in zip(self.gates, live) if keep], new_id[output])


def _live(gates: list[Gate], output: int) -> list[bool]:
    """Per gate, whether output reaches it (one backward pass)."""
    live = [False] * len(gates)
    live[output] = True
    for gid in range(output, -1, -1):
        if live[gid]:
            for a in gates[gid].args:
                live[a] = True
    return live

