"""Arithmetic circuits: a DAG of const / input / add / mul gates.

Gates are stored in topological order (arguments always point at earlier
ids) with a single designated output.  Add and mul take one or more
arguments, const and input none.  Evaluation is generic over any ring
exposing zero / one / from_int / add / mul, so the same circuit can be run
over a finite field, a truncated polynomial ring, or the symbolic ring.

A circuit is flat arrays, not one object per gate: gate i has op code
``ops[i]`` (an index into ``OPS``), key ``keys[i]`` (a constant's value, an
input's label or None) and arguments ``args[offsets[i]:offsets[i + 1]]``.
Checks, pruning, text and the ``eval_batch`` plan work on the arrays; the
gate-at-a-time readers use ``per_gate``, lists built once per circuit.
``Gate``, ``Circuit(gates, output)`` and the ``gates`` view remain because
the benchmark in ``perfbench/`` builds and reads circuits gate by gate.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, compress
from math import prod

import numpy as np

from . import labels as lbl
from .rings import Field
from .sparsepoly import Monomial, mono_mul

CONST, INPUT, ADD, MUL = "const", "input", "add", "mul"
OPS = (CONST, INPUT, ADD, MUL)
OP_CONST, OP_INPUT, OP_ADD, OP_MUL = range(len(OPS))  # codes >= OP_ADD take arguments
_CODE = {op: code for code, op in enumerate(OPS)}


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
    def __init__(self, gates: Sequence[Gate], output: int):
        codes = [_CODE.get(g.op, -1) for g in gates]
        # indexed by op code; an unknown op (-1) keeps its name for the check
        keys = [(g.value, g.label, None, None, g.op)[c] for g, c in zip(gates, codes)]
        self._init(codes, keys, [0, *accumulate(len(g.args) for g in gates)],
                   [a for g in gates for a in g.args], output)

    @classmethod
    def from_arrays(cls, ops, keys, offsets, args, output: int) -> "Circuit":
        """A circuit from its array form (see the module docstring)."""
        c = cls.__new__(cls)
        c._init(ops, keys, offsets, args, output)
        return c

    def _init(self, ops, keys, offsets, args, output: int) -> None:
        """Store the arrays and check them, naming the first bad gate."""
        self.ops = ops = np.asarray(ops, dtype=np.int8)
        self.keys = keys = list(keys)
        self.offsets = offsets = np.asarray(offsets, dtype=np.intp)
        self.args = args = np.asarray(args, dtype=np.intp)
        self.output = output
        arity = offsets[1:] - offsets[:-1]
        owner = np.arange(len(ops)).repeat(arity)
        inputs = (ops == OP_INPUT).nonzero()[0].tolist()
        # each check's gates in id order; of two faults on one gate the first
        # is named, so an unknown op (code -1) is never called a leaf
        problems = [((ops < 0).nonzero()[0], "unknown op {key!r}"),
                    (((ops < OP_ADD) & (arity > 0)).nonzero()[0], "{op} takes no arguments"),
                    (((ops >= OP_ADD) & (arity == 0)).nonzero()[0],
                     "{op} needs at least one argument"),
                    (owner[(args < 0) | (args >= owner)], "arguments must reference earlier gates"),
                    ([i for i in inputs if not lbl.is_valid_label(keys[i])],
                     "bad input label {key!r}")]
        gid, msg = min(((int(ids[0]), text) for ids, text in problems if len(ids)),
                       key=lambda found: found[0], default=(None, None))
        if msg:
            raise ValueError(f"gate {gid}: " + msg.format(op=OPS[ops[gid]], key=keys[gid]))
        if not 0 <= output < len(ops):
            raise ValueError("output id out of range")

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def gates(self) -> Sequence[Gate]:
        """A read-only view of the gates as ``Gate`` objects, made on access."""
        return _GateView(self)

    @cached_property
    def per_gate(self) -> tuple[list[str], list, list[tuple[int, ...]]]:
        """Per gate, as Python lists: op name, key and argument tuple."""
        flat, ends = self.args.tolist(), self.offsets.tolist()
        return ([OPS[o] for o in self.ops.tolist()], self.keys,
                [tuple(flat[lo:hi]) for lo, hi in zip(ends, ends[1:])])

    def reachable(self) -> np.ndarray:
        """Per gate, whether the output reaches it."""
        return _reachable(self.offsets, self.args, self.output)

    def input_labels(self) -> list[str]:
        """Distinct input labels in order of first use."""
        return list(dict.fromkeys(self.keys[i] for i in (self.ops == OP_INPUT).nonzero()[0]))

    def constants_used(self) -> set[int]:
        return {self.keys[i] for i in (self.ops == OP_CONST).nonzero()[0]}

    def wire_count(self) -> int:
        return len(self.args)

    def counts_by_op(self) -> dict[str, int]:
        return dict(zip(OPS, np.bincount(self.ops, minlength=len(OPS)).tolist()))

    # -- evaluation -----------------------------------------------------------

    def eval(self, assignment: dict[str, object], ring):
        """Evaluate over any ring; assignment maps input labels to ring values."""
        ops, keys, args = self.per_gate
        vals: list[object] = [None] * len(ops)
        for gid, op in enumerate(ops):
            if op == CONST:
                vals[gid] = ring.from_int(keys[gid])
            elif op == INPUT:
                if keys[gid] not in assignment:
                    raise ValueError(f"unassigned input {keys[gid]!r}")
                v = assignment[keys[gid]]
                if isinstance(ring, Field):  # reduced or range-checked, as in eval_batch
                    v = ring.from_int(v) if ring.k == 1 else ring._check(v)
                vals[gid] = v
            else:
                combine = ring.add if op == ADD else ring.mul
                vals[gid] = reduce(combine, map(vals.__getitem__, args[gid]))
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

    @cached_property
    def _groups(self) -> tuple[int, int, list[tuple], list[tuple]]:
        """eval_batch's plan over the live gates: (rows, output row, leaves, groups).

        Gates are grouped by (level, op, key): leaves have level 0, other gates
        one more than their deepest argument; key is a constant's value, an
        input's label or an arity.  Each group owns a run of rows, leaves first,
        and the others read argument rows, shape (arity, gates), of earlier ones.
        """
        ops, keys, offsets, args = self.ops, self.keys, self.offsets, self.args
        live = self.reachable()
        # Relax the levels of every add/mul gate, dead ones too: leaves have
        # no arguments, so the runs of the add/mul gates tile args and one
        # reduceat covers them all.  Levels only grow, so an unchanged sum
        # means a fixed point; depth + 1 rounds.
        inner = (ops >= OP_ADD).nonzero()[0]
        starts, total = offsets[inner], 0
        level = np.zeros(len(ops), dtype=np.int32)
        while len(inner):
            level[inner] = np.maximum.reduceat(level[args], starts) + 1
            if total == (total := int(level.sum())):
                break
        # sort by level, op, then a leaf's rank among the (op, key) pairs or an
        # add/mul gate's arity; level 0 holds only const < input and later
        # levels only add < mul, so op codes sort as the names do
        arity = offsets[1:] - offsets[:-1]
        rank = arity.copy()
        leaf_ids = (live & (ops < OP_ADD)).nonzero()[0]
        pairs = list(zip(ops[leaf_ids].tolist(), map(keys.__getitem__, leaf_ids.tolist())))
        index = {pair: i for i, pair in enumerate(sorted(set(pairs)))}
        rank[leaf_ids] = [index[pair] for pair in pairs]
        key = (level.astype(np.int64) * len(OPS) + ops) * (int(rank.max()) + 1) + rank
        gids = live.nonzero()[0]
        order = gids[key[gids].argsort(kind="stable")]  # stable: ids ascend in a group
        row = np.empty(len(ops), dtype=np.intp)
        row[order] = np.arange(len(order))
        key = key[order]
        bounds = [0, *((key[1:] != key[:-1]).nonzero()[0] + 1).tolist(), len(order)]
        # every live gate's argument rows in row order, runs ending at ends
        lens = arity[order]
        ends = lens.cumsum()
        flat = row[args[np.arange(ends[-1]) + (offsets[order] + lens - ends).repeat(lens)]]
        leaves, groups = [], []
        order, lens, ends = order.tolist(), lens.tolist(), ends.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            first, k = order[lo], lens[lo]
            if not k:  # a leaf
                leaves.append((OPS[ops[first]], keys[first], slice(lo, hi)))
            else:
                runs = flat[ends[lo] - k:ends[hi - 1]].reshape(hi - lo, k)
                groups.append((OPS[ops[first]], slice(lo, hi), np.ascontiguousarray(runs.T)))
        return len(order), int(row[self.output]), leaves, groups

    # -- structural predicates ------------------------------------------------

    def is_skew(self) -> bool:
        """True iff every mul gate has at most one add/mul argument (with
        multiplicity, so mul(g, g) on an internal gate g is not skew)."""
        arity = self.offsets[1:] - self.offsets[:-1]
        on_mul = (self.ops == OP_MUL).repeat(arity) & (self.ops[self.args] >= OP_ADD)
        return bool(np.bincount(np.arange(len(self)).repeat(arity)[on_mul]).max(initial=0) <= 1)

    def is_mult_disjoint(self) -> bool:
        """True iff for every mul gate the argument sub-circuits are pairwise
        disjoint (repeated arguments therefore fail)."""
        desc: list[frozenset[int]] = []  # per gate, the ids of its sub-circuit
        for gid, args in enumerate(self.per_gate[2]):
            desc.append(frozenset({gid}.union(*map(desc.__getitem__, args))))
        for op, _, args in zip(*self.per_gate):
            if op != MUL or len(args) < 2:
                continue
            union: set[int] = set()
            total = 0
            for a in args:
                union |= desc[a]
                total += len(desc[a])
            if len(union) != total:
                return False
        return True

    # -- parse trees ----------------------------------------------------------

    def count_parse_trees(self) -> int:
        ops, _, args = self.per_gate
        counts = [0] * len(ops)
        for gid, op in enumerate(ops):
            if op in (CONST, INPUT):
                counts[gid] = 1
            else:
                counts[gid] = (sum if op == ADD else prod)(counts[a] for a in args[gid])
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

        ops, keys, args = self.per_gate
        memo: dict[int, list[ParseTree]] = {}

        def rec(gid: int) -> list[ParseTree]:
            if gid in memo:
                return memo[gid]
            op = ops[gid]
            if op == CONST:
                res = [ParseTree(frozenset([gid]), keys[gid], ())]
            elif op == INPUT:
                res = [ParseTree(frozenset([gid]), 1, ((keys[gid], 1),))]
            elif op == ADD:
                res = [
                    ParseTree(t.gates | {gid}, t.coeff, t.monomial)
                    for a in args[gid]
                    for t in rec(a)
                ]
            else:
                res = [ParseTree(frozenset([gid]), 1, ())]
                for a in args[gid]:
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
        words = list(map(str, self.args.tolist()))
        ends = self.offsets.tolist()
        lines = [f"gate {gid} {OPS[op]} {key}" if key is not None
                 else f"gate {gid} {OPS[op]} " + " ".join(words[ends[gid]:ends[gid + 1]])
                 for gid, (op, key) in enumerate(zip(self.ops.tolist(), self.keys))]
        lines.append(f"output {self.output}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        ops, keys, offsets, args = [], [], [0], []
        output = None

        def line(toks):
            nonlocal output
            if toks[0] == "gate":
                if len(toks) < 3:
                    raise ValueError("malformed gate line")
                if int(toks[1]) != len(ops):
                    raise ValueError("gate ids must be consecutive from 0")
                op = toks[2]
                if op in (ADD, MUL):
                    key = None
                    args.extend(map(int, toks[3:]))
                elif op == CONST:
                    if len(toks) != 4:
                        raise ValueError("const gate takes one value")
                    key = int(toks[3])
                elif op == INPUT:
                    if len(toks) != 4:
                        raise ValueError("input gate takes one label")
                    key = toks[3]
                else:
                    raise ValueError(f"unknown gate op {op!r}")
                ops.append(_CODE[op])
                keys.append(key)
                offsets.append(len(args))
            elif toks[0] == "output":
                if len(toks) != 2:
                    raise ValueError("malformed output line")
                if output is not None:
                    raise ValueError("duplicate output line")
                output = int(toks[1])
            else:
                raise ValueError(f"unrecognised directive {toks[0]!r}")

        lbl.read_lines(text, line)
        if output is None:
            raise ValueError("missing output line")
        return cls.from_arrays(ops, keys, offsets, args, output)


class _GateView(Sequence):
    """``Circuit.gates``: gate i as a ``Gate``, made when it is read."""

    def __init__(self, circuit: Circuit):
        self._circuit = circuit

    def __len__(self) -> int:
        return len(self._circuit)

    def __getitem__(self, gid) -> Gate:
        op, key, args = (column[operator.index(gid)] for column in self._circuit.per_gate)
        return Gate(op, key if op == CONST else 0, key if op == INPUT else "", args)


class CircuitBuilder:
    """Incremental construction with shared constant and input gates, in array form."""

    def __init__(self):
        self.ops: list[int] = []
        self.keys: list = []
        self.offsets: list[int] = [0]
        self.args: list[int] = []
        self._consts: dict[int, int] = {}
        self._inputs: dict[str, int] = {}

    def const(self, v: int) -> int:
        if v not in self._consts:
            self._consts[v] = self._push(OP_CONST, v, ())
        return self._consts[v]

    def input(self, label: str) -> int:
        if label not in self._inputs:
            self._inputs[label] = self._push(OP_INPUT, label, ())
        return self._inputs[label]

    def add(self, args: list[int]) -> int:
        """Sum of gates; zero constants are dropped, empty sums fold to 0."""
        zero = self._consts.get(0)
        args = [a for a in args if a != zero]
        if not args:
            return self.const(0)
        if len(args) == 1:
            return args[0]
        return self._push(OP_ADD, None, args)

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
        return self._push(OP_MUL, None, args)

    def _push(self, op: int, key, args) -> int:
        self.ops.append(op)
        self.keys.append(key)
        self.args += args
        self.offsets.append(len(self.args))
        return len(self.ops) - 1

    def build(self, output: int) -> Circuit:
        """The gates that output reaches, in their order, renumbered from 0."""
        offsets, args = np.array(self.offsets), np.array(self.args, dtype=np.intp)
        arity = offsets[1:] - offsets[:-1]
        live = _reachable(offsets, args, output)
        new_id = live.cumsum() - 1
        return Circuit.from_arrays(
            np.array(self.ops)[live], compress(self.keys, live.tolist()),
            np.concatenate(([0], arity[live].cumsum())),
            new_id[args[live.repeat(arity)]], int(new_id[output]))


def _reachable(offsets: np.ndarray, args: np.ndarray, output: int) -> np.ndarray:
    """Per gate, whether output reaches it: the gates nothing reads, output
    aside, are peeled off, one round per link of the longest dead chain."""
    n, arity = len(offsets) - 1, offsets[1:] - offsets[:-1]
    reads = np.bincount(args, minlength=n)
    reads[output] += 1
    dead = peel = reads == 0
    while peel.any():
        reads -= np.bincount(args[peel.repeat(arity)], minlength=n)
        peel = (reads == 0) & ~dead
        dead |= peel
    return ~dead
