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
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, compress
from math import prod

import numpy as np

from . import labels as lbl
from .labels import Monomial, mono_mul
from .rings import Field

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

    coeff multiplies out the constant leaves and monomial collects the
    input-leaf labels.
    """

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

        Each label maps to an integer array (dtype kind i, u or b; anything
        else is refused); all arrays share one shape.  Live gates fill one
        value matrix a ``_groups`` group at a time.  The matrix has the
        narrowest unsigned dtype that holds every intermediate value: over
        F_p (p-1)^2 + (p-1), over F_q the largest add table index q*q - 1.

        Over F_p a row holds residues, over F_q discrete-log codes (see
        ``rings``; 0 has code q-1, the largest).  F_p sums, F_p products and
        F_q products share one loop that accumulates mod m, p or q-1: F_p
        products multiply and the other two add.  It reduces, as
        x - m*(x // m) (see ``_reduce``), just before a step could overflow
        and at the end of the group if needed.  An F_q product also keeps a
        running maximum of its codes, q-1 exactly where a factor was 0,
        which, floored to 0 or q-1, overrides the reduced sum.  An F_q sum
        gathers from the code add table at ``acc*q + arg``.  Inputs are
        reduced mod p over F_p and must lie in range(q) over F_q before they
        are narrowed (and, over F_q, mapped to codes), so every value is
        exact.  Returns a new int64 array, not a view of the matrix.
        """
        width = np.shape(next(iter(assignment.values()))) if assignment else ()
        prime, p, q = field.k == 1, field.p, field.q
        if prime and (p - 1) ** 2 >= 2**63:
            raise ValueError(f"eval_batch needs (p-1)^2 < 2^63; p = {p}")
        dtype, cap = _narrowest((p - 1) ** 2 + p - 1 if prime else q * q - 1)
        n_rows, out, widest, leaves, groups = self._groups
        # leaves are filled and checked in int64, so 257 cannot wrap into range
        leaf = np.empty((leaves[-1][2].stop, *width), dtype=np.int64)
        for op, key, rows in leaves:
            if op == CONST:
                leaf[rows] = field.from_int(key)
                continue
            if key not in assignment:
                raise ValueError(f"unassigned input {key!r}")
            value = np.asarray(assignment[key])
            if value.dtype.kind not in "iub":
                raise ValueError(f"input {key!r} has dtype {value.dtype}, not an integer dtype")
            leaf[rows] = value
        if prime:
            leaf %= p
        elif leaf.size and (leaf.min() < 0 or leaf.max() >= q):
            raise ValueError(f"inputs over F_{q} must lie in range({q})")
        vals = np.empty((n_rows, *width), dtype=dtype)
        vals[:len(leaf)] = leaf if prime else field._log[leaf]
        buf = np.empty((widest, *width), dtype)
        hi, m = (p - 1, p) if prime else (q - 1, q - 1)  # hi: the largest value of a row
        m_ = dtype(m)
        if not prime:
            q_, code_add = dtype(q), field._code_add.ravel()
            zbuf = np.empty_like(buf)
        for op, rows, args in groups:
            acc, arg = vals[rows], buf[:rows.stop - rows.start]
            # an F_q product's zero keeps the largest code, q-1 iff a factor is 0
            zero = None if prime or op == ADD else zbuf[:len(arg)]
            first = arg if zero is None else zero
            # the plan's rows are in range; "clip" skips the copy "raise" makes,
            # and gathering into a buffer skips the one an overlap with vals makes
            vals.take(args[0], axis=0, out=first, mode="clip")
            acc[...] = first
            if not prime and op == ADD:
                for col in args[1:]:
                    vals.take(col, axis=0, out=arg, mode="clip")
                    acc *= q_
                    acc += arg
                    code_add.take(acc, out=acc, mode="clip")
                continue
            # F_p products multiply; F_p sums and F_q products (of codes) add
            step, grow = ((np.multiply, operator.mul) if prime and op == MUL
                          else (np.add, operator.add))
            top = hi  # the largest value acc can hold
            for col in args[1:]:
                # reduce before the gather, while arg is free to be the scratch
                if grow(top, hi) > cap:
                    _reduce(acc, m_, arg)
                    top = m - 1
                vals.take(col, axis=0, out=arg, mode="clip")
                step(acc, arg, out=acc)
                top = grow(top, hi)
                if zero is not None:
                    np.maximum(zero, arg, out=zero)
            if top >= m:
                _reduce(acc, m_, arg)
            if zero is not None:
                zero //= m_  # q-1 where a factor was 0, else 0; no masked write
                zero *= m_
                np.maximum(acc, zero, out=acc)
        return vals[out].astype(np.int64) if prime else field._exp[vals[out]]

    @cached_property
    def _groups(self) -> tuple[int, int, int, list[tuple], list[tuple]]:
        """eval_batch's plan over the live gates: (rows, output row, rows of the
        largest group, leaves, groups).

        Gates are grouped by (level, op, key): leaves have level 0, other gates
        one more than their deepest argument; key is a constant's value, an
        input's label or an arity.  Each group owns a run of rows, leaves first,
        and the others read argument rows, shape (arity, gates), of earlier ones.
        """
        ops, keys, offsets, args = self.ops, self.keys, self.offsets, self.args
        live = self.reachable()
        level = _levels(offsets, args)
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
        widest = max((rows.stop - rows.start for _, rows, _ in groups), default=0)
        return len(order), int(row[self.output]), widest, leaves, groups

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
        return all(len(frozenset().union(*map(desc.__getitem__, args)))
                   == sum(len(desc[a]) for a in args)
                   for op, _, args in zip(*self.per_gate) if op == MUL)

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
                res = [ParseTree(keys[gid], ())]
            elif op == INPUT:
                res = [ParseTree(1, ((keys[gid], 1),))]
            elif op == ADD:
                res = [t for a in args[gid] for t in rec(a)]
            else:
                res = [ParseTree(1, ())]
                for a in args[gid]:
                    res = [
                        ParseTree(t.coeff * s.coeff, mono_mul(t.monomial, s.monomial))
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


@lru_cache(maxsize=64)
def _narrowest(need: int) -> tuple[type, int]:
    """The narrowest unsigned dtype whose max is at least ``need``, and that max."""
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if need <= np.iinfo(t).max)
    return dtype, int(np.iinfo(dtype).max)


def _reduce(acc: np.ndarray, p: np.unsignedinteger, scratch: np.ndarray) -> None:
    """Reduce ``acc`` mod p in place; ``scratch``, of acc's shape and dtype,
    is overwritten.

    numpy divides by a scalar with a multiply and a shift (Granlund and
    Montgomery, PLDI 1994) in ``floor_divide`` but not in ``remainder`` or
    ``fmod``, so acc - p*(acc // p) takes about a seventh of the time of
    ``np.remainder`` on a 3,750 x 512 uint8 matrix.  p*(acc // p) <= acc, so
    nothing wraps.
    """
    np.floor_divide(acc, p, out=scratch)
    scratch *= p
    acc -= scratch


def _levels(offsets: np.ndarray, args: np.ndarray) -> np.ndarray:
    """Per gate, its longest path down to a leaf, by frontier layering: a
    gate joins the next frontier once its last argument is reached, so each
    argument slot is visited once."""
    n, arity = len(offsets) - 1, offsets[1:] - offsets[:-1]
    readers = np.arange(n).repeat(arity)[args.argsort()]  # grouped by argument
    count = np.bincount(args, minlength=n)
    first, pending, stamp = count.cumsum() - count, arity.copy(), np.empty(n, dtype=np.intp)
    level, front, depth = np.zeros(n, dtype=np.int32), (arity == 0).nonzero()[0], 0
    while len(front):
        front, depth = _release(readers, first[front], count[front], pending, stamp), depth + 1
        level[front] = depth
    return level


def _reachable(offsets: np.ndarray, args: np.ndarray, output: int) -> np.ndarray:
    """Per gate, whether output reaches it: the gates nothing reads, output
    aside, are peeled off from a frontier of gates whose last reader has
    just been peeled, so each argument slot is visited once."""
    n, arity = len(offsets) - 1, offsets[1:] - offsets[:-1]
    reads = np.bincount(args, minlength=n)
    reads[output] += 1
    dead, stamp = reads == 0, np.empty(n, dtype=np.intp)
    front = dead.nonzero()[0]
    while len(front):
        front = _release(args, offsets[front], arity[front], reads, stamp)
        dead[front] = True
    return ~dead


def _release(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray,
             pending: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """Count down ``pending`` once per entry of the runs ``flat[starts[i]:
    starts[i] + lens[i]]``, and return the gates it brought to 0, once each."""
    ends = lens.cumsum()
    r = flat[(starts - ends + lens).repeat(lens) + np.arange(ends[-1])]
    np.subtract.at(pending, r, 1)
    r = r[pending[r] == 0]
    # one stamp per gate survives
    stamp[r] = slot = np.arange(len(r))
    return r[stamp[r] == slot]
