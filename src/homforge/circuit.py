"""Arithmetic circuits: a DAG of const / input / add / mul gates.

Gates are stored in topological order (arguments always point at earlier
ids) with a single designated output.  Add and mul take one or more
arguments, const and input none.  ``eval_batch`` evaluates many field
assignments at once.

A circuit is flat arrays, not one object per gate: gate i has op code
``ops[i]`` (an index into ``OPS``), key ``keys[i]`` (a constant's value, an
input's label or None) and arguments ``args[offsets[i]:offsets[i + 1]]``.
Checks, pruning, text and the ``eval_batch`` plan work on the arrays; the
gate-at-a-time readers use ``per_gate``, lists built once per circuit.
Text is read and written in one array pass over its UTF-8 bytes, not a
line at a time.
``Gate``, ``Circuit(gates, output)`` and the ``gates`` view remain because
the benchmark in ``perfbench/`` builds and reads circuits gate by gate.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
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

    def constants_used(self) -> set[int]:
        return {self.keys[i] for i in (self.ops == OP_CONST).nonzero()[0]}

    def wire_count(self) -> int:
        return len(self.args)

    # -- evaluation -----------------------------------------------------------

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
        folds its arguments into acc a chunk at a time: acc and up to j-1
        more codes form the Horner index ``(acc*q + a_1)*q + ...``, and one
        gather from the field's table T_j (``Field._code_sums``) turns it
        into the code of their sum.  Inputs are read into int64, uint64 ones
        reduced mod p first over F_p (2^63 and up would wrap).  One max
        checks that all lie in range(q); if some do not, F_p reduces them
        with ``_reduce`` and F_q refuses them.  So every value is exact once
        narrowed (and, over F_q, mapped to codes).  Returns a new int64
        array, not a view of the matrix.
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
            if prime and value.dtype == np.uint64:  # 2^63 and up would wrap in int64
                value = value % np.uint64(p)
            leaf[rows] = value
        # one pass checks 0 <= x < q: a negative x read as uint64 is >= 2^63
        if leaf.size and int(leaf.view(np.uint64).max()) >= q:
            if not prime:
                raise ValueError(f"inputs over F_{q} must lie in range({q})")
            _reduce(leaf, np.int64(p), np.empty_like(leaf))
        vals = np.empty((n_rows, *width), dtype=dtype)
        vals[:len(leaf)] = leaf if prime else field._log[leaf]
        buf = np.empty((widest, *width), dtype)
        hi, m = (p - 1, p) if prime else (q - 1, q - 1)  # hi: the largest value of a row
        m_ = dtype(m)
        if not prime:
            q_, sums = dtype(q), field._code_sums
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
                # acc and up to len(sums) more codes: Horner index, one lookup
                for lo in range(1, len(args), len(sums)):
                    chunk = args[lo:lo + len(sums)]
                    for col in chunk:
                        vals.take(col, axis=0, out=arg, mode="clip")
                        acc *= q_
                        acc += arg
                    sums[len(chunk) - 1].take(acc, out=acc, mode="clip")
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
        flat = row[args[_ranges(offsets[order], lens)]]
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

        # gates come after their arguments, so one pass in id order over the
        # gates the output reaches fills the memo; none of them has more
        # parse trees than the output, so bound caps each list
        ops, keys, args = self.per_gate
        memo: dict[int, list[ParseTree]] = {}
        for gid in self.reachable().nonzero()[0].tolist():
            op = ops[gid]
            if op == CONST:
                res = [ParseTree(keys[gid], ())]
            elif op == INPUT:
                res = [ParseTree(1, ((keys[gid], 1),))]
            elif op == ADD:
                res = [t for a in args[gid] for t in memo[a]]
            else:
                res = [ParseTree(1, ())]
                for a in args[gid]:
                    res = [
                        ParseTree(t.coeff * s.coeff, mono_mul(t.monomial, s.monomial))
                        for t in res
                        for s in memo[a]
                    ]
            memo[gid] = res
        return memo[self.output]

    # -- text format ----------------------------------------------------------

    def to_text(self) -> str:
        """One line per gate, ``gate <id> <op> <key or arguments>``, then
        ``output <id>``, written into one byte buffer: each line's length
        comes from digit counts, its offset from their running sum, the
        digits from vectorised division, and each leaf key from ``str(key)``."""
        ops, offsets, args = self.ops, self.offsets, self.args
        leaves = (ops < OP_ADD).nonzero()[0]
        keys = [str(self.keys[i]).encode("utf-8", "surrogatepass") for i in leaves.tolist()]
        key_len = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
        gid = np.arange(len(ops))
        id_len, op_len = _TENS.searchsorted(gid, side="right") + 1, _OP_LEN[ops]  # digits
        # running width of the argument lists, each argument (an earlier
        # gate's id) with the blank or newline after it
        width = np.concatenate(([0], (id_len[args] + 1).cumsum()))
        tail = width[offsets[1:]] - width[offsets[:-1]]  # the line after the op
        tail[leaves] = key_len + 1
        length = id_len + op_len + tail + 7  # "gate", three blanks and the rest
        line_end = length.cumsum()
        line_start = line_end - length
        buf = np.full(int(line_end[-1]), ord(" "), dtype=np.uint8)
        for k, byte in enumerate(b"gate"):
            buf[line_start + k] = byte
        _put_ints(buf, line_start + 5 + id_len, gid)
        op_at = line_start + 6 + id_len
        for k in range(_OP_NAME.shape[1]):
            has = op_len > k
            buf[op_at[has] + k] = _OP_NAME[ops[has], k]
        tail_at = op_at + op_len + 1
        _put_ints(buf, (tail_at - width[offsets[:-1]]).repeat(offsets[1:] - offsets[:-1])
                  + width[1:] - 1, args)
        buf[_ranges(tail_at[leaves], key_len)] = np.frombuffer(b"".join(keys), dtype=np.uint8)
        buf[line_end - 1] = ord("\n")
        return buf.tobytes().decode("utf-8", "surrogatepass") + f"output {self.output}\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        """Read ``to_text``'s format under the shared line grammar (see
        ``labels.read_lines``) in one pass over the text's bytes.

        Every token's bounds come from byte masks (after Langdale and Lemire,
        "Parsing gigabytes of JSON per second", VLDB J. 28, 2019), then every
        line is checked at once; the first bad line is named with the message
        ``_line_error`` gives it, the one the line-at-a-time grammar gives.
        Tokens of 1-18 ASCII digits are read in bulk, every other number by
        ``int()``, so signs, underscores and Unicode digits read as in Python.
        """
        # \r\n is one line break; the other non-ASCII breaks and blanks
        # become \n and a space, so the byte masks see every one
        if "\r" in text:
            text = text.replace("\r\n", "\n")
        if not text.isascii():
            text = text.translate(_WIDE)
        raw = text.encode("utf-8", "surrogatepass")
        data = np.frombuffer(raw, dtype=np.uint8)
        # token i is raw[start[i]:end[i]]; a line's bytes from its first "#"
        # on are blanks; positions are int32 unless the text is 2 GiB or more
        index = np.int32 if len(data) < 2**31 else np.intp
        split = np.concatenate(([True], _splits(data), [True]))
        breaks = _breaks(data).nonzero()[0].astype(index)
        hashes = (data == ord("#")).nonzero()[0]
        hash_line = breaks.searchsorted(hashes)
        first = np.diff(hash_line, prepend=-1) != 0
        cut = hashes[first]
        split[_ranges(cut + 1, np.append(breaks, len(data))[hash_line[first]] - cut)] = True
        bounds = (split[1:] != split[:-1]).nonzero()[0]
        del split  # free the byte mask and the int64 bounds before the token work
        start, end = bounds[0::2].astype(index), bounds[1::2].astype(index)
        del bounds

        # per nonblank line: its first token, token count and kind
        n_tok = len(start)
        head = np.zeros(n_tok, dtype=bool)
        head[:1] = True
        after = start.searchsorted(breaks)  # the first token after each break
        head[after[after < n_tok]] = True
        heads = head.nonzero()[0]
        count = np.diff(heads, append=n_tok)
        word = _words(data, start[heads], end[heads])
        gate, out = word == _WORD["gate"], word == _WORD["output"]
        op_tok = np.minimum(heads + 2, n_tok - 1)
        op_word = _words(data, start[op_tok], end[op_tok])
        code = np.full(len(heads), -1, dtype=np.int8)  # -1: not a gate line with an op
        for c, name in enumerate(OPS):
            code[gate & (count >= 3) & (op_word == _WORD[name])] = c
        # the tokens that must be ints: ids and output values, const values
        # and, last, the arguments of add and mul
        arg_lines = code >= OP_ADD
        arg_tok = _ranges(heads[arg_lines] + 3, count[arg_lines] - 3)
        has_id, has_value = (gate | out) & (count >= 2), (code == OP_CONST) & (count >= 4)
        nums = np.concatenate((heads[has_id] + 1, heads[has_value] + 3, arg_tok))
        parsed, bad, big = _ints(raw, data, start[nums], end[nums])
        n_ids, n_args = int(has_id.sum()), len(arg_tok)
        ids = np.full(len(heads), -1, dtype=np.int64)  # per line, its second token's value
        ids[has_id] = parsed[:n_ids]

        gates_before = gate.cumsum() - gate
        fault = ~(gate | out) | (gate & (code < 0)) | (out & (count != 2))
        fault |= gate & (ids != gates_before)
        fault |= ((code == OP_CONST) | (code == OP_INPUT)) & (count != 4)
        fault |= out & (out.cumsum() > 1)
        fault[heads.searchsorted(nums[bad], side="right") - 1] = True
        # an add or mul argument outside int64 is no gate id
        wide = [i for i in big if i >= len(nums) - n_args]
        fault[heads.searchsorted(nums[wide], side="right") - 1] = True
        if fault.any():
            i = int(fault.argmax())
            toks = raw[start[heads[i]]:end[heads[i] + count[i] - 1]]
            message = _line_error(toks.decode("utf-8", "surrogatepass").split(),
                                  int(gates_before[i]), bool(out[:i].any()))
            raise ValueError(f"line {breaks.searchsorted(start[heads[i]]) + 1}: {message}")
        if not out.any():
            raise ValueError("missing output line")

        lines = gate.nonzero()[0]
        ops, key_tok = code[lines], heads[lines] + 3
        keys = [None] * len(lines)
        # the const values follow the ids in parsed, in gate order
        for j, i in enumerate((ops == OP_CONST).nonzero()[0].tolist(), start=n_ids):
            keys[i] = big.get(j, int(parsed[j]))
        for i in (ops == OP_INPUT).nonzero()[0].tolist():
            keys[i] = _token(raw, start, end, key_tok[i])
        arity = np.where(ops >= OP_ADD, count[lines] - 3, 0)
        return cls.from_arrays(ops, keys, np.concatenate(([0], arity.cumsum())),
                               parsed[len(nums) - n_args:],
                               int(_token(raw, start, end, heads[out.argmax()] + 1)))


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


def _reduce(acc: np.ndarray, p: np.integer, scratch: np.ndarray) -> None:
    """Reduce ``acc`` mod p in place; ``scratch``, of acc's shape and dtype,
    is overwritten.

    numpy divides by a scalar with a multiply and a shift (Granlund and
    Montgomery, PLDI 1994) in ``floor_divide`` but not in ``remainder`` or
    ``fmod``, so acc - p*(acc // p) takes about a seventh of the time of
    ``np.remainder`` on a 3,750 x 512 uint8 matrix.  p*(acc // p) <= acc, so
    nothing wraps in an unsigned acc.  In int64, p*(acc // p) can wrap below
    -2^63, but the difference is exact mod 2^64 and lies in range(p), so
    the result is exact there too.
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
    r = flat[_ranges(starts, lens)]
    np.subtract.at(pending, r, 1)
    r = r[pending[r] == 0]
    # one stamp per gate survives
    stamp[r] = slot = np.arange(len(r))
    return r[stamp[r] == slot]


# -- text helpers -------------------------------------------------------------

# The non-ASCII characters that end a line for str.splitlines, and the
# other non-ASCII blanks of str.split: from_text maps them to \n and " ".
_WIDE = str.maketrans({**dict.fromkeys("\x85\u2028\u2029", "\n"),
                       **dict.fromkeys("\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
                                       "\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000", " ")})
_WORD = {w: int.from_bytes(w.encode().ljust(7, b"\0") + bytes([len(w)]), "little")
         for w in ("gate", "output", *OPS)}
_OP_LEN = np.array([len(op) for op in OPS])
_OP_NAME = np.array([list(op.encode().ljust(5)) for op in OPS], dtype=np.uint8)
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)


def _breaks(data: np.ndarray) -> np.ndarray:
    r"""Per byte, whether it ends a line for str.splitlines (\r\n aside):
    \n \v \f \r, or the separators \x1c-\x1e."""
    return ((data - np.uint8(10)) <= 3) | ((data - np.uint8(28)) <= 2)


def _splits(data: np.ndarray) -> np.ndarray:
    r"""Per byte, whether it ends a token: a str.split blank (\t-\r,
    \x1c-\x1f and " ") or "#", which starts a comment."""
    return ((data - np.uint8(9)) <= 4) | ((data - np.uint8(28)) <= 4) | (data == ord("#"))


def _token(raw: bytes, start: np.ndarray, end: np.ndarray, i) -> str:
    return raw[start[i]:end[i]].decode("utf-8", "surrogatepass")


def _words(data: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each token's first 7 bytes, zero-padded, and its length (at most 255)
    as the 8th, read as one little-endian int64: see ``_WORD``."""
    size = end - start
    word = np.minimum(size, 255).astype(np.int64) << 56
    for k in range(7):
        byte = data[np.minimum(start + k, len(data) - 1)]
        byte *= size > k
        word |= byte.astype(np.int64) << (8 * k)
    return word


def _ints(raw: bytes, data: np.ndarray, start: np.ndarray,
          end: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Each token's ``int()`` value as int64, whether ``int()`` refuses it,
    and {index: value} for the values outside int64 (whose int64 is -1).

    Tokens of 1-18 ASCII digits are read by Horner's rule over columns
    aligned at the token's end; every other token goes through ``int()``.
    """
    size = end - start
    width = int(min(size.max(initial=0), 18))
    value = np.zeros(len(start), dtype=np.int64)
    plain = size <= 18
    at = end - width  # > -len(data): some token is width long
    for col in range(width, 0, -1):  # places from the end
        digit = data[at] - np.uint8(ord("0"))  # wraps below "0"
        digit *= size >= col
        plain &= digit <= 9
        value *= 10
        value += digit
        at += 1
    bad, big = np.zeros(len(start), dtype=bool), {}
    for i in (~plain).nonzero()[0].tolist():
        try:
            v = int(_token(raw, start, end, i))
        except ValueError:
            bad[i] = True
            continue
        if not -2**63 <= v < 2**63:
            big[i], v = v, -1
        value[i] = v
    return value, bad, big


def _line_error(toks: list[str], gates_before: int, output_seen: bool) -> str | None:
    """The message for the first fault of a ``.ct`` line, in the order the
    line grammar checks them, or None for a good line."""
    try:
        if toks[0] == "gate":
            if len(toks) < 3:
                return "malformed gate line"
            if int(toks[1]) != gates_before:
                return "gate ids must be consecutive from 0"
            op = toks[2]
            if op in (ADD, MUL):
                args = list(map(int, toks[3:]))  # every token is read first
                if any(not -2**63 <= a < 2**63 for a in args):
                    return "argument outside the 64-bit range"
            elif op == CONST:
                if len(toks) != 4:
                    return "const gate takes one value"
                int(toks[3])
            elif op == INPUT:
                if len(toks) != 4:
                    return "input gate takes one label"
            else:
                return f"unknown gate op {op!r}"
        elif toks[0] == "output":
            if len(toks) != 2:
                return "malformed output line"
            if output_seen:
                return "duplicate output line"
            int(toks[1])
        else:
            return f"unrecognised directive {toks[0]!r}"
    except ValueError as e:
        return str(e)
    return None


def _put_ints(buf: np.ndarray, ends: np.ndarray, values: np.ndarray) -> None:
    """Write each value (>= 0) in decimal into buf, ending just before ends."""
    ends = ends - 1
    while len(values):
        # floor_divide by a scalar is a multiply and a shift; % is not
        tens = values // 10
        buf[ends] = values - tens * 10 + ord("0")
        more = tens > 0
        ends, values = ends[more] - 1, tens[more]


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The runs starts[i], ..., starts[i] + lens[i] - 1, concatenated."""
    ends = lens.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + lens).repeat(lens)
