from __future__ import annotations

import random
import re
from collections import Counter
from math import isqrt, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import circuit_eval, counts_by_op, eval_symbolic, input_labels, reachable_reference
from homforge.circuit import Circuit, CircuitBuilder, Gate, _levels, _reachable, _reduce
from homforge.labels import mono
from homforge.rings import Field, is_prime


def small_circuit() -> Circuit:
    # (x + y) * (x * z + 2)
    cb = CircuitBuilder()
    x, y, z = cb.input("x"), cb.input("y"), cb.input("z")
    two = cb.const(2)
    s = cb.add([x, y])
    pr = cb.mul([x, z])
    return cb.build(cb.mul([s, cb.add([pr, two])]))


def test_eval_over_fields():
    c = small_circuit()
    rng = random.Random(1)
    for F in (Field(2), Field(3), Field(5), Field(2, 2)):
        for _ in range(40):
            a = {lab: rng.randrange(F.q) for lab in input_labels(c)}
            want = F.mul(F.add(a["x"], a["y"]),
                         F.add(F.mul(a["x"], a["z"]), F.from_int(2)))
            assert circuit_eval(c, a, F) == want


# gates 2, 4 and 6 are dead; gate 7 reads input x twice through two gates
DEAD_GATES_TEXT = """\
gate 0 input x
gate 1 input y
gate 2 mul 0 1
gate 3 const 3
gate 4 add 2 3
gate 5 input x
gate 6 input z
gate 7 mul 0 5 3 1
gate 8 add 7 1 0
output 8
"""

# dead add/mul gates 3, 4 and 6 sit between live ones, so the argument runs
# of the live gates alone do not tile the argument array
DEAD_BETWEEN_TEXT = """\
gate 0 input x
gate 1 input y
gate 2 add 0 1
gate 3 mul 2 2 0
gate 4 add 3 1
gate 5 mul 2 1
gate 6 add 4 4 4
gate 7 add 5 2 0
output 7
"""

FIELDS = (Field(2), Field(3), Field(5), Field(2, 2))


def assert_batch_matches_scalar(c: Circuit, F: Field, batch: dict[str, np.ndarray]):
    """eval_batch against circuit_eval on the same raw inputs."""
    out = c.eval_batch(batch, F)
    width = np.shape(next(iter(batch.values())))
    assert out.dtype == np.int64 and np.shape(out) == width
    for j in np.ndindex(width):
        a = {lab: int(arr[j]) for lab, arr in batch.items()}
        assert int(np.asarray(out)[j]) == circuit_eval(c, a, F), (F.q, c.output, j)


def test_eval_batch_matches_scalar():
    rng = np.random.default_rng(7)
    dead = Circuit.from_text(DEAD_GATES_TEXT)
    for c in (small_circuit(), dead, Circuit.from_text(DEAD_BETWEEN_TEXT)):
        for F in FIELDS:
            for width in ((), (1,), (25,)):
                batch = {lab: rng.integers(0, F.q, size=width) for lab in input_labels(c)}
                assert_batch_matches_scalar(c, F, batch)


# primes on both sides of each value-dtype switch, and two extension fields,
# built once rather than on every draw
RANDOM_CIRCUIT_FIELDS = FIELDS + (Field(13), Field(17), Field(251), Field(257),
                                  Field(65521), Field(65537), Field(2**31 - 1),
                                  Field(2, 4), Field(7, 2))


@st.composite
def _random_circuit(draw):
    """A random circuit (dead gates allowed), a field and a batch for it."""
    n_leaves = draw(st.integers(1, 4))
    gates = [Gate("const", value=draw(st.integers(0, 3))) if draw(st.booleans())
             else Gate("input", label=f"x{draw(st.integers(0, 2))}")
             for _ in range(n_leaves)]
    for gid in range(n_leaves, n_leaves + draw(st.integers(0, 8))):
        args = draw(st.lists(st.integers(0, gid - 1), min_size=1, max_size=7))
        gates.append(Gate(draw(st.sampled_from(["add", "mul"])), args=tuple(args)))
    c = Circuit(gates, draw(st.integers(0, len(gates) - 1)))
    F = draw(st.sampled_from(RANDOM_CIRCUIT_FIELDS))
    width = draw(st.sampled_from([(), (1,), (3,)]))
    n = width[0] if width else 1
    batch = {f"x{i}": np.array(draw(st.lists(st.integers(0, F.q - 1), min_size=n,
                                             max_size=n))).reshape(width)
             for i in range(3)}
    return c, F, batch


@settings(max_examples=300, deadline=None)
@given(_random_circuit())
def test_eval_batch_matches_scalar_on_random_circuits(case):
    c, F, batch = case
    assert_batch_matches_scalar(c, F, batch)


def longest_paths(c: Circuit) -> list[int]:
    """Per gate, its longest path down to a leaf; arguments precede their
    readers, so one pass in id order settles every gate."""
    level: list[int] = []
    for args in c.per_gate[2]:
        level.append(1 + max(level[a] for a in args) if args else 0)
    return level


def product_chain(depth: int) -> Circuit:
    lines = ["gate 0 input x", "gate 1 input y"]
    lines += [f"gate {i} mul {i - 1} {i - 2}" for i in range(2, depth + 2)]
    return Circuit.from_text("\n".join(lines) + f"\noutput {depth + 1}\n")


def test_levels_match_longest_paths():
    rng = random.Random(13)
    for _ in range(200):
        n_leaves = rng.randint(1, 5)
        gates = [Gate("input", label=f"x{i}") for i in range(n_leaves)]
        for gid in range(n_leaves, n_leaves + rng.randint(0, 60)):
            # reads mostly recent gates, so some circuits run deep
            lo = max(0, gid - rng.choice((2, 5, gid)))
            args = [rng.randint(lo, gid - 1) for _ in range(rng.randint(1, 4))]
            gates.append(Gate(rng.choice(("add", "mul")), args=tuple(args)))
        c = Circuit(gates, rng.randrange(len(gates)))
        assert _levels(c.offsets, c.args).tolist() == longest_paths(c)
    chain = product_chain(4000)
    assert _levels(chain.offsets, chain.args).tolist() == longest_paths(chain) == [0, 0, *range(1, 4001)]
    assert chain.eval_batch({"x": np.array([2]), "y": np.array([3])}, Field(5))[0] \
        == circuit_eval(chain, {"x": 2, "y": 3}, Field(5))


def _random_builder(rng: random.Random, dead_chain: int) -> tuple[CircuitBuilder, int]:
    """A builder of random sums and products, and an output gate among them,
    behind which hangs a product chain of ``dead_chain`` links that nothing
    the output reaches reads."""
    cb = CircuitBuilder()
    ids = [cb.input(f"x{i}") for i in range(rng.randint(1, 4))] + [cb.const(2)]
    for _ in range(rng.randint(0, 40)):
        args = [rng.choice(ids) for _ in range(rng.randint(1, 4))]
        ids.append((cb.add if rng.random() < 0.5 else cb.mul)(args))
    output = rng.choice(ids)
    link = cb.input("dead")
    for _ in range(dead_chain):
        link = cb.mul([link, rng.choice(ids)])
    return cb, output


def test_reachable_matches_round_by_round_peel():
    rng = random.Random(17)
    for dead_chain in [0] * 150 + [1, 2, 5] * 10 + [4000]:
        cb, output = _random_builder(rng, dead_chain)
        offsets, args = np.array(cb.offsets), np.array(cb.args, dtype=np.intp)
        live = _reachable(offsets, args, output)
        assert live.tolist() == reachable_reference(offsets, args, output).tolist()
        assert live.sum() == len(cb.build(output)) <= len(cb.ops) - dead_chain - 1


def test_eval_batch_returns_a_copy():
    c = Circuit.from_text(DEAD_GATES_TEXT)
    for F in (Field(5), Field(257), Field(65537), Field(2, 4)):
        for width in ((), (1,), (25,)):
            batch = {lab: np.full(width, 2) for lab in input_labels(c)}
            out = c.eval_batch(batch, F)
            assert out.base is None
            assert out.dtype == np.int64
            assert np.shape(out) == width


def test_eval_batch_rejects_out_of_range_extension_values():
    # one mul gate over F_4: -1 used to wrap to 3 through negative indexing
    # and 4 used to raise a bare IndexError
    c = Circuit([Gate("input", label="a"), Gate("input", label="b"),
                 Gate("mul", args=(0, 1))], 2)
    F = Field(2, 2)
    with pytest.raises(ValueError, match="range"):
        c.eval_batch({"a": np.array([-1, 2]), "b": np.array([3, 3])}, F)
    with pytest.raises(ValueError, match="range"):
        c.eval_batch({"a": np.array([4, 2]), "b": np.array([3, 3])}, F)
    with pytest.raises(ValueError, match="range"):
        c.eval_batch({"a": np.array([1, 2]), "b": np.array([3, 4])}, F)
    got = c.eval_batch({"a": np.array([1, 2]), "b": np.array([3, 3])}, F)
    assert list(got) == [F.mul(1, 3), F.mul(2, 3)]
    # 256 and 257 would wrap to 0 and 1 in a uint8 value matrix
    for F in (Field(2, 2), Field(2, 4), Field(7, 2)):
        for bad in (256, 257, -1, F.q):
            with pytest.raises(ValueError, match="range"):
                c.eval_batch({"a": np.array([bad, 0]), "b": np.array([0, 0])}, F)
            with pytest.raises(ValueError, match="range"):
                c.eval_batch({"a": np.array(0), "b": np.array(bad)}, F)


def test_eval_reduces_inputs_like_eval_batch():
    # an input read straight to the output, or through a one-argument sum or
    # product, is reduced mod p over F_p and range-checked over F_q
    for out in (Gate("add", args=(0,)), Gate("mul", args=(0,)), None):
        gates = [Gate("input", label="a")] + ([out] if out else [])
        c = Circuit(gates, len(gates) - 1)
        for v in (257, -3, 12):
            assert circuit_eval(c, {"a": v}, Field(13)) == v % 13
            assert_batch_matches_scalar(c, Field(13), {"a": np.array([v])})
        for bad in (7, -1, 4):
            with pytest.raises(ValueError):
                circuit_eval(c, {"a": bad}, Field(2, 2))
        assert circuit_eval(c, {"a": 3}, Field(2, 2)) == 3


def test_eval_batch_prime_fields():
    # a long product and a long sum of large values stay exact, inputs are
    # reduced mod p, and a prime whose square overflows int64 is refused
    gates = [Gate("input", label="a"), Gate("input", label="b"),
             Gate("mul", args=(0, 1, 0, 1, 0, 1, 0)), Gate("add", args=(2, 2, 2, 0, 1)),
             Gate("mul", args=(3, 2))]
    c = Circuit(gates, 4)
    rng = np.random.default_rng(3)
    for F in (Field(65521), Field(2**31 - 1), Field(3037000493)):
        batch = {"a": rng.integers(-F.q, 2 * F.q, size=8), "b": rng.integers(0, F.q, size=8)}
        assert_batch_matches_scalar(c, F, batch)
    with pytest.raises(ValueError):
        c.eval_batch({"a": np.array([1]), "b": np.array([1])}, Field(3037000507))


def _largest_accepted_prime() -> int:
    """The largest p with (p-1)^2 < 2^63, the widest prime eval_batch takes."""
    return next(p for p in range(isqrt(2**63 - 1) + 1, 1, -1) if is_prime(p))


def long_gates_circuit(n_sum: int, n_prod: int) -> list[Gate]:
    """Gates whose sums and products are long enough to need lazy reduction.

    Three inputs and a large constant feed an n_sum-argument sum and an
    n_prod-argument product, each also in a second group of the same level;
    the next levels multiply and add those four.
    """
    gates = [Gate("input", label=f"x{i}") for i in range(3)] + [Gate("const", value=10**6 + 3)]
    leaves = range(len(gates))
    gates += [Gate("add", args=tuple(leaves[i % 4] for i in range(n_sum))),
              Gate("add", args=tuple(leaves[(i + 1) % 4] for i in range(n_sum + 1))),
              Gate("mul", args=tuple(leaves[i % 4] for i in range(n_prod))),
              Gate("mul", args=tuple(leaves[(i + 2) % 4] for i in range(n_prod + 1)))]
    gates += [Gate("mul", args=(4, 6, 5, 7) * 12), Gate("add", args=(4, 5, 6, 7) * 30)]
    gates += [Gate("add", args=(8, 9, 8, 9, 3)), Gate("mul", args=(8, 9, 10, 2))]
    return gates


def assert_every_gate_matches_scalar(gates: list[Gate], F: Field, batch: dict[str, np.ndarray]):
    for out in range(len(gates)):
        assert_batch_matches_scalar(Circuit(gates, out), F, batch)


# Each pair straddles a switch of eval_batch's value dtype, which must hold
# p(p-1): uint8 up to p = 13, uint16 up to 251, uint32 up to 65521, then uint64.
BOUNDARY_PRIMES = (2, 3, 13, 17, 251, 257, 65521, 65537, 2**31 - 1)


def edge_batch(p: int, n_random: int = 6) -> dict[str, np.ndarray]:
    """Inputs x0..x2 over F_p: negative, >= p, the wrap points of the narrow
    dtypes, p - 1 in every input at once, and random values in [-2p, 3p)."""
    rng = np.random.default_rng(p % 1000)
    edge = [-1, -p, p, p + 1, 256, 257, 65536, 2**32 + 1, p - 1, 0, 1]
    return {f"x{i}": np.concatenate([np.roll(edge, i), np.full(3, p - 1),
                                     rng.integers(-2 * p, 3 * p, size=n_random)])
            for i in range(3)}


@pytest.mark.parametrize("p", BOUNDARY_PRIMES + (_largest_accepted_prime(),))
def test_eval_batch_exact_across_dtype_boundaries(p):
    # products of 40+ factors pass the dtype's max in every dtype; a sum can pass
    # it after cap / (p-1) terms: 128 at p = 3, 21 at p = 13 and 263 at p = 251,
    # where the all-(p-1) inputs make 400 terms overflow uint16
    assert_every_gate_matches_scalar(long_gates_circuit(400, 45), Field(p), edge_batch(p))


def test_eval_batch_reduces_long_sums_in_uint32():
    # at p = 65521 the uint32 matrix overflows after 65,553 terms of p - 1;
    # uint64 would need 2^48 or more terms at any accepted p
    p = 65521
    c = Circuit([Gate("input", label="x0"), Gate("input", label="x1"),
                 Gate("add", args=(0, 1) * 33_000)], 2)
    batch = {k: v for k, v in edge_batch(p, n_random=2).items() if k != "x2"}
    assert_batch_matches_scalar(c, Field(p), batch)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49])
def test_eval_batch_exact_over_extension_fields(q):
    # table indices run to q*q - 1: 255 at q = 16 (uint8), 2400 at q = 49 (uint16)
    p = next(p for p in (2, 3, 5, 7) if q % p == 0)
    F = Field(p, round(log(q, p)))
    rng = np.random.default_rng(q)
    batch = {f"x{i}": np.concatenate([np.arange(q), rng.integers(0, q, size=8)])
             for i in range(3)}
    assert_every_gate_matches_scalar(long_gates_circuit(120, 45), F, batch)


@pytest.mark.parametrize("q, n_prod", [(4, 150), (16, 40), (49, 1500)])
def test_eval_batch_reduces_code_sums_mid_group(q, n_prod):
    # over F_q a product sums its factors' discrete-log codes, at most q-2 for
    # a nonzero factor, so an unreduced sum of n_prod codes q-2 would wrap:
    # past 255 after 128 factors at q = 4 and 19 at q = 16 (uint8), past 65535
    # after 1,395 at q = 49 (uint16); 0, code q-1, is first, in the middle,
    # last or everywhere in some columns, also after a wrap point
    p, k = {4: (2, 2), 16: (2, 4), 49: (7, 2)}[q]
    F = Field(p, k)
    c = Circuit([Gate("input", label=f"x{i}") for i in range(n_prod)]
                + [Gate("mul", args=tuple(range(n_prod)))], n_prod)
    values = np.random.default_rng(q).integers(1, q, size=(n_prod, 9))
    values[:, 0] = values[:, 1] = F._exp[q - 2]
    values[-1, 1] = 0
    values[0, 2] = values[n_prod // 2, 3] = values[-1, 4] = 0
    values[:, 5] = 0
    values[:, 6] = 1
    batch = {f"x{i}": row for i, row in enumerate(values)}
    assert_batch_matches_scalar(c, F, batch)
    assert c.eval_batch(batch, F)[1:6].tolist() == [0] * 5


# one code-sum lookup takes acc and 3 more codes over F_4, 2 more over F_25
# and F_27, and 1 more over F_8 and F_49
CODE_SUM_FIELDS = (Field(2, 2), Field(5, 2), Field(3, 3), Field(2, 3), Field(7, 2))


@st.composite
def _code_sum_case(draw):
    """Over F_q, two sums of one arity in 1..13 over five inputs, a sum of
    another arity reading the first, and a batch with zeros in it."""
    F = draw(st.sampled_from(CODE_SUM_FIELDS))
    gates = [Gate("input", label=f"x{i}") for i in range(5)]
    arity = draw(st.integers(1, 13))
    for _ in range(2):
        gates.append(Gate("add", args=tuple(draw(st.lists(st.integers(0, 4), min_size=arity,
                                                          max_size=arity)))))
    rest = draw(st.lists(st.integers(0, 6), max_size=12))
    gates.append(Gate("add", args=(5, *rest)))
    values = st.lists(st.sampled_from([0, 1, F.q - 1]) | st.integers(0, F.q - 1),
                      min_size=4, max_size=4)
    return gates, F, {f"x{i}": np.array(draw(values)) for i in range(5)}


@settings(max_examples=200, deadline=None)
@given(_code_sum_case())
def test_eval_batch_code_sums_cross_every_chunk_boundary(case):
    gates, F, batch = case
    assert_every_gate_matches_scalar(gates, F, batch)


@pytest.mark.parametrize("p", [2, 5, 65521, 3037000493])
def test_eval_batch_reduces_int64_and_uint64_extremes(p):
    # an int64 input is reduced where p*(x // p) wraps; a uint64 input of 2^63
    # or more is reduced before it is stored in int64, where it would wrap
    c = Circuit([Gate("input", label="a")], 0)
    for values in (np.array([-2**63, -2**63 + 1, -1, 2**63 - 1], dtype=np.int64),
                   np.array([2**63, 2**64 - 1], dtype=np.uint64)):
        assert c.eval_batch({"a": values}, Field(p)).tolist() == [int(v) % p for v in values]
    with pytest.raises(ValueError, match="range"):
        c.eval_batch({"a": np.array([2**63], dtype=np.uint64)}, Field(2, 2))


@pytest.mark.parametrize("F", [Field(5), Field(2, 2)])
def test_non_integer_inputs_refused(F):
    # numpy would cast [1.7, 2.2] and ["1", "2"] to [1, 2], and 1.7 % 5 is no
    # element of F_5
    c = small_circuit()
    for bad in (np.array([1.7, 2.2]), np.array(["1", "2"]), np.array([1, 2], dtype=object)):
        batch = {"x": np.array([1, 2]), "y": bad, "z": np.array([0, 3])}
        with pytest.raises(ValueError, match=re.escape(f"input 'y' has dtype {bad.dtype}")):
            c.eval_batch(batch, F)
    for bad in (1.7, "1"):
        with pytest.raises(ValueError):
            circuit_eval(c, {"x": 1, "y": bad, "z": 0}, F)
    # bool and every integer dtype are read as they are
    for dtype in (bool, np.uint8, np.int16, np.int64):
        batch = {"x": np.array([1, 0], dtype=dtype), "y": np.array([0, 1], dtype=dtype),
                 "z": np.array([1, 1], dtype=dtype)}
        assert_batch_matches_scalar(c, F, batch)


def _largest_primes(dtype, count: int) -> list[int]:
    """The ``count`` largest primes that fit in ``dtype``."""
    found, v = [], int(np.iinfo(dtype).max)
    while len(found) < count:
        if is_prime(v):
            found.append(v)
        v -= 1
    return found


def assert_reduce_matches_python(values: np.ndarray, p: int):
    acc = values.copy()
    _reduce(acc, values.dtype.type(p), np.empty_like(acc))
    assert acc.dtype == values.dtype
    assert acc.tolist() == [v % p for v in values.tolist()], p


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_reduce_matches_python_mod_on_every_value(dtype):
    # every value of the dtype, by every prime up to 257 that fits and the
    # three largest primes that fit (251 is the largest in uint8)
    values = np.arange(int(np.iinfo(dtype).max) + 1).astype(dtype)
    primes = [p for p in range(2, 258) if is_prime(p) and p <= np.iinfo(dtype).max]
    for p in sorted(set(primes + _largest_primes(dtype, 3))):
        assert_reduce_matches_python(values, p)


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_reduce_matches_python_mod_on_random_values(dtype):
    top = int(np.iinfo(dtype).max)
    rng = np.random.default_rng(top % 1009)
    primes = [2, 3, 5, 13, 251, 257, 65521, 65537, 2**31 - 1, *_largest_primes(dtype, 2)]
    if dtype is np.uint64:
        primes.append(_largest_accepted_prime())
    for p in primes:
        edge = [v for v in (0, 1, p - 1, p, p + 1, 2 * p - 1, top - 1, top) if v <= top]
        values = np.concatenate([np.array(edge, dtype=dtype),
                                 rng.integers(0, top, size=2000, dtype=dtype, endpoint=True)])
        assert_reduce_matches_python(values, p)


def wide_groups_text(rng: random.Random) -> str:
    """A circuit whose add and mul groups have arity 4 or more.

    Level 1 has three add and three mul gates of each arity in (4, 9, 260)
    over four inputs; level 2 multiplies and adds those, and the output adds
    every gate of level 2.  Over F_13 a uint8 product passes 255 at its third
    factor and a sum at its 22nd term, over F_5 at its fourth factor and 64th
    term; F_2 products never grow, but its 260-term sums pass 255.
    """
    lines = [f"gate {i} input x{i}" for i in range(4)]

    def gate(op: str, pool: list[int], arity: int) -> int:
        lines.append(f"gate {len(lines)} {op} "
                     + " ".join(str(rng.choice(pool)) for _ in range(arity)))
        return len(lines) - 1

    level1 = [gate(op, list(range(4)), arity)
              for arity in (4, 9, 260) for op in ("add", "mul") for _ in range(3)]
    level2 = [gate(op, level1, arity) for arity in (4, 6) for op in ("add", "mul")
              for _ in range(3)]
    out = gate("add", level2, len(level2))
    return "\n".join(lines) + f"\noutput {out}\n"


@pytest.mark.parametrize("p", [2, 5, 13])
def test_eval_batch_reduces_mid_group_at_every_width(p):
    c = Circuit.from_text(wide_groups_text(random.Random(p)))
    F = Field(p)
    rng = np.random.default_rng(p)
    for n in (1, 20, 512):
        # inputs in [-2p, 3p), with every input p - 1 in the first column
        batch = {f"x{i}": rng.integers(-2 * p, 3 * p, size=n) for i in range(4)}
        for column in batch.values():
            column[0] = p - 1
        assert_batch_matches_scalar(c, F, batch)


def test_builder_prunes_dead_gates():
    cb = CircuitBuilder()
    x, y, z = cb.input("x"), cb.input("y"), cb.input("z")
    dead = cb.mul([x, z])
    s = cb.add([x, y])
    cb.add([dead, s])
    c = cb.build(cb.mul([s, y]))
    assert c.to_text() == (
        "gate 0 input x\ngate 1 input y\ngate 2 add 0 1\ngate 3 mul 2 1\noutput 3\n")
    assert circuit_eval(c, {"x": 2, "y": 3}, Field(7)) == 1


def test_eval_symbolic_agrees_with_eval():
    c = small_circuit()
    F = Field(5)
    p = eval_symbolic(c)
    rng = random.Random(9)
    for _ in range(30):
        a = {lab: rng.randrange(5) for lab in input_labels(c)}
        at_a = 0
        for m, coeff in p.items():
            term = F.from_int(coeff)
            for lab, e in m:
                term = F.mul(term, F.pow(a[lab], e))
            at_a = F.add(at_a, term)
        assert at_a == circuit_eval(c, a, F)


def test_builder_dedups_and_simplifies():
    cb = CircuitBuilder()
    x = cb.input("x")
    assert cb.input("x") == x
    one = cb.const(1)
    zero = cb.const(0)
    assert cb.const(1) == one
    assert cb.mul([x, one]) == x
    assert cb.mul([x, zero]) == zero
    assert cb.add([x, zero]) == x
    assert cb.add([]) == zero


def test_unassigned_input_rejected():
    c = small_circuit()
    with pytest.raises(ValueError):
        circuit_eval(c, {"x": 1, "y": 1}, Field(3))
    with pytest.raises(ValueError, match="unassigned"):
        c.eval_batch({"x": np.array([1]), "y": np.array([1])}, Field(3))


def test_skewness():
    cb = CircuitBuilder()
    x, y = cb.input("x"), cb.input("y")
    s = cb.add([x, y])
    c1 = cb.build(cb.mul([s, x]))  # one non-leaf argument
    assert c1.is_skew()

    cb = CircuitBuilder()
    x, y = cb.input("x"), cb.input("y")
    s1 = cb.add([x, y])
    s2 = cb.add([y, x])
    c2 = cb.build(cb.mul([s1, s2]))
    assert not c2.is_skew()

    # squaring an internal gate is not skew either
    gates = [Gate("input", label="x"), Gate("input", label="y"),
             Gate("add", args=(0, 1)), Gate("mul", args=(2, 2))]
    assert not Circuit(tuple(gates), 3).is_skew()


def test_mult_disjointness():
    gates = [Gate("input", label="x"), Gate("input", label="y"),
             Gate("input", label="u"), Gate("input", label="v"),
             Gate("add", args=(0, 1)), Gate("add", args=(2, 3)),
             Gate("mul", args=(4, 5))]
    assert Circuit(tuple(gates), 6).is_mult_disjoint()

    shared = [Gate("input", label="x"), Gate("input", label="y"),
              Gate("add", args=(0, 1)), Gate("add", args=(0, 1)),
              Gate("mul", args=(2, 3))]
    assert not Circuit(tuple(shared), 4).is_mult_disjoint()


def test_parse_trees_product_of_sums():
    # (x + y) * (u + v) generates exactly the four cross terms
    gates = [Gate("input", label="x"), Gate("input", label="y"),
             Gate("input", label="u"), Gate("input", label="v"),
             Gate("add", args=(0, 1)), Gate("add", args=(2, 3)),
             Gate("mul", args=(4, 5))]
    c = Circuit(tuple(gates), 6)
    trees = c.parse_trees()
    assert len(trees) == 4
    assert c.count_parse_trees() == 4
    monos = Counter(t.monomial for t in trees)
    want = Counter([mono(("x", 1), ("u", 1)), mono(("x", 1), ("v", 1)),
                    mono(("y", 1), ("u", 1)), mono(("y", 1), ("v", 1))])
    assert monos == want
    assert all(t.coeff == 1 for t in trees)


def test_parse_trees_repeated_monomial():
    # (x + y) * (x + y) with disjoint gate copies produces x*y twice
    gates = [Gate("input", label="x"), Gate("input", label="y"),
             Gate("input", label="x"), Gate("input", label="y"),
             Gate("add", args=(0, 1)), Gate("add", args=(2, 3)),
             Gate("mul", args=(4, 5))]
    c = Circuit(tuple(gates), 6)
    trees = c.parse_trees()
    assert len(trees) == 4
    monos = Counter(t.monomial for t in trees)
    assert monos[mono(("x", 1), ("y", 1))] == 2
    assert monos[mono(("x", 2))] == 1
    assert monos[mono(("y", 2))] == 1


def test_parse_trees_need_mult_disjointness():
    shared = [Gate("input", label="x"), Gate("input", label="y"),
              Gate("add", args=(0, 1)), Gate("mul", args=(2, 2))]
    with pytest.raises(ValueError):
        Circuit(tuple(shared), 3).parse_trees()


def test_parse_trees_of_a_deep_chain():
    # 1,500 nested add gates are deeper than the interpreter's recursion limit
    text = "".join(f"gate {i} add {i - 1}\n" for i in range(1, 1500))
    c = Circuit.from_text(f"gate 0 input x\n{text}output 1499\n")
    assert c.count_parse_trees() == 1
    [tree] = c.parse_trees()
    assert (tree.coeff, tree.monomial) == (1, mono(("x", 1)))


def random_formula(rng: random.Random, gates: list[Gate], depth: int) -> int:
    """Random formula (tree-shaped, no sharing), returning the root gate id."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            gates.append(Gate("const", value=rng.randrange(1, 3)))
        else:
            gates.append(Gate("input", label=f"x{rng.randrange(3)}"))
        return len(gates) - 1
    a = random_formula(rng, gates, depth - 1)
    b = random_formula(rng, gates, depth - 1)
    gates.append(Gate("add" if rng.random() < 0.5 else "mul", args=(a, b)))
    return len(gates) - 1


def test_parse_tree_sum_equals_symbolic():
    rng = random.Random(17)
    for trial in range(25):
        gates: list[Gate] = []
        root = random_formula(rng, gates, 4)
        c = Circuit(tuple(gates), root)
        total = {}
        for t in c.parse_trees(bound=10**5):
            total[t.monomial] = total.get(t.monomial, 0) + t.coeff
        total = {m: v for m, v in total.items() if v}
        assert total == eval_symbolic(c)


def test_text_round_trip():
    c = small_circuit()
    c2 = Circuit.from_text(c.to_text())
    assert c2.to_text() == c.to_text()
    F = Field(5)
    a = {lab: 3 for lab in input_labels(c)}
    assert circuit_eval(c, a, F) == circuit_eval(c2, a, F)


@pytest.mark.parametrize("gates, output, message", [
    ([Gate("const", value=1, args=(7,))], 0, "gate 0: const takes no arguments"),
    ([Gate("input", label="x"), Gate("input", label="y", args=(0,))], 1,
     "gate 1: input takes no arguments"),
    ([Gate("input", label="x"), Gate("add")], 1, "gate 1: add needs at least one argument"),
    ([Gate("input", label="x"), Gate("mul", args=(0, 1))], 1,
     "gate 1: arguments must reference earlier gates"),
    ([Gate("input", label="x"), Gate("add", args=(-1,))], 1,
     "gate 1: arguments must reference earlier gates"),
    ([Gate("input", label="a b")], 0, "gate 0: bad input label 'a b'"),
    ([Gate("input", label="x"), Gate("sub", args=(0,))], 1, "gate 1: unknown op 'sub'"),
    ([Gate("input", label="x")], 1, "output id out of range"),
    # the first bad gate is named, whichever check finds it
    ([Gate("input", label="x"), Gate("mul", args=(5,)), Gate("const", args=(0,)),
      Gate("input", label="")], 2, "gate 1: arguments must reference earlier gates"),
    ([Gate("input", label="Z:1"), Gate("add"), Gate("xor")], 2,
     "gate 0: bad input label 'Z:1'"),
], ids=["const-args", "input-args", "empty-add", "later-arg", "negative-arg", "label",
        "op", "output", "first-of-three", "first-label"])
def test_constructor_names_the_first_bad_gate(gates, output, message):
    # leaf arguments used to be accepted, then dropped by to_text and met as a
    # bare IndexError in eval_batch
    with pytest.raises(ValueError) as exc:
        Circuit(gates, output)
    assert str(exc.value) == message


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        Circuit.from_text("gate 0 input x\nwat 1\noutput 0\n")
    with pytest.raises(ValueError):
        Circuit.from_text("gate 0 add 5\noutput 0\n")


def test_counts_by_op_and_wires():
    c = small_circuit()
    counts = counts_by_op(c)
    assert counts["input"] == 3
    assert counts["const"] == 1
    assert counts["add"] == 2
    assert counts["mul"] == 2
    assert c.wire_count() == sum(len(g.args) for g in c.gates)
