from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homforge.circuit import Circuit, CircuitBuilder, Gate
from homforge.rings import Field
from homforge.sparsepoly import ONE_MON, mono


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
            a = {lab: rng.randrange(F.q) for lab in c.input_labels()}
            want = F.mul(F.add(a["x"], a["y"]),
                         F.add(F.mul(a["x"], a["z"]), F.from_int(2)))
            assert c.eval(a, F) == want


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

FIELDS = (Field(2), Field(3), Field(5), Field(2, 2))


def assert_batch_matches_scalar(c: Circuit, F: Field, batch: dict[str, np.ndarray]):
    out = c.eval_batch(batch, F)
    width = np.shape(next(iter(batch.values())))
    assert np.shape(out) == width
    for j in np.ndindex(width):
        a = {lab: int(arr[j]) for lab, arr in batch.items()}
        assert int(np.asarray(out)[j]) == c.eval(a, F)


def test_eval_batch_matches_scalar():
    rng = np.random.default_rng(7)
    dead = Circuit.from_text(DEAD_GATES_TEXT)
    for c in (small_circuit(), dead):
        for F in FIELDS:
            for width in ((), (1,), (25,)):
                batch = {lab: rng.integers(0, F.q, size=width) for lab in c.input_labels()}
                assert_batch_matches_scalar(c, F, batch)


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
    # the two large primes make products overflow int64 unless reduced
    F = draw(st.sampled_from(FIELDS + (Field(65521), Field(2**31 - 1))))
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


def test_eval_batch_returns_a_copy():
    c = Circuit.from_text(DEAD_GATES_TEXT)
    F = Field(5)
    for width in ((), (1,), (25,)):
        batch = {lab: np.full(width, 2) for lab in c.input_labels()}
        out = c.eval_batch(batch, F)
        assert out.base is None
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


def test_builder_prunes_dead_gates():
    cb = CircuitBuilder()
    x, y, z = cb.input("x"), cb.input("y"), cb.input("z")
    dead = cb.mul([x, z])
    s = cb.add([x, y])
    cb.add([dead, s])
    c = cb.build(cb.mul([s, y]))
    assert c.to_text() == (
        "gate 0 input x\ngate 1 input y\ngate 2 add 0 1\ngate 3 mul 2 1\noutput 3\n")
    assert c.eval({"x": 2, "y": 3}, Field(7)) == 1


def test_eval_symbolic_agrees_with_eval():
    c = small_circuit()
    F = Field(5)
    p = c.eval_symbolic(F)
    rng = random.Random(9)
    for _ in range(30):
        a = {lab: rng.randrange(5) for lab in c.input_labels()}
        assert p.eval(a, F) == c.eval(a, F)


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
        c.eval({"x": 1, "y": 1}, Field(3))
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
        assert total == c.eval_symbolic().terms


def test_text_round_trip():
    c = small_circuit()
    c2 = Circuit.from_text(c.to_text())
    assert c2.to_text() == c.to_text()
    F = Field(5)
    a = {lab: 3 for lab in c.input_labels()}
    assert c.eval(a, F) == c2.eval(a, F)


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        Circuit.from_text("gate 0 input x\nwat 1\noutput 0\n")
    with pytest.raises(ValueError):
        Circuit.from_text("gate 0 add 5\noutput 0\n")


def test_counts_by_op_and_wires():
    c = small_circuit()
    counts = c.counts_by_op()
    assert counts["input"] == 3
    assert counts["const"] == 1
    assert counts["add"] == 2
    assert counts["mul"] == 2
    assert c.wire_count() == sum(len(g.args) for g in c.gates)
