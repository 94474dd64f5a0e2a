from __future__ import annotations

import random

import pytest

from brute import SymbolicRing
from homforge.rings import Field
from homforge.sparsepoly import (BoundExceeded, Monomial, ONE_MON, SparsePoly,
                                 mono, mono_mul)


def test_mono_normalisation():
    assert mono(("b", 1), ("a", 2)) == (("a", 2), ("b", 1))
    assert mono(("a", 1), ("a", 2)) == (("a", 3),)
    assert mono(("a", 0)) == ONE_MON
    assert mono_mul(mono(("a", 1)), mono(("a", 1), ("b", 1))) == \
        (("a", 2), ("b", 1))


def test_integer_arithmetic():
    x = SparsePoly.var("x")
    y = SparsePoly.var("y")
    p = (x + y) * (x + y)
    assert p.coefficient(mono(("x", 2))) == 1
    assert p.coefficient(mono(("x", 1), ("y", 1))) == 2
    assert p.coefficient(mono(("y", 2))) == 1
    assert (p + p.scale(-1)).is_zero()
    assert p.variables() == {"x", "y"}


def test_field_coefficients_wrap():
    F = Field(2)
    x = SparsePoly.var("x", F)
    y = SparsePoly.var("y", F)
    p = (x + y) * (x + y)
    # the cross term 2xy vanishes in characteristic 2
    assert p.coefficient(mono(("x", 1), ("y", 1))) == 0
    assert p.coefficient(mono(("x", 2))) == 1


def test_eval_matches_expansion():
    rng = random.Random(3)
    F = Field(5)
    x = SparsePoly.var("x", F)
    y = SparsePoly.var("y", F)
    z = SparsePoly.var("z", F)
    p = (x + y * z) * (x + x * y + SparsePoly.const(3, F)) + z
    for _ in range(50):
        vals = {"x": rng.randrange(5), "y": rng.randrange(5),
                "z": rng.randrange(5)}
        direct = F.add(
            F.mul(F.add(vals["x"], F.mul(vals["y"], vals["z"])),
                  F.add(F.add(vals["x"], F.mul(vals["x"], vals["y"])), 3)),
            vals["z"])
        assert p.eval(vals, F) == direct


def test_scale_and_pow():
    x = SparsePoly.var("x")
    p = (x + SparsePoly.const(1)).pow(3)
    assert p.coefficient(mono(("x", 1))) == 3
    q = p.scale(2)
    assert q.coefficient(mono(("x", 1))) == 6
    assert q.coefficient(ONE_MON) == 2


def test_symbolic_ring_bound():
    ring = SymbolicRing(None, bound=3)
    x = ring.var("x")
    y = ring.var("y")
    z = ring.var("z")
    w = ring.var("w")
    with pytest.raises(BoundExceeded):
        ring.add(ring.add(x, y), ring.add(z, w))


def test_zero_and_const():
    F = Field(3)
    assert SparsePoly.zero(F).is_zero()
    assert SparsePoly.const(0, F).is_zero()
    assert not SparsePoly.const(2, F).is_zero()
    assert SparsePoly.const(4).coefficient(ONE_MON) == 4
