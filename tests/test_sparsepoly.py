"""Sparse polynomials as monomial dicts: canonical monomials (``labels.mono``)
and the tests' integer-coefficient ``SymbolicRing``."""

from __future__ import annotations

import pytest

from brute import BoundExceeded, SymbolicRing
from homforge.labels import mono, mono_mul


def test_mono_normalisation():
    assert mono(("b", 1), ("a", 2)) == (("a", 2), ("b", 1))
    assert mono(("a", 1), ("a", 2)) == (("a", 3),)
    assert mono(("a", 0)) == ()
    assert mono_mul(mono(("a", 1)), mono(("a", 1), ("b", 1))) == \
        (("a", 2), ("b", 1))


def test_integer_arithmetic():
    ring = SymbolicRing()
    s = ring.add(ring.var("x"), ring.var("y"))
    p = ring.mul(s, s)
    assert p == {mono(("x", 2)): 1, mono(("x", 1), ("y", 1)): 2, mono(("y", 2)): 1}
    assert ring.add(p, ring.mul(ring.from_int(-1), p)) == ring.zero


def test_scale_and_pow():
    ring = SymbolicRing()
    p = ring.pow(ring.add(ring.var("x"), ring.one), 3)
    assert p == {(): 1, mono(("x", 1)): 3, mono(("x", 2)): 3, mono(("x", 3)): 1}
    q = ring.mul(ring.from_int(2), p)
    assert q[mono(("x", 1))] == 6 and q[()] == 2


def test_symbolic_ring_bound():
    ring = SymbolicRing(bound=3)
    x = ring.var("x")
    y = ring.var("y")
    z = ring.var("z")
    w = ring.var("w")
    with pytest.raises(BoundExceeded):
        ring.add(ring.add(x, y), ring.add(z, w))


def test_zero_and_const():
    ring = SymbolicRing()
    assert ring.zero == {} and ring.from_int(0) == {}
    assert ring.from_int(4) == {(): 4}
    assert ring.mul(ring.from_int(2), ring.from_int(3)) == {(): 6}
