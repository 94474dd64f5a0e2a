from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homforge.rings import Field, TruncPoly, TruncRing


FIELDS = [Field(2), Field(3), Field(5), Field(2, 2), Field(7)]


def test_from_spec():
    assert Field.from_spec("3").q == 3
    assert Field.from_spec("2^2").q == 4
    assert Field.from_spec(" 5 ").q == 5
    with pytest.raises(ValueError):
        Field.from_spec("4")  # 4 is not prime
    with pytest.raises(ValueError):
        Field(3, 0)


def test_from_int_embeds_characteristic():
    F = Field(3)
    assert F.from_int(7) == 1
    assert F.from_int(-1) == 2
    F4 = Field(2, 2)
    assert F4.from_int(2) == F4.zero
    assert F4.from_int(3) == F4.one


def test_field_axioms_sampled():
    rng = random.Random(11)
    for F in FIELDS:
        elems = list(F.elements())
        assert len(elems) == F.q
        for _ in range(200):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == F.zero
            assert F.sub(a, b) == F.add(a, F.neg(b))


def test_inverses_and_powers():
    for F in FIELDS:
        for a in F.elements():
            if a == F.zero:
                with pytest.raises(ZeroDivisionError):
                    F.inv(a)
                continue
            assert F.mul(a, F.inv(a)) == F.one
            # Fermat / multiplicative group order
            assert F.pow(a, F.q - 1) == F.one
        assert F.pow(F.zero, 0) == F.one
        assert F.pow(F.zero, 3) == F.zero


def test_extension_field_is_not_mod_4():
    F4 = Field(2, 2)
    # characteristic 2: every element doubles to zero
    for a in F4.elements():
        assert F4.add(a, a) == F4.zero
    # and there is a cube root of unity outside {0,1}
    cubes = [a for a in F4.elements() if F4.pow(a, 3) == F4.one]
    assert len(cubes) == 3


def test_element_range_checked():
    F = Field(5)
    with pytest.raises(ValueError):
        F.pow(5, 2)
    with pytest.raises(ValueError):
        F.inv(-1)
    # table lookups must not wrap negative or oversized ints
    F4 = Field(2, 2)
    for bad in (-1, 4):
        for op in (F4.add, F4.mul):
            with pytest.raises(ValueError):
                op(bad, 3)
            with pytest.raises(ValueError):
                op(1, bad)
        with pytest.raises(ValueError):
            F4.neg(bad)


def test_trunc_ring_monomials_and_caps():
    R = TruncRing(Field(5), 2, 3)
    z, t = R.z, R.t
    p = R.mul(R.mul(z, z), R.mul(t, t))
    assert p.coefficient(2, 2) == 1
    assert p.coefficient(1, 2) == 0
    # exceeding a cap truncates to zero
    assert R.mul(p, z) == R.zero
    assert R.mul(p, t) != R.zero


def test_trunc_ring_binomial_coefficients():
    # (1 + z*t)^4 has coefficient C(4,2) = 6 on (z*t)^2
    R = TruncRing(Field(7), 4, 4)
    zt = R.mul(R.z, R.t)
    p = R.pow(R.add(R.one, zt), 4)
    assert p.coefficient(2, 2) == 6 % 7
    assert p.coefficient(4, 4) == 1
    assert p.coefficient(0, 0) == 1


def test_trunc_ring_matches_polynomial_mul():
    rng = random.Random(5)
    F = Field(3)
    R = TruncRing(F, 3, 3)
    for _ in range(30):
        a = R.zero
        b = R.zero
        for _ in range(4):
            a = R.add(a, R.monomial(rng.randrange(4), rng.randrange(4),
                                    rng.randrange(3)))
            b = R.add(b, R.monomial(rng.randrange(4), rng.randrange(4),
                                    rng.randrange(3)))
        ab = R.mul(a, b)
        for i in range(4):
            for j in range(4):
                want = F.zero
                for i1 in range(i + 1):
                    for j1 in range(j + 1):
                        want = F.add(want, F.mul(a.coefficient(i1, j1),
                                                 b.coefficient(i - i1, j - j1)))
                assert ab.coefficient(i, j) == want


def test_trunc_ring_from_int():
    R = TruncRing(Field(3), 1, 1)
    assert R.from_int(5).coefficient(0, 0) == 2
    assert R.from_int(3) == R.zero
    with pytest.raises(IndexError):
        R.one.coefficient(2, 0)


def _schoolbook(F, dz, dt, a, b):
    """Truncated 2-D convolution of two coefficient dicts, cell by cell."""
    out = {}
    for i in range(dz + 1):
        for j in range(dt + 1):
            acc = F.zero
            for i1 in range(i + 1):
                for j1 in range(j + 1):
                    acc = F.add(acc, F.mul(a.get((i1, j1), 0),
                                           b.get((i - i1, j - j1), 0)))
            if acc:
                out[i, j] = acc
    return out


@st.composite
def _operand_pair(draw):
    F = draw(st.sampled_from([Field(2), Field(3), Field(5), Field(2, 2)]))
    R = TruncRing(F, draw(st.integers(0, 3)), draw(st.integers(0, 3)))

    def coeffs():
        # up to four terms, so zero, monomials and sums all occur
        return draw(st.dictionaries(
            st.tuples(st.integers(0, R.dz), st.integers(0, R.dt)),
            st.integers(1, F.q - 1), max_size=4))

    return R, coeffs(), coeffs()


@settings(max_examples=300, deadline=None)
@given(_operand_pair())
@example((TruncRing(Field(5), 1, 1), {}, {(1, 1): 3}))
@example((TruncRing(Field(3), 2, 1), {(1, 1): 2}, {(0, 0): 1, (2, 0): 2, (1, 1): 1}))
@example((TruncRing(Field(2, 2), 1, 2), {(1, 0): 3}, {(0, 1): 2, (1, 2): 1}))
def test_trunc_poly_ops_match_schoolbook(case):
    R, a, b = case
    F = R.field
    A, B = TruncPoly(R, dict(a)), TruncPoly(R, dict(b))
    want_sum = {}
    for key in set(a) | set(b):
        c = F.add(a.get(key, 0), b.get(key, 0))
        if c:
            want_sum[key] = c
    want_prod = _schoolbook(F, R.dz, R.dt, a, b)
    assert (A + B).coeffs == (B + A).coeffs == want_sum
    assert (A * B).coeffs == (B * A).coeffs == want_prod
    # the operands are left as they were
    assert A.coeffs == a and B.coeffs == b


def test_trunc_poly_ring_compatibility():
    R = TruncRing(Field(3), 2, 2)
    twin = TruncRing(Field(3), 2, 2)
    assert twin is not R and twin == R
    assert R.z * twin.t == R.monomial(1, 1)
    assert R.z + twin.z == R.monomial(1, 0, 2)
    for other in (TruncRing(Field(3), 2, 1), TruncRing(Field(5), 2, 2)):
        for x, y in ((R.z, other.t), (other.t, R.z),
                     (R.z + R.t, other.t), (R.z, other.t + other.z)):
            with pytest.raises(ValueError):
                x * y
            with pytest.raises(ValueError):
                x + y
        assert R.z != other.z
