from __future__ import annotations

import random
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import field_neg, field_tables_reference, is_prime_trial
from homforge import rings
from homforge.circuit import _narrowest
from homforge.rings import DEFAULT_MODULI, CountRing, Field, TruncPoly, TruncRing, is_prime


FIELDS = [Field(2), Field(3), Field(5), Field(2, 2), Field(7), Field(2, 3), Field(3, 2),
          Field(7, 2)]


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
        elems = range(F.q)
        for _ in range(200):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, field_neg(F, a)) == F.zero
            assert F.add(F.add(a, field_neg(F, b)), b) == a


def test_inverses_and_powers():
    for F in FIELDS:
        for a in range(F.q):
            if a == F.zero:
                with pytest.raises(ZeroDivisionError):
                    F.inv(a)
                continue
            assert F.mul(a, F.inv(a)) == F.one
            # Fermat / multiplicative group order
            assert F.pow(a, F.q - 1) == F.one
            power = F.one
            for e in range(F.q + 1):
                assert F.pow(a, e) == power and F.pow(a, -e) == F.pow(F.inv(a), e)
                power = F.mul(power, a)
        assert F.pow(F.zero, 0) == F.one
        assert F.pow(F.zero, 3) == F.zero
        with pytest.raises(ZeroDivisionError):
            F.pow(F.zero, -1)


def test_extension_field_is_not_mod_4():
    F4 = Field(2, 2)
    # characteristic 2: every element doubles to zero
    for a in range(F4.q):
        assert F4.add(a, a) == F4.zero
    # and there is a cube root of unity outside {0,1}
    cubes = [a for a in range(F4.q) if F4.pow(a, 3) == F4.one]
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
            field_neg(F4, bad)


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == \
        [n for n in range(10**5) if is_prime_trial(n)]
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) ** 2)


def test_is_prime_strong_pseudoprimes(monkeypatch):
    # strong pseudoprimes to the primes up to 37, and up to 41 bar the last
    spsp37, spsp41 = 3825123056546413051, 318665857834031151167461
    assert not is_prime(spsp37)
    assert not is_prime(spsp41)
    monkeypatch.setattr(rings, "_PRIME_BASES", rings._PRIME_BASES[:-1])
    assert is_prime(spsp41)


def test_is_prime_refuses_past_its_exact_range():
    for n in (rings._PRIME_LIMIT, 2**89 - 1):
        with pytest.raises(ValueError, match="primality is decided only below"):
            is_prime(n)
    with pytest.raises(ValueError):
        Field(2**89 - 1)


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _reducible(p, k):
    """Every product c * g * h of monic g, h of degree >= 1 and degree sum k,
    c a nonzero constant: the reducible polynomials of degree k over F_p."""
    monic = {d: [(*cs, 1) for cs in product(range(p), repeat=d)] for d in range(1, k)}
    return {tuple(c * x % p for x in _poly_mul(g, h, p))
            for d in range(1, k // 2 + 1) for g in monic[d] for h in monic[k - d]
            for c in range(1, p)}


@pytest.mark.parametrize("p, k", [(2, k) for k in range(2, 9)] + [(3, k) for k in range(2, 6)]
                         + [(5, 2), (5, 3), (7, 2), (11, 2), (13, 2)])
def test_modulus_accepted_iff_irreducible(p, k):
    reducible = _reducible(p, k)
    for low in product(range(p), repeat=k):
        for lead in range(1, p):
            f = (*low, lead)
            if f in reducible:
                with pytest.raises(ValueError, match=r"is reducible over F_"):
                    Field(p, k, f)
            else:
                F = Field(p, k, f)
                assert F.q == p**k and F.modulus == f


def test_reducible_modulus_of_degree_six_refused():
    # x^6 + ... + 1 = (x^3 + x + 1)(x^3 + x^2 + 1) over F_2
    with pytest.raises(ValueError, match=r"modulus \(1, 1, 1, 1, 1, 1, 1\) is reducible over F_2"):
        Field(2, 6, modulus=(1,) * 7)


def _default_fields():
    """Every ``DEFAULT_MODULI`` field under its modulus and the modulus's
    non-monic multiples."""
    for q, m in DEFAULT_MODULI.items():
        k = len(m) - 1
        p = round(q ** (1 / k))
        for c in range(1, p):
            yield Field(p, k, tuple(c * x for x in m))


def test_tables_match_pairwise_reference():
    for F in _default_fields():
        add, mul, neg = field_tables_reference(F.p, F.k, F.modulus)
        pairs = list(product(range(F.q), repeat=2))
        assert [F.add(a, b) for a, b in pairs] == add.ravel().tolist()
        assert [F.mul(a, b) for a, b in pairs] == mul.ravel().tolist()
        assert [field_neg(F, a) for a in range(F.q)] == neg.tolist()


def test_code_tables_are_discrete_logs(monkeypatch):
    # g is found on the product table, not through Field.mul, whose calls the
    # benchmark counts; x is not primitive under x^2 + 1 over F_3 or F_7
    monkeypatch.setattr(Field, "mul", lambda *args: pytest.fail("Field.mul called"))
    for F in _default_fields():
        q = F.q
        add, mul, _ = field_tables_reference(F.p, F.k, F.modulus)
        exp, log = F._exp, F._log
        assert sorted(exp.tolist()) == list(range(q)) and exp[q - 1] == 0
        assert np.array_equal(log[exp], np.arange(q)) and np.array_equal(exp[log], np.arange(q))
        assert (F._exps, F._logs) == (exp.tolist(), log.tolist())
        i = np.arange(q - 1)
        assert np.array_equal(exp[(i[:, None] + i) % (q - 1)], mul[np.ix_(exp[i], exp[i])])
        assert np.array_equal(exp[F._code_add], add[np.ix_(exp, exp)])
    assert Field(3, 2)._exp[1] != 3 and Field(7, 2)._exp[1] != 7


def test_extension_field_keeps_one_square_table():
    # the element add and mul tables exist only while the field is built; the
    # code add table is in eval_batch's dtype for F_q, so eval_batch reads it
    # without a copy
    big = Field(2, 11, (1, 0, 1) + (0,) * 8 + (1,))
    for F in [*_default_fields(), big]:
        square = [name for name, v in vars(F).items()
                  if isinstance(v, np.ndarray) and v.size >= F.q * F.q]
        assert square == ["_code_add"]
        assert F._code_add.dtype == _narrowest(F.q * F.q - 1)[0]
    assert big._code_add.nbytes == 16 * 2**20


def test_code_sum_tables_fold_field_add():
    # T_j maps the Horner index of j codes to the code of their sum; j is the
    # largest with q^j - 1 in the dtype of _code_add and q^j <= 2^16
    chunk = {4: 4, 8: 2, 9: 2, 16: 2, 25: 3, 27: 3, 49: 2}
    for q, m in DEFAULT_MODULI.items():
        k = len(m) - 1
        F = Field(round(q ** (1 / k)), k, m)
        sums = F._code_sums
        assert len(sums) + 1 == chunk[q]
        assert sums[0].base is F._code_add and np.array_equal(sums[0], F._code_add.ravel())
        for j, table in enumerate(sums, start=2):
            assert table.dtype == F._code_add.dtype and table.size == q**j
            assert q**j - 1 <= np.iinfo(table.dtype).max
            codes = np.stack(np.unravel_index(np.arange(q**j), (q,) * j), axis=1)
            elements = F._exp[codes].tolist()
            want = [F._logs[reduce(F.add, row)] for row in elements]
            assert table.tolist() == want, (q, j)


def test_wide_fields_build_no_code_sum_table_beyond_the_pairwise_one():
    # q^3 > 2^16 for every q >= 41; over q >= 257 the value dtype is uint32,
    # where q^3 - 1 would fit up to q = 1625, so only the cap keeps F_512
    # from a 512^3-entry table
    for F in (Field(17, 2, (3, 0, 1)), Field(2, 9, (1, 0, 0, 0, 1) + (0,) * 4 + (1,)),
              Field(2, 11, (1, 0, 1) + (0,) * 8 + (1,))):
        assert F.q >= 257 and F._code_add.dtype == np.uint32
        assert len(F._code_sums) == 1 and F._code_sums[0].base is F._code_add


def test_from_int_refuses_non_integers():
    F = Field(5)
    assert F.from_int(np.int64(7)) == 2 and F.from_int(True) == 1 and F.from_int(-1) == 4
    for bad in (1.7, np.float64(2.0), "1", None):
        with pytest.raises(ValueError, match="is not an integer"):
            F.from_int(bad)


def test_large_extension_field_builds():
    F = Field(2, 11, (1, 0, 1) + (0,) * 8 + (1,))  # x^11 + x^2 + 1
    x = 2
    # x has order 2047 = 23 * 89: it generates the multiplicative group
    assert F.pow(x, 2047) == F.one and F.pow(x, 23) != F.one and F.pow(x, 89) != F.one
    assert all(F.mul(a, F.inv(a)) == F.one for a in range(1, F.q, 97))
    with pytest.raises(ValueError, match="beyond supported limit"):
        Field(2, 12, (1,) + (0,) * 11 + (1,))


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


def test_count_ring_dead_terms():
    # at dt = 1, t*t has t-degree 2: dead, not carried into a z
    R = CountRing(1, 1)
    assert R.mul(R.t, R.t) == R.dead != R.z
    zt = R.mul(R.z, R.t)
    assert zt != R.dead
    assert R.mul(zt, R.z) == R.mul(zt, R.t) == R.dead
    # pow past either cap is dead, also when the other degree stays in its cap
    wide = CountRing(1, 4)
    zt = wide.mul(wide.z, wide.t)
    assert wide.pow(zt, 2) == wide.pow(wide.t, 5) == wide.pow(wide.z, 2) == wide.dead
    t4 = wide.pow(wide.t, 4)
    assert t4 != wide.dead and wide.pow(zt, 0) == wide.one
    with pytest.raises(ValueError):
        wide.pow(wide.t, -1)
    # t^4 * t^4 sums to 8 in the t field: dead, not a z with a 3-bit field
    assert wide.mul(t4, t4) == wide.mul(t4, wide.t) == wide.dead != wide.z
    # at a zero cap, z or t itself is dead
    flat = CountRing(0, 0)
    assert flat.z == flat.t == flat.dead != flat.one
    # dead times anything is dead, and pow of dead is dead
    for R in (CountRing(1, 1), wide, CountRing(0, 3)):
        for x in (R.one, R.z, R.t, R.mul(R.z, R.t), R.dead):
            assert R.mul(R.dead, x) == R.mul(x, R.dead) == R.dead
        assert R.pow(R.dead, 1) == R.pow(R.dead, 3) == R.dead
        # a dead term adds nothing to a sum
        assert not any(R.add(R.add(R.zero, R.dead), R.dead))


@pytest.mark.parametrize("dz, dt", [(0, 0), (0, 1), (1, 1), (2, 1), (1, 4), (3, 3), (2, 8)])
def test_count_ring_matches_degree_arithmetic(dz, dt):
    # every in-cap pair of terms against (i1 + i2, j1 + j2) and every power
    # against (e*i, e*j); a degree past its cap must give the dead term
    R = CountRing(dz, dt)
    term = {(i, j): R.mul(R.pow(R.z, i), R.pow(R.t, j))
            for i in range(dz + 1) for j in range(dt + 1)}
    assert len(set(term.values()) | {R.dead}) == len(term) + 1

    def want(i, j):
        return term.get((i, j), R.dead)

    total, counts = R.zero, {}
    for (i1, j1), a in term.items():
        for e in range(5):
            assert R.pow(a, e) == want(e * i1, e * j1)
        for (i2, j2), b in term.items():
            assert R.mul(a, b) == want(i1 + i2, j1 + j2), (i1, j1, i2, j2)
            R.add(total, R.mul(a, b))
            if (i1 + i2, j1 + j2) in term:
                counts[i1 + i2, j1 + j2] = counts.get((i1 + i2, j1 + j2), 0) + 1
    assert {key: total[t] for key, t in term.items() if total[t]} == counts
    assert sum(total) == sum(counts.values())
