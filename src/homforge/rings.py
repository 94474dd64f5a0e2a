"""Finite fields F_q (q = p^k) and truncated bivariate polynomial rings.

Field elements are plain ints in range(q).  For k = 1 the int is the
residue itself; for k > 1 it encodes a polynomial-basis coordinate vector
(c_0, ..., c_{k-1}) as sum(c_i * p**i), and every operation, scalar or in
``Circuit.eval_batch``, goes through one representation, the discrete-log
codes of F_q's cyclic multiplicative group (Zech-logarithm arithmetic;
Lidl and Niederreiter, ch. 2): for a primitive element g, g^i has code
i < q-1 and 0 has code q-1, the largest.  ``_exp`` maps a code to its
element, ``_log`` back, and ``_code_add`` is the add table in codes.  A
product of nonzero elements is a sum of codes mod q-1, a power a multiple
of a code mod q-1, and a sum of two elements one lookup in ``_code_add``;
ints outside range(q) are refused.  ``_code_sums`` holds the tables T_2
(a flat view of ``_code_add``), T_3, ..., T_j: T_i maps the Horner index
c_1 q^(i-1) + ... + c_i of i codes to the code of their sum, so
``eval_batch`` adds j codes with one lookup.  j is the largest for which
q^j - 1 fits the table's dtype and, from T_3 on, q^j <= 2^16: 4 for F_4,
3 for F_25 and F_27, 2 for every other field.

The element add and mul tables exist only while a field is built.  They
come from numpy broadcasts and gathers over element indices, and the
product table doubles as the modulus check: F_p[x]/(f) is a field iff it
has no zero divisors iff f is irreducible, so a modulus is refused iff its
table holds a 0 off the zero row and column.  g is found by walking rows
of the product table, not by ``mul``; it need not be x (x^2 + 1 is
irreducible but not primitive over F_3 and over F_7).  The characteristic
p is tested by Miller-Rabin, exact below about 3.3e24 (``_PRIME_LIMIT``);
a larger p is refused.

TruncPoly models F_q[z, t] / (z^(Dz+1), t^(Dt+1)): addition is
coordinate-wise and multiplication is a truncated 2-D convolution.  The
coefficients are stored sparsely, as a dict of nonzero entries.

CountRing serves sums whose every term is 0 or one monomial z^i t^j with
coefficient 1, as under the standard projections: a term is one packed
int, a product adds two, and a sum counts how many terms land on each
monomial, so a coefficient is a count mod p.
"""

from __future__ import annotations

import numpy as np

# Fixed irreducible moduli (coefficient lists, constant term first) for the
# extension sizes accepted without an explicit modulus argument.
DEFAULT_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),          # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),       # x^3 + x + 1 over F_2
    9: (1, 0, 1),          # x^2 + 1 over F_3
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1 over F_2
    25: (2, 0, 1),         # x^2 + 2 over F_5
    27: (1, 2, 0, 1),      # x^3 + 2x + 1 over F_3
    49: (1, 0, 1),         # x^2 + 1 over F_7
}

_TABLE_LIMIT = 2048  # largest q for which extension-field tables are built

# Strong-probable-prime tests to the 13 primes 2..41 decide primality exactly
# below _PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin over ``_PRIME_BASES``: exact below ``_PRIME_LIMIT``,
    a ValueError from there on."""
    if n >= _PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {_PRIME_LIMIT}, not for {n}")
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in _PRIME_BASES:  # n is a strong probable prime to base b iff
        # b^d = 1 or b^(d * 2^j) = -1 for some 0 <= j < s
        if pow(b, d, n) != 1 and all(pow(b, d << j, n) != n - 1 for j in range(s)):
            return False
    return True


class Field:
    """The finite field with p^k elements, polynomial basis for k > 1."""

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        if k == 1:
            if modulus not in (None, ()):
                raise ValueError("prime fields take no modulus")
            self.modulus: tuple[int, ...] = ()
        else:
            if self.q > _TABLE_LIMIT:
                raise ValueError(f"extension field size {self.q} beyond supported limit")
            if modulus is None:
                if self.q not in DEFAULT_MODULI:
                    raise ValueError(
                        f"no built-in modulus for q={self.q}; supply an irreducible polynomial"
                    )
                modulus = DEFAULT_MODULI[self.q]
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] == 0:
                raise ValueError("modulus must have degree exactly k")
            self.modulus = modulus
            self._exp, self._log, self._code_add = _tables(p, k, modulus)
            self._code_sums = _code_sums(self._code_add)
            # plain-int copies for the scalar ops, which index one per call
            self._exps, self._logs = self._exp.tolist(), self._log.tolist()

    @classmethod
    def from_spec(cls, spec: str) -> "Field":
        """Parse 'p' or 'p^k' (e.g. '5', '2^2')."""
        spec = spec.strip()
        if "^" in spec:
            ptxt, _, ktxt = spec.partition("^")
            return cls(int(ptxt), int(ktxt))
        return cls(int(spec))

    # -- arithmetic on raw ints ----------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        """The image of the integer n; anything but an int is refused, so a
        float or a string never passes for an element."""
        if not isinstance(n, (int, np.integer)):
            raise ValueError(f"{n!r} is not an integer")
        return n % self.p

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        logs = self._logs
        return self._exps[self._code_add.item(logs[self._check(a)], logs[self._check(b)])]

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        a, b = self._check(a), self._check(b)
        if a and b:  # the codes of nonzero elements add mod q-1
            return self._exps[(self._logs[a] + self._logs[b]) % (self.q - 1)]
        return 0

    def pow(self, a: int, e: int) -> int:
        """a^e for e of either sign; 0^0 is 1, and 0^e for e < 0 raises
        ZeroDivisionError."""
        if self._check(a) == 0 and e < 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.q}")
        if self.k == 1:
            return pow(a, e, self.p)
        return self._exps[self._logs[a] * e % (self.q - 1)] if a else int(e == 0)

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def _check(self, a: int) -> int:
        """a itself, if it is an element index of this field."""
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element index of F_{self.q}")
        return a

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"Field({self.p})"
        return f"Field({self.p}^{self.k})"


def _tables(p: int, k: int, modulus: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exp, log, code add table) of the discrete-log codes of F_p[x]/(modulus)
    (see the module docstring); a ValueError if the modulus is reducible.

    They come from the element add and mul tables.  Addition and the F_p
    multiples c * a act coordinate by coordinate, so their tables grow one
    coordinate at a time by broadcasting.  Row b of the product table is
    b * a for every a, gathered from rows of fewer coordinates as
    b * a = ((b // p) * a) * x + (b % p) * a.  g is the first element whose
    walk 1, g, g^2, ... along its row of the product table comes back to 1
    only after q-1 steps.
    """
    q, top = p**k, p ** (k - 1)
    i = np.arange(p, dtype=np.int64)
    add1, scaled1 = (i[:, None] + i) % p, i[:, None] * i % p
    add, scaled = add1, scaled1  # scaled[c, a] = c * a
    for d in range(1, k):  # coordinate d goes on top
        s = p**d
        add = (s * add1[:, None, :, None] + add[None, :, None, :]).reshape(p * s, p * s)
        scaled = (s * scaled1[:, :, None] + scaled[:, None, :]).reshape(p, p * s)
    # x^k = r mod f: coordinate i of r is -f_i / f_k
    inv_lead = pow(modulus[-1], p - 2, p)
    r = sum(-c * inv_lead % p * p**i for i, c in enumerate(modulus[:-1]))
    a = np.arange(q)
    times_x = add[a % top * p, scaled[a // top, r]]
    mul = np.empty((q, q), dtype=np.int64)
    mul[:p] = scaled
    for d in range(1, k):  # rows b of d + 1 coordinates
        lo, hi = p ** (d - 1), p**d
        mul[hi : hi * p] = add[times_x[mul[lo:hi, None]], scaled].reshape(-1, q)
    # F_p[x]/(f) has zero divisors exactly when f factors
    if not mul[1:, 1:].all():
        raise ValueError(f"modulus {modulus} is reducible over F_{p}")
    for g in range(2, q):
        row, powers = mul[g].tolist(), [1]
        while (x := row[powers[-1]]) != 1:
            powers.append(x)
        if len(powers) == q - 1:
            break
    exp = np.array(powers + [0], dtype=np.int64)
    log = np.empty(q, dtype=np.int64)
    log[exp] = np.arange(q)
    # in the dtype of eval_batch's value matrix over F_q, which reads it uncopied
    return exp, log, log[add[exp[:, None], exp]].astype(np.min_scalar_type(q * q - 1))


def _code_sums(code_add: np.ndarray) -> tuple[np.ndarray, ...]:
    """(T_2, ..., T_j) for the square code add table (see the module
    docstring), all in its dtype; T_2 is a view of it, not a copy."""
    q, sums = len(code_add), [code_add.ravel()]
    limit = min(int(np.iinfo(code_add.dtype).max) + 1, 2**16)  # on q^i
    while sums[-1].size * q <= limit:
        sums.append(code_add[sums[-1]].ravel())  # T_i+1[x*q + c] = T_2[T_i[x]*q + c]
    return tuple(sums)


class TruncRing:
    """F_q[z, t] truncated at degrees (dz, dt); elements are TruncPoly."""

    def __init__(self, field: Field, dz: int, dt: int):
        if dz < 0 or dt < 0:
            raise ValueError("degree caps must be >= 0")
        self.field = field
        self.dz = dz
        self.dt = dt

    @property
    def zero(self) -> "TruncPoly":
        return TruncPoly(self, {})

    @property
    def one(self) -> "TruncPoly":
        return self.from_int(1)

    def from_int(self, n: int) -> "TruncPoly":
        c = self.field.from_int(n)
        return TruncPoly(self, {(0, 0): c} if c else {})

    def monomial(self, i: int, j: int, coeff: int = 1) -> "TruncPoly":
        if not (0 <= i <= self.dz and 0 <= j <= self.dt):
            return self.zero
        c = coeff % self.field.p if self.field.k == 1 else coeff
        self.field._check(c)
        return TruncPoly(self, {(i, j): c} if c else {})

    @property
    def z(self) -> "TruncPoly":
        return self.monomial(1, 0)

    @property
    def t(self) -> "TruncPoly":
        return self.monomial(0, 1)

    def add(self, a: "TruncPoly", b: "TruncPoly") -> "TruncPoly":
        return a + b

    def mul(self, a: "TruncPoly", b: "TruncPoly") -> "TruncPoly":
        return a * b

    def pow(self, a: "TruncPoly", e: int) -> "TruncPoly":
        if e < 0:
            raise ValueError("negative powers are not defined in a truncated ring")
        acc, base = self.one, a
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncRing)
            and self.field == other.field
            and (self.dz, self.dt) == (other.dz, other.dt)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.dz, self.dt))

    def __repr__(self) -> str:
        return f"TruncRing({self.field!r}, dz={self.dz}, dt={self.dt})"


class TruncPoly:
    """Element of a TruncRing; coeffs maps (z-degree, t-degree) to nonzero ints."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: TruncRing, coeffs: dict[tuple[int, int], int]):
        self.ring = ring
        self.coeffs = coeffs

    def coefficient(self, i: int, j: int) -> int:
        if not (0 <= i <= self.ring.dz and 0 <= j <= self.ring.dt):
            raise IndexError(
                f"({i},{j}) outside caps ({self.ring.dz},{self.ring.dt})"
            )
        return self.coeffs.get((i, j), 0)

    def _compat(self, other: "TruncPoly") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        self._compat(other)
        fld = self.ring.field
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = fld.add(out.get(key, 0), c)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return TruncPoly(self.ring, out)

    def __mul__(self, other: "TruncPoly") -> "TruncPoly":
        self._compat(other)
        fld = self.ring.field
        dz, dt = self.ring.dz, self.ring.dt
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i > dz or j > dt:
                    continue
                s = fld.add(out.get((i, j), 0), fld.mul(c1, c2))
                if s:
                    out[(i, j)] = s
                else:
                    out.pop((i, j), None)
        return TruncPoly(self.ring, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncPoly)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for (i, j), c in sorted(self.coeffs.items()):
            term = str(c)
            if i:
                term += f"*z^{i}" if i > 1 else "*z"
            if j:
                term += f"*t^{j}" if j > 1 else "*t"
            bits.append(term)
        return " + ".join(bits)


class CountRing:
    """Sums of coefficient-1 monomials z^i t^j, truncated at (dz, dt).

    A term is the int ``i << shift | j``; the shift leaves room for
    j1 + j2 <= 2*dt, so ``mul`` adds two terms without carrying a t-degree
    into the z-degree.  A term past either cap is the single value ``dead``,
    which also stands for 0.  A sum is a list of term counts (``zero`` is a
    fresh one) that ``add`` bumps in place, skipping dead terms.
    """

    def __init__(self, dz: int, dt: int):
        self.dz, self.dt = dz, dt
        self.shift = (2 * dt + 1).bit_length()
        self.mask, self.dead = (1 << self.shift) - 1, (dz + 1) << self.shift
        self.one = 0
        self.z, self.t = self.mul(0, 1 << self.shift), self.mul(0, 1)  # dead at a 0 cap

    @property
    def zero(self) -> list[int]:
        return [0] * self.dead

    def add(self, total: list[int], term: int) -> list[int]:
        if term != self.dead:
            total[term] += 1
        return total

    def mul(self, a: int, b: int) -> int:
        s = a + b
        return s if s < self.dead and s & self.mask <= self.dt else self.dead

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative powers are not defined in a truncated ring")
        i, j = (a >> self.shift) * e, (a & self.mask) * e
        return i << self.shift | j if i <= self.dz and j <= self.dt else self.dead
