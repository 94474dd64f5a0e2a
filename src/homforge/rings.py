"""Finite fields F_q (q = p^k) and truncated bivariate polynomial rings.

Field elements are plain ints in range(q).  For k = 1 the int is the
residue itself; for k > 1 it encodes a polynomial-basis coordinate vector
(c_0, ..., c_{k-1}) as sum(c_i * p**i), and arithmetic goes through
precomputed addition and multiplication tables, which reject ints outside
range(q).

TruncPoly models F_q[z, t] / (z^(Dz+1), t^(Dt+1)): addition is
coordinate-wise and multiplication is a truncated 2-D convolution.  The
coefficients are stored sparsely, as a dict of nonzero entries.
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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
            self._build_tables()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, modulus: tuple[int, ...] | None = None) -> "Field":
        """Parse 'p' or 'p^k' (e.g. '5', '2^2')."""
        spec = spec.strip()
        if "^" in spec:
            ptxt, _, ktxt = spec.partition("^")
            return cls(int(ptxt), int(ktxt), modulus)
        return cls(int(spec), 1, modulus)

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        red = self.modulus
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        coeffs = [self.coeffs(a) for a in range(q)]
        for a in range(q):
            ca = coeffs[a]
            for b in range(q):
                cb = coeffs[b]
                add[a, b] = self.from_coeffs([(x + y) % p for x, y in zip(ca, cb)])
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(ca):
                    if x:
                        for j, y in enumerate(cb):
                            prod[i + j] = (prod[i + j] + x * y) % p
                # reduce modulo the defining polynomial
                for d in range(len(prod) - 1, k - 1, -1):
                    c = prod[d]
                    if c:
                        prod[d] = 0
                        inv_lead = pow(red[-1], p - 2, p)
                        scale = (c * inv_lead) % p
                        for j in range(k):
                            prod[d - k + j] = (prod[d - k + j] - scale * red[j]) % p
                mul[a, b] = self.from_coeffs(prod[:k])
        self._add_table = add
        self._mul_table = mul
        self._neg_table = np.array(
            [self.from_coeffs([(-c) % p for c in coeffs[a]]) for a in range(q)],
            dtype=np.int64,
        )

    # -- element views --------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coordinates of element a, constant term first."""
        self._check(a)
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.k:
            raise ValueError("too many coordinates")
        cs += [0] * (self.k - len(cs))
        val = 0
        for c in reversed(cs):
            val = val * self.p + (c % self.p)
        return val

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic on raw ints ----------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        self._check(a)
        self._check(b)
        return int(self._add_table[a, b])

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        self._check(a)
        return int(self._neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        self._check(a)
        self._check(b)
        return int(self._mul_table[a, b])

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply; e < 0 inverts first."""
        self._check(a)
        if e < 0:
            a, e = self.inv(a), -e
        if self.k == 1:
            return pow(a, e, self.p)
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.q}")
        return self.pow(a, self.q - 2)

    def eq(self, a: int, b: int) -> bool:
        return a == b

    def _check(self, a: int) -> None:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element index of F_{self.q}")

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


def _poly_mod(a: list[int], m: tuple[int, ...], p: int) -> list[int]:
    a = [c % p for c in a]
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    for d in range(len(a) - 1, dm - 1, -1):
        c = a[d]
        if c:
            scale = (c * inv_lead) % p
            for j in range(dm + 1):
                a[d - dm + j] = (a[d - dm + j] - scale * m[j]) % p
    return a[:dm]


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Degree <= 4 check: irreducible iff no root (deg 2,3) plus, for deg 4,
    no quadratic factor, tested by trial division."""
    deg = len(m) - 1
    if deg == 1:
        return True
    for r in range(p):
        acc = 0
        for c in reversed(m):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    # trial-divide by monic quadratics
    for b in range(p):
        for c in range(p):
            quad = (c, b, 1)
            rem = _poly_mod(list(m), quad, p)
            if not any(rem):
                return False
    return True


class TruncRing:
    """F_q[z, t] truncated at degrees (dz, dt); elements are TruncPoly."""

    def __init__(self, field: Field, dz: int, dt: int):
        if dz < 0 or dt < 0:
            raise ValueError("degree caps must be >= 0")
        self.field = field
        self.dz = dz
        self.dt = dt

    @property
    def caps(self) -> tuple[int, int]:
        return (self.dz, self.dt)

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

    def eq(self, a: "TruncPoly", b: "TruncPoly") -> bool:
        return a == b

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, TruncRing)
            and self.field == other.field
            and self.caps == other.caps
        )

    def __hash__(self) -> int:
        return hash((self.field, self.caps))

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
        if self.ring is not other.ring and self.ring != other.ring:
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
        if fld.k == 1 and (len(self.coeffs) == 1 or len(other.coeffs) == 1):
            # A monomial shifts the other operand's terms to distinct keys, and
            # a product of nonzero residues mod a prime is nonzero, so nothing
            # collides or cancels.
            mono, poly = (self, other) if len(self.coeffs) == 1 else (other, self)
            ((i0, j0), c0), = mono.coeffs.items()
            p = fld.p
            return TruncPoly(self.ring, {
                (i + i0, j + j0): c * c0 % p
                for (i, j), c in poly.coeffs.items()
                if i + i0 <= dz and j + j0 <= dt})
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
        if self is other:
            return True
        return (
            isinstance(other, TruncPoly)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.coeffs.items()))))

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
