"""Sparse multivariate polynomials over the integers or a finite field.

A monomial is a sorted tuple of (label, exponent) pairs with positive
exponents; terms map monomials to nonzero coefficients.  With field=None
coefficients are arbitrary Python ints, otherwise they are element
indices of the given Field and arithmetic is reduced accordingly.
"""

from __future__ import annotations

from .rings import Field

Monomial = tuple[tuple[str, int], ...]

ONE_MON: Monomial = ()


def mono(*pairs: tuple[str, int]) -> Monomial:
    """Normalise label/exponent pairs into a canonical monomial."""
    acc: dict[str, int] = {}
    for label, e in pairs:
        if e:
            acc[label] = acc.get(label, 0) + e
    return tuple(sorted((l, e) for l, e in acc.items() if e))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for label, e in b:
        acc[label] = acc.get(label, 0) + e
    return tuple(sorted(acc.items()))


class BoundExceeded(RuntimeError):
    """Raised when a symbolic expansion grows past the configured term bound."""


class SparsePoly:
    __slots__ = ("field", "terms")

    def __init__(self, terms: dict[Monomial, int] | None = None, field: Field | None = None):
        self.field = field
        self.terms: dict[Monomial, int] = terms or {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: Field | None = None) -> "SparsePoly":
        return cls({}, field)

    @classmethod
    def const(cls, c: int, field: Field | None = None) -> "SparsePoly":
        c = field.from_int(c) if field else c
        return cls({ONE_MON: c} if c else {}, field)

    @classmethod
    def var(cls, label: str, field: Field | None = None) -> "SparsePoly":
        return cls({((label, 1),): 1}, field)

    # -- arithmetic -----------------------------------------------------------

    def _coeff_add(self, a: int, b: int) -> int:
        return self.field.add(a, b) if self.field else a + b

    def _coeff_mul(self, a: int, b: int) -> int:
        return self.field.mul(a, b) if self.field else a * b

    def _compat(self, other: "SparsePoly") -> None:
        if self.field != other.field:
            raise ValueError("mixed coefficient domains")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._compat(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = self._coeff_add(out.get(m, 0), c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return SparsePoly(out, self.field)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._compat(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = self._coeff_add(out.get(m, 0), self._coeff_mul(c1, c2))
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return SparsePoly(out, self.field)

    def scale(self, c: int) -> "SparsePoly":
        c = self.field.from_int(c) if self.field else c
        out = {}
        for m, c0 in self.terms.items():
            s = self._coeff_mul(c0, c)
            if s:
                out[m] = s
        return SparsePoly(out, self.field)

    def pow(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("negative exponent")
        acc = SparsePoly.const(1, self.field)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    # -- queries --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, tuple(sorted(self.terms.items()))))

    def __len__(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for m in self.terms:
            out.update(l for l, _ in m)
        return out

    def reduce_mod(self, field: Field) -> "SparsePoly":
        """Push integer coefficients into a field (only from the Z domain)."""
        if self.field is not None:
            raise ValueError("already over a field")
        out = {}
        for m, c in self.terms.items():
            r = field.from_int(c)
            if r:
                out[m] = r
        return SparsePoly(out, field)

    def eval(self, assignment: dict[str, object], ring) -> object:
        """Substitute ring values for every variable and fold the terms."""
        total = ring.zero
        for m, c in sorted(self.terms.items()):
            # integer coefficients embed via the ring; field coefficients are
            # already element indices of the ring's field
            term = ring.from_int(c) if self.field is None else c
            for label, e in m:
                if label not in assignment:
                    raise ValueError(f"unassigned variable {label!r}")
                term = ring.mul(term, ring.pow(assignment[label], e))
            total = ring.add(total, term)
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            factors = [str(c)] if (c != 1 or not m) else []
            for label, e in m:
                factors.append(label if e == 1 else f"{label}^{e}")
            bits.append("*".join(factors))
        return " + ".join(bits)

