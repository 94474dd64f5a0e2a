"""Canonical names for circuit and polynomial variables.

Every variable that can appear in a circuit, a polynomial, or a family
assignment is identified by a plain string in one of these shapes:

    Z:u:a        vertex-placement variable (source vertex u mapped to a)
    Ye:a:b       target-edge variable, a < b
    Yv:v         vertex-weight variable
    Yc:l1:l2:l3  clause-weight variable, literals are nonzero ints
    X:i          indexed weight variable (one coordinate)
    X:u:v        edge-weight variable, u < v
    X:a:b:c      hyperedge-weight variable
    z, t, y      scalar placeholders
    <free>       any other nonempty token without whitespace or ':'

Keeping labels as strings keeps circuits hashable and printable and makes
the text formats trivial to parse.

A monomial is a sorted tuple of (label, exponent) pairs with positive
exponents; a polynomial is a ``Counter`` of monomials, whose counts are
its integer coefficients.
"""

from __future__ import annotations

SCALARS = ("z", "t", "y")

Monomial = tuple[tuple[str, int], ...]


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


def read_lines(text: str, handle) -> None:
    """Call ``handle(tokens)`` on each line of ``text`` that is not blank once
    its ``#`` comment is cut.

    A ``ValueError`` that ``handle`` raises is re-raised as
    ``line N: <message>``, so a bare ``int(tok)`` names its line.
    """
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            try:
                handle(toks)
            except ValueError as e:
                raise ValueError(f"line {ln}: {e}") from None


def zvar(u: int, a: int) -> str:
    return f"Z:{u}:{a}"


def yedge(a: int, b: int) -> str:
    if a == b:
        raise ValueError(f"edge variable needs two distinct endpoints, got {a},{b}")
    if a > b:
        a, b = b, a
    return f"Ye:{a}:{b}"


def yvert(v) -> str:
    return f"Yv:{v}"


def yclause(l1: int, l2: int, l3: int) -> str:
    if 0 in (l1, l2, l3):
        raise ValueError("clause literals must be nonzero")
    return f"Yc:{l1}:{l2}:{l3}"


def xvar(i: int) -> str:
    return f"X:{i}"


def xedge(u: int, v: int) -> str:
    if u == v:
        raise ValueError(f"edge variable needs two distinct endpoints, got {u},{v}")
    if u > v:
        u, v = v, u
    return f"X:{u}:{v}"


def xhyper(a: int, b: int, c: int) -> str:
    return f"X:{a}:{b}:{c}"


def is_valid_label(s: str) -> bool:
    """Accept registry-shaped labels and free names (no blanks, nonempty)."""
    if not s or any(ch.isspace() for ch in s):
        return False
    head, _, rest = s.partition(":")
    if head in ("Z", "Ye", "Yv", "Yc", "X"):
        parts = rest.split(":") if rest else []
        if head == "Z":
            return len(parts) == 2 and all(_is_int(p) for p in parts)
        if head == "Ye":
            return (
                len(parts) == 2
                and all(_is_int(p) for p in parts)
                and int(parts[0]) < int(parts[1])
            )
        if head == "Yv":
            return len(parts) == 1 and bool(parts[0])
        if head == "Yc":
            return len(parts) == 3 and all(_is_int(p) and int(p) != 0 for p in parts)
        if head == "X":
            return 1 <= len(parts) <= 3 and all(_is_int(p) for p in parts)
    return ":" not in s


def _is_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True
