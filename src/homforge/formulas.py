"""3-CNF formulas with DIMACS-style text input and output.

Clauses are ordered triples of nonzero literals; a clause written with
fewer than three literals is padded by repeating its last literal, which
leaves satisfaction unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .labels import read_lines

Clause = tuple[int, int, int]


@dataclass(frozen=True)
class CNF:
    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        for c in self.clauses:
            if len(c) != 3:
                raise ValueError(f"clause {c} must have exactly 3 literals")
            for lit in c:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.clauses)

    def distinct_clauses(self) -> tuple[Clause, ...]:
        """Clauses with duplicates removed, first-occurrence order kept."""
        return tuple(dict.fromkeys(self.clauses))

    def satisfied_by(self, bits: int) -> bool:
        """Truth under the assignment where bit i-1 of ``bits`` is x_i."""
        for c in self.clauses:
            if not any(((bits >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0)
                       for l in c):
                return False
        return True

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        n = want = None
        clauses: list[Clause] = []

        def line(toks):
            nonlocal n, want
            if toks[0].startswith("c"):
                return
            if toks[0].startswith("p"):
                if len(toks) != 4 or toks[1] != "cnf":
                    raise ValueError(f"malformed problem line {' '.join(toks)!r}")
                if n is not None:
                    raise ValueError("repeated problem line")
                n, want = int(toks[2]), int(toks[3])
                return
            if n is None:
                raise ValueError("clause before problem line")
            lits = [int(t) for t in toks]
            if lits[-1] != 0:
                raise ValueError("clause must end with 0")
            lits = lits[:-1]
            if 0 in lits:
                raise ValueError("literal 0 inside clause")
            if not 1 <= len(lits) <= 3:
                raise ValueError(f"need 1-3 literals, got {len(lits)}")
            while len(lits) < 3:
                lits.append(lits[-1])
            clauses.append((lits[0], lits[1], lits[2]))

        read_lines(text, line)
        if n is None:
            raise ValueError("missing problem line 'p cnf <n> <m>'")
        if want is not None and want != len(clauses):
            raise ValueError(f"problem line promises {want} clauses, found {len(clauses)}")
        return cls(n, tuple(clauses))
