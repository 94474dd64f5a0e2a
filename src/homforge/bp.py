"""Layered branching programs with labelled arcs.

A branching program here is a DAG arranged in layers 0..L-1; arcs run
only between consecutive layers and carry either a variable label or a
0/1 constant.  The program computes the sum over source-to-sink paths of
the product of arc labels.  Arcs labelled 0 are dead and never appear on
a path.

Programs are the raw material for the cycle-identity and gadget-encoding
constructions: their underlying undirected graphs are layered, so closed
walks interact with the layer structure in a controlled way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .labels import SCALARS, is_valid_label, mono, read_lines


@dataclass(frozen=True)
class Arc:
    """Directed arc from node ``src`` of ``layer`` to ``dst`` of ``layer+1``."""

    layer: int
    src: int
    dst: int
    label: str | int = 1


class LayeredBP:
    def __init__(self, sizes, arcs, source: int = 0, sink: int = 0):
        self.sizes = tuple(int(s) for s in sizes)
        self.arcs = tuple(arcs)
        self.source = source
        self.sink = sink
        self._validate()

    def _validate(self) -> None:
        L = len(self.sizes)
        if L < 2:
            raise ValueError("a branching program needs at least two layers")
        for s in self.sizes:
            if s < 1:
                raise ValueError("every layer needs at least one node")
        if not 0 <= self.source < self.sizes[0]:
            raise ValueError(f"source index {self.source} not in layer 0")
        if not 0 <= self.sink < self.sizes[-1]:
            raise ValueError(f"sink index {self.sink} not in the last layer")
        seen = set()
        for a in self.arcs:
            if not 0 <= a.layer < L - 1:
                raise ValueError(f"arc {a} leaves a nonexistent layer")
            if not 0 <= a.src < self.sizes[a.layer]:
                raise ValueError(f"arc {a}: no node {a.src} in layer {a.layer}")
            if not 0 <= a.dst < self.sizes[a.layer + 1]:
                raise ValueError(f"arc {a}: no node {a.dst} in layer {a.layer + 1}")
            key = (a.layer, a.src, a.dst)
            if key in seen:
                raise ValueError(f"duplicate arc {key}")
            seen.add(key)
            self._check_label(a.label)

    @staticmethod
    def _check_label(label) -> None:
        if isinstance(label, int):
            if label not in (0, 1):
                raise ValueError(f"constant arc labels must be 0 or 1, got {label}")
            return
        if not isinstance(label, str):
            raise TypeError(f"arc label must be str or int, got {type(label)}")
        if label in SCALARS:
            raise ValueError(f"label {label!r} is reserved")
        if label in ("0", "1"):
            raise ValueError("write constant labels as ints, not strings")
        if not is_valid_label(label):
            raise ValueError(f"invalid arc label {label!r}")

    @property
    def n_layers(self) -> int:
        return len(self.sizes)

    def width(self) -> int:
        return max(self.sizes)

    def n_nodes(self) -> int:
        return sum(self.sizes)

    def live_arcs(self) -> list[Arc]:
        """Arcs that can appear on a path (constant-0 arcs are dead)."""
        return [a for a in self.arcs if a.label != 0]

    def st_paths(self) -> list[tuple[Arc, ...]]:
        """All source-to-sink paths along live arcs, lexicographic order."""
        fwd: dict[tuple[int, int], list[Arc]] = {}
        for a in sorted(self.live_arcs(), key=lambda a: (a.layer, a.src, a.dst)):
            fwd.setdefault((a.layer, a.src), []).append(a)
        L = len(self.sizes)
        paths: list[tuple[Arc, ...]] = []
        stack: list[Arc] = []

        def walk(layer: int, idx: int) -> None:
            if layer == L - 1:
                if idx == self.sink:
                    paths.append(tuple(stack))
                return
            for a in fwd.get((layer, idx), ()):
                stack.append(a)
                walk(layer + 1, a.dst)
                stack.pop()

        walk(0, self.source)
        return paths

    def count_st_paths(self) -> int:
        counts = {(len(self.sizes) - 1, self.sink): 1}
        for a in sorted(self.live_arcs(), key=lambda a: -a.layer):
            c = counts.get((a.layer + 1, a.dst), 0)
            if c:
                key = (a.layer, a.src)
                counts[key] = counts.get(key, 0) + c
        return counts.get((0, self.source), 0)

    def path_polynomial(self) -> Counter:
        """Sum over source-sink paths of the product of arc labels, as a
        Counter of monomials."""
        return Counter(mono(*((a.label, 1) for a in path if isinstance(a.label, str)))
                       for path in self.st_paths())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayeredBP):
            return NotImplemented
        return (self.sizes == other.sizes
                and sorted(self.arcs, key=repr) == sorted(other.arcs, key=repr)
                and self.source == other.source and self.sink == other.sink)

    def __repr__(self) -> str:
        return (f"LayeredBP(sizes={self.sizes}, arcs={len(self.arcs)}, "
                f"source={self.source}, sink={self.sink})")

    def to_text(self) -> str:
        lines = [f"layers {len(self.sizes)}"]
        for l, s in enumerate(self.sizes):
            for i in range(s):
                lines.append(f"node {l} {i}")
        for a in sorted(self.arcs, key=lambda a: (a.layer, a.src, a.dst)):
            lines.append(f"arc {a.layer} {a.src} {a.dst} {a.label}")
        lines.append(f"source {self.source}")
        lines.append(f"sink {self.sink}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LayeredBP":
        single: dict[str, int] = {}  # the layers, source and sink values
        declared: dict[int, set[int]] = {}
        arcs: list[Arc] = []

        def line(parts):
            head = parts[0]
            if head in ("layers", "source", "sink"):
                if len(parts) != 2:
                    raise ValueError(f"expected: {head} <int>")
                if head in single:
                    raise ValueError(f"duplicate {head} line")
                single[head] = int(parts[1])
            elif head == "node":
                if len(parts) != 3:
                    raise ValueError("expected: node <layer> <index>")
                declared.setdefault(int(parts[1]), set()).add(int(parts[2]))
            elif head == "arc":
                if len(parts) != 5:
                    raise ValueError("expected: arc <layer> <src> <dst> <label>")
                lab: str | int = parts[4]
                if lab in ("0", "1"):
                    lab = int(lab)
                arcs.append(Arc(int(parts[1]), int(parts[2]), int(parts[3]), lab))
            else:
                raise ValueError(f"unknown directive {head!r}")

        read_lines(text, line)
        if "layers" not in single:
            raise ValueError("missing 'layers' line")
        if "source" not in single or "sink" not in single:
            raise ValueError("missing source or sink line")
        n_layers = single["layers"]
        sizes = []
        for l in range(n_layers):
            idxs = declared.get(l, set())
            if not idxs:
                raise ValueError(f"layer {l} has no declared nodes")
            if idxs != set(range(len(idxs))):
                raise ValueError(f"layer {l} node indices must be 0..{len(idxs) - 1}")
            sizes.append(len(idxs))
        extra = set(declared) - set(range(n_layers))
        if extra:
            raise ValueError(f"nodes declared in nonexistent layers {sorted(extra)}")
        return cls(sizes, arcs, single["source"], single["sink"])
