"""Gadget graphs assembled from rigid blocks, paths, and branching programs.

The constructions here combine small "block" graphs (connected,
non-bipartite, rigid, pairwise incomparable) with long connecting paths.
Rigidity pins every block of a source gadget onto a matching block of a
target gadget, and path lengths calibrated against ``c_max`` (one more
than the largest block size, so strictly larger than any block diameter)
prevent homomorphisms from taking shortcuts.  The net effect is that
homomorphism sets between these gadgets are in bijection with
combinatorial objects of interest: source-to-sink paths of a branching
program, or parse trees of a circuit in normal form.

Block properties are checked once, when a ``GadgetPair`` or
``GadgetTriple`` is constructed (also by ``load_gadget``, the search and
``GadgetTriple.pair``); the builders take their blocks as certified.

Two path-length conventions coexist and are recorded in metadata:

* tree-shaped gadgets (``build_Gm``, ``build_Jn``) expand every block
  connection into a path with ``c_max`` interior vertices, i.e. c_max+1
  edges;
* path-shaped gadgets (``build_Gk``, ``embed_bp`` in gadget mode) use
  connecting segments with ``c_max`` edges, i.e. c_max-1 interior
  vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .bp import LayeredBP
from .circuit import ADD, CONST, Circuit, INPUT, MUL
from .graphs import MAX_SOURCE_VERTICES, Graph, are_incomparable, is_rigid
from .labels import yedge

# designated block vertices: where left/right child paths attach, and
# where the block itself hangs off its parent
L_MARK, R_MARK, P_MARK = 1, 2, 3
ATTACH = 1


def certify_blocks(blocks: dict[str, Graph]) -> list[str]:
    """Check the block properties every gadget construction relies on.

    Returns a list of human-readable failures (empty when certified):
    each block must be connected, non-bipartite, and rigid, and every
    pair must be homomorphically incomparable.
    """
    failures = []
    named = sorted(blocks.items())
    for name, g in named:
        if g.n < 1:
            failures.append(f"{name}: empty graph")
            continue
        if not g.is_connected():
            failures.append(f"{name}: not connected")
        if g.is_bipartite():
            failures.append(f"{name}: bipartite")
        if not is_rigid(g):
            failures.append(f"{name}: not rigid (has a nontrivial self-map)")
    for i in range(len(named)):
        for j in range(i + 1, len(named)):
            (na, ga), (nb, gb) = named[i], named[j]
            if not are_incomparable(ga, gb):
                failures.append(f"{na}/{nb}: not incomparable")
    return failures


def _settle(gadget: GadgetPair | GadgetTriple, *blocks: Graph) -> None:
    """Fill in the default ``c_max``, then refuse a short or an oversized
    one, or blocks that fail certification.

    A certified block is non-bipartite, so it has at least three vertices
    and every marked vertex (``ATTACH``, ``L_MARK``, ``R_MARK``,
    ``P_MARK``) exists.  Every gadget graph built from the blocks has more
    than ``c_max`` vertices, so a ``c_max`` above ``MAX_SOURCE_VERTICES``
    leaves nothing the homomorphism search would take; it is refused
    before certification builds anything that large.
    """
    least = max(b.n for b in blocks) + 1
    if gadget.c_max == 0:
        object.__setattr__(gadget, "c_max", least)
    if gadget.c_max < least:
        raise ValueError(
            f"c_max must exceed the largest block size (need >= {least})")
    if gadget.c_max > MAX_SOURCE_VERTICES:
        raise ValueError(
            f"c_max must be at most {MAX_SOURCE_VERTICES}, the most source "
            f"vertices the homomorphism search takes, not {gadget.c_max}")
    failures = gadget.certify()
    if failures:
        raise ValueError("gadget blocks failed certification: "
                         + "; ".join(failures))


@dataclass(frozen=True)
class GadgetPair:
    """Two incomparable rigid blocks plus the path-length calibration.

    Construction certifies the blocks and raises ``ValueError`` if they
    fail, so every ``GadgetPair`` in hand is certified.
    """

    i1: Graph
    i2: Graph
    c_max: int = 0

    def __post_init__(self):
        _settle(self, self.i1, self.i2)

    def certify(self) -> list[str]:
        return certify_blocks({"I1": self.i1, "I2": self.i2})


@dataclass(frozen=True)
class GadgetTriple:
    """Root block plus two alternating-level blocks for tree gadgets.

    Certified on construction, like ``GadgetPair``.
    """

    i0: Graph
    i1: Graph
    i2: Graph
    c_max: int = 0

    def __post_init__(self):
        _settle(self, self.i0, self.i1, self.i2)

    def certify(self) -> list[str]:
        return certify_blocks({"I0": self.i0, "I1": self.i1, "I2": self.i2})

    def pair(self) -> GadgetPair:
        """The (I1, I2) pair, built (and so certified) once per triple."""
        return self._pair

    @cached_property
    def _pair(self) -> GadgetPair:
        return GadgetPair(self.i1, self.i2, self.c_max)


def _graph_json(g: Graph) -> dict:
    return {"n": g.n, "edges": sorted([u, v] for (u, v) in g.edges)}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _graph_from_json(d: dict) -> Graph:
    if not isinstance(d, dict) or not {"n", "edges"} <= d.keys():
        raise ValueError('a gadget block is {"n": ..., "edges": [...]}')
    if not _is_int(d["n"]):
        raise ValueError(f"gadget block key 'n' must be an int, not {d['n']!r}")
    edges = d["edges"]
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
            for e in edges):
        raise ValueError("gadget block key 'edges' must be a list of [u, v] int pairs")
    return Graph.from_edges(d["n"], [tuple(e) for e in edges])


def dump_gadget(g: GadgetPair | GadgetTriple) -> dict:
    if isinstance(g, GadgetTriple):
        return {"kind": "triple", "c_max": g.c_max,
                "i0": _graph_json(g.i0), "i1": _graph_json(g.i1),
                "i2": _graph_json(g.i2)}
    return {"kind": "pair", "c_max": g.c_max,
            "i1": _graph_json(g.i1), "i2": _graph_json(g.i2)}


def load_gadget(d: dict) -> GadgetPair | GadgetTriple:
    if not isinstance(d, dict):
        raise ValueError(f"a gadget is a JSON object, not a {type(d).__name__}")
    kind = d.get("kind")
    if kind == "triple":
        cls, names = GadgetTriple, ("i0", "i1", "i2")
    elif kind == "pair":
        cls, names = GadgetPair, ("i1", "i2")
    else:
        raise ValueError(f"unknown gadget kind {kind!r}")
    missing = [key for key in (*names, "c_max") if key not in d]
    if missing:
        raise ValueError(f"{kind} gadget lacks {', '.join(missing)}")
    if not _is_int(d["c_max"]):
        raise ValueError(f"gadget key 'c_max' must be an int, not {d['c_max']!r}")
    return cls(*(_graph_from_json(d[name]) for name in names), d["c_max"])


@dataclass
class BlockInfo:
    key: tuple
    template_name: str
    template: Graph
    vmap: dict[object, int]


@dataclass
class PathInfo:
    src: int
    dst: int
    interior: tuple[int, ...]


@dataclass
class GadgetGraph:
    graph: Graph
    kind: str
    blocks: list[BlockInfo]
    paths: list[PathInfo]
    labels: dict[tuple[int, int], str]
    anchors: dict[str, int]
    c_max: int
    meta: dict = field(default_factory=dict)

    def block(self, key: tuple) -> BlockInfo:
        for b in self.blocks:
            if b.key == key:
                return b
        raise KeyError(key)

    def edge_label(self, u: int, v: int) -> str | int:
        """Label of an edge of the gadget: a variable name or constant 1."""
        e = (min(u, v), max(u, v))
        if not self.graph.has_edge(u, v):
            raise ValueError(f"no edge {e}")
        return self.labels.get(e, 1)


class _Assembler:
    """Allocates vertex ids and accumulates gadget structure."""

    def __init__(self, c_max: int, kind: str):
        self.next_id = 1
        self.edges: list[tuple[int, int]] = []
        self.blocks: list[BlockInfo] = []
        self.paths: list[PathInfo] = []
        self.labels: dict[tuple[int, int], str] = {}
        self.c_max = c_max
        self.kind = kind

    def fresh(self, count: int = 1) -> list[int]:
        ids = list(range(self.next_id, self.next_id + count))
        self.next_id += count
        return ids

    def edge(self, u: int, v: int, label: str | None = None) -> None:
        e = (min(u, v), max(u, v))
        self.edges.append(e)
        if label is not None:
            self.labels[e] = label

    def block(self, key: tuple, name: str, template: Graph) -> BlockInfo:
        ids = self.fresh(template.n)
        vmap = {x: ids[x - 1] for x in template.vertices()}
        for (x, y) in template.edges:
            self.edge(vmap[x], vmap[y])
        info = BlockInfo(key, name, template, vmap)
        self.blocks.append(info)
        return info

    def chain(self, src: int, dst: int, n_interior: int,
              last_label: str | None = None) -> PathInfo:
        """A path src - (n_interior fresh vertices) - dst.

        ``last_label`` goes on the edge incident on ``dst``.
        """
        interior = self.fresh(n_interior)
        walk = [src, *interior, dst]
        for a, b in zip(walk, walk[1:]):
            self.edge(a, b, last_label if b == dst else None)
        info = PathInfo(src, dst, tuple(interior))
        self.paths.append(info)
        return info

    def finish(self, anchors: dict[str, int], meta: dict) -> GadgetGraph:
        n = self.next_id - 1
        graph = Graph.from_edges(n, self.edges)
        return GadgetGraph(graph, self.kind, self.blocks, self.paths,
                           self.labels, anchors, self.c_max, meta)


def build_Gk(k: int, pair: GadgetPair) -> GadgetGraph:
    """Path gadget: I_1 and I_2 joined by a path with (k-1)+2*c_max edges.

    The designated vertices a and b sit at distances c_max and
    c_max+(k-1) from the I_1 attachment vertex u; for k=1 they coincide.
    ``pair`` was certified when it was constructed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    c_max = pair.c_max
    asm = _Assembler(c_max, "path")
    b1 = asm.block(("I1",), "I1", pair.i1)
    u = b1.vmap[ATTACH]
    seg1 = asm.fresh(c_max - 1)
    a = asm.fresh(1)[0]
    if k == 1:
        b = a
        mid = []
    else:
        mid = asm.fresh(k - 2)
        b = asm.fresh(1)[0]
    seg2 = asm.fresh(c_max - 1)
    b2 = asm.block(("I2",), "I2", pair.i2)
    v = b2.vmap[ATTACH]
    interior = [*seg1, a, *mid] + ([b] if b != a else []) + [*seg2]
    walk = [u, *interior, v]
    for x, y in zip(walk, walk[1:]):
        asm.edge(x, y)
    asm.paths.append(PathInfo(u, v, tuple(interior)))
    g = asm.finish({"u": u, "a": a, "b": b, "v": v},
                   {"k": k, "convention": "segments-have-c_max-edges"})
    d = g.graph.bfs(u)
    assert d[a] == c_max and d[b] == c_max + k - 1
    return g


def _tree_template(level: int, triple: GadgetTriple) -> tuple[str, Graph]:
    if level == 0:
        return "I0", triple.i0
    if level % 2 == 1:
        return "I1", triple.i1
    return "I2", triple.i2


def build_Gm(m: int, triple: GadgetTriple) -> GadgetGraph:
    """Tree gadget: a complete binary tree with m leaves, each node blown
    up into a block (I_0 at the root, then I_1/I_2 alternating by level)
    and each tree edge expanded into a path with c_max interior vertices.
    ``triple`` was certified when it was constructed.
    """
    if m < 1 or m & (m - 1):
        raise ValueError("m must be a power of 2")
    depth = m.bit_length() - 1
    c_max = triple.c_max
    asm = _Assembler(c_max, "tree")
    info: dict[tuple[int, int], BlockInfo] = {}
    for level in range(depth + 1):
        name, tpl = _tree_template(level, triple)
        for idx in range(1 << level):
            blk = asm.block(("blk", level, idx), name, tpl)
            info[(level, idx)] = blk
            if level:
                parent = info[(level - 1, idx // 2)]
                mark = L_MARK if idx % 2 == 0 else R_MARK
                asm.chain(parent.vmap[mark], blk.vmap[P_MARK], c_max)
    g = asm.finish({"root": info[(0, 0)].vmap[ATTACH]},
                   {"m": m, "depth": depth,
                    "convention": "paths-have-c_max-interior-vertices"})
    for p in g.paths:
        assert g.graph.bfs(p.src)[p.dst] == c_max + 1
    return g


def _bp_layout(bp: LayeredBP, asm: _Assembler) -> dict[tuple[int, int], int]:
    ids: dict[tuple[int, int], int] = {}
    for l, size in enumerate(bp.sizes):
        for i in range(size):
            ids[(l, i)] = asm.fresh(1)[0]
    for arc in bp.live_arcs():
        u, v = ids[(arc.layer, arc.src)], ids[(arc.layer + 1, arc.dst)]
        asm.edge(u, v, arc.label if isinstance(arc.label, str) else None)
    return ids


def complete_assignment(g: GadgetGraph, target_size: int | None = None) -> dict:
    """An edge-variable assignment for the complete graph on ``target_size``
    (default: exactly |V(g)|) vertices: absent edges map to 0, structural
    edges to 1, and program arcs to their labels."""
    n = g.graph.n
    size = n if target_size is None else target_size
    if size < n:
        raise ValueError(f"target graph needs at least {n} vertices")
    assignment: dict[str, object] = {}
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if j <= n and g.graph.has_edge(i, j):
                assignment[yedge(i, j)] = g.labels.get((i, j), 1)
            else:
                assignment[yedge(i, j)] = 0
    return assignment


def embed_bp(bp: LayeredBP, mode: str, pair: GadgetPair | None = None) -> GadgetGraph:
    """Turn a branching program into a weighted target graph.

    cycle mode: the undirected program graph plus an (s,t) edge carrying
    the fresh variable y; homomorphisms from an odd cycle then wind
    around through the y-edge exactly once.

    gadget mode: I_1 -(c_max edges)- s ... program ... t -(c_max edges)- I_2,
    pinning path endpoints so homomorphisms from the matching path gadget
    trace source-to-sink paths.  ``pair`` was certified when it was
    constructed.

    Returns the gadget graph ``B``; ``complete_assignment(B)`` gives it as
    an edge-variable assignment of a complete graph.
    """
    if mode == "cycle":
        ell = bp.n_layers
        if ell < 3 or ell % 2 == 0:
            raise ValueError("cycle mode needs an odd number of layers >= 3")
        asm = _Assembler(0, "bp_cycle")
        ids = _bp_layout(bp, asm)
        s = ids[(0, bp.source)]
        t = ids[(bp.n_layers - 1, bp.sink)]
        asm.edge(s, t, "y")
        asm.blocks.append(BlockInfo(("bp",), "BP", None, dict(ids)))
        return asm.finish({"s": s, "t": t}, {"ell": ell})
    if mode == "gadget":
        if pair is None:
            raise ValueError("gadget mode needs a block pair")
        c_max = pair.c_max
        asm = _Assembler(c_max, "bp_gadget")
        b1 = asm.block(("I1",), "I1", pair.i1)
        u = b1.vmap[ATTACH]
        ids = _bp_layout(bp, asm)
        s = ids[(0, bp.source)]
        t = ids[(bp.n_layers - 1, bp.sink)]
        asm.chain(u, s, c_max - 1)
        b2 = asm.block(("I2",), "I2", pair.i2)
        v = b2.vmap[ATTACH]
        asm.chain(t, v, c_max - 1)
        asm.blocks.insert(1, BlockInfo(("bp",), "BP", None, dict(ids)))
        return asm.finish({"u": u, "s": s, "t": t, "v": v},
                          {"ell": bp.n_layers,
                           "convention": "segments-have-c_max-edges"})
    raise ValueError(f"unknown embed mode {mode!r}")


# -- normal-form circuits and their gadget encodings --------------------------


def check_normal_form(c: Circuit) -> list[str]:
    """Violations of the alternating +/x normal form.

    Required shape: the output is a x gate; every x gate has exactly two
    arguments, both + gates; every + gate has arguments that are all x
    gates or all input gates; no constants; every input sits at the same
    x-depth (so parse trees are complete alternating trees); and the
    circuit is multiplicatively disjoint.
    """
    out = []
    ops, _, args = c.per_gate
    if ops[c.output] != MUL:
        out.append("output gate must be a x gate")
    for gid in c.reachable().nonzero()[0].tolist():
        op = ops[gid]
        if op == CONST:
            out.append(f"gate {gid}: constants are not allowed")
        elif op == MUL:
            if len(args[gid]) != 2:
                out.append(f"gate {gid}: x gates must have exactly 2 arguments")
            if any(ops[a] != ADD for a in args[gid]):
                out.append(f"gate {gid}: x arguments must all be + gates")
        elif op == ADD:
            if not args[gid]:
                out.append(f"gate {gid}: + gate with no arguments")
            else:
                kinds = {ops[a] for a in args[gid]}
                if kinds not in ({MUL}, {INPUT}):
                    out.append(f"gate {gid}: + arguments must be all x gates "
                               "or all input gates")
    if out:
        return out

    depth = {c.output: 0}
    queue = [c.output]
    leaf_depths = set()
    while queue:
        gid = queue.pop(0)
        if ops[gid] == INPUT:
            leaf_depths.add(depth[gid])
            continue
        alpha, beta = args[gid]
        kids = list(args[alpha]) + list(args[beta])
        for x in kids:
            d = depth[gid] + 1
            if x in depth:
                if depth[x] != d:
                    out.append(f"gate {x}: reachable at x-depths "
                               f"{depth[x]} and {d}")
            else:
                depth[x] = d
                queue.append(x)
    if len(leaf_depths) > 1:
        out.append(f"inputs at mixed x-depths {sorted(leaf_depths)}")
    if not c.is_mult_disjoint():
        out.append("circuit is not multiplicatively disjoint")
    return out


def build_Jn(c: Circuit, triple: GadgetTriple, *,
             fault_swap_level: int | None = None) -> GadgetGraph:
    """Gadget encoding of a normal-form circuit.

    Each retained gate (x gates and inputs) is doubled into an L and an R
    copy; a copy of gate g points at the L copies of the left
    grandchildren and the R copies of the right grandchildren.  Copies
    reachable from the L copy of the output become blocks (I_0 at the
    root, then I_1/I_2 alternating by level), connections become paths
    with c_max interior vertices, and the path edge incident on an input
    block carries that input's label.

    ``fault_swap_level`` deliberately assembles one level with the wrong
    block template (for negative controls).  ``triple`` was certified when
    it was constructed.
    """
    problems = check_normal_form(c)
    if problems:
        raise ValueError("circuit is not in normal form: " + "; ".join(problems))

    ops, keys, args = c.per_gate
    root_copy = (c.output, "L")
    depth = {root_copy: 0}
    children: dict[tuple[int, str], list[tuple[int, str]]] = {}
    queue = [root_copy]
    while queue:
        copy = queue.pop(0)
        gid, _side = copy
        if ops[gid] == INPUT:
            children[copy] = []
            continue
        alpha, beta = args[gid]
        kids = [(x, "L") for x in args[alpha]] + [(x, "R") for x in args[beta]]
        children[copy] = kids
        for kid in kids:
            d = depth[copy] + 1
            if kid in depth:
                assert depth[kid] == d, "normal form guarantees unique depth"
            else:
                depth[kid] = d
                queue.append(kid)

    d_max = max(depth.values())
    if d_max < 1:
        raise ValueError("circuit depth 0 (a bare x of inputs is too shallow "
                         "to encode; need at least one full x/+ level)")
    c_max = triple.c_max
    asm = _Assembler(c_max, "parse")
    info: dict[tuple[int, str], BlockInfo] = {}
    for copy in sorted(depth, key=lambda cp: (depth[cp], cp[0], cp[1])):
        level = depth[copy]
        name, tpl = _tree_template(level, triple)
        if fault_swap_level is not None and level == fault_swap_level:
            if name == "I1":
                name, tpl = "I2", triple.i2
            elif name == "I2":
                name, tpl = "I1", triple.i1
        gid, side = copy
        info[copy] = asm.block(("copy", gid, side), name, tpl)
    for copy, kids in children.items():
        parent = info[copy]
        for kid in kids:
            child = info[kid]
            label = keys[kid[0]] if ops[kid[0]] == INPUT else None
            mark = L_MARK if kid[1] == "L" else R_MARK
            asm.chain(parent.vmap[mark], child.vmap[P_MARK], c_max,
                      last_label=label)
    return asm.finish(
        {"root": info[root_copy].vmap[ATTACH]},
        {"m": 1 << d_max, "depth": d_max,
         "fault_swap_level": fault_swap_level,
         "convention": "paths-have-c_max-interior-vertices"})
