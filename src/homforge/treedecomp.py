"""Nice tree decompositions: validation, width, conversion, exact treewidth.

A tree decomposition of a graph G assigns a bag of vertices to every node
of a tree so that three properties hold: every vertex is in some bag,
every edge has both ends in some bag, and, for each vertex, the nodes
whose bags hold it form a connected subtree.  The *nice* form used by the
circuit compiler additionally requires an empty root bag, singleton leaf
bags, and that every internal node is one of Introduce / Forget / Join.

``validate_nice`` and ``validate_decomp`` first check that the nodes form
a well-formed tree (and, for ``validate_nice``, the niceness rules); only
then do both check the three properties, with one helper over the rooted
tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .labels import read_lines

KINDS = ("leaf", "intro", "forget", "join")
EXACT_MAX_N = 12  # the most vertices treewidth_exact's subset DP takes

_BIG = 10**9


@dataclass(frozen=True)
class DecompNode:
    """One node of a nice tree decomposition.

    ``vertex`` is the vertex introduced or forgotten at this node; it is
    ignored for leaf and join nodes.
    """

    bag: frozenset[int]
    kind: str
    vertex: int = 0
    children: tuple[int, ...] = ()


class NiceTreeDecomp:
    """A rooted nice tree decomposition; nodes addressed by index."""

    def __init__(self, nodes: tuple[DecompNode, ...], root: int):
        self.nodes = tuple(nodes)
        self.root = root
        if not (0 <= root < len(self.nodes)):
            raise ValueError(f"root id {root} out of range")

    def __len__(self) -> int:
        return len(self.nodes)

    def width(self) -> int:
        return max(len(nd.bag) for nd in self.nodes) - 1

    def has_join(self) -> bool:
        return any(nd.kind == "join" for nd in self.nodes)

    def postorder(self) -> list[int]:
        """Node indices, children always before their parent."""
        out = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            i, expanded = stack.pop()
            if expanded:
                out.append(i)
            else:
                stack.append((i, True))
                for c in self.nodes[i].children:
                    stack.append((c, False))
        return out

    def to_text(self) -> str:
        lines = []
        for i, nd in enumerate(self.nodes):
            if nd.kind in ("intro", "forget"):
                kind = f"{nd.kind}:{nd.vertex}"
            else:
                kind = nd.kind
            verts = " ".join(str(v) for v in sorted(nd.bag))
            lines.append(f"bag {i} {kind} {verts}".rstrip())
        for i, nd in enumerate(self.nodes):
            for c in nd.children:
                lines.append(f"child {i} {c}")
        lines.append(f"root {self.root}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "NiceTreeDecomp":
        bags: dict[int, tuple[frozenset[int], str, int]] = {}
        children: dict[int, list[int]] = {}
        root = None

        def line(parts):
            nonlocal root
            if parts[0] == "bag":
                if len(parts) < 3:
                    raise ValueError("expected: bag <id> <kind> [<vertex> ...]")
                idx = int(parts[1])
                if idx in bags:
                    raise ValueError(f"duplicate bag id {idx}")
                kind_tok = parts[2]
                if ":" in kind_tok:
                    kind, _, vtx = kind_tok.partition(":")
                    vertex = int(vtx)
                else:
                    kind, vertex = kind_tok, 0
                if kind not in KINDS:
                    raise ValueError(f"unknown node kind {kind_tok!r}")
                bag = frozenset(int(v) for v in parts[3:])
                bags[idx] = (bag, kind, vertex)
            elif parts[0] == "child":
                if len(parts) != 3:
                    raise ValueError("expected: child <parent> <kid>")
                children.setdefault(int(parts[1]), []).append(int(parts[2]))
            elif parts[0] == "root":
                if len(parts) != 2:
                    raise ValueError("expected: root <id>")
                if root is not None:
                    raise ValueError("duplicate root line")
                root = int(parts[1])
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")

        read_lines(text, line)
        if root is None:
            raise ValueError("missing root directive")
        if sorted(bags) != list(range(len(bags))):
            raise ValueError("bag ids must be 0..N-1 with no gaps")
        nodes = []
        for i in range(len(bags)):
            bag, kind, vertex = bags[i]
            kids = tuple(children.get(i, ()))
            for c in kids:
                if c not in bags:
                    raise ValueError(f"child id {c} has no bag line")
            nodes.append(DecompNode(bag, kind, vertex, kids))
        return cls(tuple(nodes), root)


def _rooted(nbr: dict[int, set[int]], root: int) -> tuple[list[int], dict[int, int]]:
    """Breadth-first order of the nodes reachable from ``root`` (neighbours
    ascending) and the parent of each of them but the root."""
    order = [root]
    parent: dict[int, int] = {}
    for i in order:
        for j in sorted(nbr[i]):
            if j != root and j not in parent:
                parent[j] = i
                order.append(j)
    return order, parent


def _decomp_errors(bags: dict[int, frozenset[int]], parent: dict[int, int],
                   G: Graph) -> list[str]:
    """Cover, edge and connectivity violations of ``bags`` on a rooted tree.

    ``parent`` maps every node but the root to its parent.  The nodes
    holding a vertex are connected iff exactly one of them has no parent
    holding it.
    """
    errs: list[str] = []
    verts = set(G.vertices())
    holders: dict[int, set[int]] = {}
    for i, bag in bags.items():
        for v in bag:
            holders.setdefault(v, set()).add(i)
    stray = holders.keys() - verts
    if stray:
        errs.append(f"bag vertices not in graph: {sorted(stray)}")
    uncovered = verts - holders.keys()
    if uncovered:
        errs.append(f"vertices in no bag: {sorted(uncovered)}")
    for (u, v) in sorted(G.edges):
        if holders.get(u, set()).isdisjoint(holders.get(v, ())):
            errs.append(f"edge ({u}, {v}) in no bag")
    for v in sorted(verts & holders.keys()):
        tops = sum(1 for i in holders[v] if parent.get(i) not in holders[v])
        if tops > 1:
            errs.append(f"vertex {v}: bag nodes form {tops} disconnected subtrees")
    return errs


def validate_nice(d: NiceTreeDecomp, G: Graph) -> list[str]:
    """All niceness and decomposition violations of ``d`` w.r.t. ``G``.

    Structure first: the tree rules (child ids, one parent per node, every
    node reachable from the root) and the niceness rules.  Only when those
    find nothing are the cover, edge and connectivity properties checked.
    Empty list means the decomposition is valid.
    """
    errs: list[str] = []
    n_nodes = len(d.nodes)

    parent: dict[int, int] = {}
    for i, nd in enumerate(d.nodes):
        if nd.kind not in KINDS:
            errs.append(f"node {i}: unknown kind {nd.kind!r}")
        for c in nd.children:
            if not (0 <= c < n_nodes):
                errs.append(f"node {i}: child id {c} out of range")
                continue
            if c == i:
                errs.append(f"node {i}: is its own child")
                continue
            if c in parent:
                errs.append(f"node {c}: has two parents ({parent[c]} and {i})")
            parent[c] = i
    if d.root in parent:
        errs.append(f"root {d.root} appears as a child of node {parent[d.root]}")

    # child ids in range; an out-of-range one is reported above, its bag never read
    kids_in = {i: {c for c in nd.children if 0 <= c < n_nodes} for i, nd in enumerate(d.nodes)}
    missing = set(range(n_nodes)) - set(_rooted(kids_in, d.root)[0])
    if missing:
        errs.append(f"nodes not reachable from root: {sorted(missing)}")

    for i, nd in enumerate(d.nodes):
        kids = nd.children
        cbs = [d.nodes[c].bag for c in kids_in[i]]
        if nd.kind == "leaf":
            if kids:
                errs.append(f"node {i}: leaf node has children")
            if len(nd.bag) != 1:
                errs.append(f"node {i}: leaf bag size {len(nd.bag)}, expected 1")
        elif nd.kind == "intro":
            if len(kids) != 1:
                errs.append(f"node {i}: introduce node needs exactly 1 child")
            elif cbs:
                if nd.vertex in cbs[0]:
                    errs.append(f"node {i}: introduces {nd.vertex} already present in child bag")
                if nd.bag != cbs[0] | {nd.vertex}:
                    errs.append(f"node {i}: bag is not child bag plus {nd.vertex}")
        elif nd.kind == "forget":
            if len(kids) != 1:
                errs.append(f"node {i}: forget node needs exactly 1 child")
            elif cbs:
                if nd.vertex not in cbs[0]:
                    errs.append(f"node {i}: forgets {nd.vertex} absent from child bag")
                if nd.bag != cbs[0] - {nd.vertex}:
                    errs.append(f"node {i}: bag is not child bag minus {nd.vertex}")
        elif nd.kind == "join":
            if len(kids) != 2:
                errs.append(f"node {i}: join node needs exactly 2 children")
            elif any(cb != nd.bag for cb in cbs):
                errs.append(f"node {i}: join children bags differ from own bag")

    if d.nodes[d.root].bag:
        errs.append(f"root bag not empty: {sorted(d.nodes[d.root].bag)}")
    if errs:
        return errs
    return _decomp_errors({i: nd.bag for i, nd in enumerate(d.nodes)}, parent, G)


@dataclass
class TreeDecompInput:
    """An arbitrary (not necessarily nice) tree decomposition.

    ``bags`` maps bag ids to vertex sets; ``edges`` are unordered pairs of
    bag ids forming the tree.
    """

    bags: dict[int, frozenset[int]]
    edges: list[tuple[int, int]]

    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1


def validate_decomp(td: TreeDecompInput, G: Graph) -> list[str]:
    """Violations of the basic tree-decomposition conditions (no niceness).

    Structure first: the tree edges must form a tree over the bag ids.  Only
    then are the cover, edge and connectivity properties checked, on the
    tree rooted at its least bag id.
    """
    errs: list[str] = []
    ids = set(td.bags)
    if not ids:
        return ["decomposition has no bags"]
    nbr: dict[int, set[int]] = {i: set() for i in ids}
    for (a, b) in td.edges:
        if a not in ids or b not in ids:
            errs.append(f"tree edge ({a}, {b}) uses unknown bag id")
            continue
        if a == b:
            errs.append(f"tree edge ({a}, {b}) is a self-loop")
            continue
        if b in nbr[a]:
            errs.append(f"tree edge ({a}, {b}) repeated")
            continue
        nbr[a].add(b)
        nbr[b].add(a)
    if len(td.edges) != len(ids) - 1:
        errs.append(f"{len(td.edges)} tree edges for {len(ids)} bags; a tree needs {len(ids) - 1}")
    order, parent = _rooted(nbr, min(ids))
    if len(order) != len(ids):
        errs.append(f"bag tree is disconnected ({len(ids) - len(order)} bags unreachable)")
    if errs:
        return errs
    return _decomp_errors(td.bags, parent, G)


def make_nice(td: TreeDecompInput, G: Graph, root: int | None = None) -> NiceTreeDecomp:
    """Convert a valid tree decomposition into an equal-width nice one.

    ``root`` selects which bag becomes the top of the rooted tree; rooting a
    path of bags at one of its endpoints yields a Join-free result.
    """
    if G.n == 0:
        raise ValueError("graphs without vertices have no nice decomposition")
    errs = validate_decomp(td, G)
    if errs:
        raise ValueError("invalid tree decomposition: " + "; ".join(errs))
    if root is not None and root not in td.bags:
        raise ValueError(f"root bag id {root} not present")
    return _make_nice(td, root)


def _make_nice(td: TreeDecompInput, root: int | None = None) -> NiceTreeDecomp:
    """``make_nice`` without its checks, for decompositions valid by
    construction (those of an elimination order) of graphs with vertices."""
    bags = {i: frozenset(b) for i, b in td.bags.items()}
    if root is None:
        root = min(bags)

    nbr: dict[int, set[int]] = {i: set() for i in bags}
    for (a, b) in td.edges:
        nbr[a].add(b)
        nbr[b].add(a)
    order, parent = _rooted(nbr, root)

    nodes: list[DecompNode] = []

    def add(bag, kind: str, vertex: int = 0, children: tuple[int, ...] = ()) -> int:
        nodes.append(DecompNode(frozenset(bag), kind, vertex, children))
        return len(nodes) - 1

    sub_root: dict[int, int | None] = {}
    for node in reversed(order):
        X = bags[node]
        kids = [c for c in sorted(nbr[node]) if parent.get(c) == node and sub_root[c] is not None]
        if not kids:
            if not X:
                sub_root[node] = None
                continue
            vs = sorted(X)
            acc = {vs[0]}
            cur = add(acc, "leaf")
            for v in vs[1:]:
                acc.add(v)
                cur = add(acc, "intro", v, (cur,))
            sub_root[node] = cur
        else:
            tops = []
            for c in kids:
                cur = sub_root[c]
                acc = set(bags[c])
                for w in sorted(acc - X):
                    acc.remove(w)
                    cur = add(acc, "forget", w, (cur,))
                for v in sorted(X - acc):
                    acc.add(v)
                    cur = add(acc, "intro", v, (cur,))
                tops.append(cur)
            cur = tops[0]
            for nxt in tops[1:]:
                cur = add(X, "join", 0, (cur, nxt))
            sub_root[node] = cur

    top = sub_root[root]
    if top is None:
        raise ValueError("all bags empty; nothing to decompose")
    acc = set(bags[root])
    for w in sorted(acc):
        acc.remove(w)
        top = add(acc, "forget", w, (top,))
    return NiceTreeDecomp(tuple(nodes), top)


def _decomp_from_elimination(G: Graph, order: list[int]) -> TreeDecompInput:
    """Tree decomposition induced by an elimination order (bags keyed by vertex)."""
    pos = {v: i for i, v in enumerate(order)}
    nbrs = {v: set(G.adj[v]) for v in G.vertices()}
    bags: dict[int, frozenset[int]] = {}
    for v in order:
        later = {w for w in nbrs[v] if pos[w] > pos[v]}
        bags[v] = frozenset({v} | later)
        for a in later:
            nbrs[a].discard(v)
            nbrs[a].update(later - {a})
    edges = []
    for i, v in enumerate(order):
        later = [w for w in bags[v] if w != v]
        if later:
            edges.append((v, min(later, key=lambda w: pos[w])))
        elif i + 1 < len(order):
            edges.append((v, order[i + 1]))
    return TreeDecompInput(bags=bags, edges=edges)


def heuristic_decomp(G: Graph) -> TreeDecompInput:
    """Min-fill greedy decomposition; valid but not necessarily optimal."""
    if G.n == 0:
        raise ValueError("graph has no vertices")
    nbrs = {v: set(G.adj[v]) for v in G.vertices()}
    remaining = set(G.vertices())
    order = []
    while remaining:
        best_v, best_fill = None, _BIG
        for v in sorted(remaining):
            nb = nbrs[v]
            fill = sum(1 for a in nb for c in nb if a < c and c not in nbrs[a])
            if fill < best_fill:
                best_v, best_fill = v, fill
        order.append(best_v)
        nb = nbrs[best_v]
        for a in nb:
            nbrs[a].discard(best_v)
            nbrs[a].update(nb - {a})
        remaining.discard(best_v)
        del nbrs[best_v]
    return _decomp_from_elimination(G, order)


def _min_width_order(G: Graph) -> tuple[int, list[int]]:
    """Treewidth of ``G`` and an elimination order that attains it.

    Over vertex subsets, f(S) = min over v in S of max(f(S - v), d(S, v)),
    the least v winning ties.  The fill-degree d(S, v) of v after S - v is
    |N(C) - S| for v's component C of G[S] (Bodlaender et al., "On exact
    algorithms for treewidth", TALG 2012), so each S keeps the (component,
    outside neighbours) masks of G[S]: those of S minus its top vertex u,
    with the components u touches merged into u's.
    """
    n = G.n
    adj = [m >> 1 for m in G.nbr_masks[1:]]  # bit j of adj[i]: vertices i+1, j+1 adjacent
    full = (1 << n) - 1
    f = [0] * (full + 1)
    choice = [0] * (full + 1)
    comps: list[list[tuple[int, int]]] = [[]] * (full + 1)
    for S in range(1, full + 1):
        u = S.bit_length() - 1
        top = 1 << u
        merged, out, kept = top, adj[u], []
        for c, nb in comps[S ^ top]:
            if nb & top:
                merged |= c
                out |= nb
            else:
                kept.append((c, nb))
        kept.append((merged, out & ~S))
        comps[S] = kept
        best, best_low = _BIG, 0
        for c, nb in kept:
            deg = nb.bit_count()
            while c:
                low = c & -c
                c ^= low
                val = f[S ^ low]
                if val < deg:
                    val = deg
                if val < best or (val == best and low < best_low):
                    best, best_low = val, low
        f[S], choice[S] = best, best_low

    order, S = [], full
    while S:
        order.append(choice[S].bit_length())
        S ^= choice[S]
    return f[full], order[::-1]


def treewidth_exact(G: Graph) -> tuple[int, NiceTreeDecomp]:
    """Exact treewidth with a witness nice decomposition, that of
    ``_min_width_order``'s order; exponential in |V|, hence the size cap."""
    n = G.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if n > EXACT_MAX_N:
        raise ValueError(
            f"treewidth_exact handles at most {EXACT_MAX_N} vertices (got {n}); "
            "use a structural decomposition instead")
    width, order = _min_width_order(G)
    nice = _make_nice(_decomp_from_elimination(G, order))
    got = nice.width()
    if got != width:
        raise AssertionError(
            f"witness decomposition width {got} != optimal width {width}")
    return width, nice

