"""The independent routes stay independent, read from the source with ``ast``.

``oracles.py`` takes from homforge only the parsed instance types, and the
hom references in ``brute.py`` reach neither the compiler nor the hom
search, directly or through another ``brute.py`` function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import homforge

SRC = Path(homforge.__file__).parent
BRUTE = Path(__file__).with_name("brute.py")

# the brute.py functions that the hom search and the compiler are checked against
HOM_REFERENCES = ("is_homomorphism", "distances", "count_homs", "hom_poly_oracle",
                  "complete_assignment", "ball_rings")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def homforge_modules(tree: ast.Module) -> set[str]:
    """The homforge modules a module inside the package imports from."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.add(node.module or "")
            elif node.module and node.module.split(".")[0] == "homforge":
                found.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            found.update(a.name.partition(".")[2] for a in node.names
                         if a.name.split(".")[0] == "homforge")
    return found


def names_used(node: ast.AST) -> set[str]:
    """Every bare name and attribute name read under node."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_oracles_import_only_the_instance_types():
    assert homforge_modules(parse(SRC / "oracles.py")) == {"formulas", "graphs"}


def test_brute_hom_references_reach_neither_compiler_nor_search():
    compiler = {node.name for node in parse(SRC / "compiler.py").body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    forbidden = compiler | {"compiler", "enumerate_homs", "has_hom", "is_rigid",
                            "are_incomparable"}
    tree = parse(BRUTE)
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(HOM_REFERENCES) <= set(defs)
    # the references and every brute.py function they name, transitively
    reached, todo = set(), list(HOM_REFERENCES)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in names_used(defs[name]) if n in defs]
    for name in sorted(reached):
        assert not names_used(defs[name]) & forbidden, name
    assert "compiler" not in homforge_modules(tree)
