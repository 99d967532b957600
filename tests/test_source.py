"""Source-level checks over the package's own modules."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import dcmatch

SOURCE = Path(dcmatch.__file__).parent

# Public functions, classes and methods kept without a caller in the
# package, each with its reason; a method is named "Class.method".  An
# export in __all__ is not a caller.
UNCALLED_ON_PURPOSE = {
    # The paper's formula for the big component's order;
    # tests/test_graph.py checks it against the census.
    "big_component_order",
    # The paper's formula for a paired matching's one neighbor;
    # tests/test_families.py checks it against the flip neighbors.
    "db_partner",
    # The library entry point README shows; the benchmark's query-mix
    # workload calls it once per query.
    "classify",
    # Symmetry oracles: the tests check equivariance and orbit tables
    # against them.
    "rotate",
    "reflect",
    # argparse calls it on a bad command line.
    "_Parser.error",
}


def _names(node: ast.AST) -> Counter:
    # Every use of a name, bare or as an attribute; imports do not count.
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(tree: ast.Module):
    # Module-level functions and classes by name, and the methods of every
    # class, public or not, as "Class.method".
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_every_public_function_has_a_caller():
    trees = [ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))]
    used = sum((_names(tree) for tree in trees), Counter())
    uncalled = [
        qualified
        for tree in trees
        for qualified, node in _definitions(tree)
        # Dunders start with "_" too; Python calls them.
        if not node.name.startswith("_")
        # A definition that only uses itself is still uncalled.
        and used[node.name] == _names(node)[node.name]
        and qualified not in UNCALLED_ON_PURPOSE
    ]
    assert uncalled == []


def test_every_import_is_used():
    # __init__ imports names only to export them.
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []
