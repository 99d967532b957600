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
    # The public oracle of the flip route; the tests and the benchmark's
    # query-mix check call it.
    "neighbors_bruteforce",
    # A public splice; the tests check it directly and use it as the
    # oracle of the property suite's word splice.
    "insert",
    # argparse calls it on a bad command line.
    "_Parser.error",
}

# Public method names that more than one class defines.  A call x.name
# cannot tell those classes apart, so each name needs its reason here.
SHARED_ON_PURPOSE = {
    # DcmGraph.order: the CLI's graph export and the vertex-count check
    # read it;
    # AlmostPerfectGraph.order: the almost-perfect check reads it.
    "order",
    # DcmGraph.adjacent: certificates, the bipartite witness, the medium
    # structure check and the CLI's graph export read it (the census reads
    # the rows);
    # AlmostPerfectGraph.adjacent: tests/test_graph.py's pairwise oracle
    # reads each row through it.
    "adjacent",
}


# Defaulted parameters that no call in the package passes, each with its
# reason, as "function.parameter" ("Class.method.parameter" for a method).
UNPASSED_ON_PURPOSE = {
    # The tests drive the CLI in process through it.
    "main.argv",
    # The benchmark's verify-k1-10 workload passes both, and the tests
    # pass the session's graph cache.
    "run_checks.names",
    "run_checks.cache",
    # Every build runs in one process and reads no worker count; the
    # keywords stay only because the benchmark's workloads pass them.
    "build_graph.workers",
    "GraphCache.__init__.workers",
    "run_checks.workers",
}


def _uses(node: ast.AST, method: bool) -> Counter:
    # Every use of a name as an attribute (x.name), and for a function or
    # class also as a bare name.  A bare name never calls a method: it is a
    # local or a global of that name.  Imports do not count.
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and not method)
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


def _trees() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))]


def _uncalled(private: bool) -> list[str]:
    # The public or the private definitions that nothing in the package
    # uses.  Dunders are neither: Python calls them.
    trees = _trees()
    used = {
        method: sum((_uses(tree, method) for tree in trees), Counter())
        for method in (False, True)
    }
    return [
        qualified
        for tree in trees
        for qualified, node in _definitions(tree)
        if node.name.startswith("_") == private
        and not (node.name.startswith("__") and node.name.endswith("__"))
        # A definition that only uses itself is still uncalled.
        and used["." in qualified][node.name]
        == _uses(node, "." in qualified)[node.name]
        and qualified not in UNCALLED_ON_PURPOSE
    ]


def test_every_public_function_has_a_caller():
    assert _uncalled(private=False) == []


def test_every_private_function_has_a_caller():
    # A private helper whose only callers are tests is dead code the
    # tests keep alive.
    assert _uncalled(private=True) == []


def test_shared_method_names_are_listed():
    owners = Counter(
        node.name
        for tree in _trees()
        for qualified, node in _definitions(tree)
        if "." in qualified and not node.name.startswith("_")
    )
    assert {name for name, n in owners.items() if n > 1} == SHARED_ON_PURPOSE


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


def _writes_stdout(node: ast.AST) -> bool:
    # A print without file= writes to stdout, and so can any use of the
    # name (sys.stdout, "from sys import stdout").  A print to stderr or to
    # a file stays allowed.
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
        return not any(kw.arg == "file" for kw in node.keywords)
    names = (getattr(node, attr, None) for attr in ("id", "attr", "name"))
    return "stdout" in names


def test_only_the_cli_writes_stdout():
    # The library returns data, and cli alone turns it into output.
    writers = [
        path.name
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _writes_stdout(node)
    ]
    assert writers == []


def test_one_graph_cache_in_the_tests():
    # conftest.py's session fixture is the only GraphCache the tests make,
    # so every graph a test only reads is built once per session.
    tests = Path(__file__).parent
    makers = [
        path.name
        for path in sorted(tests.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "GraphCache"
        in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert makers == ["conftest.py"]


def _defaulted(tree: ast.Module):
    # (qualified parameter, callee name, position) for every defaulted
    # parameter of a public function, public method or __init__.  A call
    # of __init__ names its class, and a method's position leaves out self.
    # A keyword-only parameter has no position.
    for qualified, node in _definitions(tree):
        owner = qualified.rpartition(".")[0]
        if isinstance(node, ast.ClassDef) or (
            node.name.startswith("_") and node.name != "__init__"
        ):
            continue
        callee = owner if node.name == "__init__" else node.name
        args = node.args.posonlyargs + node.args.args
        first = len(args) - len(node.args.defaults)
        for i, arg in enumerate(args[first:], first):
            yield f"{qualified}.{arg.arg}", callee, i - bool(owner)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield f"{qualified}.{arg.arg}", callee, None


def test_every_defaulted_parameter_is_passed():
    # Calls are matched by name only, so a call of another function with
    # the same name counts too.
    trees = _trees()
    calls = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unpassed = [
        qualified
        for tree in trees
        for qualified, callee, position in _defaulted(tree)
        if not any(
            callee in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
            and (
                qualified.rpartition(".")[2] in {kw.arg for kw in c.keywords}
                or position is not None and len(c.args) > position
            )
            for c in calls
        )
        and qualified not in UNPASSED_ON_PURPOSE
    ]
    assert unpassed == []


def test_no_module_starts_processes():
    # Every graph is built in the calling process: no module imports a
    # process or executor pool, or sizes one by the machine's cores.
    starters = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [getattr(node, "module", None) or ""]
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name")}
            if "cpu_count" in names or any(
                m.split(".")[0] in ("multiprocessing", "concurrent") for m in modules
            ):
                starters.append(path.name)
    assert starters == []
