"""Nothing in the package is reached only by the tests.

Every module-level function and class of `src/riscov`, and every method that
is not a dunder, must be named somewhere in the package or in the benchmark
scripts (not the benchmark's tests), or be exported in `riscov.__all__`.  A
name counts as a reference when it appears as a `Name`, as an `Attribute`,
or as a string constant that is exactly that identifier (a `getattr` key).
The benchmark's
"module:attribute" span targets are not identifiers, so a function that only
the tracer names does not count as reached.
"""

import ast
from pathlib import Path

import riscov

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "riscov").glob("*.py"))
# the benchmark's scripts; its own tests reach nothing for the program
BENCH = sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))


def _definitions(tree):
    """(qualified name, bare name) of each function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def test_every_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    exported = set(riscov.__all__)
    unreached = [
        f"{path.stem}.{qualified}"
        for path in PACKAGE
        for qualified, name in _definitions(trees[path])
        if name not in referenced and name not in exported
    ]
    assert unreached == []
