"""Nothing in the package is reached only by the tests.

Every module-level function and class of `src/riscov`, and every method that
is not a dunder, must be named somewhere in the package or in the benchmark
scripts (not the benchmark's tests), or be exported in `riscov.__all__`.  A
name counts as a reference when it appears as a `Name`, as an `Attribute`,
or as a string constant that is exactly that identifier (a `getattr` key).
The benchmark's
"module:attribute" span targets are not identifiers, so a function that only
the tracer names does not count as reached.

Every optional parameter of an underscore-named function or method, and of
any function in `_quad.py`, must be passed, by position or by keyword, by
some call in the package or the benchmark scripts: a default no caller
overrides is a knob only the tests turn.  Public functions are left out, as
their optional parameters are for outside callers.
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


def _functions(tree):
    """(name, whether a method, node) of each module-level function and
    method that is not a dunder."""
    for node in tree.body:
        items = [(node, False)]
        if isinstance(node, ast.ClassDef):
            items = [(item, True) for item in node.body]
        for item, method in items:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))):
                yield item.name, method, item


def _optional(function, method):
    """(position or None, name) of each parameter with a default; the
    position counts from the first argument a call passes, after a
    method's self."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first - method):
        yield i, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passed(call, position, name):
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and (starred or len(call.args) > position)


def test_every_optional_parameter_is_passed_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unpassed = [
        f"{path.stem}.{name}({parameter})"
        for path in PACKAGE
        for name, method, function in _functions(trees[path])
        if name.startswith("_") or path.stem == "_quad"
        for position, parameter in _optional(function, method)
        if not any(_passed(call, position, parameter) for call in calls.get(name, []))
    ]
    assert unpassed == []
