"""Source hygiene: every imported name, plain local and parameter is read,
and every name the benchmark's tracer rebinds exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/ccss", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, in order of import.

    A name listed in `__all__` counts as read, and `from __future__`
    imports are directives, not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read.update(
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read
    ]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func: ast.FunctionDef):
    """The nodes of a function body, not descending into nested scopes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _names_read(func) -> set[str]:
    """Every name a function reads, nested functions included."""
    return {
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def dead_locals(source: str) -> list[str]:
    """Function locals a plain `name = ...` binds and nothing reads.

    A read anywhere in the function counts, nested functions included.
    Tuple-unpacking targets, `_` names and names declared `global` or
    `nonlocal` are exempt.  An augmented assignment (`n += 1`) is not a read.
    """
    found: list[tuple[int, str]] = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = _names_read(func)
        bound: dict[str, int] = {}
        for node in _own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        bound.setdefault(target.id, node.lineno)
        found += [(line, name) for name, line in bound.items() if name not in read]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def unread_parameters(source: str) -> list[str]:
    """Function parameters that nothing in the function reads.

    A read anywhere in the function counts, nested functions included.
    `self`, `cls` and `_` names are exempt.
    """
    found: list[tuple[int, str]] = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        read = _names_read(func)
        args = func.args
        found += [
            (func.lineno, arg.arg)
            for arg in (
                *args.posonlyargs,
                *args.args,
                args.vararg,
                *args.kwonlyargs,
                args.kwarg,
            )
            if arg is not None
            and arg.arg not in read
            and arg.arg not in ("self", "cls")
            and not arg.arg.startswith("_")
        ]
    found.sort(key=lambda item: item[0])
    return [f"line {line}: {name}" for line, name in found]


def test_sources_are_found():
    assert "src/ccss/core.py" in SOURCES
    assert "tests/test_hygiene.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES)
def test_every_import_is_used(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES)
def test_every_local_is_read(path):
    assert dead_locals((ROOT / path).read_text(encoding="utf-8")) == []


# Tests are left out: their fakes take a signature's parameters unread.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.startswith("src/")])
def test_every_parameter_is_read(path):
    assert unread_parameters((ROOT / path).read_text(encoding="utf-8")) == []


def test_the_scan_sees_what_it_should():
    source = """\
from __future__ import annotations
import os
import os.path as osp
from a import b, c as d
from e import f, g
from h import i
__all__ = ["f"]
def k(x: i) -> None:
    g.attribute
"""
    assert unused_imports(source) == [
        "line 2: os",
        "line 3: osp",
        "line 4: b",
        "line 4: d",
    ]


def test_the_dead_local_scan_sees_what_it_should():
    source = """\
counter = 0
def f(items):
    global counter
    counter = 1
    unused = len(items)
    chained = also_unused = 2
    first, rest = items[0], items[1:]
    _ignored = 3
    used = 4
    total = 0
    total += used
    def inner():
        nonlocal used
        used = 5
        late = 6
        return chained
    return inner
class C:
    attribute = 7
"""
    assert dead_locals(source) == [
        "line 5: unused",
        "line 6: also_unused",
        "line 10: total",
        "line 15: late",
    ]


def test_the_unread_parameter_scan_sees_what_it_should():
    source = """\
def f(used, unused, *rest, key, _private, **extra):
    def inner(late):
        return used + key
    return inner
class C:
    def method(self, value):
        return self
    @classmethod
    def build(cls, *, flag=None):
        return cls()
handler = lambda event, context: event
"""
    assert unread_parameters(source) == [
        "line 1: unused",
        "line 1: rest",
        "line 1: extra",
        "line 2: late",
        "line 6: value",
        "line 9: flag",
        "line 11: context",
    ]


def traced_bindings() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of `perfbench/spans.py`'s BINDINGS.

    Read from the source, so the benchmark itself is not imported.
    """
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py assigns no BINDINGS")


def test_traced_names_resolve():
    # A traced benchmark run rebinds each name with getattr, so a name that
    # moves or goes would only fail there.
    bindings = traced_bindings()
    assert ("ccss.conformance", "normalize") in bindings
    missing = [
        f"{module}.{attr}"
        for module, attr in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
