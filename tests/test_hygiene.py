"""Source hygiene: every imported name is read somewhere in its file."""

import ast
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


def test_sources_are_found():
    assert "src/ccss/core.py" in SOURCES
    assert "tests/test_hygiene.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES)
def test_every_import_is_used(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []


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
