"""No definition silently replaces another: a guard over ``src/``, ``tests/`` and ``benchmarks/``.

A module or class body that defines one function or class name twice
keeps only the second.  In a test file that is a test that never runs:
a counted floor replaced by its wall-clock twin of the same name reads
green while gating nothing.  This is the F811 (redefinition) class of
bug that CI's ``ruff check`` catches; this pass makes it a tier-1 gate
that needs nothing beyond ``ast``.

What may legitimately share a name in one body is left alone: a
property's ``@x.setter``/``@x.getter``/``@x.deleter``, ``@overload``
stubs, and ``@f.register`` implementations (conventionally all ``_``).
Only direct children of a body count — a ``def`` under ``if``/``try``
is a deliberate alternative, not a shadow.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROOTS = (REPO / "src", REPO / "tests", REPO / "benchmarks")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_REDEFINING_DECORATORS = {"setter", "getter", "deleter", "register", "overload"}


def _redefines_on_purpose(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name in _REDEFINING_DECORATORS:
            return True
    return False


def shadowed(source: str, filename: str = "<source>") -> list[str]:
    """``file:line: name`` for every def or class a later one of the
    same name replaces in the same module or class body."""
    tree = ast.parse(source, filename)
    found = []
    bodies = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for body in bodies:
        first: dict[str, ast.AST] = {}
        for node in body.body:
            if not isinstance(node, _DEFS) or _redefines_on_purpose(node):
                continue
            if node.name in first:
                found.append(
                    f"{filename}:{node.lineno}: {node.name} replaces the one on line "
                    f"{first[node.name].lineno}"
                )
            first[node.name] = node
    return found


def test_no_module_or_class_defines_a_name_twice():
    files = sorted(p for root in ROOTS for p in root.rglob("*.py"))
    assert len(files) > 100
    found = [
        line
        for path in files
        for line in shadowed(path.read_text(encoding="utf-8"), str(path.relative_to(REPO)))
    ]
    assert not found, "\n".join(found)


def test_the_guard_sees_a_test_replaced_by_its_twin():
    source = (
        "class TestFloors:\n"
        "    def test_counted(self):\n"
        "        assert calls <= 2\n"
        "    def test_counted(self):\n"
        "        assert seconds < 5\n"
        "def helper(): pass\n"
        "async def helper(): pass\n"
    )
    assert sorted(shadowed(source, "t.py")) == [
        "t.py:4: test_counted replaces the one on line 2",
        "t.py:7: helper replaces the one on line 6",
    ]


def test_a_property_setter_and_a_guarded_def_are_not_shadows():
    source = (
        "import sys\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    @size.setter\n"
        "    def size(self, value): pass\n"
        "if sys.platform == 'win32':\n"
        "    def path(): return 'a'\n"
        "else:\n"
        "    def path(): return 'b'\n"
    )
    assert shadowed(source) == []
