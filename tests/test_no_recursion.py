"""Every walker in the package is a loop: no function calls itself.

A recursive walk over a deep tree or a long derivation fails at the
interpreter's stack limit where a loop does not.  The lint flags a
function that calls its own name, and a method that calls
``self.<its name>`` or ``cls.<its name>``.
"""

import ast
from pathlib import Path

import pytest

import narmaxtag

SOURCES = sorted(Path(narmaxtag.__file__).parent.glob("*.py"))


def recursive_calls(source: str) -> list[str]:
    """``name:line`` of every call a function makes to itself."""
    tree = ast.parse(source)
    methods = {
        id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body
    }
    hits = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if id(func) in methods:
                own = (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == func.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in ("self", "cls")
                )
            else:
                own = isinstance(callee, ast.Name) and callee.id == func.name
            if own:
                hits.append(f"{func.name}:{call.lineno}")
    return hits


def test_sources_are_found():
    assert {"generate.py", "treeio.py", "trees.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_calls_itself(path):
    assert recursive_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, hits",
    [
        ("def walk(t):\n    return [walk(k) for k in t]\n", ["walk:2"]),
        ("def walk(t):\n    def step(k):\n        return walk(k)\n", ["walk:3"]),
        ("class T:\n    def size(self):\n        return 1 + self.size()\n", ["size:3"]),
        ("class T:\n    @classmethod\n    def make(cls):\n        return cls.make()\n",
         ["make:4"]),
        ("class T(B):\n    def __init__(self):\n        super().__init__()\n", []),
        ("class S:\n    def match(self, pattern):\n        return pattern.match('')\n", []),
        ("def structure(model):\n    return model.structure()\n", []),
    ],
)
def test_lint_tells_recursion_apart(source, hits):
    assert recursive_calls(source) == hits
