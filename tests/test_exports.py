"""Every function the package exports is used outside the tests.

A use is a name, attribute or exact string (the traced benchmark lists its
functions by name) in `src/` other than the package `__init__`, or anywhere
in `benchmarks/` or `demos/`.  A definition or an import is not a use, so a
function kept only for its own tests fails here.
"""

import ast
import inspect
from pathlib import Path

import symbidisc

ROOT = Path(__file__).resolve().parents[1]


def _used_names() -> set:
    files = [f for f in (ROOT / "src" / "symbidisc").glob("*.py") if f.name != "__init__.py"]
    files += list((ROOT / "benchmarks").glob("*.py")) + list((ROOT / "demos").glob("*.py"))
    names = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_exported_function_is_used_outside_tests():
    exported = [
        name for name, obj in vars(symbidisc).items()
        if inspect.isfunction(obj) and not name.startswith("_")
    ]
    assert exported
    unused = sorted(set(exported) - _used_names())
    assert not unused, f"exported but used only by tests: {unused}"
