"""Every module under src/hoarun uses each name it imports, and every
private function, method and class it defines is named somewhere else.

``__init__.py`` is left out of the import check, because its imports are
the package's re-exports; an import whose line carries ``# noqa`` is kept
on purpose.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hoarun"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = "import os\nimport re  # noqa: F401\nfrom a.b import c, d as e\nprint(os.sep, e)\n"
    assert unused_imports(source) == ["line 3: c"]


def _names(tree) -> Counter:
    """How often each name is read, as a name, an attribute, an imported
    name or a string constant, in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Functions, methods and classes named ``_x`` (dunders aside) in
    ``sources``, a map of file names to text, that no code outside their
    own body names."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == _names(node)[node.name]
    ]


def test_no_unused_private_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unused_private_definitions(sources) == []


def test_unused_private_definitions_are_found():
    sources = {
        "a.py": "def _used(): pass\ndef _gone(n): return _gone(n - 1)\n"
        "class _Box:\n    def __init__(self): self._take()\n"
        "    def _take(self): pass\n    def _left(self): pass\n    def __hidden(self): pass\n",
        "b.py": "from a import _used\nprint(getattr(object, '_Box'))\n",
    }
    found = unused_private_definitions(sources)
    assert found == ["a.py:2: _gone", "a.py:6: _left", "a.py:7: __hidden"]
