"""Every module under src/hoarun uses each name it imports.

``__init__.py`` is left out, because its imports are the package's
re-exports; an import whose line carries ``# noqa`` is kept on purpose.
"""

import ast
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
