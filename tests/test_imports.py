"""Every name a module imports is read somewhere in that module.

An `ast` scan of each module under `src/` and `tests/`: a name bound by an
import statement must appear as a loaded name (the base of an attribute
chain counts) or as a string in `__all__`.  `from __future__` imports and
the package `__init__.py`, whose imports are the package's re-exports, are
not scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_flags_only_names_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import scipy.linalg\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return scipy.linalg.eigh, osp.join\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "pi"), (8, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.relative_to(ROOT)} imports names it never reads: " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )
