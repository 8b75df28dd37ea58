"""Every name a module imports is read somewhere in that module, and every
private module-level name in `src/` is read somewhere in `src/`.

An `ast` scan of each module under `src/` and `tests/`: a name bound by an
import statement must appear as a loaded name (the base of an attribute
chain counts) or as a string in `__all__`.  `from __future__` imports and
the package `__init__.py`, whose imports are the package's re-exports, are
not scanned.  A private (leading underscore) function, class or constant
defined at module level in `src/` must be loaded, taken as an attribute or
imported by some `src/` module outside its own definition; a name that only
tests read belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)
SOURCES = sorted((ROOT / "src").rglob("*.py"))


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


def _private_definitions(stmt) -> set:
    """Private names a module-level statement defines (dunders excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {
            node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)
        }
    else:
        return set()
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level definition in
    ``sources`` (module name -> source) that no module reads outside it."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _private_definitions(stmt)
            defined.extend((module, stmt.lineno, name) for name in sorted(own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:
                    read.add(name)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_private_scan_flags_only_definitions_never_read():
    sources = {
        "a": (
            "import b\n"
            "_A, _B = 1, 2\n"
            "def _recurse(n):\n"
            "    return _recurse(n - 1)\n"
            "class _Unused:\n"
            "    _attr = _A\n"
            "def public():\n"
            "    return b._g()\n"
            "__all__ = ['public']\n"
        ),
        "b": "from a import _B\ndef _g():\n    return 1\n_H: int = 3\n",
    }
    assert unread_private_names(sources) == [
        ("a", 3, "_recurse"), ("a", 5, "_Unused"), ("b", 4, "_H"),
    ]


def test_every_private_src_name_is_read_in_src():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in SOURCES}
    unread = unread_private_names(sources)
    assert not unread, "private names no src module reads: " + ", ".join(
        f"{module}:{line} {name}" for module, line, name in unread
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.relative_to(ROOT)} imports names it never reads: " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )
