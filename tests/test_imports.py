"""Every name a module imports is used by that module, every private
top-level name of the package is read somewhere in the package, and
importing the package loads no process pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satura

SOURCES = sorted(Path(satura.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport sys as system\nfrom a import b, c as d\nos.sep\nd()\n"
    assert unused_imports(source) == [(2, "system"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unread_private_names(sources: dict):
    """(module, line, name) for each private top-level function, class or
    assignment of the {module: source} map that no module reads: by name,
    as an attribute, or by importing it."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, n) for n in names if _is_private(n)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_unread_private_names_are_found():
    sources = {"a": "def _used(): pass\ndef _dead(): pass\n_X = 1\n_Y = 2\n"
                    "class _Gone: pass\n__all__ = []\n",
               "b": "from a import _used\nimport a\na._X\n_Z = 3\n"}
    assert unread_private_names(sources) == [
        ("a", 2, "_dead"), ("a", 4, "_Y"), ("a", 5, "_Gone"), ("b", 4, "_Z")]


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert unread_private_names(sources) == []


def test_import_loads_no_process_pool():
    # only a pooled trial batch needs multiprocessing, which would slow
    # every import
    src = str(Path(satura.__file__).parents[1])
    code = "import sys, satura; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
