"""The package holds only what a production path reaches.

Scanned with ``ast`` over ``src/hardylab/*.py``: every module-level import
is used, every module-level function and class is referenced from the
package outside its own body, and the package imports only the standard
library, numpy and itself.  Test-only oracles live under ``tests/``.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hardylab"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def names_used(nodes) -> set:
    return {node.id for tree in nodes for node in ast.walk(tree)
            if isinstance(node, ast.Name)}


def module_imports(tree):
    """(bound name, module) for each module-level import; module is None
    for a relative import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom):
            module = None if node.level else node.module
            for alias in node.names:
                yield alias.asname or alias.name, module


def unreferenced_definitions() -> list:
    """module:name of each module-level function or class that no other
    top-level statement of the package names."""
    users: dict = {}  # name -> the top-level statements that use it
    for tree in MODULES.values():
        for stmt in tree.body:
            for name in names_used([stmt]):
                users.setdefault(name, []).append(stmt)
    return [f"{module}:{node.name}" for module, tree in MODULES.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and all(stmt is node for stmt in users.get(node.name, []))]


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_used(module):
    # __init__.py imports the public API to re-export it
    tree = MODULES[module]
    used = names_used(stmt for stmt in tree.body
                      if not isinstance(stmt, (ast.Import, ast.ImportFrom)))
    unused = [bound for bound, origin in module_imports(tree)
              if bound not in used and origin != "__future__"]
    assert unused == []


def test_every_definition_referenced():
    assert unreferenced_definitions() == []


def test_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "hardylab"}
    foreign = sorted({f"{name}: {origin}" for name, tree in MODULES.items()
                      for node in ast.walk(tree) for origin in import_roots(node)
                      if origin not in allowed})
    assert foreign == []


def import_roots(node):
    """Top-level package of each absolute import in ``node``; nested imports
    count too."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module.split(".")[0]]
    return []
