"""Static dead-code checks over the package source, with the standard library's ast.

Every module but __init__ (whose imports are the public names) uses each name
it imports, and every private module-level name (a leading underscore) is
referenced somewhere in the package other than where it is defined.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liouville_workbench"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def unused_imports(tree):
    """Names a module imports and never loads (from __future__ excluded)."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in loaded)


def private_definitions(tree):
    """Module-level private names a module defines, with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                out.update({n.id: node.lineno for n in ast.walk(t) if isinstance(n, ast.Name)})
    return {k: v for k, v in out.items() if k.startswith("_") and not k.startswith("__")}


def references(tree):
    """Every name a module loads, reads as an attribute, or imports from a sibling."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs.update(a.name for a in n.names)
    return refs


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_no_unused_imports(module):
    assert unused_imports(TREES[module]) == []


def test_every_private_name_is_referenced():
    referenced = set().union(*map(references, TREES.values()))
    unreferenced = sorted(f"{module}:{line} {name}" for module, tree in TREES.items()
                          for name, line in private_definitions(tree).items()
                          if name not in referenced)
    assert unreferenced == []


def test_the_checks_catch_what_they_look_for():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import pi, tau\n"
                     "_LIMIT = 3\n_used = 1\n\ndef _helper():\n    return np.pi + tau + _used\n")
    assert unused_imports(tree) == [(1, "os"), (3, "pi")]
    assert sorted(set(private_definitions(tree)) - references(tree)) == ["_LIMIT", "_helper"]
