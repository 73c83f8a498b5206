"""Static checks on the package source: no unused import and no private
module-level name that nothing references."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cvbattery"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Identifiers read anywhere in a module: bare names and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_definitions(tree):
    """Module-level private names (one leading underscore, not dunder)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [n for n in out if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    used = _used_names(tree)
    imported = [(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names]
    assert [n for n in imported if n not in used] == []


def test_every_private_name_is_referenced():
    trees = {p.name: _tree(p) for p in MODULES}
    used = set().union(*(_used_names(t) for t in trees.values()))
    unused = [f"{mod}:{name}" for mod, tree in trees.items()
              for name in _private_definitions(tree) if name not in used]
    assert unused == []
