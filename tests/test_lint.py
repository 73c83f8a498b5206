"""Static checks on the package source: no unused import, no private
module-level name that nothing references, and no import from scipy's private
modules beyond the one the Fock propagator needs."""

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


# The imports from scipy's private modules: the propagator takes its degree
# and step count from scipy and runs its products on scipy's CSR kernel, and
# tests/test_focksim.py pins the result bit for bit to scipy's per-sample
# branch.
ALLOWED_PRIVATE_SCIPY = {
    ("propagate.py", "scipy.sparse._sparsetools", "csr_matvec"),
    ("propagate.py", "scipy.sparse.linalg._expm_multiply", "LazyOperatorNormInfo"),
    ("propagate.py", "scipy.sparse.linalg._expm_multiply", "_fragment_3_1"),
}


def _private_scipy_imports(path):
    """(file, module, name) of every import from a private scipy module."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.module:
            found = [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            found = [(a.name, None) for a in node.names]
        else:
            continue
        out += [(path.name, module, name) for module, name in found
                if module.split(".")[0] == "scipy"
                and any(part.startswith("_") for part in module.split("."))]
    return out


def test_no_private_scipy_import_but_the_propagators():
    found = [imp for path in MODULES for imp in _private_scipy_imports(path)]
    assert [imp for imp in found if imp not in ALLOWED_PRIVATE_SCIPY] == []


def test_private_scipy_import_check_sees_both_forms(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import scipy.sparse._sputils\n"
                    "from scipy.linalg._decomp_qr import qr\n"
                    "from scipy.sparse.linalg import expm_multiply\n")
    assert _private_scipy_imports(path) == [
        ("mod.py", "scipy.sparse._sputils", None),
        ("mod.py", "scipy.linalg._decomp_qr", "qr"),
    ]
