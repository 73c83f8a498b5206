"""Static checks on the package source: no unused import, no private
module-level name that nothing references, no import from scipy's private
modules (by an import statement or by name) but exactly those the Fock
propagator and the cumulant route's LSODA need, no caller of that propagator
but ``focksim``, and every per-layer time and call count that the benchmark
names still traced."""

import ast
import json
import re
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cvbattery"
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


# The imports from scipy's private modules and the strings that name one:
# the propagator runs its products on scipy's CSR kernels, loaded from their
# file; tests/test_focksim.py pins its degree selection where condition
# (3.13) holds and its Taylor loop bit for bit to scipy's.  The cumulant
# route loads LSODA's extension from its file, and tests/test_cumulant.py
# pins its states bit for bit to the public odeint.
ALLOWED_PRIVATE_SCIPY = {
    ("propagate.py", "scipy.sparse._sparsetools", None),
    ("cumulant.py", "scipy.integrate._odepack", None),
}


def _is_private_scipy(module):
    parts = module.split(".")
    return parts[0] == "scipy" and any(part.startswith("_") for part in parts)


def _private_scipy_imports(path):
    """(file, module, name) of every import from a private scipy module, and
    (file, module, None) of every string constant that names one, as a
    module loaded by its name would."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.module:
            found = [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            found = [(a.name, None) for a in node.names]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)+", node.value)):
            found = [(node.value, None)]
        else:
            continue
        out += [(path.name, module, name) for module, name in found
                if _is_private_scipy(module)]
    return out


def test_no_private_scipy_import_but_the_propagators():
    # exactly the allowed set: a name that leaves the package leaves the list
    found = [imp for path in MODULES for imp in _private_scipy_imports(path)]
    assert [imp for imp in found if imp not in ALLOWED_PRIVATE_SCIPY] == []
    assert set(found) == ALLOWED_PRIVATE_SCIPY


def test_private_scipy_import_check_sees_both_forms(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import scipy.sparse._sputils\n"
                    "from scipy.linalg._decomp_qr import qr\n"
                    "from scipy.sparse.linalg import expm_multiply\n")
    assert _private_scipy_imports(path) == [
        ("mod.py", "scipy.sparse._sputils", None),
        ("mod.py", "scipy.linalg._decomp_qr", "qr"),
    ]


def test_private_scipy_import_check_sees_a_module_named_by_a_string(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("spec = find_spec('scipy.integrate._quadpack', path)\n"
                    "name = 'scipy.integrate'\n"
                    "note = 'scipy.integrate._quadpack is private'\n")
    assert _private_scipy_imports(path) == [("mod.py", "scipy.integrate._quadpack", None)]


def _imports_the_propagator(path):
    """Whether a module of the package imports ``cvbattery.propagate`` or a
    name from it, in any form."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            found = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["cvbattery" if node.level else "", node.module]))
            found = [module] + [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        if "cvbattery.propagate" in found:
            return True
    return False


def test_only_focksim_imports_the_propagator():
    # expm_multiply takes the float64 CSR operator and float64 start that
    # focksim.evolve builds and checks neither, so evolve stays its caller
    assert [p.name for p in MODULES if _imports_the_propagator(p)] == ["focksim.py"]


@pytest.mark.parametrize("text,found", [
    ("from .propagate import expm_multiply\n", True),
    ("from . import propagate\n", True),
    ("import cvbattery.propagate\n", True),
    ("from cvbattery.propagate import csr_matvec\n", True),
    ("from .focksim import evolve\nfrom . import linear\n", False),
])
def test_propagator_import_check_sees_every_form(tmp_path, text, found):
    path = tmp_path / "mod.py"
    path.write_text(text)
    assert _imports_the_propagator(path) == found


def test_benchmark_layer_names_are_traced():
    # a public function that BENCHMARK.json times or counts, removed or
    # renamed, fails here and not only in perfbench/run.py --self-check; the
    # tracer is read and run from its source, so nothing is written beside it
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    traced = tracer.Tracer()
    traced.install()
    try:
        produced = traced.layer_metrics([])
    finally:
        traced.uninstall()
    assert [n for n in names if n.endswith((".calls", ".s")) and n not in produced] == []
