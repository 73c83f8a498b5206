"""scipy's compiled extension modules, loaded from their files.

Importing an extension through its scipy subpackage would run that
package's ``__init__`` first: ``scipy.integrate`` loads scipy.optimize,
scipy.special and more, and ``scipy.sparse`` runs scipy's array-API shim,
which loads numpy.testing and numpy.f2py.  The routes need only the
compiled functions, so ``load_extension`` finds the extension's file in its
scipy directory and executes it there, without importing its package.
"""

import importlib.machinery
import importlib.util
from pathlib import Path

import scipy


def load_extension(name: str):
    """The scipy extension module ``name`` (a dotted name such as
    ``scipy.integrate._odepack``), executed from its file; its package is
    not imported.  ``ImportError`` names the scipy pin if the file is not
    there."""
    package = Path(scipy.__file__).parent.joinpath(*name.split(".")[1:-1])
    spec = importlib.machinery.PathFinder.find_spec(name, [str(package)])
    if spec is None:
        raise ImportError(f"{name} not found in scipy {scipy.__version__}: cvbattery "
                          "needs scipy>=1.17,<1.18")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
