"""SciPy's LAPACK extension module, without importing scipy.linalg.

The solvers call three LAPACK routines (dgtsv, dtbtrs, dstebz).  They live in
the compiled module scipy.linalg._flapack, but `import scipy.linalg` also
loads SciPy's array-API layer, several times the cost of the extension.
flapack() loads the extension from its file next to the scipy package,
under its own name, and registers it in sys.modules, so that a later
`import scipy.linalg` reuses the same module object.  If the file cannot be
loaded it imports the same module the usual way.  Loading happens on the
first call, so code that solves nothing does not import SciPy.
"""

import importlib.machinery
import importlib.util
import os
import sys

NAME = "scipy.linalg._flapack"


def _load_file():
    """The extension loaded from its file; ImportError when it is not there."""
    import scipy

    stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(NAME, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[NAME] = module
            return module
    raise ImportError(f"no extension module {stem}.*")


def flapack():
    """The scipy.linalg._flapack module, loaded on the first call."""
    module = sys.modules.get(NAME)
    if module is None:
        try:
            module = _load_file()
        except ImportError:
            from scipy.linalg import _flapack as module
    return module
