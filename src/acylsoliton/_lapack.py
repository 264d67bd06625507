"""SciPy's LAPACK extension module, without running SciPy's package __init__,
and SHA-256, without loading OpenSSL.

The solvers call four LAPACK routines (dgtsv, dtbtrs, dptsv, dstebz).  They
live in the compiled module scipy.linalg._flapack, but `import scipy.linalg`
also loads SciPy's array-API layer, several times the cost of the extension,
and even `import scipy` pulls in its test utilities.  flapack() finds the
scipy package directory with importlib.util.find_spec, which does not
execute the package, loads the extension from its file under its own name,
and registers it in sys.modules, so that a later `import scipy.linalg`
reuses the same module object.  If the file cannot be loaded it imports the
same module the usual way.  Loading happens on the first call, so code that
solves nothing does not touch SciPy.  scipy_version() reads the version
from scipy/version.py, again without importing SciPy.

sha256_hex() is the same kind of shim for the manifest and report digests:
`import hashlib` loads OpenSSL's libcrypto through _hashlib, about 3.6 MB
of resident memory and a few ms per process, so it takes SHA-256 from
CPython's built-in module (_sha2 from 3.12, _sha256 before), as random.py
does for its SHA-512, and imports hashlib only when neither exists.
"""

import importlib.machinery
import importlib.util
import os
import re
import sys

NAME = "scipy.linalg._flapack"


def _scipy_dir():
    """The scipy package directory, found without importing the package."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("no scipy package")
    return spec.submodule_search_locations[0]


def _load_file():
    """The extension loaded from its file; ImportError when it is not there."""
    stem = os.path.join(_scipy_dir(), "linalg", "_flapack")
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


def scipy_version():
    """SciPy's version string, read from scipy/version.py."""
    with open(os.path.join(_scipy_dir(), "version.py")) as fh:
        return re.search(r"^version = ['\"]([^'\"]+)", fh.read(), re.M).group(1)


def sha256_hex(data):
    """Hex SHA-256 digest of the bytes data, the same string as hashlib's."""
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()
