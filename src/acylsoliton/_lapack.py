"""The LAPACK provider of the solvers, chosen here alone, and SHA-256
without loading OpenSSL.

The solvers call four LAPACK routines (dgtsv, dtbtrs, dptsv, dstebz), each
through the method of the same name of provider(), one signature per
routine whichever library serves it:

    dgtsv(sub, diag, sup, rhs)        -> (u, info), the inputs left intact
    dtbtrs(ab, b)                     -> (x, info), lower band, b overwritten
    dptsv(d, e, b)                    -> (x, info), d and e left intact
    dstebz(d, e, range, vl, vu, il, iu) -> (m, w, info), range "V" or "I",
                                         ABSTOL = 0, ORDER = "E"

solved() checks what dgtsv and dtbtrs return, raising SingularSystem for a
singular matrix, an illegal argument or a non-finite solution.

The first choice is the OpenBLAS that numpy's wheels link, which
`import numpy` has already mapped: it exports the LAPACK routines with
64-bit integers as scipy_<name>_64_.  They are bound with ctypes, which
numpy imports too, so choosing them loads nothing.  The handle is numpy's
core extension module; dlsym on it also searches the libraries it links,
so the path of the BLAS library itself is never needed.  The binding
copies what SciPy's f2py wrappers copy (dgtsv's rows, which solve_mode
reads after the solve, and dptsv's d and e, which dstebz reads after it),
passes gfortran's hidden size_t lengths of the CHARACTER arguments, and
maps dstebz's outputs and workspace from the system (_lazy_zeros), so the
pages bisection never writes never become resident.

The second choice, taken only when numpy's core extension, the library or
any of the four symbols is missing (a numpy built against Accelerate, MKL
or a system BLAS), is SciPy's compiled scipy.linalg._flapack, imported the
usual way.  Both choices give the same bits on the grids of the tests.
The provider is chosen on the first call of provider(), so code that
solves nothing loads neither; chosen() reports it without choosing, and
its name (the OpenBLAS configuration string, or "scipy <version>") is
what the manifest records.

sha256_hex() keeps another library out of the process, for the manifest
digests: `import hashlib` loads OpenSSL's libcrypto through
_hashlib, about 3.6 MB of resident memory and a few ms per process, so it
takes SHA-256 from CPython's built-in module (_sha2 from 3.12, _sha256
before), as random.py does for its SHA-512, and imports hashlib only when
neither exists.
"""

import ctypes

import numpy as np

from .errors import SingularSystem

_INT, _DOUBLE, _PTR, _LEN = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_size_t
_INT_P, _DOUBLE_P = ctypes.POINTER(_INT), ctypes.POINTER(_DOUBLE)


def _ints(*values):
    return [ctypes.byref(_INT(v)) for v in values]


def _lazy_zeros(size, dtype):
    """An array of size zeros in an anonymous mapping of its own, whose pages
    become resident only when written.  numpy advises transparent huge pages
    for arrays of 4 MiB and more, and then each of the few scattered entries
    that bisection writes in its workspace makes a whole 2 MiB page resident."""
    import mmap  # only the processes that call dstebz load it

    return np.frombuffer(mmap.mmap(-1, size * np.dtype(dtype).itemsize), dtype)


def _symbol(lib, name, *argtypes):
    function = getattr(lib, f"scipy_{name}_64_")  # AttributeError when missing
    function.argtypes, function.restype = argtypes, None
    return function


class _OpenBLAS:
    """The ILP64 routines of the OpenBLAS linked by numpy, through ctypes."""

    def __init__(self, lib):
        self._gtsv = _symbol(lib, "dgtsv", *[_INT_P] * 2, *[_PTR] * 4, _INT_P, _INT_P)
        self._tbtrs = _symbol(lib, "dtbtrs", *[ctypes.c_char_p] * 3, *[_INT_P] * 3, _PTR,
                              _INT_P, _PTR, _INT_P, _INT_P, *[_LEN] * 3)
        self._ptsv = _symbol(lib, "dptsv", *[_INT_P] * 2, *[_PTR] * 3, _INT_P, _INT_P)
        self._stebz = _symbol(lib, "dstebz", *[ctypes.c_char_p] * 2, _INT_P, *[_DOUBLE_P] * 2,
                              *[_INT_P] * 2, _DOUBLE_P, *[_PTR] * 2, *[_INT_P] * 2,
                              *[_PTR] * 5, _INT_P, *[_LEN] * 2)
        config = lib.scipy_openblas_get_config64_
        config.argtypes, config.restype = (), ctypes.c_char_p
        self.name = config().decode()

    def dgtsv(self, sub, diag, sup, rhs):
        dl, d, du, b = (np.array(x, dtype=np.float64) for x in (sub, diag, sup, rhs))
        info = _INT()
        n = len(d)
        self._gtsv(*_ints(n, 1), dl.ctypes.data, d.ctypes.data, du.ctypes.data,
                   b.ctypes.data, *_ints(n), ctypes.byref(info))
        return b, info.value

    def dtbtrs(self, ab, b):
        ab = np.require(ab, np.float64, "F")
        b = np.require(b, np.float64, ["F", "W"])
        info = _INT()
        (ldab, n), nrhs = ab.shape, b.shape[1]
        self._tbtrs(b"L", b"N", b"N", *_ints(n, ldab - 1, nrhs), ab.ctypes.data,
                    *_ints(ldab), b.ctypes.data, *_ints(max(1, b.shape[0])),
                    ctypes.byref(info), 1, 1, 1)
        return b, info.value

    def dptsv(self, d, e, b):
        d, e = np.array(d, dtype=np.float64), np.array(e, dtype=np.float64)
        b = np.require(b, np.float64, ["F", "W"])
        info = _INT()
        n = len(d)
        self._ptsv(*_ints(n, 1), d.ctypes.data, e.ctypes.data, b.ctypes.data, *_ints(n),
                   ctypes.byref(info))
        return b, info.value

    def dstebz(self, d, e, range, vl, vu, il, iu):
        d, e = np.require(d, np.float64, "C"), np.require(e, np.float64, "C")
        n = len(d)
        m, nsplit, info = _INT(), _INT(), _INT()
        w, work = _lazy_zeros(n, np.float64), _lazy_zeros(4 * n, np.float64)
        iblock, isplit, iwork = (_lazy_zeros(k * n, np.int64) for k in (1, 1, 3))
        self._stebz(range.encode(), b"E", *_ints(n), ctypes.byref(_DOUBLE(vl)),
                    ctypes.byref(_DOUBLE(vu)), *_ints(il, iu), ctypes.byref(_DOUBLE(0.0)),
                    d.ctypes.data, e.ctypes.data, ctypes.byref(m), ctypes.byref(nsplit),
                    w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data,
                    iwork.ctypes.data, ctypes.byref(info), 1, 1)
        return m.value, w, info.value


class _SciPy:
    """The same four routines from SciPy's f2py wrappers."""

    RANGES = {"V": 1, "I": 2}

    def __init__(self):
        import scipy
        from scipy.linalg import _flapack

        self._flapack = _flapack
        self.name = f"scipy {scipy.__version__}"

    def dgtsv(self, sub, diag, sup, rhs):
        *_, u, info = self._flapack.dgtsv(sub, diag, sup, rhs)
        return u, info

    def dtbtrs(self, ab, b):
        return self._flapack.dtbtrs(ab, b, uplo="L", overwrite_b=True)

    def dptsv(self, d, e, b):
        *_, x, info = self._flapack.dptsv(d, e, b, overwrite_b=True)
        return x, info

    def dstebz(self, d, e, range, vl, vu, il, iu):
        m, w, _, _, info = self._flapack.dstebz(d, e, self.RANGES[range], vl, vu, il, iu,
                                                0.0, "E")
        return m, w, info


_provider = None


def _numpy_core():
    """The file of numpy's core extension module, which links numpy's BLAS."""
    from numpy._core import _multiarray_umath

    return _multiarray_umath.__file__


def provider():
    """The LAPACK provider of this process, chosen on the first call: numpy's
    OpenBLAS when it has the four routines, else SciPy's extension module."""
    global _provider
    if _provider is None:
        try:
            _provider = _OpenBLAS(ctypes.CDLL(_numpy_core()))
        except (ImportError, OSError, AttributeError):  # no such module, library or symbol
            _provider = _SciPy()
    return _provider


def solved(x, info, routine):
    """x, the solution LAPACK's d<routine> returned with info; raises SingularSystem
    when info reports a singular matrix or an illegal argument, or x is not finite."""
    if info:
        raise SingularSystem("singular matrix" if info > 0
                             else f"illegal value in argument {-info} of LAPACK {routine}")
    if not (np.isfinite(np.min(x)) and np.isfinite(np.max(x))):  # nan reaches both
        raise SingularSystem("non-finite solution; check boundary policy and weights")
    return x


def chosen():
    """The provider, or None when nothing in this process has called LAPACK."""
    return _provider


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
