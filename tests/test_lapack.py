"""The LAPACK calls give SciPy's bits and keep SciPy's checks from either
provider, numpy's OpenBLAS or SciPy's extension module; the built-in SHA-256
gives hashlib's digests."""

import dataclasses
import hashlib
import json
import pathlib
import re
import sys
import types

import numpy as np
import pytest
import scipy.linalg

import acylsoliton as ak
from acylsoliton import _lapack, continuity, diagnostics, drift
from acylsoliton.cli import parse_config
from acylsoliton.continuity import ContinuityConfig, _RadialNewton
from conftest import fresh_residual
from acylsoliton.diagnostics import _lowest_bracket, _lowest_eigenvalue, _poincare_matrix

ROOT = pathlib.Path(__file__).resolve().parents[1]
NUMBERS = {"two": 2, "three": 3, "four": 4, "five": 5, "six": 6}
LADDER = (1e-2, 1e-3, 1e-4)
GRIDS = {"cigar": (-12.0, 20.0), "cylinder": (0.0, 20.0), "glued": (-12.0, 20.0)}
MODELS = {"cigar": ak.cigar_model(2), "cylinder": ak.cylinder_model(1),
          "glued": ak.glued_model(ak.cigar_model(2))}


# the provider the solvers use here, and SciPy's f2py wrappers of the same routines
PROVIDERS = {"chosen": _lapack.provider(), "scipy": _lapack._SciPy()}
OPENBLAS = isinstance(PROVIDERS["chosen"], _lapack._OpenBLAS)
needs_openblas = pytest.mark.skipif(not OPENBLAS, reason="numpy links no scipy-openblas64")


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def mode_problem(kind, h):
    """The radial mode problem: Neumann center for the cigar, Dirichlet for the cylinder."""
    t_min, t_max = GRIDS[kind]
    rhs = ak.GridFunction.sample(lambda t: np.exp(-1.5 * t) * np.clip(t / 2, 0, 1) ** 4,
                                 t_min, t_max, h)
    return ak.ModeProblem(model=MODELS[kind], mu=0.0, rhs=rhs)


def newton_system(kind, h):
    """The Newton step at s = 1 from half the manufactured potential, as
    (v, dv, sub, sup, rhs): interior rows sup_i dv_i - sub_i dv_{i-1} = rhs_i."""
    grid = GRIDS[kind] + (h,)
    model = MODELS[kind]
    psi = ak.manufactured_potential(grid)
    forcing = ak.ma_residual_radial(model, psi, None, 0.0)
    newton = _RadialNewton(model, forcing, ContinuityConfig())
    v = 0.5 * np.diff(psi.values)
    it = fresh_residual(newton, v, forcing.values[1:-1])  # s = 1
    dv = newton._newton_step(it)
    a_phi = newton.a[1:-1] + (v[1:] - v[:-1]) / (2.0 * h**2)
    sub, sup = 1.0 / h**2 - a_phi / h, 1.0 / h**2 + a_phi / h
    return v, dv, sub, sup, -2.0 * a_phi * it.r


def assert_solves_match(problem):
    """solve_mode has the bits of solve_banded on the (1,1) band array of its rows."""
    sub, diag, sup, b = drift._mode_rows(problem)
    ab = np.zeros((3, len(diag)))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    expected = scipy.linalg.solve_banded((1, 1), ab, b)
    assert same_bits(ak.solve_mode(problem).values, expected)


def assert_cigar_march_matches(h):
    """The head-plus-march step equals solve_banded on the same (1,1) system:
    the Neumann row 3 dv_0 - dv_1 = v_1 - 3 v_0 above the interior rows."""
    v, dv, sub, sup, rhs = newton_system("cigar", h)
    ab = np.zeros((3, len(v)))
    ab[0, 1], ab[1, 0], ab[2, :-1] = -1.0, 3.0, -sub
    ab[1, 1:] = sup
    expected = scipy.linalg.solve_banded((1, 1), ab, np.append(v[1] - 3.0 * v[0], rhs))
    assert np.max(np.abs(dv - expected)) <= 1e-11 * np.max(np.abs(expected))


def assert_poincare_matches(kind, h):
    """poincare_rayleigh has the bits of the value-range call over its bracket."""
    grid = GRIDS[kind] + (h,)
    diag, off = _poincare_matrix(MODELS[kind], grid)
    expected = scipy.linalg.eigvalsh_tridiagonal(diag, off, select="v",
                                                 select_range=_lowest_bracket(diag, off))
    assert same_bits(np.array([ak.poincare_rayleigh(MODELS[kind], grid)]), expected[:1])


def index_call(diag, off):
    return scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))


@pytest.mark.parametrize("h", LADDER)
@pytest.mark.parametrize("kind", ["cigar", "cylinder"])
def test_banded_solve_has_solve_banded_bits(kind, h):
    assert_solves_match(mode_problem(kind, h))


@pytest.mark.parametrize("h", LADDER)
def test_cigar_march_matches_solve_banded(h):
    assert_cigar_march_matches(h)


@pytest.mark.parametrize("h", LADDER)
def test_cylinder_march_solves_rows_and_sum(h):
    """Two-column march: every interior row and sum(v + dv) = 0 to 1e-11."""
    v, dv, sub, sup, rhs = newton_system("cylinder", h)
    rows = sup * dv[1:] - sub * dv[:-1] - rhs
    scale = np.abs(sup * dv[1:]) + np.abs(sub * dv[:-1]) + np.abs(rhs)
    assert np.max(np.abs(rows) / scale) <= 1e-11
    assert abs(np.sum(v) + np.sum(dv)) <= 1e-11 * np.sum(np.abs(dv))


@pytest.mark.parametrize("h", LADDER)
@pytest.mark.parametrize("kind", ["cigar", "cylinder"])
def test_poincare_has_eigvalsh_tridiagonal_bits(kind, h):
    assert_poincare_matches(kind, h)


@pytest.mark.parametrize("h", LADDER)
@pytest.mark.parametrize("kind", ["cigar", "cylinder", "glued"])
def test_poincare_within_bisection_tolerance_of_the_index_call(kind, h):
    """Both calls bisect to eps * ||T||_inf around the same eigenvalue."""
    diag, off = _poincare_matrix(MODELS[kind], GRIDS[kind] + (h,))
    norm = np.max(np.abs(diag) + np.append(np.abs(off), 0.0) + np.append(0.0, np.abs(off)))
    lam = ak.poincare_rayleigh(MODELS[kind], GRIDS[kind] + (h,))
    assert abs(lam - index_call(diag, off)[0]) <= 2.0 * np.finfo(float).eps * norm


def test_indefinite_matrix_takes_the_index_call():
    diag = np.array([1.0, -2.0, 3.0, 0.5, 2.0])
    off = np.array([0.5, 1.0, -0.3, 0.7])
    assert _lowest_bracket(diag, off) is None  # dptsv finds a negative pivot
    expected = index_call(diag, off)
    assert expected[0] < 0
    assert same_bits(np.array([_lowest_eigenvalue(diag, off)]), expected)


def test_empty_bracket_takes_the_index_call(monkeypatch):
    diag, off = np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0])  # eigenvalues < 4
    monkeypatch.setattr(diagnostics, "_lowest_bracket", lambda d, e: (10.0, 11.0))
    assert same_bits(np.array([_lowest_eigenvalue(diag, off)]), index_call(diag, off))


def faulty_provider(monkeypatch, routine, fault):
    """Make provider() the chosen one with routine's result passed through
    fault(args, result)."""
    chosen = PROVIDERS["chosen"]
    methods = {name: getattr(chosen, name) for name in ("dgtsv", "dtbtrs", "dptsv", "dstebz")}
    methods[routine] = lambda *args: fault(args, getattr(chosen, routine)(*args))
    monkeypatch.setattr(_lapack, "_provider", types.SimpleNamespace(**methods))


def test_solve_mode_rejects_a_solution_with_a_large_backward_error(monkeypatch):
    """A dgtsv solution off by a relative 1e-9 is finite, so only the backward
    error check catches it."""
    faulty_provider(monkeypatch, "dgtsv", lambda args, result: (result[0] * (1 + 1e-9), result[1]))
    with pytest.raises(ak.SingularSystem, match=r"interior residual \S+ exceeds 1e-12"):
        ak.solve_mode(mode_problem("cigar", 1e-2))


@pytest.mark.parametrize("call", ["V", "I"])
def test_dstebz_failure_raises_singular_system(monkeypatch, call):
    """info != 0 from the value-range bisection, or from the index call when
    there is no bracket, raises SingularSystem; only that call fails, so the
    other would return an eigenvalue."""
    diag, off = _poincare_matrix(MODELS["cigar"], GRIDS["cigar"] + (1e-2,))
    if call == "I":
        monkeypatch.setattr(diagnostics, "_lowest_bracket", lambda d, e: None)
    faulty_provider(monkeypatch, "dstebz",
                    lambda args, result: (*result[:2], 1) if args[2] == call else result)
    with pytest.raises(ak.SingularSystem, match=r"LAPACK dstebz failed \(info = 1\)"):
        _lowest_eigenvalue(diag, off)


def lapack_outputs(h):
    """What each LAPACK call of the solvers returns on the cigar and the
    cylinder: the mode solve (dgtsv), the Newton march (dtbtrs), the bracket's
    solve (dptsv) and the value-range and index-range bisections (dstebz)."""
    out = []
    for kind in ("cigar", "cylinder"):
        out.append(ak.solve_mode(mode_problem(kind, h)).values)
        out.append(newton_system(kind, h)[1])
        diag, off = _poincare_matrix(MODELS[kind], GRIDS[kind] + (h,))
        out.append(_lapack.provider().dptsv(diag, off, np.ones(len(diag)))[0])
        for call in (("V", *_lowest_bracket(diag, off), 0, 0), ("I", 0.0, 1.0, 1, 1)):
            m, w, info = _lapack.provider().dstebz(diag, off, *call)
            assert (m, info) == (1, 0)
            out.append(w[:m])
        out.append(np.array([ak.poincare_rayleigh(MODELS[kind], GRIDS[kind] + (h,))]))
    return out


@needs_openblas
def test_fallback_import_gives_the_same_bits(monkeypatch):
    """SciPy's extension, the provider when numpy's library is missing, gives
    every output of numpy's OpenBLAS bit for bit."""
    expected = {h: lapack_outputs(h) for h in LADDER[:2]}
    monkeypatch.setattr(_lapack, "_numpy_core", lambda: "no-such-library.so")
    monkeypatch.setattr(_lapack, "_provider", None)
    assert isinstance(_lapack.provider(), _lapack._SciPy)
    assert _lapack.provider()._flapack is scipy.linalg.lapack._flapack
    for h, arrays in expected.items():
        got = lapack_outputs(h)
        assert len(got) == len(arrays) == 12
        assert all(same_bits(x, y) for x, y in zip(got, arrays)), h


def continuation_bits(kind, h):
    """phi and every path record of the manufactured continuity solve, as bytes."""
    grid = GRIDS[kind] + (h,)
    forcing = ak.ma_residual_radial(MODELS[kind], ak.manufactured_potential(grid), None, 0.0)
    solution = ak.continuity_solve(MODELS[kind], forcing)
    return solution.phi.values.tobytes(), json.dumps(solution.path_dict())


@needs_openblas
@pytest.mark.parametrize("kind", ["cigar", "cylinder", "glued"])
def test_providers_give_the_same_continuation_bits(monkeypatch, kind):
    expected = continuation_bits(kind, 1e-3)
    monkeypatch.setattr(_lapack, "_provider", PROVIDERS["scipy"])
    assert continuation_bits(kind, 1e-3) == expected


@pytest.mark.parametrize("core", ["missing_library", "missing_symbols", "no_core_module"])
def test_missing_openblas_falls_back_to_scipy(monkeypatch, core):
    """Without numpy's core extension, without the library, or without one of
    the symbols, the first call chooses SciPy's extension and solves."""
    import numpy.random.bit_generator

    def no_module():
        raise ImportError("no numpy._core")

    monkeypatch.setattr(_lapack, "_numpy_core", {
        "missing_library": lambda: "no-such-library.so",
        "missing_symbols": lambda: numpy.random.bit_generator.__file__,  # links no BLAS
        "no_core_module": no_module}[core])
    monkeypatch.setattr(_lapack, "_provider", None)
    assert _lapack.chosen() is None
    chosen = _lapack.provider()
    assert isinstance(chosen, _lapack._SciPy) and _lapack.chosen() is chosen
    assert chosen.name == f"scipy {scipy.__version__}"
    assert_solves_match(mode_problem("cigar", 1e-2))


@needs_openblas
def test_poincare_traces_no_stebz_workspace():
    """dstebz's outputs and workspace live outside numpy's allocator, so the
    traced peak of poincare_rayleigh is the bracket's: diag and off, dptsv's
    copies of both, its right-hand side and x * x (a numpy workspace of
    10 arrays would read 12)."""
    import tracemalloc

    model, grid = MODELS["cigar"], GRIDS["cigar"] + (1e-3,)
    ak.poincare_rayleigh(model, grid)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ak.poincare_rayleigh(model, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 8 * len(ak.uniform_nodes(*grid)), peak


@needs_openblas
def test_provider_name_is_the_openblas_config():
    name = PROVIDERS["chosen"].name
    assert name.startswith("OpenBLAS ") and "USE64BITINT" in name


@needs_openblas
def test_openblas_binding_copies_what_f2py_copies():
    """dgtsv leaves its rows intact and dptsv its d and e, as the f2py wrappers
    do; dtbtrs writes into a Fortran-ordered b."""
    rows = drift._mode_rows(mode_problem("cigar", 1e-2))
    before = [x.copy() for x in rows]
    PROVIDERS["chosen"].dgtsv(*rows)
    assert all(same_bits(x, y) for x, y in zip(rows, before))
    diag, off = _poincare_matrix(MODELS["cigar"], GRIDS["cigar"] + (1e-2,))
    kept = diag.copy(), off.copy()
    b = np.ones(len(diag))
    x, info = PROVIDERS["chosen"].dptsv(diag, off, b)
    assert info == 0 and x is b
    assert same_bits(diag, kept[0]) and same_bits(off, kept[1])
    ab = np.asfortranarray([[2.0, 2.0, 2.0], [1.0, 1.0, 0.0]])
    rhs = np.ones((3, 1), order="F")
    x, info = PROVIDERS["chosen"].dtbtrs(ab, rhs)
    assert info == 0 and x is rhs
    assert np.array_equal(rhs[:, 0], [0.5, 0.25, 0.375])


def test_banded_solve_raises_singular_system(monkeypatch):
    """On either provider, solve_mode refuses non-finite rows and a singular
    matrix before it reads a backward error, and continuity._forward_march a
    singular band; the rows are made by hand on a 6-node grid."""
    n = 6
    problem = ak.ModeProblem(model=MODELS["cylinder"], mu=0.0,
                             rhs=ak.GridFunction.sample(np.exp, 0.0, 0.5, 0.1))
    zero, diag, b = np.zeros(n - 1), np.full(n, 2.0), np.ones(n)

    def solve(rows):
        monkeypatch.setattr(drift, "_mode_rows", lambda p: rows)
        return ak.solve_mode(problem).values

    singular = diag.copy()
    singular[3] = 0.0  # a zero row and column
    for provider in PROVIDERS.values():
        monkeypatch.setattr(_lapack, "_provider", provider)
        assert np.all(np.isfinite(solve((zero, diag, zero, b))))
        for bad_diag, bad_b in ((diag, np.full(n, np.nan)), (np.full(n, np.inf), b)):
            with pytest.raises(ak.SingularSystem, match="infs or NaNs"):
                solve((zero, bad_diag, zero, bad_b))
        with pytest.raises(ak.SingularSystem, match="singular matrix"):
            solve((zero, singular, zero, b))
        ab = np.asfortranarray([singular, np.append(zero, 0.0)])
        with pytest.raises(ak.SingularSystem, match="singular matrix"):
            continuity._forward_march(ab, np.ones((n, 1), order="F"))
        with pytest.raises(ak.SingularSystem, match="non-finite solution"):
            continuity._forward_march(np.asfortranarray([diag, np.append(zero, 0.0)]),
                                np.full((n, 1), np.inf, order="F"))


def documented_routines(text):
    """(count, names) of the first 'N LAPACK routines (a, b, ...)' in text."""
    match = re.search(r"(\w+) LAPACK routines \(([^)]*)\)", " ".join(text.split()))
    return NUMBERS[match.group(1)], {name.strip(" `") for name in match.group(2).split(",")}


def test_documented_lapack_routines_are_the_ones_called():
    called = {name for path in (ROOT / "src" / "acylsoliton").glob("*.py")
              for name in re.findall(r"provider\(\)\.(\w+)\(", path.read_text())}
    assert called == {"dgtsv", "dtbtrs", "dptsv", "dstebz"}
    for kind in (_lapack._OpenBLAS, _lapack._SciPy):  # one signature per routine
        methods = {name for name, value in vars(kind).items()
                   if callable(value) and not name.startswith("_")}
        assert methods == called, kind
    for text in (_lapack.__doc__, (ROOT / "README.md").read_text()):
        assert documented_routines(text) == (len(called), called)


DIGEST_INPUTS = {
    "empty": b"",
    "config": json.dumps(dataclasses.asdict(parse_config("")), sort_keys=True).encode(),
    "one_mb": bytes(range(256)) * 4097,
}


@pytest.mark.parametrize("data", DIGEST_INPUTS.values(), ids=DIGEST_INPUTS)
def test_sha256_hex_is_hashlibs_digest(data):
    assert _lapack.sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_sha256_hex_falls_back_to_hashlib(monkeypatch):
    calls = []

    def sha256(data):
        calls.append(len(data))
        return hashlib.new("sha256", data)

    monkeypatch.setitem(sys.modules, "_sha2", None)  # None makes the import fail
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setattr(hashlib, "sha256", sha256)
    data = DIGEST_INPUTS["config"]
    assert _lapack.sha256_hex(data) == hashlib.new("sha256", data).hexdigest()
    assert calls == [len(data)]


def test_only_the_digest_fallback_imports_hashlib():
    importers = {path.name: re.findall(r"^\s*((?:import|from) hashlib\b.*)", path.read_text(), re.M)
                 for path in (ROOT / "src" / "acylsoliton").glob("*.py")}
    assert {name: lines for name, lines in importers.items() if lines} == {
        "_lapack.py": ["from hashlib import sha256"]}
