"""The direct LAPACK calls give SciPy's bits and keep SciPy's checks."""

import sys

import numpy as np
import pytest
import scipy.linalg

import acylsoliton as ak
from acylsoliton import _lapack, drift
from acylsoliton.continuity import ContinuityConfig, _RadialNewton

LADDER = (1e-2, 1e-3, 1e-4)
GRIDS = {"cigar": (-12.0, 20.0), "cylinder": (0.0, 20.0)}
MODELS = {"cigar": ak.cigar_model(2), "cylinder": ak.cylinder_model(1)}


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def mode_system(kind, h):
    """The radial mode operator: Neumann center for the cigar, (1,1) either way."""
    t_min, t_max = GRIDS[kind]
    rhs = ak.GridFunction.sample(lambda t: np.exp(-1.5 * t) * np.clip(t / 2, 0, 1) ** 4,
                                 t_min, t_max, h)
    ab, b = drift.assemble_mode_operator(ak.ModeProblem(model=MODELS[kind], mu=0.0, rhs=rhs))
    return (1, 1), ab, b


def newton_system(kind, h):
    """The Newton step at s = 1 from half the manufactured potential, as
    (v, dv, sub, sup, rhs): interior rows sup_i dv_i - sub_i dv_{i-1} = rhs_i."""
    grid = GRIDS[kind] + (h,)
    model = MODELS[kind]
    psi = ak.manufactured_potential(grid)
    forcing = ak.ma_residual_radial(model, psi, None, 0.0)
    newton = _RadialNewton(model, forcing, ContinuityConfig())
    v = 0.5 * np.diff(psi.values)
    it = newton.residual(v, forcing.values[1:-1])  # s = 1
    dv = newton._newton_step(it)
    a_phi = newton.a[1:-1] + (v[1:] - v[:-1]) / (2.0 * h**2)
    sub, sup = 1.0 / h**2 - a_phi / h, 1.0 / h**2 + a_phi / h
    return v, dv, sub, sup, -2.0 * a_phi * it.r


def assert_solves_match(bands, ab, b):
    expected = scipy.linalg.solve_banded(bands, ab, b)
    assert same_bits(drift.banded_solve(ab.copy(), b.copy()), expected)


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
    from acylsoliton.diagnostics import _poincare_weights

    grid = GRIDS[kind] + (h,)
    # the tridiagonal matrix poincare_rayleigh builds
    w, w_mid = _poincare_weights(MODELS[kind], grid)
    mass = w[1:-1] * h
    diag = (w_mid[:-1] + w_mid[1:]) / h / mass
    off = -w_mid[1:-1] / h / np.sqrt(mass[:-1] * mass[1:])
    expected = scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    assert same_bits(np.array([ak.poincare_rayleigh(MODELS[kind], grid)]), expected)


@pytest.mark.parametrize("h", LADDER)
@pytest.mark.parametrize("kind", ["cigar", "cylinder"])
def test_banded_solve_has_solve_banded_bits(kind, h):
    assert_solves_match(*mode_system(kind, h))


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


def test_fallback_import_gives_the_same_bits(monkeypatch):
    loads = []

    def fail():
        loads.append(1)
        raise ImportError("no such file")

    monkeypatch.delitem(sys.modules, _lapack.NAME)
    monkeypatch.setattr(_lapack, "_load_file", fail)
    assert _lapack.flapack() is scipy.linalg.lapack._flapack
    for kind in ("cigar", "cylinder"):
        assert_solves_match(*mode_system(kind, 1e-2))
        assert_poincare_matches(kind, 1e-2)
    assert_cigar_march_matches(1e-2)
    assert loads


def test_file_load_registers_the_extension(monkeypatch):
    monkeypatch.delitem(sys.modules, _lapack.NAME)
    module = _lapack.flapack()
    assert sys.modules[_lapack.NAME] is module
    assert _lapack.flapack() is module
    assert module.__file__ == scipy.linalg.lapack._flapack.__file__
    assert_cigar_march_matches(1e-2)


def test_banded_solve_raises_singular_system():
    n = 6
    ab = np.zeros((3, n))
    ab[1] = 2.0  # the diagonal
    b = np.ones(n)
    assert np.all(np.isfinite(drift.banded_solve(ab, b)))
    for bad_ab, bad_b in ((ab, np.full(n, np.nan)), (np.where(ab == 2.0, np.inf, ab), b)):
        with pytest.raises(ak.SingularSystem, match="infs or NaNs"):
            drift.banded_solve(bad_ab, bad_b)
    singular = ab.copy()
    singular[1, 3] = 0.0  # a zero row and column
    with pytest.raises(ak.SingularSystem, match="singular matrix"):
        drift.banded_solve(singular, b)
