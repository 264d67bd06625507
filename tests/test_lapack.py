"""The direct LAPACK calls give SciPy's bits and keep SciPy's checks."""

import sys

import numpy as np
import pytest
import scipy.linalg

import acylsoliton as ak
from acylsoliton import _lapack, continuity, drift
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


def newton_system(kind, h, monkeypatch):
    """The Newton system at s = 1 from half the manufactured potential:
    bands (2,1) for the cigar (Neumann row), (1,1) for the cylinder."""
    grid = GRIDS[kind] + (h,)
    model = MODELS[kind]
    psi = ak.manufactured_potential(grid)
    forcing = ak.ma_residual_radial(model, psi, None, 0.0)
    newton = _RadialNewton(model, forcing, ContinuityConfig())
    half = 0.5 * psi.values
    _, r, _ = newton.residual(half, 1.0)
    captured = []

    def capture(bands, ab, b):
        captured.append((bands, ab.copy(), b.copy()))
        return drift.banded_solve(bands, ab, b)

    with monkeypatch.context() as patch:
        patch.setattr(continuity, "banded_solve", capture)
        newton._newton_step(half, r)
    (system,) = captured
    return system


def assert_solves_match(bands, ab, b):
    expected = scipy.linalg.solve_banded(bands, ab, b)
    assert same_bits(drift.banded_solve(bands, ab.copy(), b.copy()), expected)


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
def test_banded_solve_has_solve_banded_bits(kind, h, monkeypatch):
    mode = mode_system(kind, h)
    newton = newton_system(kind, h, monkeypatch)
    assert newton[0] == {"cigar": (2, 1), "cylinder": (1, 1)}[kind]
    for system in (mode, newton):
        assert_solves_match(*system)


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
        assert_solves_match(*newton_system(kind, 1e-2, monkeypatch))
        assert_poincare_matches(kind, 1e-2)
    assert loads


def test_file_load_registers_the_extension(monkeypatch):
    monkeypatch.delitem(sys.modules, _lapack.NAME)
    module = _lapack.flapack()
    assert sys.modules[_lapack.NAME] is module
    assert _lapack.flapack() is module
    assert module.__file__ == scipy.linalg.lapack._flapack.__file__
    assert_solves_match(*newton_system("cigar", 1e-2, monkeypatch))


@pytest.mark.parametrize("bands", [(1, 1), (2, 1)])
def test_banded_solve_raises_singular_system(bands):
    n = 6
    ab = np.zeros((sum(bands) + 1, n))
    ab[bands[1]] = 2.0  # the diagonal
    b = np.ones(n)
    assert np.all(np.isfinite(drift.banded_solve(bands, ab, b)))
    for bad_ab, bad_b in ((ab, np.full(n, np.nan)), (np.where(ab == 2.0, np.inf, ab), b)):
        with pytest.raises(ak.SingularSystem, match="infs or NaNs"):
            drift.banded_solve(bands, bad_ab, bad_b)
    singular = ab.copy()
    singular[bands[1], 3] = 0.0  # a zero row and column
    with pytest.raises(ak.SingularSystem, match="singular matrix"):
        drift.banded_solve(bands, singular, b)
