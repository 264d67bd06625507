import json

import numpy as np
import pytest

import acylsoliton as ak
from acylsoliton.diagnostics import _poincare_matrix
from oracles import dense_poincare_lambda, rayleigh_quotient


def test_poincare_positive_and_stable_cylinder():
    model = ak.cylinder_model(1)
    lam20 = ak.poincare_rayleigh(model, (0.0, 20.0, 0.01))
    lam30 = ak.poincare_rayleigh(model, (0.0, 30.0, 0.01))
    assert lam20 > 0
    assert abs(lam30 - lam20) / lam20 <= 0.05
    lam_fine = ak.poincare_rayleigh(model, (0.0, 20.0, 0.005))
    assert abs(lam_fine - lam20) / lam20 <= 0.02


def test_poincare_positive_and_stable_cigar():
    model = ak.cigar_model(2)
    lam20 = ak.poincare_rayleigh(model, (-12.0, 20.0, 0.01))
    lam30 = ak.poincare_rayleigh(model, (-12.0, 30.0, 0.01))
    assert lam20 > 0
    assert abs(lam30 - lam20) / lam20 <= 0.05
    lam_fine = ak.poincare_rayleigh(model, (-12.0, 20.0, 0.005))
    assert abs(lam_fine - lam20) / lam20 <= 0.02


def test_poincare_weight_scale_invariance():
    # scaling the weight by a constant leaves the quotient unchanged; scaling
    # f by a shared shift changes e^f/f^2 by more than a constant, so instead
    # scale the model coefficient (volume density) uniformly
    base = ak.cylinder_model(1)
    scaled = ak.RadialKahlerModel(
        n=1, kind=ak.Kind.CYLINDER,
        a=lambda t: 3.0 * np.ones_like(np.asarray(t, dtype=float)),
        log_a=lambda t: np.full_like(np.asarray(t, dtype=float), np.log(3.0)),
        f_minus_2t=base.f_minus_2t,
    )
    lam_base = ak.poincare_rayleigh(base, (0.0, 20.0, 0.01))
    lam_scaled = ak.poincare_rayleigh(scaled, (0.0, 20.0, 0.01))
    assert lam_scaled == pytest.approx(lam_base, rel=1e-9)


def test_constant_vector_dominates_lambda_min():
    model = ak.cylinder_model(1)
    grid = (0.0, 20.0, 0.01)
    lam = ak.poincare_rayleigh(model, grid)
    n_interior = len(ak.uniform_nodes(*grid)) - 2
    quotient = rayleigh_quotient(model.sample_a, model.f, *grid, np.ones(n_interior))
    assert quotient >= lam
    # f = 2t + 1 <= 0 for t <= -1/2: the weight e^f / f^2 is not admissible
    with pytest.raises(ak.DomainError, match="needs f > 0"):
        ak.poincare_rayleigh(model, (-1.0, 20.0, 0.01))


def test_poincare_matches_dense_oracle():
    for model, grid in (
        (ak.cylinder_model(1), (0.0, 10.0, 0.02)),
        (ak.cigar_model(2), (-12.0, 20.0, 0.05)),
    ):
        expected = dense_poincare_lambda(model.a, model.f, *grid)
        assert ak.poincare_rayleigh(model, grid) == pytest.approx(expected, rel=1e-10)


def test_poincare_off_diagonal_does_not_overflow():
    # w_i * w_{i+1} * h^2 exceeds the float range from t = 185 on, below the
    # e^f overflow at f = 709
    model = ak.cylinder_model(1)
    _, off = _poincare_matrix(model, (0.0, 200.0, 0.01))
    assert np.all(off < 0)
    expected = dense_poincare_lambda(model.a, model.f, 0.0, 200.0, 0.1)
    assert ak.poincare_rayleigh(model, (0.0, 200.0, 0.1)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", ["cigar", "cylinder"])
def test_poincare_matrix_has_the_bits_of_separate_arrays(kind):
    """The matrix built in place equals the one from whole-array expressions, to the bit."""
    model = ak.cigar_model(2) if kind == "cigar" else ak.cylinder_model(2)
    grid = (-12.0 if kind == "cigar" else 0.0, 20.0, 1e-3)
    t = ak.uniform_nodes(*grid)
    f, h = model.f(t), grid[2]
    w = np.exp(f) / f**2 * model.sample_a(t)
    w_mid = 0.5 * (w[1:] + w[:-1])
    mass = w[1:-1] * h
    root = np.sqrt(mass)
    diag = (w_mid[:-1] + w_mid[1:]) / h / mass
    off = -w_mid[1:-1] / h / (root[:-1] * root[1:])
    built = _poincare_matrix(model, grid)
    assert built[0].tobytes() == diag.tobytes() and built[1].tobytes() == off.tobytes()


@pytest.mark.parametrize("kind", ["cigar", "cylinder"])
def test_poincare_matrix_keeps_few_grid_arrays(kind):
    """The traced peak of _poincare_matrix at h = 1e-3 stays within 5.5 grid-sized
    float arrays: 5 while the cigar's f is sampled beside t and a, then 4 (the
    weights, the midpoint weights in f's buffer, the roots and diag)."""
    import tracemalloc

    model = ak.cigar_model(2) if kind == "cigar" else ak.cylinder_model(2)
    grid = (-12.0 if kind == "cigar" else 0.0, 20.0, 1e-3)
    _poincare_matrix(model, grid)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _poincare_matrix(model, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = 8 * len(ak.uniform_nodes(*grid))
    assert peak <= 5.5 * size, peak / size


def test_poincare_determinism():
    model = ak.cigar_model(2)
    a = ak.poincare_rayleigh(model, (-12.0, 20.0, 0.01))
    b = ak.poincare_rayleigh(model, (-12.0, 20.0, 0.01))
    assert a == b


def test_poincare_reference_line_value():
    assert ak.REFERENCE_LAMBDA0 == 0.125


def test_verify_solution_passes_on_manufactured(manufactured_solution):
    model, _, forcing, solution = manufactured_solution
    report = ak.verify_solution(model, solution, forcing)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "monge_ampere_residual_sup" in names
    assert "inf_drift_potential" in names
    assert report.metadata["model_kind"] == "cigar"
    assert report.metadata["reference_lambda0"] == 0.125


def test_verify_solution_zero_forcing(cigar, zero_field):
    solution = ak.continuity_solve(cigar, zero_field)
    report = ak.verify_solution(cigar, solution, zero_field)
    residual_check = next(c for c in report.checks if c.name == "monge_ampere_residual_sup")
    assert residual_check.value == 0.0
    assert solution.decay_rate == np.inf  # sentinel for the identically-zero potential
    assert report.passed


def test_verify_solution_negative_control(manufactured):
    """A deliberately unconverged run fails the residual check but reports cleanly."""
    model, _, forcing = manufactured
    loose = ak.ContinuityConfig(newton_tol=1e-2)
    sloppy = ak.continuity_solve(model, forcing, loose)
    report = ak.verify_solution(model, sloppy, forcing)
    residual_check = next(c for c in report.checks if c.name == "monge_ampere_residual_sup")
    assert not residual_check.passed
    assert not report.passed
    assert json.dumps(report.as_dict())  # well-formed


def test_verify_solution_reports_lost_positivity_as_a_failed_check():
    """The glued t0 = 2 solve on (-12, 20, 32/67) converges, but the one-sided
    end stencils read a + phi''/2 = -3.0e-10 at node 0: the residual check
    fails with value inf instead of raising PositivityLost."""
    model = ak.glued_model(ak.cigar_model(2), ak.GlueSpec(t0=2.0))
    forcing = ak.glued_forcing(model, (-12.0, 20.0, 32 / 67))
    solution = ak.continuity_solve(model, forcing)
    with pytest.raises(ak.PositivityLost):
        ak.ma_residual_radial(model, solution.phi, forcing, 1.0)
    report = ak.verify_solution(model, solution, forcing)
    failed = {c.name: c.value for c in report.checks if not c.passed}
    assert failed["monge_ampere_residual_sup"] == np.inf
    assert failed["min_metric_ratio_along_path"] < 0.0
    assert not report.passed


def test_report_json_deterministic(manufactured_solution):
    """The report's dict, as report.json serialises it, repeats to the byte."""
    model, _, forcing, solution = manufactured_solution
    a = json.dumps(ak.verify_solution(model, solution, forcing).as_dict(), indent=2)
    b = json.dumps(ak.verify_solution(model, solution, forcing).as_dict(), indent=2)
    assert a == b


@pytest.mark.parametrize("h", [1e-2, 1e-3, pytest.param(1e-4, marks=pytest.mark.slow)])
def test_verify_manufactured_passes_on_the_ladder(h):
    """The manufactured cigar solve verifies at every rung: the forcing no
    longer warns (decay rate 3/2) and the residual stays far below 1e-9."""
    model = ak.cigar_model(2)
    forcing = ak.ma_residual_radial(model, ak.manufactured_potential((-12.0, 20.0, h)), None, 0.0)
    report = ak.verify_solution(model, ak.continuity_solve(model, forcing), forcing)
    assert report.passed, report.summary_lines()
