import numpy as np
import pytest

import acylsoliton as ak
from oracles import dense_poincare_lambda


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
        n=1, kind=ak.Kind.CYLINDER, c0=base.c0,
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
    quotient = ak.rayleigh_quotient(model, grid, np.ones(n_interior))
    assert quotient >= lam
    # f = 2t + 1 <= 0 for t <= -1/2: the weight e^f / f^2 is not admissible
    bad_grid = (-1.0, 20.0, 0.01)
    with pytest.raises(ak.DomainError):
        ak.rayleigh_quotient(model, bad_grid, np.ones(len(ak.uniform_nodes(*bad_grid)) - 2))


def test_poincare_matches_dense_oracle():
    for model, grid in (
        (ak.cylinder_model(1), (0.0, 10.0, 0.02)),
        (ak.cigar_model(2), (-12.0, 20.0, 0.05)),
    ):
        expected = dense_poincare_lambda(model.a, model.f, *grid)
        assert ak.poincare_rayleigh(model, grid) == pytest.approx(expected, rel=1e-10)


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
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solution = ak.continuity_solve(cigar, zero_field)
    report = ak.verify_solution(cigar, solution, zero_field)
    residual_check = next(c for c in report.checks if c.name == "monge_ampere_residual_sup")
    assert residual_check.value == 0.0
    assert solution.decay_rate == np.inf  # sentinel for the identically-zero potential
    assert report.passed


def test_verify_solution_negative_control(manufactured):
    """A deliberately unconverged run fails the residual check but reports cleanly."""
    import warnings

    model, _, forcing = manufactured
    loose = ak.ContinuityConfig(newton_tol=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sloppy = ak.continuity_solve(model, forcing, loose)
    report = ak.verify_solution(model, sloppy, forcing, residual_tol=1e-9)
    residual_check = next(c for c in report.checks if c.name == "monge_ampere_residual_sup")
    assert not residual_check.passed
    assert not report.passed
    assert report.to_json()  # well-formed


def test_report_json_deterministic(manufactured_solution):
    model, _, forcing, solution = manufactured_solution
    a = ak.verify_solution(model, solution, forcing).to_json()
    b = ak.verify_solution(model, solution, forcing).to_json()
    assert a == b
