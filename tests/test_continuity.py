import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acylsoliton as ak
from acylsoliton import continuity, drift
from conftest import fresh_residual, jacobian_gaps, newton_rows
from oracles import interior_drift, manufactured_forcing_fn

GRID = (-12.0, 20.0, 0.01)


# ---- residual operator ----

def test_residual_zero_potential(cigar, zero_field):
    r = ak.ma_residual_radial(cigar, zero_field, zero_field, 0.0)
    assert np.max(np.abs(r.values)) == 0.0


def test_residual_zero_potential_any_s(cigar, zero_field):
    forcing = ak.GridFunction.sample(lambda t: np.exp(-1.5 * t) * np.cos(t), *GRID)
    r = ak.ma_residual_radial(cigar, zero_field, forcing, 0.7)
    assert np.array_equal(r.values, -0.7 * forcing.values)


def test_residual_manufactured_tautology(manufactured):
    """With F generated by the same stencils, the residual at phi* is exactly 0."""
    model, phi_star, forcing = manufactured
    r = ak.ma_residual_radial(model, phi_star, forcing, 1.0)
    assert np.max(np.abs(r.values)) == 0.0


def test_residual_against_symbolic_oracle():
    """The manufactured forcing converges to the exact symbolic forcing at
    order 2 on every node, end nodes included, down to h = 1e-4, and keeps
    the continuum decay rate 3/2: its closed-form increments carry no
    eps |phi| / h^2 rounding floor."""
    model = ak.cigar_model(2)
    oracle = manufactured_forcing_fn()
    ladder = (1e-2, 1e-3, 1e-4)
    sups = []
    for h in ladder:
        forcing = ak.ma_residual_radial(model, ak.manufactured_potential((-12.0, 20.0, h)),
                                        None, 0.0)
        sups.append(np.max(np.abs(forcing.values - oracle(forcing.t))))
        assert abs(ak.decay_rate_fit(forcing) - 1.5) <= 1e-3, h
    orders = np.log(np.divide(sups[:-1], sups[1:])) / np.log(np.divide(ladder[:-1], ladder[1:]))
    assert np.all(orders >= 1.9), (sups, orders)


def test_residual_positivity_error(cigar):
    phi = ak.GridFunction.sample(lambda t: 2.0 * (1 + np.exp(2 * t)) ** (-0.75), *GRID)
    with pytest.raises(ak.PositivityLost):
        ak.ma_residual_radial(cigar, phi, None, 0.0)


def test_increment_derivatives_closed_form_orders():
    """fd.increment_derivatives of u = e^{0.3t} sin(t + c) against the closed
    form: order 2 inside and order 4 at the two end nodes."""
    from acylsoliton import fd

    phases = (0.0, 0.7, 1.9)
    steps = (0.04, 0.02, 0.01)
    inner, ends = [], []
    for h in steps:
        t = ak.uniform_nodes(-2.0, 3.0, h)
        grow = np.exp(0.3 * t)
        errors = np.zeros((2, len(t)))  # |error| of (u', u''), max over the phases
        for c in phases:
            exact = (grow * (np.cos(t + c) + 0.3 * np.sin(t + c)),
                     grow * (0.6 * np.cos(t + c) - 0.91 * np.sin(t + c)))
            derivatives = fd.increment_derivatives(np.diff(grow * np.sin(t + c)), h)
            errors = np.maximum(errors, np.abs(np.array(derivatives) - exact))
        inner.append([np.max(e[1:-1]) for e in errors])
        ends.append([np.max(e[[0, -1]]) for e in errors])
    for sups, order in ((inner, 2.0), (ends, 4.0)):
        orders = np.log2(np.divide(sups[:-1], sups[1:]))
        assert np.all(np.abs(orders - order) <= 0.15), (sups, orders)
    assert np.max(inner[-1]) <= 1e-4 and np.max(ends[-1]) <= 1e-7


def test_solution_residual_from_increments_and_samples(manufactured_solution):
    """The residual at the solution reads the increments phi carries; a plain
    GridFunction copy of the anchored samples goes through np.diff and agrees."""
    model, _, forcing, solution = manufactured_solution
    from_increments = ak.ma_residual_radial(model, solution.phi, forcing, 1.0).values
    samples = ak.GridFunction(*GRID, solution.phi_anchored.values)
    from_samples = ak.ma_residual_radial(model, samples, forcing, 1.0).values
    assert np.max(np.abs(from_increments)) <= ak.ContinuityConfig().newton_tol
    assert np.max(np.abs(from_increments - from_samples)) <= 1e-10
    for gauge in (solution.phi, solution.phi_anchored):
        assert np.max(np.abs(np.diff(gauge.values) - gauge.increments)) <= 1e-15
    assert solution.phi.values[-1] == solution.phi_anchored.values[0] == 0.0


def test_solution_gauges_give_bit_equal_residuals(manufactured_solution):
    model, _, forcing, solution = manufactured_solution
    phi, anchored = solution.phi, solution.phi_anchored
    assert phi.increments is anchored.increments
    for residual in (lambda p: ak.ma_residual_radial(model, p, forcing, 1.0),
                     lambda p: ak.soliton_residual(model, p)):
        assert residual(phi).values.tobytes() == residual(anchored).values.tobytes()


def test_manufactured_potential_sums_its_increments():
    """The samples are the partial sums of the closed-form increments, which
    match differences of amplitude * (1 + e^{2t})^power to relative rounding."""
    grid = (-12.0, 20.0, 0.01)
    phi = ak.manufactured_potential(grid)
    assert phi.values[0] == 0.0
    assert np.array_equal(phi.values[1:], np.cumsum(phi.increments))
    t = ak.uniform_nodes(*grid)
    exact = np.diff(0.3 * (1.0 + np.exp(2.0 * t)) ** -0.75)
    big = np.abs(exact) > 1e-6  # where differencing the closed form is itself accurate
    assert np.max(np.abs(phi.increments - exact)[big] / np.abs(exact[big])) <= 1e-8


# ---- linearized operator: the Newton rows ----

def test_linearization_at_zero_matches_half_drift(cigar):
    """At phi = 0 the Newton rows (a_phi = a) on the increments of u are the
    interior rows of the mu = 0 drift operator that solve_mode assembles, on
    u: both read u'' + 2a u', that is a L_0 = 2a times the linearization."""
    u = ak.GridFunction.sample(lambda t: np.exp(-0.5 * (t - 2) ** 2), *GRID)
    sub, diag, sup, _ = drift._mode_rows(ak.ModeProblem(model=cigar, mu=0.0, rhs=u.zeros_like()))
    x = u.values
    mode_rows = sub[:-1] * x[:-2] + diag[1:-1] * x[1:-1] + sup[1:] * x[2:]
    rows = newton_rows(cigar.sample_a(u.t)[1:-1], GRID[2], np.diff(x))
    assert np.max(np.abs(rows - mode_rows)) <= 1e-9


def test_linearization_constant_curvature_region(cylinder):
    """phi'' = 2(e - 1) makes a_phi = e: the Newton rows over 2 a_phi read
    (1/2e) u'' + u'."""
    from acylsoliton.continuity import _RadialNewton

    grid = (0.0, 20.0, 0.01)
    h = grid[2]
    phi = ak.GridFunction.sample(lambda t: (np.e - 1.0) * t**2, *grid)
    newton = _RadialNewton(cylinder, phi.zeros_like(), ak.ContinuityConfig())
    it = fresh_residual(newton, np.diff(phi.values), np.zeros(len(phi.values) - 2))
    a_phi = newton.a[1:-1] + it.half_dd
    assert np.allclose(a_phi, np.e, rtol=1e-9)
    dv = np.diff(np.sin(phi.t))
    expected = 0.5 / np.e * np.diff(dv) / h**2 + (dv[1:] + dv[:-1]) / (2.0 * h)
    assert np.allclose(newton_rows(a_phi, h, dv) / (2.0 * a_phi), expected, rtol=1e-9)


def test_jacobian_consistency_seeded():
    """Criterion 10's check on the glued model, the cigar cut off into the
    cylinder: finite differences of the Newton residual match the rows the
    solver inverts to 1e-4, Neumann row included, and to 1e-10 of 1/h^2 when
    scaled by 2 a_phi (conftest.jacobian_gaps)."""
    model = ak.glued_model(ak.cigar_model(2), ak.GlueSpec(t0=3.0))
    interior, boundary, scaled = jacobian_gaps(model, GRID, np.random.default_rng(7))
    assert max(interior, boundary) <= 1e-4
    assert scaled <= 1e-10


@pytest.mark.parametrize("kind,grid", [("cigar", GRID), ("cylinder", (0.0, 20.0, 0.01))])
def test_newton_step_solves_linearized_system(kind, grid):
    """The Newton direction dv on the increments solves L_phi (cumsum dv) = -r
    and the boundary row."""
    from conftest import seeded_admissible_field

    from acylsoliton.continuity import _RadialNewton

    model = ak.cigar_model(2) if kind == "cigar" else ak.cylinder_model(2)
    rng = np.random.default_rng(11)
    forcing = ak.ma_residual_radial(model, seeded_admissible_field(rng, grid), None, 0.0)
    newton = _RadialNewton(model, forcing, ak.ContinuityConfig())
    h = grid[2]
    for _ in range(3):
        phi = seeded_admissible_field(rng, grid)
        v = np.diff(phi.values)
        it = fresh_residual(newton, v, forcing.values[1:-1])  # s = 1
        dv, r = newton._newton_step(it), it.r
        a_phi = model.sample_a(phi.t)[1:-1] + np.diff(phi.values, 2) / (2.0 * h**2)
        lin = 0.5 * interior_drift(np.append(0.0, np.cumsum(dv)), h, a_phi)
        assert np.max(np.abs(lin + r)) <= 1e-10 * np.max(np.abs(r))
        if kind == "cigar":
            slope = (3.0 * dv[0] - dv[1]) / (2.0 * h)
            target = -(3.0 * v[0] - v[1]) / (2.0 * h)
        else:
            slope, target = np.sum(dv), -np.sum(v)
        assert abs(slope - target) <= 1e-10 * (abs(target) + np.max(np.abs(dv)) / h)


def reference_step(newton, v, s):
    """The Newton direction with every quantity formed afresh from v: the
    residual rows, (sub, sup) = 1/h^2 -+ a_phi/h and a band array filled by copies."""
    h = newton.h
    half_dd = (v[1:] - v[:-1]) / (2.0 * h**2)
    r = np.log1p(half_dd / newton.a[1:-1]) + (v[1:] + v[:-1]) / (2.0 * h) \
        - s * newton.forcing[1:-1]
    a_phi = newton.a[1:-1] + half_dd
    sub, sup = 1.0 / h**2 - a_phi / h, 1.0 / h**2 + a_phi / h
    rhs = -2.0 * a_phi * r
    ab = np.zeros((2, len(sup)), order="F")
    ab[0], ab[1, :-1] = sup, -sub[1:]
    if newton.neumann_inner:
        dv0 = (rhs[0] / sup[0] + v[1] - 3.0 * v[0]) / (3.0 - sub[0] / sup[0])
        rhs[0] += sub[0] * dv0
        return np.concatenate(([dv0], continuity._forward_march(ab, rhs[:, None])[:, 0]))
    columns = np.zeros((len(rhs), 2), order="F")
    columns[:, 0], columns[0, 1] = rhs, sub[0]
    y, z = continuity._forward_march(ab, columns).T
    dv0 = -(np.sum(v) + np.sum(y)) / (1.0 + np.sum(z))
    return np.concatenate(([dv0], y + dv0 * z))


def reference_record(newton, f, weight, v, s, iterations, sup_residual):
    """A StepRecord with the derivatives rebuilt by fd.increment_derivatives and
    read at the interior nodes, whose rows the solver solves."""
    from acylsoliton import fd
    from acylsoliton.continuity import StepRecord, _decaying

    d1psi, d2psi = (d[1:-1] for d in fd.increment_derivatives(v, newton.h))
    ratio = 1.0 + d2psi / (2.0 * newton.a[1:-1])
    return StepRecord(
        s=s,
        newton_iterations=iterations,
        sup_residual=sup_residual,
        min_metric_ratio=float(np.min(ratio)),
        max_metric_ratio=float(np.max(ratio)),
        weighted_sup_phi=float(np.max(weight * np.abs(_decaying(v)))),
        inf_drift_potential=float(np.min(f[1:-1] + d1psi)),
        sup_radial_derivative=float(np.max(np.abs(d1psi))),
    )


def newton_ladder(kind, h):
    """The Newton solver of the manufactured problem on the cigar or cylinder grid,
    the solution's increments, and the path record's f and weight e^{1.4 t}."""
    from acylsoliton.continuity import RECORD_WEIGHT, _RadialNewton

    model = ak.cigar_model(2) if kind == "cigar" else ak.cylinder_model(2)
    psi = ak.manufactured_potential((-12.0 if kind == "cigar" else 0.0, 20.0, h))
    forcing = ak.ma_residual_radial(model, psi, None, 0.0)
    path = model.f(psi.t), np.exp(RECORD_WEIGHT * psi.t)
    return _RadialNewton(model, forcing, ak.ContinuityConfig()), np.diff(psi.values), path


@pytest.mark.parametrize("h", [1e-2, 1e-3])
@pytest.mark.parametrize("kind", ["cigar", "cylinder"])
def test_newton_step_has_reference_bits(kind, h):
    """The direction from the iterate's kept half-Hessian and the march bands
    written in place equals the one formed afresh, to the bit."""
    newton, v_star, _ = newton_ladder(kind, h)
    for weight, s in ((0.5, 1.0), (1.0, 0.7), (0.2, 0.3)):
        v = weight * v_star
        direction = newton._newton_step(newton.residual(v, s * newton.forcing[1:-1],
                                                        newton._pair))
        assert direction.tobytes() == reference_step(newton, v, s).tobytes()


@pytest.mark.parametrize("h", [1e-2, 1e-3])
@pytest.mark.parametrize("kind", ["cigar", "cylinder"])
def test_step_records_have_reference_bits(kind, h):
    """Every StepRecord field read from the converged iterate equals the one
    rebuilt from its increments, to the bit, along the s-schedule."""
    from dataclasses import astuple

    from acylsoliton.continuity import _make_record

    newton, v_star, path = newton_ladder(kind, h)
    v = np.zeros_like(v_star)
    for s in np.linspace(0.1, 1.0, 10):
        it, iterations = newton.solve(v, s)
        record = _make_record(newton, it, s, iterations, *path)
        expected = reference_record(newton, *path, it.v, s, iterations, it.sup)
        assert [float(x).hex() for x in astuple(record)] == \
            [float(x).hex() for x in astuple(expected)]
        v = it.v


@pytest.mark.parametrize("h", [1e-2, 1e-3])
@pytest.mark.parametrize("kind", ["cigar", "cylinder", "glued"])
def test_solution_residual_has_the_newton_rows_bits(kind, h):
    """At the solution, the interior of ma_residual_radial at s = 1 equals the rows
    the Newton solver forms from the same increments, to the bit, so the path
    records, read from those rows, describe the residual a caller recomputes."""
    from acylsoliton.continuity import _RadialNewton

    if kind == "glued":
        model = ak.glued_model(ak.cigar_model(2))
        forcing = ak.glued_forcing(model, (-12.0, 20.0, h))
    else:
        model = ak.cigar_model(2) if kind == "cigar" else ak.cylinder_model(2)
        psi = ak.manufactured_potential((-12.0 if kind == "cigar" else 0.0, 20.0, h))
        forcing = ak.ma_residual_radial(model, psi, None, 0.0)
    phi = ak.continuity_solve(model, forcing).phi
    newton = _RadialNewton(model, forcing, ak.ContinuityConfig())
    rows = fresh_residual(newton, phi.increments, np.multiply(1.0, forcing.values[1:-1])).r
    assert ak.ma_residual_radial(model, phi, forcing, 1.0).values[1:-1].tobytes() == \
        rows.tobytes()


@pytest.mark.parametrize("kind", ["cigar", "cylinder"])
def test_converged_start_in_idle_buffer_is_only_read(kind):
    """A converged start written into the solver's idle increment buffer, as the
    secant predictor writes its start, takes no iteration, so the iterate's v is
    that buffer; the path record formed from it equals the one from a copy of
    the start, and leaves the increments as they were."""
    from dataclasses import astuple

    from acylsoliton.continuity import _make_record

    newton, v_star, path = newton_ladder(kind, 1e-3)
    start = newton.solve(v_star, 1.0)[0].v.copy()
    copy, iterations = newton.solve(start.copy(), 1.0)
    expected = _make_record(newton, copy, 1.0, iterations, *path)
    buffer = newton.idle(start)
    np.copyto(buffer, start)
    it, iterations = newton.solve(buffer, 1.0)
    assert iterations == 0 and it.v is buffer
    record = _make_record(newton, it, 1.0, iterations, *path)
    assert [float(x).hex() for x in astuple(record)] == \
        [float(x).hex() for x in astuple(expected)]
    assert it.v.tobytes() == start.tobytes()


@functools.cache
def _peak_arrays(kind, call="solve"):
    """Traced peak of one continuity_solve, or of a uniqueness_check from three
    starts, at h = 1e-3, in grid-sized float arrays.  Cached per model and call,
    so the two solve bounds below read one traced solve."""
    import tracemalloc

    grid = (-12.0 if kind == "cigar" else 0.0, 20.0, 1e-3)
    model = ak.cigar_model(2) if kind == "cigar" else ak.cylinder_model(2)
    coarse = ak.ma_residual_radial(model, ak.manufactured_potential(grid[:2] + (0.1,)), None, 0.0)
    ak.continuity_solve(model, coarse)  # the solve's modules and LAPACK load outside the trace
    psi = ak.manufactured_potential(grid)
    forcing = ak.ma_residual_radial(model, psi, None, 0.0)
    starts = [psi.zeros_like(), psi.like(0.5 * psi.values), psi]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        if call == "solve":
            ak.continuity_solve(model, forcing)
        else:
            ak.uniqueness_check(model, forcing, starts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * len(forcing.values))


@pytest.mark.parametrize("kind,arrays", [("cigar", 15), ("cylinder", 15)])
def test_solve_keeps_few_grid_arrays(kind, arrays):
    """The traced peak of one continuity_solve at h = 1e-3 stays within a fixed
    number of grid-sized float arrays, the same for either model: 12 work
    arrays plus temporaries far below one array (the pin below is tighter)."""
    peak = _peak_arrays(kind)
    assert peak <= arrays, peak


@pytest.mark.parametrize("kind,arrays", [("cigar", 13), ("cylinder", 13)])
def test_newton_pair_shares_the_band_rows(kind, arrays):
    """With the iterate's (psi''/2, rows) pair kept in the march band rows, and
    the cylinder's unit response z marched in the scratch, the solve keeps 12
    work arrays for either model, plus temporaries far below one array."""
    peak = _peak_arrays(kind)
    assert peak <= arrays, peak


@pytest.mark.parametrize("kind,arrays", [("cigar", 13), ("cylinder", 13)])
def test_uniqueness_check_keeps_running_extrema(kind, arrays):
    """uniqueness_check keeps the running min and max of the decaying-gauge
    solutions, not every solution: with the solver's 8 work arrays (the same
    for either model), the current start and solution, 12 arrays, plus
    temporaries far below one array."""
    peak = _peak_arrays(kind, "uniqueness")
    assert peak <= arrays, peak


@pytest.mark.parametrize("x", [[0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, 0.0],
                               [-3.0, 2.0], [np.nan, 1.0], [1.0, -np.inf]])
def test_sup_abs_has_the_bits_of_max_abs(x):
    from acylsoliton.continuity import _sup_abs

    x = np.array(x)
    assert float(_sup_abs(x)).hex() == float(np.max(np.abs(x))).hex()


# ---- continuity method ----

def test_zero_forcing_zero_solution(cigar, zero_field):
    solution = ak.continuity_solve(cigar, zero_field)
    assert np.max(np.abs(solution.phi.values)) == 0.0
    assert all(r.newton_iterations == 0 for r in solution.records)
    assert solution.decay_rate == np.inf


def test_manufactured_recovery(manufactured_solution):
    model, phi_star, forcing, solution = manufactured_solution
    err = np.max(np.abs(solution.phi.values - ak.decaying_gauge(phi_star).values))
    assert err <= 1e-6
    assert len(solution.records) == 10
    assert sum(r.newton_iterations for r in solution.records) <= 60
    assert 1.4 <= solution.decay_rate <= 1.6


def continuum_solve(h):
    """(solution, forcing, sup|phi - phi*|) under the exact continuum forcing."""
    grid = (-12.0, 20.0, h)
    forcing = ak.GridFunction.sample(manufactured_forcing_fn(), *grid)
    solution = ak.continuity_solve(ak.cigar_model(2), forcing)
    target = ak.decaying_gauge(ak.manufactured_potential(grid))
    return solution, forcing, np.max(np.abs(solution.phi.values - target.values))


def test_manufactured_discretization_order():
    """Against the exact symbolic forcing the solve converges at order >= 1.9
    down to h = 1e-3, with the decay rate of the forcing at every h."""
    ladder = (0.04, 0.02, 0.01, 1e-3)
    solutions, _, errs = zip(*(continuum_solve(h) for h in ladder))
    assert all(1.4 <= solution.decay_rate <= 1.6 for solution in solutions)
    orders = np.log(np.divide(errs[:-1], errs[1:])) / np.log(np.divide(ladder[:-1], ladder[1:]))
    assert np.all(orders >= 1.9), orders


@pytest.mark.slow
def test_manufactured_finest_rung_converges():
    """At h = 1e-4 the continuation converges (no rounding-floor stall),
    reaches the continuum solution to 5e-10, and the residual read from the
    increments reproduces the solver's interior rows."""
    solution, forcing, err = continuum_solve(1e-4)
    assert err <= 5e-10
    assert 1.4 <= solution.decay_rate <= 1.6
    residual = ak.ma_residual_radial(ak.cigar_model(2), solution.phi, forcing, 1.0).values
    assert np.max(np.abs(residual[1:-1])) <= ak.ContinuityConfig().newton_tol


def test_linear_regime_matches_drift_solve(cigar):
    """Tiny forcing: phi agrees with the linear solve of (1/2)Delta_f u + u' = F."""
    amp = 1e-6
    smooth = lambda t: amp * np.exp(-1.5 * t) * np.clip(t / 2, 0, 1) ** 4
    forcing = ak.GridFunction.sample(smooth, *GRID)
    solution = ak.continuity_solve(cigar, forcing)
    doubled = forcing.like(2.0 * forcing.values)
    linear = ak.solve_mode(ak.ModeProblem(model=cigar, mu=0.0, rhs=doubled))
    rel = np.max(np.abs(solution.phi.values - linear.values)) / np.max(np.abs(linear.values))
    assert rel <= 1e-4


def test_path_records_structure(manufactured_solution):
    _, _, _, solution = manufactured_solution
    s_values = [r.s for r in solution.records]
    assert s_values == pytest.approx([k / 10 for k in range(1, 11)])
    for record in solution.records:
        assert record.sup_residual <= 1e-10
        assert record.min_metric_ratio > 0
        assert record.inf_drift_potential >= 1.0 - 1e-8
    sup_phi_prime = [r.sup_radial_derivative for r in solution.records]
    assert max(sup_phi_prime) <= 10 * sup_phi_prime[-1]
    weighted = [r.weighted_sup_phi for r in solution.records]
    assert np.isfinite(max(weighted))
    assert max(weighted) <= 10 * weighted[-1]


def test_forcing_decay_warning(cigar):
    slow = ak.GridFunction.sample(lambda t: 1e-8 * np.exp(-0.5 * t) * np.clip(t / 2, 0, 1) ** 4, *GRID)
    with pytest.warns(UserWarning):
        ak.continuity_solve(cigar, slow)


def test_fast_decaying_forcing_does_not_warn(cigar):
    """A forcing decaying at rate >= 2 lies in every weighted space of the
    window: the glued forcing (zero on the fit window, rate inf) and e^{-3t}."""
    model = ak.glued_model(cigar)
    glued = ak.glued_forcing(model, GRID)
    fast = ak.GridFunction.sample(lambda t: 1e-3 * np.exp(-3.0 * t) * np.clip(t / 2, 0, 1) ** 4,
                                  *GRID)
    assert ak.decay_rate_fit(glued) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ak.continuity_solve(model, glued)
        ak.continuity_solve(cigar, fast)


def test_stall_on_huge_forcing(manufactured):
    model, _, forcing = manufactured
    hostile = forcing.like(1e3 * forcing.values)
    # a step that loses positivity is retried at half the s-step, never raised
    with pytest.raises(ak.ContinuityStalled) as excinfo:
        ak.continuity_solve(model, hostile)
    assert excinfo.value.records is not None


def test_uniqueness_from_three_starts(manufactured):
    model, phi_star, forcing = manufactured
    zero = phi_star.zeros_like()
    half = phi_star.like(0.5 * phi_star.values)
    bump = ak.GridFunction.sample(lambda t: 0.05 * np.exp(-0.5 * (t - 2.0) ** 2), *GRID)
    distance = ak.uniqueness_check(model, forcing, initializations=[zero, half, bump])
    assert distance <= 1e-8


def test_uniqueness_zero_forcing(cigar, zero_field):
    bump = ak.GridFunction.sample(lambda t: 0.02 * np.exp(-0.5 * (t - 3.0) ** 2), *GRID)
    distance = ak.uniqueness_check(cigar, zero_field, initializations=[zero_field, bump])
    assert distance <= 1e-8


def test_uniqueness_needs_two_starts(cigar, zero_field):
    with pytest.raises(ak.DomainError):
        ak.uniqueness_check(cigar, zero_field, initializations=[zero_field])


def test_fields_on_another_grid_are_rejected(cigar, zero_field, monkeypatch):
    """Grids are checked before any work: a mismatched later start builds no solver."""
    from acylsoliton import continuity as cont

    built = []
    init = cont._RadialNewton.__init__
    monkeypatch.setattr(cont._RadialNewton, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    coarse = ak.GridFunction(-12.0, 20.0, 0.02, np.zeros(1601))
    with pytest.raises(ak.DomainError, match="phi and F must share the grid"):
        ak.ma_residual_radial(cigar, zero_field, coarse, 1.0)
    with pytest.raises(ak.DomainError, match="initialization grid mismatch"):
        ak.uniqueness_check(cigar, zero_field, initializations=[zero_field, coarse])
    assert built == []


@pytest.mark.parametrize("settings", [{"newton_tol": 0.0}, {"min_step": -1.0}, {"s_steps": 0},
                                      {"newton_tol": np.nan}, {"min_step": np.inf},
                                      {"max_newton": 0}])
def test_config_rejects_nonpositive_settings(settings):
    with pytest.raises(ak.DomainError, match="finite and positive, and counts at least 1"):
        ak.ContinuityConfig(**settings)


def test_short_grid_is_rejected_before_any_newton_step(cylinder, monkeypatch):
    from acylsoliton import continuity as cont

    steps = []
    newton_step = cont._RadialNewton._newton_step
    monkeypatch.setattr(cont._RadialNewton, "_newton_step",
                        lambda self, it: steps.append(it) or newton_step(self, it))
    forcing = ak.GridFunction.sample(lambda t: 0.1 * np.exp(-t), 0.0, 0.1, 0.1)  # 2 nodes
    with pytest.raises(ak.DomainError, match="at least 3 grid nodes, got 2"):
        ak.continuity_solve(cylinder, forcing)
    with pytest.raises(ak.DomainError, match="at least 3 grid nodes, got 2"):
        ak.uniqueness_check(cylinder, forcing, initializations=[forcing.zeros_like()] * 2)
    assert steps == []


@pytest.mark.parametrize("kind", ["cigar", "cylinder"])
def test_three_node_grid_solves(kind):
    """One interior row and the boundary row are a whole problem: the solve
    converges, and its phi meets both rows when they are formed from its samples."""
    model = ak.cigar_model(2) if kind == "cigar" else ak.cylinder_model(2)
    forcing = ak.GridFunction.sample(lambda t: 0.5 * np.exp(-t), 0.0, 0.2, 0.1)  # 3 nodes
    solution = ak.continuity_solve(model, forcing)
    assert solution.records[-1].sup_residual <= ak.ContinuityConfig().newton_tol
    (p0, p1, p2), h = solution.phi.values, forcing.h
    a1 = model.sample_a(forcing.t)[1]
    row = np.log1p((p2 - 2.0 * p1 + p0) / (2.0 * a1 * h * h)) + (p2 - p0) / (2.0 * h)
    assert abs(row - forcing.values[1]) <= 1e-9
    boundary = (-3.0 * p0 + 4.0 * p1 - p2) / (2.0 * h) if kind == "cigar" else p2 - p0
    assert abs(boundary) <= 1e-12


def test_uniqueness_rejects_inadmissible_start(cigar, zero_field):
    bad = ak.GridFunction.sample(lambda t: 2.0 * (1 + np.exp(2 * t)) ** (-0.75), *GRID)
    with pytest.raises(ak.PositivityLost) as excinfo:
        ak.uniqueness_check(cigar, zero_field, initializations=[zero_field, bad])
    # the reported node is an interior node where the bad start has a + phi''/2 <= 0
    psi = bad.values - bad.values[0]
    a_phi = cigar.sample_a(bad.t)[1:-1] + 0.5 * np.diff(psi, 2) / GRID[2] ** 2
    node = excinfo.value.node
    assert 1 <= node <= len(bad.t) - 2
    assert excinfo.value.t == bad.t[node]
    assert a_phi[node - 1] <= 0.0


def test_adaptive_schedule_halves_doubles_and_caps(cigar, zero_field, monkeypatch):
    """Step halves on Newton failure, doubles after two one-iteration
    successes, and never exceeds the initial step."""
    from acylsoliton import continuity as cont

    attempts = []
    original = cont._RadialNewton.solve
    fail_once = {"armed": True}

    def scripted(self, psi, s):
        attempts.append(round(s, 6))
        if fail_once["armed"] and abs(s - 0.2) < 1e-12:
            fail_once["armed"] = False
            raise ak.NewtonDiverged("scripted failure", iterations=30, residual=1.0)
        it, _ = original(self, psi, s)
        return it, 1  # report single-iteration successes to trigger doubling

    monkeypatch.setattr(cont._RadialNewton, "solve", scripted)
    solution = ak.continuity_solve(cigar, zero_field)
    s_values = [r.s for r in solution.records]
    # 0.1 ok; 0.2 fails -> step 0.05; two successes at 0.15, 0.2 double the
    # step back to its 0.1 cap, after which the uniform schedule resumes
    assert attempts[:4] == [0.1, 0.2, 0.15, 0.2]
    assert s_values[:4] == pytest.approx([0.1, 0.15, 0.2, 0.3])
    assert max(np.diff(s_values)) <= 0.1 + 1e-12
    assert s_values[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("kind,expected", [
    ("cigar", [3] + [2] * 9),
    ("cylinder", [3, 3, 3] + [2] * 7),
])
def test_secant_predictor_iterations(kind, expected):
    """From the second s-step on, Newton starts at the secant extrapolation of
    the last two accepted points: 3 iterations at s = 0.1, then mostly 2."""
    grid = (-12.0, 20.0, 1e-3)
    model = ak.cigar_model(2) if kind == "cigar" else ak.cylinder_model(2)
    forcing = ak.ma_residual_radial(model, ak.manufactured_potential(grid, amplitude=0.3),
                                    None, 0.0)
    solution = ak.continuity_solve(model, forcing)
    assert [r.newton_iterations for r in solution.records] == expected


def test_inadmissible_prediction_restarts_from_last_solution(manufactured, monkeypatch):
    """A secant start whose residual reports a_phi <= 0 is dropped before any
    iteration: the step restarts from the last accepted v, and the accepted
    s-schedule is that of the unscripted solve."""
    from acylsoliton import continuity as cont

    model, _, forcing = manufactured
    plain = ak.continuity_solve(model, forcing)
    calls, accepted = [], {}
    original_solve, original_residual = cont._RadialNewton.solve, cont._RadialNewton.residual
    refuse = {"armed": False}

    def solve(self, v, s):
        refuse["armed"] = round(s, 6) == 0.3 and all(round(c, 6) != 0.3 for c, _ in calls)
        calls.append((s, v.copy()))
        it, iterations = original_solve(self, v, s)
        accepted[round(s, 6)] = it.v.copy()
        return it, iterations

    def residual(self, v, target, out):
        it = original_residual(self, v, target, out)
        if refuse["armed"]:
            refuse["armed"] = False
            return it._replace(sup=None, r=None, min_ratio=-1.0)
        return it

    monkeypatch.setattr(cont._RadialNewton, "solve", solve)
    monkeypatch.setattr(cont._RadialNewton, "residual", residual)
    solution = ak.continuity_solve(model, forcing)
    s_calls = [s for s, _ in calls]
    assert s_calls == pytest.approx([0.1, 0.2, 0.3, 0.3] + [k / 10 for k in range(4, 11)])
    (s1, _), (s2, _), (s3, _) = calls[:3]
    v1, v2 = accepted[0.1], accepted[0.2]
    assert np.array_equal(calls[2][1], v2 + (v2 - v1) * ((s3 - s2) / (s2 - s1)))
    assert calls[3][1].tobytes() == v2.tobytes()
    assert [r.s for r in solution.records] == [r.s for r in plain.records]
    assert solution.records[2].newton_iterations > plain.records[2].newton_iterations
    assert np.max(np.abs(solution.phi.values - plain.phi.values)) <= 1e-9


def test_solves_share_no_arrays(manufactured):
    """Back-to-back solves, with a uniqueness check between them, give the same
    bits, and no later solve writes into the arrays an earlier one returned."""
    model, phi_star, forcing = manufactured
    first = ak.continuity_solve(model, forcing)
    kept = [x.copy() for x in (first.phi.values, first.phi.increments,
                               first.phi_anchored.values)]
    ak.uniqueness_check(model, forcing, initializations=[phi_star.zeros_like(), phi_star])
    second = ak.continuity_solve(model, forcing)
    assert second.phi.values.tobytes() == first.phi.values.tobytes()
    assert second.phi.increments.tobytes() == first.phi.increments.tobytes()
    assert second.records == first.records
    for before, after in zip(kept, (first.phi.values, first.phi.increments,
                                    first.phi_anchored.values)):
        assert after.tobytes() == before.tobytes()


def test_cylinder_continuity_manufactured(cylinder):
    """The Dirichlet-both-ends branch recovers a manufactured potential."""
    from acylsoliton.gluing import smoothstep

    grid = (0.0, 20.0, 0.01)
    t = ak.uniform_nodes(*grid)
    phi_star = ak.GridFunction(*grid, 0.1 * smoothstep(t / 2.0) * np.exp(-1.5 * t))
    forcing = ak.ma_residual_radial(cylinder, phi_star, None, 0.0)
    solution = ak.continuity_solve(cylinder, forcing)
    err = np.max(np.abs(solution.phi.values - ak.decaying_gauge(phi_star).values))
    assert err <= 1e-8
    assert 1.4 <= solution.decay_rate <= 1.6


@functools.lru_cache(maxsize=None)
def _glued(n, t0):
    return ak.glued_model(ak.cigar_model(n), ak.GlueSpec(t0=t0))


@settings(derandomize=True, deadline=None)
@given(kind=st.sampled_from(["cigar", "cylinder", "glued"]), n=st.integers(1, 3),
       t0=st.sampled_from([1.3, 1.5, 2.0, 3.0, 4.5]),
       t_min=st.sampled_from([-12.0, -6.0, -3.0, 0.0]),
       t_max=st.sampled_from([6.0, 8.0, 12.0, 20.0, 30.0]),
       intervals=st.sampled_from(range(4, 1001)))
def test_solve_and_verify_fail_only_with_library_errors(kind, n, t0, t_min, t_max, intervals):
    """On any grid of the lattice, the manufactured (cigar, cylinder) or glued
    forcing is solved and verified, or the library raises its own error; the
    only warning is the forcing-decay warning.  A verdict may be a failed check."""
    grid = (t_min, t_max, (t_max - t_min) / intervals)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if kind == "glued":
                model = _glued(n, t0)
                forcing = ak.glued_forcing(model, grid)
            else:
                model = ak.cigar_model(n) if kind == "cigar" else ak.cylinder_model(n)
                forcing = ak.ma_residual_radial(model, ak.manufactured_potential(grid), None, 0.0)
            ak.verify_solution(model, ak.continuity_solve(model, forcing), forcing)
        except ak.AcylSolitonError:
            pass
    assert all(w.category is UserWarning and str(w.message).startswith("forcing decay rate")
               for w in caught), [str(w.message) for w in caught]
