import math
import re

import numpy as np
import pytest

import acylsoliton as ak
from acylsoliton import gluing

GRID = (-12.0, 20.0, 0.01)


def test_smoothstep_junctions():
    s = ak.smoothstep(np.array([0.0, 1.0]), 7)
    assert s[0] == 0.0 and s[1] == 1.0
    x = np.linspace(0, 1, 101)
    vals = ak.smoothstep(x, 7)
    assert np.all(np.diff(vals) >= -1e-15)  # monotone
    # C^3 at junctions: first three derivatives vanish at 0 and 1
    h = 1e-3
    for edge in (0.0, 1.0):
        stencil = ak.smoothstep(edge + h * np.arange(-4, 5), 7)
        d1 = (stencil[5] - stencil[3]) / (2 * h)
        d2 = (stencil[5] - 2 * stencil[4] + stencil[3]) / h**2
        d3 = (stencil[6] - 2 * stencil[5] + 2 * stencil[3] - stencil[2]) / (2 * h**3)
        # d3 tends to 0 linearly in h (the 4th derivative jumps at the junction)
        assert abs(d1) < 1e-5 and abs(d2) < 1e-2 and abs(d3) < 300 * h


def test_smoothstep_rejects_even_degree():
    with pytest.raises(ak.DomainError):
        ak.smoothstep(0.5, 4)


@pytest.mark.parametrize("degree", [5.0, True, np.float64(7.0)],
                         ids=["float", "bool", "numpy_float"])
def test_smoothstep_rejects_non_integer_degree(degree):
    with pytest.raises(ak.DomainError, match=re.escape(f"odd integer >= 1, got {degree!r}")):
        ak.smoothstep(0.5, degree)
    assert ak.smoothstep(0.5, np.int64(5)) == ak.smoothstep(0.5, 5) == 0.5


def test_cylinder_potential_is_t_squared():
    p = gluing.potential_of(ak.cylinder_model(1), (0.0, 6.0, 0.01))
    assert np.array_equal(p.values, p.t**2)


def test_cigar_potential_matches_mpmath_dilogarithm():
    import mpmath as mp

    p = gluing.potential_of(ak.cigar_model(1), (-3.0, 8.0, 0.25))
    with mp.workdps(30):
        exact = [float(t**2 + mp.polylog(2, -mp.exp(-2 * t)) / 2 + mp.pi**2 / 24)
                 for t in map(mp.mpf, p.t.tolist())]
    assert np.max(np.abs(p.values - exact)) <= 1e-13


def test_potential_second_derivative_recovers_a():
    from acylsoliton import fd

    model = ak.cigar_model(1)
    p = gluing.potential_of(model, (0.0, 6.0, 0.005))
    a_rec = 0.5 * fd.increment_derivatives(np.diff(p.values), p.h)[1]
    err = np.max(np.abs(a_rec - model.a(p.t))[1:-1])
    assert err < 1e-5  # O(h^2)


def _mpmath_glue(t0, rho0, t):
    """c and f - 2t of the cigar gluing at 30 digits, from mpmath.diff of the
    composite potential chi t^2 + (1 - chi) P and mpmath.quad of the bump."""
    import mpmath as mp

    m = 3  # the default degree-7 smoothstep

    def chi(s):
        x = (s - 1) / (t0 - 1)
        if x <= 0 or x >= 1:
            return mp.mpf(x >= 1)
        return x ** (m + 1) * sum(math.comb(m + k, k) * math.comb(2 * m + 1, m - k) * (-x) ** k
                                  for k in range(m + 1))

    def composite(s):
        potential = s**2 + mp.polylog(2, -mp.exp(-2 * s)) / 2 + mp.pi**2 / 24
        return chi(s) * s**2 + (1 - chi(s)) * potential

    def rho(s):
        u = (s - (t0 + 1) / 2) / (t0 / 2)
        return rho0 * (1 - u**2) ** 4 if abs(u) < 1 else mp.mpf(0)

    c = mp.diff(composite, t, 2) / 2 + rho(t)
    # f(1/2) = P'(1/2) + 1 and f' = 2c = composite'' + 2 rho
    f_minus_2t = mp.diff(composite, t, 1) - 2 * t + 1 + 2 * mp.quad(rho, [mp.mpf(1) / 2, t])
    return float(c), float(f_minus_2t)


@pytest.mark.parametrize("t0, rho0, positive", [(3.0, 0.0, True), (3.0, 15.0, True),
                                                (1.3, 0.0, False), (1.3, 15.0, True)])
def test_glue_closed_form_matches_mpmath(t0, rho0, positive):
    """c at the amplitude rho0, and the glued model's f - 2t at its own
    amplitude, the one auto_rho picks; rho0 reaches it unless t0 = 1.3 has no
    bump (positive is False)."""
    import mpmath as mp

    inner = ak.cigar_model(2)
    spec = ak.GlueSpec(t0=t0)
    model = ak.glued_model(inner, spec)
    own = model.glue_params["rho0"]
    assert (rho0 >= own) == positive
    # seven transition nodes, none on the junctions t = 1, t0
    c = ak.glue_coefficient((0.6, t0 + 0.4, (t0 - 0.2) / 6), spec, inner, rho0)
    with mp.workdps(30):
        exact_c = [_mpmath_glue(mp.mpf(t0), mp.mpf(rho0), mp.mpf(float(t)))[0] for t in c.t]
        exact_f = [_mpmath_glue(mp.mpf(t0), mp.mpf(own), mp.mpf(float(t)))[1] for t in c.t]
    assert np.max(np.abs(c.values - exact_c)) <= 1e-13
    assert np.max(np.abs(model.f_minus_2t(c.t) - exact_f)) <= 1e-13


@pytest.mark.parametrize("t0, steps", [(3.0, (0.01, 0.005, 0.0025)),
                                       (1.3, (0.0025, 0.00125, 0.000625))])
def test_finite_difference_coefficient_converges_to_closed_form(t0, steps):
    from acylsoliton import fd

    inner = ak.cigar_model(2)
    errors = []
    for h in steps:
        spec = ak.GlueSpec(t0=t0)
        grid = (0.0, spec.grid[1], h)  # t0 + 3, a node of every step
        p = gluing.potential_of(inner, grid)
        chi = spec.cutoff(p.t)
        composite = chi * p.t**2 + (1.0 - chi) * p.values
        c_fd = 0.5 * fd.increment_derivatives(np.diff(composite), h)[1] + spec.bump(p.t, 15.0)
        c = ak.glue_coefficient(grid, spec, inner, 15.0)
        transition = (p.t > 0.5) & (p.t < t0 + 0.5)
        errors.append(np.max(np.abs(c_fd - c.values)[transition]))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((orders > 1.9) & (orders < 2.1)), orders


@pytest.mark.parametrize("degree", [1, 4, 5.0, True, 7.0],
                         ids=["c0_cutoff", "even", "float", "bool", "float_odd"])
def test_glue_spec_rejects_bad_cutoff_degree(degree):
    """An odd integer >= 3 (the cutoff's coefficients are binomials of it),
    checked when the spec is built rather than at first use."""
    with pytest.raises(ak.DomainError, match=f"odd integer >= 3, got {degree!r}"):
        ak.GlueSpec(smoothstep_degree=degree)


@pytest.mark.parametrize("name", ["t0", "margin"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_glue_spec_rejects_non_finite_values(name, value):
    with pytest.raises(ak.DomainError, match=f"GlueSpec {name} must be finite, got {value}"):
        ak.GlueSpec(**{name: value})


@pytest.mark.parametrize("settings,message", [
    ({"t0": 1.0}, "transition end t0 must exceed 1"),
    ({"margin": 0.0}, "positivity margin must be positive"),
], ids=["t0", "margin"])
def test_glue_spec_rejects_out_of_range_values(settings, message):
    with pytest.raises(ak.DomainError, match=message):
        ak.GlueSpec(**settings)


def test_glue_coefficient_rejects_negative_amplitude():
    spec = ak.GlueSpec()
    with pytest.raises(ak.DomainError, match="bump amplitude must be nonnegative"):
        ak.glue_coefficient(spec.grid, spec, ak.cigar_model(2), -1.0)


def test_glued_model_rejects_other_inner_models():
    glued = ak.glued_model(ak.cigar_model(2))
    with pytest.raises(ak.DomainError, match="cigar or cylinder"):
        ak.glued_model(glued)


def test_glue_cylinder_to_itself():
    spec = ak.GlueSpec(t0=3.0)
    c = ak.glue_coefficient(spec.grid, spec, ak.cylinder_model(1), 0.0)
    assert np.max(np.abs(c.values - 1.0)) < 1e-7
    assert ak.auto_rho(spec, ak.cylinder_model(1)) == 0.0


def test_glue_region_identities_exact():
    inner = ak.cigar_model(2)
    spec = ak.GlueSpec(t0=3.0)
    c = ak.glue_coefficient(spec.grid, spec, inner, 0.0)
    t = c.t
    outer = t >= 3.5
    assert np.all(c.values[outer] == 1.0)
    left = t <= 0.5
    assert np.array_equal(c.values[left], inner.a(t[left]))


def test_auto_rho_cigar_default_transition():
    inner = ak.cigar_model(2)
    spec = ak.GlueSpec(t0=3.0)
    rho0 = ak.auto_rho(spec, inner)
    assert np.isfinite(rho0) and rho0 >= 0.0
    c = ak.glue_coefficient(spec.grid, spec, inner, rho0=rho0)
    assert np.min(c.values) >= 1e-2


def test_auto_rho_narrow_transition_needs_bump():
    # a narrow transition makes the interpolation dip strongly negative
    inner = ak.cigar_model(2)
    spec = ak.GlueSpec(t0=1.3)
    rho0 = ak.auto_rho(spec, inner)
    assert rho0 > 1.0
    c = ak.glue_coefficient(spec.grid, spec, inner, rho0=rho0)
    assert np.min(c.values) >= spec.margin
    # near-minimality: 10% less amplitude violates the margin
    c_less = ak.glue_coefficient(spec.grid, spec, inner, rho0=0.9 * rho0)
    assert np.min(c_less.values) < spec.margin


def test_auto_rho_margin_monotonicity():
    inner = ak.cigar_model(2)
    rho_small = ak.auto_rho(ak.GlueSpec(t0=1.3, margin=1e-2), inner)
    rho_large = ak.auto_rho(ak.GlueSpec(t0=1.3, margin=2e-2), inner)
    assert rho_large >= rho_small


@pytest.mark.parametrize("t0, tol", [(1.1, 1e-4), (1.3, 1e-6), (1.5, 1e-6), (2.0, 1e-6)])
def test_auto_rho_margin_holds_between_nodes(t0, tol):
    """c clears the margin on 2e6 points of the transition, not only on the
    0.005 gluing nodes, with an amplitude no larger than that check needs."""
    inner = ak.cigar_model(2)
    spec = ak.GlueSpec(t0=t0)
    model = ak.glued_model(inner, spec)
    rho0 = model.glue_params["rho0"]
    lowest, need = np.inf, -np.inf
    for t in np.array_split(np.linspace(0.5, t0 + 0.5, 2_000_002)[1:-1], 10):
        a = model.a(t)
        lowest = min(lowest, float(np.min(a)))
        # c = c_0 + rho0 b, so (margin - c_0)/b = rho0 + (margin - c)/b
        need = max(need, float(np.max(rho0 + (spec.margin - a) / spec.bump(t, 1.0))))
    assert lowest >= spec.margin - tol
    assert rho0 <= (1.0 + 1e-6) * need


def test_auto_rho_raises_by_ulps_until_every_node_clears():
    """Here the node estimate and its vertex refinement leave one node just
    below the margin; auto_rho raises rho0 ulp by ulp to the least amplitude
    at which every node clears it."""
    inner = ak.cigar_model(2)
    spec = ak.GlueSpec(t0=1.05, smoothstep_degree=3, margin=0.01)
    rho0 = ak.auto_rho(spec, inner)
    assert rho0 == 334.927460911294
    c = ak.glue_coefficient(spec.grid, spec, inner, rho0)
    assert np.min(c.values) >= spec.margin
    below = ak.glue_coefficient(spec.grid, spec, inner, np.nextafter(rho0, -np.inf))
    assert np.count_nonzero(below.values < spec.margin) == 1


def test_auto_rho_evaluates_the_coefficient_once(monkeypatch):
    coefficient_calls, sizes = [], []
    glue_coefficient, transition = gluing.glue_coefficient, gluing._transition

    def counted_coefficient(*args, **kwargs):
        coefficient_calls.append(args)
        return glue_coefficient(*args, **kwargs)

    def counted_transition(*args):
        evaluate = transition(*args)
        return lambda t: sizes.append(len(t)) or evaluate(t)

    monkeypatch.setattr(gluing, "glue_coefficient", counted_coefficient)
    monkeypatch.setattr(gluing, "_transition", counted_transition)
    spec = ak.GlueSpec(t0=1.3)
    assert ak.auto_rho(spec, ak.cigar_model(2)) > 1.0
    assert len(coefficient_calls) == 1
    assert len(sizes) <= 2 and all(n == 1 for n in sizes[1:])  # the grid, then one vertex


@pytest.mark.parametrize("inner", [ak.cigar_model(2), ak.cylinder_model(2)],
                         ids=["cigar", "cylinder"])
@pytest.mark.parametrize("t0", [1.3, 1.5, 2.0, 3.0, 4.5])
def test_coefficient_affine_in_rho_and_kappa_closed_form(inner, t0):
    spec = ak.GlueSpec(t0=t0)
    c0 = ak.glue_coefficient(spec.grid, spec, inner, rho0=0.0)
    b = spec.bump(c0.t, 1.0)
    for rho0 in np.random.default_rng(int(10 * t0)).uniform(0.0, 50.0, 5):
        c = ak.glue_coefficient(spec.grid, spec, inner, rho0=rho0)
        assert np.array_equal(c.values, c0.values + rho0 * b)
    model = ak.glued_model(inner, spec)
    rho0 = model.glue_params["rho0"]
    kappa = gluing._transition(inner, spec, rho0)(np.array([t0 + 0.5]))[1][0]
    assert float(model.f_minus_2t(np.array([t0 + 0.5]))[0]).hex() == float(kappa).hex()


def test_auto_rho_rejects_margin_outside_bump_support():
    # the cigar's c(0) = 1/2 lies left of the bump support (1/2, t0 + 1/2)
    with pytest.raises(ak.DomainError, match=r"c = 0.5 < margin at t=0, outside the bump"):
        ak.glued_model(ak.cigar_model(2), ak.GlueSpec(margin=0.6))


@pytest.mark.parametrize("rho0", [14.96, 14.9458])  # both clear every gluing node
def test_supplied_rho0_is_checked_between_nodes(rho0, monkeypatch):
    """c dips to -0.0050 (-0.0186) at t = 1.0822, between the nodes 1.080 and
    1.085: glued_model rejects an amplitude that only clears the nodes."""
    inner = ak.cigar_model(2)
    spec = ak.GlueSpec(t0=1.3)
    c = ak.glue_coefficient(spec.grid, spec, inner, rho0)
    assert np.min(c.values) > 0.0
    monkeypatch.setattr(gluing, "auto_rho", lambda spec, inner_model: rho0)
    with pytest.raises(ak.DomainError,
                       match=r"c = -0.0\d+ <= 0 at t=1.082\d*; increase glue.margin"):
        ak.glued_model(inner, spec)


def test_narrow_glued_solve_converges_at_fine_grid():
    model = ak.glued_model(ak.cigar_model(2), ak.GlueSpec(t0=1.3))
    forcing = ak.glued_forcing(model, (-12.0, 20.0, 1e-3))
    solution = ak.continuity_solve(model, forcing)
    assert len(solution.records) == 10  # the uniform schedule, no step halved
    # node 0 carries the Neumann closure against a constant F (3.3e-7 here)
    assert np.max(np.abs(ak.soliton_residual(model, solution.phi).values[1:])) <= 1e-8


def test_glued_model_invariants():
    from acylsoliton import fd

    model = ak.glued_model(ak.cigar_model(2))
    assert model.kind is ak.Kind.GLUED
    t = ak.uniform_nodes(*GRID)
    a = model.sample_a(t)
    assert np.all(a > 0)
    # f' = 2 a to stencil accuracy
    fp = fd.increment_derivatives(np.diff(model.f(t)), GRID[2])[0]
    assert np.max(np.abs(fp - 2 * a)[1:-1]) < 5e-4
    # f - 2t constant on the cylinder region
    outer = t >= 3.5
    gap = model.f_minus_2t(t[outer])
    assert np.max(np.abs(gap - gap[0])) == 0.0


def test_glued_residual_vanishes_on_cylinder_region(zero_field):
    model = ak.glued_model(ak.cigar_model(2))
    r = ak.soliton_residual(model, zero_field)
    outer = r.t >= 3.5
    assert np.max(np.abs(r.values[outer])) == 0.0


def test_glued_forcing_compact_support():
    model = ak.glued_model(ak.cigar_model(2))
    forcing = ak.glued_forcing(model, GRID)
    assert np.max(np.abs(forcing.values[forcing.t >= 3.5])) == 0.0
    assert np.max(np.abs(forcing.values)) > 1e-3  # nontrivial in the transition


@pytest.mark.parametrize("t0,inner_value", [(1.3, 15.82), (1.5, 6.33), (2.0, 1.12), (3.0, 0.0)])
def test_glued_forcing_is_zero_outside_and_constant_inside(t0, inner_value):
    """F = 0 on t >= t0 + 1/2; on t < 1/2 it is the constant 2 int rho, so it
    has compact support only when rho0 = 0 (here t0 = 3)."""
    spec = ak.GlueSpec(t0=t0)
    model = ak.glued_model(ak.cigar_model(2), spec)
    forcing = ak.glued_forcing(model, GRID)
    t, values = forcing.t, forcing.values
    assert np.max(np.abs(values[t >= t0 + 0.5])) == 0.0
    inner = values[t < 0.5]
    assert np.ptp(inner) <= 1e-12
    assert inner[0] == pytest.approx(inner_value, abs=5e-3)
    lift = 2.0 * spec.bump_integral(np.array([t0 + 0.5]), model.glue_params["rho0"])[0]
    assert inner[0] == pytest.approx(lift, abs=1e-9)


def test_glued_pipeline_end_to_end():
    model = ak.glued_model(ak.cigar_model(2))
    forcing = ak.glued_forcing(model, GRID)
    solution = ak.continuity_solve(model, forcing)
    residual = ak.soliton_residual(model, solution.phi)
    assert np.max(np.abs(residual.values)) <= 1e-8


def test_solution_soliton_residual_from_increments_and_samples():
    """At h = 1e-3 the soliton residual at the solution, read from the
    increments phi carries, stays at rounding level (5.0e-14); a plain
    GridFunction copy of the anchored samples goes through np.diff and
    reads 2.8e-11."""
    model = ak.glued_model(ak.cigar_model(2))
    grid = (-12.0, 20.0, 1e-3)
    forcing = ak.glued_forcing(model, grid)
    solution = ak.continuity_solve(model, forcing)
    from_increments = ak.soliton_residual(model, solution.phi).values
    samples = ak.GridFunction(*grid, solution.phi_anchored.values)
    from_samples = ak.soliton_residual(model, samples).values
    assert np.max(np.abs(from_increments)) <= 1e-12
    assert np.max(np.abs(from_increments - from_samples)) <= 1e-9


def test_grid_end_is_a_lattice_node():
    """The grid is (0, end, h), end the first node of h Z at or past t0 + 3, h = 0.005."""
    assert ak.GlueSpec.h == 0.005
    assert ak.GlueSpec(t0=3.0).grid == (0.0, 6.0, 0.005)
    for t0, end in ((3.001, 6.005), (5.123, 8.125)):
        spec = ak.GlueSpec(t0=t0)
        assert spec.grid[1] == pytest.approx(end, abs=1e-12)
        assert len(ak.uniform_nodes(*spec.grid)) == round(end / spec.h) + 1
