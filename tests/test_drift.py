import numpy as np
import pytest

import acylsoliton as ak
from acylsoliton import drift
from oracles import interior_drift

CYL_GRID = (0.0, 20.0, 0.01)


def cylinder_mms_problem(eps, grid=CYL_GRID, exact_bc=True):
    """h = e^{-eps t} with particular solution e^{-eps t}/(eps^2 - 2 eps)."""
    model = ak.cylinder_model(1)
    rhs = ak.GridFunction.sample(lambda t: np.exp(-eps * t), *grid)
    exact = rhs.like(rhs.values / (eps**2 - 2 * eps))
    boundary = None
    if exact_bc:
        boundary = ak.BoundaryPolicy(inner=float(exact.values[0]), outer=float(exact.values[-1]))
    return ak.ModeProblem(model=model, mu=0.0, rhs=rhs, boundary=boundary), exact


def test_interior_stencil_coefficients():
    # cylinder, mu=0: rows (1/h^2 - 1/h, -2/h^2, 1/h^2 + 1/h), scaled by a = 1
    problem, _ = cylinder_mms_problem(1.0)
    sub, diag, sup, _ = drift._mode_rows(problem)
    h = problem.rhs.h
    i = 100
    assert sub[i - 1] == pytest.approx(1 / h**2 - 1 / h)
    assert diag[i] == pytest.approx(-2 / h**2)
    assert sup[i] == pytest.approx(1 / h**2 + 1 / h)


def test_cigar_rows_converge_to_cylinder_rows():
    # asymptotic translation invariance: rows at large t match the a = 1 rows
    grid = (-12.0, 20.0, 0.01)
    rhs = ak.GridFunction.sample(lambda t: np.exp(-t), *grid)
    sub, _, sup, _ = drift._mode_rows(ak.ModeProblem(model=ak.cigar_model(1), mu=0.0, rhs=rhs))
    h = 0.01
    rows = np.arange(len(rhs.values) - 50, len(rhs.values) - 1)  # the last 49 interior rows
    assert np.allclose(sup[rows], 1 / h**2 + 1 / h, rtol=1e-10)
    assert np.allclose(sub[rows - 1], 1 / h**2 - 1 / h, rtol=1e-10)


def test_weighted_adjoint_symmetry_order():
    """<L u, v>_w = <u, L v>_w with w = e^f a h, up to O(h^2) boundary terms."""
    model = ak.cigar_model(1)

    def defect(h):
        t = ak.uniform_nodes(-12.0, 20.0, h)
        a = model.sample_a(t)
        w = np.exp(model.f(t)) * a * h
        rng = np.random.default_rng(1)

        def bumps():
            u = np.zeros(len(t))
            for c, width, amp in zip(
                rng.uniform(-6, 12, 3), rng.uniform(0.8, 2.0, 3), rng.standard_normal(3)
            ):
                u += amp * np.exp(-0.5 * ((t - c) / width) ** 2)
            u[(t < -10) | (t > 18)] = 0.0  # compactly supported
            return u

        def L(u):
            out = np.zeros_like(u)
            out[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2 / a[1:-1] + (u[2:] - u[:-2]) / h
            return out

        u, v = bumps(), bumps()
        return abs(np.sum(L(u) * v * w) - np.sum(u * L(v) * w))

    d_coarse, d_fine = defect(0.02), defect(0.01)
    assert np.log2(d_coarse / d_fine) >= 1.9


@pytest.mark.parametrize("eps,coeff", [(1.0, -1.0), (1.5, -4.0 / 3.0)])
def test_cylinder_mms_closed_forms(eps, coeff):
    problem, exact = cylinder_mms_problem(eps)
    u = ak.solve_mode(problem)
    assert np.allclose(exact.values, coeff * np.exp(-eps * exact.t), rtol=1e-12)
    assert np.max(np.abs(u.values - exact.values)) < 5e-4


def test_zero_rhs_gives_zero():
    model = ak.cylinder_model(1)
    rhs = ak.GridFunction.sample(lambda t: np.zeros_like(t), *CYL_GRID)
    u = ak.solve_mode(ak.ModeProblem(model=model, mu=0.0, rhs=rhs))
    assert np.max(np.abs(u.values)) == 0.0


def test_mms_convergence_order():
    errs = []
    for h in (0.04, 0.02, 0.01):
        problem, exact = cylinder_mms_problem(1.5, grid=(0.0, 20.0, h))
        u = ak.solve_mode(problem)
        errs.append(np.max(np.abs(u.values - exact.values)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_maximum_principle_random_rhs():
    """h >= 0 compactly supported implies u <= 0 (M-matrix property)."""
    model = ak.cigar_model(1)
    grid = (-12.0, 20.0, 0.01)
    t = ak.uniform_nodes(*grid)
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(20):
        vals = np.zeros(len(t))
        for c, width, amp in zip(
            rng.uniform(-5, 10, 3), rng.uniform(0.5, 2.0, 3), rng.uniform(0.1, 1.0, 3)
        ):
            vals += amp * np.exp(-0.5 * ((t - c) / width) ** 2)
        rhs = ak.GridFunction(*grid, vals)
        u = ak.solve_mode(ak.ModeProblem(model=model, mu=0.0, rhs=rhs))
        worst = max(worst, float(np.max(u.values)))
    assert worst <= 1e-12


def test_domain_truncation_convergence():
    model = ak.cigar_model(1)

    def solve(T, eps):
        grid = (-12.0, T, 0.01)
        smooth = lambda t: np.exp(-eps * t) * np.clip(t / 2, 0, 1) ** 4
        rhs = ak.GridFunction.sample(smooth, *grid)
        return ak.solve_mode(ak.ModeProblem(model=model, mu=0.0, rhs=rhs))

    for eps in (0.5, 1.5):
        u_short = solve(20.0, eps)
        u_long = solve(24.0, eps)
        diff = np.max(np.abs(u_short.values - u_long.values[: len(u_short.values)]))
        assert diff <= 5.0 * np.exp(-eps * 20.0)


def test_solution_decay_transfer():
    """decay(u) >= decay(h) - 0.05 for decay rates in (0, 2) (mapping property)."""
    model = ak.cigar_model(1)
    grid = (-12.0, 20.0, 0.01)
    for eps in (0.5, 1.0, 1.5):
        smooth = lambda t: np.exp(-eps * t) * np.clip(t / 2, 0, 1) ** 4
        rhs = ak.GridFunction.sample(smooth, *grid)
        u = ak.solve_mode(ak.ModeProblem(model=model, mu=0.0, rhs=rhs))
        assert ak.decay_rate_fit(u) >= eps - 0.05


def test_default_boundary_policies():
    """Neumann (inner None) at a centre for mu = 0, homogeneous Dirichlet otherwise."""
    cigar = ak.cigar_model(1)
    glued = ak.glued_model(ak.cigar_model(1))
    cyl = ak.cylinder_model(1)
    rhs = ak.GridFunction.sample(np.exp, *CYL_GRID)
    dirichlet = ak.BoundaryPolicy(inner=0.0, outer=0.0)

    def boundary(model, mu):
        return ak.ModeProblem(model=model, mu=mu, rhs=rhs).boundary

    for model in (cigar, glued):
        assert boundary(model, 0.0) == ak.BoundaryPolicy(inner=None, outer=0.0)
        assert boundary(model, 1.0) == dirichlet
    assert boundary(cyl, 0.0) == dirichlet
    assert boundary(cyl, 1.0) == dirichlet


def test_neumann_inner_solution_is_flat_at_center():
    model = ak.cigar_model(1)
    grid = (-12.0, 20.0, 0.01)
    rhs = ak.GridFunction.sample(lambda t: np.exp(-t) * np.clip(t / 2, 0, 1) ** 4, *grid)
    u = ak.solve_mode(ak.ModeProblem(model=model, mu=0.0, rhs=rhs))
    slope = (-3 * u.values[0] + 4 * u.values[1] - u.values[2]) / (2 * 0.01)
    assert abs(slope) < 1e-10


def test_solve_field_modes_independent():
    model = ak.cylinder_model(2)
    cs = ak.CrossSection(2 * np.pi, ak.square_lattice())
    grid = CYL_GRID
    rhs0 = ak.GridFunction.sample(lambda t: np.exp(-1.2 * t), *grid)
    zero = rhs0.zeros_like()
    out = ak.solve_field(model, cs, {0.0: rhs0, 1.0: zero})
    assert np.max(np.abs(out[1.0].values)) == 0.0
    single = ak.solve_mode(ak.ModeProblem(model=model, mu=0.0, rhs=rhs0))
    assert np.array_equal(out[0.0].values, single.values)


def test_negative_mu_is_rejected():
    rhs = ak.GridFunction.sample(lambda t: np.exp(-t), *CYL_GRID)
    with pytest.raises(ak.DomainError, match="need mu >= 0, got -1.0"):
        ak.ModeProblem(model=ak.cylinder_model(2), mu=-1.0, rhs=rhs)


def test_solve_field_validates_membership():
    model = ak.cylinder_model(2)
    cs = ak.CrossSection(2 * np.pi, ak.square_lattice())
    rhs = ak.GridFunction.sample(lambda t: np.exp(-t), *CYL_GRID)
    with pytest.raises(ak.DomainError):
        ak.solve_field(model, cs, {0.37: rhs})


def test_solve_field_rejects_circle_only_eigenvalues():
    """(2 pi / 1.3)^2 is an eigenvalue of the circle modes j = +-1 alone, which
    the JX-invariant reduction does not solve; the torus values stay allowed."""
    mu_circle = (2 * np.pi / 1.3) ** 2
    for quotient in (None, ak.negation_quotient()):
        cs = ak.CrossSection(1.3, ak.square_lattice(), quotient)
        assert any(abs(mu - mu_circle) < 1e-9 for mu, _ in ak.spectrum(cs, 30.0))
        rhs = ak.GridFunction.sample(lambda t: np.exp(-t), *CYL_GRID)
        with pytest.raises(ak.DomainError, match="not a torus eigenvalue"):
            ak.solve_field(ak.cigar_model(2), cs, {mu_circle: rhs})
        # mu_torus = 1 has only j = 0 modes, which the negation quotient keeps
        assert set(ak.solve_field(ak.cylinder_model(2), cs, {1.0: rhs})) == {1.0}


def test_solve_field_two_mode_manufactured_recovery():
    """Targets that vanish at t = 0 and to 1e-9 at t = 20 meet the default
    homogeneous Dirichlet ends, so each mode gets back its own samples."""
    model = ak.cylinder_model(2)
    cs = ak.CrossSection(2 * np.pi, ak.square_lattice())
    grid = CYL_GRID
    targets = {
        0.0: ak.GridFunction.sample(lambda t: t * np.exp(-1.2 * t), *grid),
        1.0: ak.GridFunction.sample(lambda t: t * np.exp(-1.8 * t), *grid),
    }
    rhs = {}
    for mu, u_star in targets.items():
        # both end rows are Dirichlet rows, which read no rhs
        a = model.sample_a(u_star.t)[1:-1]
        applied = np.zeros_like(u_star.values)
        applied[1:-1] = interior_drift(u_star.values, grid[2], a, a * mu)
        rhs[mu] = u_star.like(applied)
    solved = ak.solve_field(model, cs, rhs)
    for mu, u_star in targets.items():
        err = np.max(np.abs(solved[mu].values - u_star.values))
        assert err < 1e-9, (mu, err)


def test_singular_system_flagged():
    # a Dirichlet row with value NaN is rejected by the finite-values guard
    model = ak.cylinder_model(1)
    rhs = ak.GridFunction.sample(lambda t: np.exp(-t), 0.0, 5.0, 0.05)
    problem = ak.ModeProblem(
        model=model, mu=0.0, rhs=rhs,
        boundary=ak.BoundaryPolicy(inner=np.nan),
    )
    with pytest.raises(ak.SingularSystem):
        ak.solve_mode(problem)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_march_is_flagged(bad):
    """A march result holding nan or an infinity raises, whichever column and
    node it sits in."""
    ab = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], order="F")
    for node, column in ((0, 0), (2, 0), (2, 1)):
        rhs = np.ones((3, 2), order="F")
        rhs[node, column] = bad
        with pytest.raises(ak.SingularSystem, match="non-finite"):
            drift.forward_march(ab, rhs)
    assert drift.forward_march(ab, np.ones((3, 1), order="F")).tolist() == [[1.0]] * 3
