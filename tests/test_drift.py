import numpy as np
import pytest

import acylsoliton as ak

CYL_GRID = (0.0, 20.0, 0.01)


def cylinder_mms_problem(eps, grid=CYL_GRID, exact_bc=True):
    """h = e^{-eps t} with particular solution e^{-eps t}/(eps^2 - 2 eps)."""
    model = ak.cylinder_model(1)
    rhs = ak.GridFunction.sample(lambda t: np.exp(-eps * t), *grid)
    exact = rhs.like(rhs.values / (eps**2 - 2 * eps))
    boundary = None
    if exact_bc:
        boundary = ak.BoundaryPolicy(
            inner=("dirichlet", float(exact.values[0])),
            outer=("dirichlet", float(exact.values[-1])),
        )
    return ak.ModeProblem(model=model, mu=0.0, rhs=rhs, boundary=boundary), exact


def test_interior_stencil_coefficients():
    # cylinder, mu=0: rows (1/h^2 - 1/h, -2/h^2, 1/h^2 + 1/h), scaled by a = 1
    problem, _ = cylinder_mms_problem(1.0)
    ab, _ = ak.assemble_mode_operator(problem)
    h = problem.rhs.h
    i = 100
    assert ab[2, i - 1] == pytest.approx(1 / h**2 - 1 / h)
    assert ab[1, i] == pytest.approx(-2 / h**2)
    assert ab[0, i + 1] == pytest.approx(1 / h**2 + 1 / h)


def test_cigar_rows_converge_to_cylinder_rows():
    # asymptotic translation invariance: rows at large t match the a = 1 rows
    grid = (-12.0, 20.0, 0.01)
    rhs = ak.GridFunction.sample(lambda t: np.exp(-t), *grid)
    cigar_ab, _ = ak.assemble_mode_operator(ak.ModeProblem(model=ak.cigar_model(1), mu=0.0, rhs=rhs))
    h = 0.01
    tail = slice(-50, -1)
    assert np.allclose(cigar_ab[0, :][tail], 1 / h**2 + 1 / h, rtol=1e-10)
    assert np.allclose(cigar_ab[2, -52:-3], 1 / h**2 - 1 / h, rtol=1e-10)


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
    cigar = ak.cigar_model(1)
    cyl = ak.cylinder_model(1)
    assert ak.default_boundary(cigar, 0.0).inner[0] == "neumann"
    assert ak.default_boundary(cigar, 1.0).inner[0] == "dirichlet"
    assert ak.default_boundary(cyl, 0.0).inner[0] == "dirichlet"


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


def test_solve_field_validates_membership():
    model = ak.cylinder_model(2)
    cs = ak.CrossSection(2 * np.pi, ak.square_lattice())
    rhs = ak.GridFunction.sample(lambda t: np.exp(-t), *CYL_GRID)
    with pytest.raises(ak.DomainError):
        ak.solve_field(model, cs, {0.37: rhs})


def test_solve_field_two_mode_manufactured_recovery():
    model = ak.cylinder_model(2)
    cs = ak.CrossSection(2 * np.pi, ak.square_lattice())
    grid = CYL_GRID
    targets = {
        0.0: ak.GridFunction.sample(lambda t: np.exp(-1.2 * t), *grid),
        1.0: ak.GridFunction.sample(lambda t: np.exp(-1.8 * t), *grid),
    }
    rhs = {}
    boundary = {}
    for mu, u_star in targets.items():
        problem = ak.ModeProblem(model=model, mu=mu, rhs=u_star.zeros_like())
        applied = ak.apply_mode_operator(problem, u_star)
        rhs[mu] = u_star.like(applied)
        boundary[mu] = ak.BoundaryPolicy(
            inner=("dirichlet", float(u_star.values[0])),
            outer=("dirichlet", float(u_star.values[-1])),
        )
    solved = ak.solve_field(model, cs, rhs, boundary_by_mode=boundary)
    for mu, u_star in targets.items():
        err = np.max(np.abs(solved[mu].values - u_star.values))
        assert err < 5e-4, (mu, err)


def test_singular_system_flagged():
    # a Dirichlet row with value NaN is rejected by the finite-values guard
    model = ak.cylinder_model(1)
    rhs = ak.GridFunction.sample(lambda t: np.exp(-t), 0.0, 5.0, 0.05)
    problem = ak.ModeProblem(
        model=model, mu=0.0, rhs=rhs,
        boundary=ak.BoundaryPolicy(inner=("dirichlet", np.nan)),
    )
    with pytest.raises(ak.SingularSystem):
        ak.solve_mode(problem)
