import numpy as np
import pytest

import acylsoliton as ak

DEFAULT_GRID = (-12.0, 20.0, 0.01)
CYLINDER_GRID = (0.0, 20.0, 0.01)


@pytest.fixture(scope="session")
def cigar():
    return ak.cigar_model(2)


@pytest.fixture(scope="session")
def cylinder():
    return ak.cylinder_model(1)


@pytest.fixture(scope="session")
def default_grid():
    return DEFAULT_GRID


@pytest.fixture(scope="session")
def zero_field():
    t = ak.uniform_nodes(*DEFAULT_GRID)
    return ak.GridFunction(*DEFAULT_GRID, np.zeros(len(t)))


def seeded_admissible_field(rng, grid=DEFAULT_GRID, amplitude=0.1):
    """Random smooth potential with exact support in {t >= 0}.

    Gaussian bumps cut by a polynomial switch so the field vanishes
    identically where the cigar coefficient is exponentially small; the
    curvature then stays well inside metric positivity.
    """
    from acylsoliton.gluing import smoothstep

    t = ak.uniform_nodes(*grid)
    vals = np.zeros(len(t))
    for c, width, amp in zip(
        rng.uniform(2.0, 12.0, 3),
        rng.uniform(1.0, 3.0, 3),
        rng.uniform(-amplitude, amplitude, 3),
    ):
        vals += amp * np.exp(-0.5 * ((t - c) / width) ** 2)
    return ak.GridFunction(*grid, vals * smoothstep(t / 2.0))


def newton_rows(a_phi, h, dv):
    """The Jacobian rows sup_k dv_{k+1} - sub_k dv_k of the Newton step, which
    continuity._march_bands writes at a_phi (rows scaled by 2 a_phi), applied to dv."""
    from acylsoliton.continuity import _march_bands

    ab, sub0 = _march_bands(np.array(a_phi), h, np.zeros(2 * len(a_phi) + 1))
    return ab[0] * dv[1:] + np.append(-sub0, ab[1, :-1]) * dv[:-1]


def fresh_residual(newton, v, target):
    """newton.residual at v with its (psi''/2, rows) pair in new arrays, which
    outlive a later residual or Newton step (the solver's own pair does not)."""
    m = len(v) - 1
    return newton.residual(v, target, (np.empty(m), np.empty(m)))


def jacobian_gaps(model, grid, rng, pairs=10, tau=1e-6):
    """(interior, boundary, scaled): the largest gaps between finite differences
    of the Newton residual in the increments v and the Jacobian rows the solver
    inverts.

    For each seeded pair (phi, psi) the residual at s = 0 is differenced at
    phi's increments v along psi's increments dv.  Interior row k, which reads
    dv_k and dv_{k+1}, is compared with the _march_bands row sup_k dv_{k+1} -
    sub_k dv_k divided by 2 a_phi; the boundary row with the Neumann row
    (3 dv_0 - dv_1) / (2h) (models with a centre) or the Dirichlet row sum(dv).
    The seeded fields vanish near the inner end, where psi leaves the Neumann
    row at 0; so the boundary row is also differenced along constant
    increments, which change no second difference and so are admissible at
    every node: there the rows read 1/h and n - 1.  Where a_phi is tiny (the
    cigar's inner rows, a_phi ~ 4e-11 at t = -12) dividing by 2 a_phi turns
    the rows' rounding into large gaps, so scaled compares 2 a_phi times the
    finite difference with the rows, relative to 1/h^2, along both directions:
    along the constant increments it reaches every interior row.
    """
    from acylsoliton.continuity import _RadialNewton

    h = grid[2]
    zero = ak.GridFunction(*grid, np.zeros(len(ak.uniform_nodes(*grid))))
    newton = _RadialNewton(model, zero, ak.ContinuityConfig())
    target = np.zeros(len(zero.values) - 2)

    def boundary_row(v):  # the Neumann row, or the Dirichlet row sum(v)
        return (3.0 * v[0] - v[1]) / (2.0 * h) if newton.neumann_inner else np.sum(v)

    interior = boundary = scaled = 0.0
    for _ in range(pairs):
        v = np.diff(seeded_admissible_field(rng, grid).values)
        dv = np.diff(seeded_admissible_field(rng, grid).values)
        base = fresh_residual(newton, v, target)
        a_phi = newton.a[1:-1] + base.half_dd
        for d in (dv, np.ones_like(v)):
            bumped = fresh_residual(newton, v + tau * d, target)
            fd, rows = (bumped.r - base.r) / tau, newton_rows(a_phi, h, d)
            if d is dv:
                interior = max(interior, float(np.max(np.abs(fd - rows / (2.0 * a_phi)))))
            scaled = max(scaled, float(np.max(np.abs(2.0 * a_phi * fd - rows))) * h**2)
            fd_boundary = (boundary_row(v + tau * d) - boundary_row(v)) / tau
            boundary = max(boundary, float(abs(fd_boundary - boundary_row(d))))
    return interior, boundary, scaled


@pytest.fixture(scope="session")
def manufactured():
    """Anchored manufactured potential and its exact discrete forcing."""
    model = ak.cigar_model(2)
    phi_star = ak.manufactured_potential(DEFAULT_GRID)
    forcing = ak.ma_residual_radial(model, phi_star, None, 0.0)
    return model, phi_star, forcing


@pytest.fixture(scope="session")
def manufactured_solution(manufactured):
    model, phi_star, forcing = manufactured
    solution = ak.continuity_solve(model, forcing)
    return model, phi_star, forcing, solution
