"""Linear drift equation (Delta_g + X) u = h, mode by mode.

On the radial model g = a(t)(dt^2 + dtheta^2) + flat torus, a function mode
with circle eigenvalue mu_theta and torus eigenvalue mu_perp reduces the
drift Laplacian to the scalar operator

    L_mu u = a(t)^{-1} (u'' - s_mu(t) u) + 2 u',   s_mu(t) = mu_theta + a(t) mu_perp,

using f' = 2a for the drift term.  For the cylinder (a = 1) this is
u'' + 2u' - mu u.  As t -> +infty the rows converge to the
translation-invariant model operator u'' + 2u' - mu u.

Discretization: 2nd-order central differences; rows are assembled in the
equivalent scaled form u'' - s_mu u + 2 a u' = a h, which keeps the matrix
entries O(1/h^2) where a degenerates.  drift_bands builds these interior
rows for any coefficients (c, s) in u'' - s u + 2 c u'; the Newton matrix
of the continuity method is the case (c, s) = (a_phi, 0), and both systems
are solved by banded_solve.  Boundary closures:

* outer end: Dirichlet (homogeneous by default, value configurable for
  manufactured-solution studies);
* inner end, cigar-type models, radial mode mu = 0: ghost-node Neumann
  (u'(t_min) = 0, smoothness at the zero of X), which keeps the system
  tridiagonal and an M-matrix;
* inner end otherwise: Dirichlet (non-constant modes vanish at the center;
  pure cylinders are doubly truncated).

Everything here is pure and reentrant.  Modes are independent, so callers
may map over them in parallel; solve_field itself iterates in ascending-mu
order so results are identical regardless of scheduling.

scipy.linalg is imported inside banded_solve, on its first call, so that
importing the package and the numpy-only commands (spectrum, weights) do
not pay for loading SciPy.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SingularSystem
from .grids import GridFunction
from .models import Kind

RESIDUAL_RTOL = 1e-12


@dataclass(frozen=True)
class BoundaryPolicy:
    """(kind, value) pairs; kind is 'dirichlet' or 'neumann' (inner only)."""

    inner: tuple = ("dirichlet", 0.0)
    outer: tuple = ("dirichlet", 0.0)


def default_boundary(model, mu):
    if model.kind in (Kind.CIGAR, Kind.GLUED) and mu == 0.0:
        return BoundaryPolicy(inner=("neumann", 0.0))
    return BoundaryPolicy()


@dataclass
class ModeProblem:
    """One cross-section mode of the drift equation on a truncated cylinder.

    mu is the total cross-section eigenvalue; mu_circle the part carried by
    the circle factor (whose metric scales with a(t)); the remainder is the
    torus part.  JX-invariant problems have mu_circle = 0, which is the
    default.
    """

    model: object
    mu: float
    rhs: GridFunction
    mu_circle: float = 0.0
    boundary: Optional[BoundaryPolicy] = None

    def __post_init__(self):
        if self.mu < 0 or self.mu_circle < 0 or self.mu_circle > self.mu + 1e-12:
            raise DomainError(f"need 0 <= mu_circle <= mu, got {self.mu_circle}, {self.mu}")
        if self.boundary is None:
            self.boundary = default_boundary(self.model, self.mu)

    def coefficients(self):
        """(a, s_mu) at the nodes of rhs, s_mu = mu_circle + a (mu - mu_circle)."""
        a = self.model.sample_a(self.rhs.t)
        return a, self.mu_circle + a * (self.mu - self.mu_circle)


def drift_bands(c, s, h):
    """(sub, diag, sup) of the central-difference rows of u'' - s u + 2 c u'.

    c and s are sampled at the rows' nodes (s may be a scalar); sub and sup
    are the coefficients of u_{i-1} and u_{i+1}.
    """
    sub = 1.0 / h**2 - c / h
    diag = np.full(np.shape(c), -2.0 / h**2) - s
    sup = 1.0 / h**2 + c / h
    return sub, diag, sup


def banded_solve(bands, ab, rhs):
    """scipy.linalg.solve_banded that raises SingularSystem on failure."""
    import scipy.linalg  # deferred, see the module docstring

    try:
        u = scipy.linalg.solve_banded(bands, ab, rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(u)):
        raise SingularSystem("non-finite solution; check boundary policy and weights")
    return u


def assemble_mode_operator(problem):
    """(ab, rhs): L_mu in solve_banded layout (1,1) with the problem's boundary rows."""
    h = problem.rhs.h
    a, s = problem.coefficients()
    hvals = problem.rhs.values
    n = len(a)

    ab = np.zeros((3, n))
    rhs = np.empty(n)
    # interior rows, scaled by a: u'' - s u + 2 a u' = a h
    ab[2, :-2], ab[1, 1:-1], ab[0, 2:] = drift_bands(a[1:-1], s[1:-1], h)
    rhs[1:-1] = a[1:-1] * hvals[1:-1]

    inner_kind, inner_value = problem.boundary.inner
    if inner_kind == "neumann":
        if inner_value != 0.0:
            raise DomainError("only homogeneous Neumann inner conditions are supported")
        # ghost node u_{-1} = u_1: (2u_1 - 2u_0)/h^2 - s_0 u_0 = a_0 h_0
        ab[1, 0] = -2.0 / h**2 - s[0]
        ab[0, 1] = 2.0 / h**2
        rhs[0] = a[0] * hvals[0]
    elif inner_kind == "dirichlet":
        ab[1, 0] = 1.0
        ab[0, 1] = 0.0
        rhs[0] = inner_value
    else:
        raise DomainError(f"unknown inner boundary kind {inner_kind!r}")

    outer_kind, outer_value = problem.boundary.outer
    if outer_kind != "dirichlet":
        raise DomainError(f"unknown outer boundary kind {outer_kind!r}")
    ab[1, -1] = 1.0
    ab[2, -2] = 0.0
    rhs[-1] = outer_value

    return ab, rhs


def apply_mode_operator(problem, u):
    """L_mu u on the grid (one-sided stencils at the two end nodes)."""
    from . import fd

    h = problem.rhs.h
    a, s = problem.coefficients()
    vals = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)
    return (fd.d2(vals, h) - s * vals) / a + 2.0 * fd.d1(vals, h)


def mode_interior_residual(problem, u_values):
    """Relative backward-style residual of the discrete equation, interior nodes."""
    h = problem.rhs.h
    a, s = problem.coefficients()
    a, s = a[1:-1], s[1:-1]
    hv = problem.rhs.values[1:-1]
    um, u0, up = u_values[:-2], u_values[1:-1], u_values[2:]
    lhs = (up - 2.0 * u0 + um) / h**2 - s * u0 + 2.0 * a * (up - um) / (2.0 * h)
    scale = (
        (np.abs(up) + 2.0 * np.abs(u0) + np.abs(um)) / h**2
        + np.abs(s * u0)
        + 2.0 * a * (np.abs(up) + np.abs(um)) / (2.0 * h)
        + np.abs(a * hv)
    )
    scale = np.maximum(scale, 1e-300)
    return float(np.max(np.abs(lhs - a * hv) / scale))


def solve_mode(problem):
    """Direct tridiagonal solve; verifies the interior residual is at rounding level."""
    ab, rhs = assemble_mode_operator(problem)
    u = banded_solve((1, 1), ab, rhs)
    rel = mode_interior_residual(problem, u)
    if rel > RESIDUAL_RTOL:
        raise SingularSystem(f"interior residual {rel:.3e} exceeds {RESIDUAL_RTOL:.0e}")
    return GridFunction(problem.rhs.t_min, problem.rhs.t_max, problem.rhs.h, u)


def solve_field(model, cross_section, rhs_by_mode, mu_max=None, boundary_by_mode=None):
    """Independent per-mode solves, deterministic ascending-mu order.

    rhs_by_mode maps cross-section eigenvalues (from the invariant spectrum)
    to right-hand-side grid functions.  Eigenvalue membership is validated
    against the invariant spectrum of the cross-section.
    """
    from .spectrum import invariant_spectrum

    mus = sorted(rhs_by_mode)
    if not mus:
        return {}
    top = mu_max if mu_max is not None else max(mus) + 1.0
    allowed = np.array([mu for mu, _ in invariant_spectrum(cross_section, top)])
    out = {}
    for mu in mus:
        if not np.any(np.abs(allowed - mu) <= 1e-9):
            raise DomainError(f"mu={mu} is not in the invariant spectrum")
        boundary = None if boundary_by_mode is None else boundary_by_mode.get(mu)
        problem = ModeProblem(model=model, mu=float(mu), rhs=rhs_by_mode[mu], boundary=boundary)
        out[mu] = solve_mode(problem)
    return out
