"""Linear drift equation (Delta_g + X) u = h, mode by mode.

On the radial model g = a(t)(dt^2 + dtheta^2) + flat torus, the JX-invariant
reduction (no dependence on theta, as for the paper's potentials) of a
cross-section mode with eigenvalue mu turns the drift Laplacian into

    L_mu u = a(t)^{-1} (u'' - s_mu(t) u) + 2 u',   s_mu(t) = a(t) mu,

using f' = 2a for the drift term.  For the cylinder (a = 1) this is
u'' + 2u' - mu u, the translation-invariant model operator to which the rows
converge as t -> +infty.

Discretization: 2nd-order central differences of u'' - s u + 2 c u', whose
rows are (1/h^2 - c/h, -2/h^2 - s, 1/h^2 + c/h).  The mode operator is a L_mu
at (c, s) = (a, s_mu), assembled in the scaled form u'' - s_mu u + 2 a u' = a h,
which keeps the entries O(1/h^2) where a degenerates; solve_mode hands these
rows to dgtsv as its three diagonals and reads its backward error from the
same rows.

Boundary closures (BoundaryPolicy):

* outer end: Dirichlet (homogeneous by default, value configurable for
  manufactured-solution studies);
* inner end, models with a centre (Kind.neumann_centre), radial mode mu = 0:
  ghost-node Neumann (u'(t_min) = 0, smoothness at the zero of X), which
  keeps the system tridiagonal and an M-matrix;
* inner end otherwise: Dirichlet (non-constant modes vanish at the center;
  pure cylinders are doubly truncated).

Everything here is pure and reentrant.  Modes are independent, so callers
may map over them in parallel; solve_field itself iterates in ascending-mu
order so results are identical regardless of scheduling.

solve_mode calls LAPACK's dgtsv through _lapack's provider: the OpenBLAS
numpy has already loaded, or SciPy's LAPACK extension where numpy's library
lacks the routines.  The package imports this module on first use of one of
its names; of the CLI commands only solve-linear loads it (the Newton
solver's band march is continuity's own).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _lapack
from .errors import DomainError, SingularSystem
from .grids import GridFunction

RESIDUAL_RTOL = 1e-12


@dataclass(frozen=True)
class BoundaryPolicy:
    """Dirichlet values u(t_min) = inner and u(t_max) = outer; inner None is
    the homogeneous Neumann condition u'(t_min) = 0."""

    inner: Optional[float] = 0.0
    outer: float = 0.0


@dataclass
class ModeProblem:
    """One cross-section mode of the drift equation on a truncated cylinder,
    in the JX-invariant reduction: the cross-section eigenvalue mu >= 0 enters
    as a(t) mu (module docstring).  boundary None takes Neumann at a centre for
    the radial mode mu = 0, else homogeneous Dirichlet.
    """

    model: object
    mu: float
    rhs: GridFunction
    boundary: Optional[BoundaryPolicy] = None

    def __post_init__(self):
        if self.mu < 0:
            raise DomainError(f"need mu >= 0, got {self.mu}")
        if self.boundary is None:
            centre = self.model.kind.neumann_centre and self.mu == 0.0
            self.boundary = BoundaryPolicy(inner=None) if centre else BoundaryPolicy()


def _mode_rows(problem):
    """(sub, diag, sup, rhs): the rows of L_mu as dgtsv's arguments, interior
    rows scaled by a, boundary rows in place."""
    h = problem.rhs.h
    a = problem.model.sample_a(problem.rhs.t)
    a_h = a[1:-1] / h
    # interior rows: u'' - s u + 2 a u' = a h with s = a mu
    sub = np.append(1.0 / h**2 - a_h, 0.0)
    sup = np.append(0.0, 1.0 / h**2 + a_h)
    diag = -2.0 / h**2 - a * problem.mu
    rhs = a * problem.rhs.values
    if problem.boundary.inner is None:
        sup[0] = 2.0 / h**2  # ghost node u_{-1} = u_1: (2u_1 - 2u_0)/h^2 - s_0 u_0 = a_0 h_0
    else:
        diag[0], rhs[0] = 1.0, problem.boundary.inner
    diag[-1], rhs[-1] = 1.0, problem.boundary.outer
    return sub, diag, sup, rhs


def _backward_error(rows, u):
    """max over the interior rows of |sub u_- + diag u + sup u_+ - rhs| over
    |sub u_-| + |diag u| + |sup u_+| + |rhs|."""
    sub, diag, sup, rhs = rows
    terms = (sub[:-1] * u[:-2], diag[1:-1] * u[1:-1], sup[1:] * u[2:], -rhs[1:-1])
    scale = np.maximum(sum(np.abs(term) for term in terms), 1e-300)
    return float(np.max(np.abs(sum(terms)) / scale))


def mode_interior_residual(problem, u_values):
    """The componentwise backward error of the rows solve_mode solves, on u_values."""
    return _backward_error(_mode_rows(problem), u_values)


def solve_mode(problem):
    """Direct tridiagonal solve by dgtsv; raises SingularSystem on non-finite
    rows, a singular matrix, a non-finite solution or a backward error above
    RESIDUAL_RTOL."""
    rows = _mode_rows(problem)
    if not all(np.all(np.isfinite(x)) for x in rows):
        raise SingularSystem("array must not contain infs or NaNs")
    u = _lapack.solved(*_lapack.provider().dgtsv(*rows), "gtsv")
    rel = _backward_error(rows, u)
    if rel > RESIDUAL_RTOL:
        raise SingularSystem(f"interior residual {rel:.3e} exceeds {RESIDUAL_RTOL:.0e}")
    return GridFunction(problem.rhs.t_min, problem.rhs.t_max, problem.rhs.h, u)


def solve_field(model, cross_section, rhs_by_mode):
    """Independent per-mode solves (ModeProblem, the JX-invariant reduction with
    mu entering as a(t) mu), deterministic ascending-mu order.

    rhs_by_mode maps cross-section eigenvalues to right-hand-side grid
    functions.  The reduction solves the theta-independent (j = 0) modes, so
    each mu must be a torus eigenvalue; every j = 0 mode is invariant under a
    quotient, so the quotient allows them all.
    """
    from .spectrum import _lattice_modes

    mus = sorted(rhs_by_mode)
    if not mus:
        return {}
    # the j = 0 values: the torus values up to max(mu) + 1, and 0 for alpha = 0
    _, torus, _ = _lattice_modes(cross_section, max(mus) + 1.0, None)
    allowed = np.append(torus, 0.0)
    out = {}
    for mu in mus:
        if not np.any(np.abs(allowed - mu) <= 1e-9):
            raise DomainError(f"mu={mu} is not a torus eigenvalue (a j = 0 mode)")
        problem = ModeProblem(model=model, mu=float(mu), rhs=rhs_by_mode[mu])
        out[mu] = solve_mode(problem)
    return out
