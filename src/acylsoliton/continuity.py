"""Damped-Newton continuity method for the soliton Monge-Ampere equation.

In the radial reduction the equation (omega + i ddbar phi)^n =
e^{sF - X(phi)/2} omega^n becomes the scalar ODE

    log((a + phi''/2)/a) + phi' = s F,

since i ddbar of a radial function contributes phi''/2 relative to beta and
X(phi)/2 = phi' for X = 2 d/dt.  The continuity parameter s runs from 0
(trivial solution phi = 0) to 1; each step is solved by Newton with Armijo
backtracking on the sup-residual, using the exact tridiagonal Jacobian

    u  ->  (1/2) a_phi^{-1} u'' + u',     a_phi = a + phi''/2,

which is half the drift Laplacian of the deformed metric g_phi.

Numerically the unknown is kept in the gauge anchored at the inner end,
psi = phi - phi(t_min).  The equation only sees derivatives of phi, and the
anchored samples preserve the e^{2t}-scale structure of the potential near
a degenerate inner end (a ~ e^{2t}); storing the decaying gauge instead
would lose that structure to rounding and put a noise floor of order
eps_machine * |phi| / (h^2 a) on the residual.  The decaying representative
phi = psi - psi(t_max) is reconstructed for reporting.

The solve is single-threaded and deterministic; independent problem
instances may run in parallel (no shared mutable state).
"""

import warnings
from dataclasses import dataclass, field
from typing import List

import numpy as np
import scipy.linalg

from . import fd
from .errors import (
    ContinuityStalled,
    DomainError,
    NewtonDiverged,
    PositivityLost,
    SingularSystem,
)
from .grids import GridFunction, uniform_nodes
from .models import Kind
from .norms import decay_rate_fit


@dataclass(frozen=True)
class ContinuityConfig:
    s_steps: int = 10               # uniform steps of the initial schedule
    newton_tol: float = 1e-10       # sup-residual tolerance
    max_newton: int = 30            # Newton iterations per s
    armijo_factor: float = 0.5      # backtracking factor
    armijo_decrease: float = 1e-4   # sufficient-decrease constant
    min_step: float = 1.0 / 160.0   # smallest allowed s-step
    positivity_guard: float = 1e-6  # reject trial steps with a_phi/a below this
    record_weight: float = 1.4      # weight for the e^{eps t}|phi| path record

    def __post_init__(self):
        if self.newton_tol <= 0 or self.min_step <= 0 or self.s_steps < 1:
            raise DomainError("tolerances and schedule must be positive")


@dataclass
class StepRecord:
    s: float
    newton_iterations: int
    sup_residual: float
    min_metric_ratio: float
    max_metric_ratio: float
    weighted_sup_phi: float
    inf_drift_potential: float
    sup_radial_derivative: float

    def as_dict(self):
        return {
            "s": self.s,
            "newton_iterations": self.newton_iterations,
            "sup_residual": self.sup_residual,
            "min_metric_ratio": self.min_metric_ratio,
            "max_metric_ratio": self.max_metric_ratio,
            "weighted_sup_phi": self.weighted_sup_phi,
            "inf_drift_potential": self.inf_drift_potential,
            "sup_radial_derivative": self.sup_radial_derivative,
        }


@dataclass
class SolitonSolution:
    """Solved potential with per-step path records.

    phi is the decaying representative (phi(t_max) = 0); phi_anchored the
    inner-anchored gauge used by the solver, which downstream residual
    evaluations should consume to avoid rounding loss near the inner end.
    """

    phi: GridFunction
    phi_anchored: GridFunction
    records: List[StepRecord]
    decay_rate: float
    converged: bool = True

    def path_dict(self):
        return {
            "decay_rate": self.decay_rate,
            "converged": self.converged,
            "steps": [r.as_dict() for r in self.records],
        }


def decaying_gauge(u):
    """Shift a grid function so its last value is zero."""
    return u.like(u.values - u.values[-1])


def manufactured_potential(grid, amplitude=0.3, power=-0.75):
    """Inner-anchored samples of amplitude * (1 + e^{2t})^{power}.

    Evaluated as a difference from the value at t_min through expm1/log1p,
    so the e^{2t}-scale variation near the inner end is exact to relative
    rounding.  The decaying representative is recovered by decaying_gauge.
    """
    t_min, t_max, h = grid
    t = uniform_nodes(t_min, t_max, h)
    x0 = np.exp(2.0 * t_min)
    delta_log = np.log1p(np.expm1(2.0 * (t - t_min)) * x0 / (1.0 + x0))
    base = np.exp(power * np.log1p(x0))
    return GridFunction(t_min, t_max, h, amplitude * base * np.expm1(power * delta_log))


def _anchored(phi):
    return phi.values - phi.values[0]


def ma_residual_radial(model, phi, forcing, s):
    """Pointwise residual log((a + phi''/2)/a) + phi' - s F on the grid.

    phi and F share the grid; F may be None (treated as zero), which turns
    this into the manufactured-forcing generator: the returned field is the
    exact discrete forcing for which phi solves the s = 1 equation.
    """
    t = phi.t
    h = phi.h
    a = model.sample_a(t)
    psi = _anchored(phi)
    half_dd = 0.5 * fd.d2(psi, h)
    a_phi = a + half_dd
    if np.any(a_phi <= 0.0):
        i = int(np.argmin(a_phi / a))
        raise PositivityLost(i, t[i], a_phi[i])
    r = np.log1p(half_dd / a) + fd.d1(psi, h)
    if forcing is not None:
        if not phi.same_grid(forcing):
            raise DomainError("phi and F must share the grid")
        r = r - s * forcing.values
    return phi.like(r)


@dataclass
class LinearizedOperator:
    """u -> (1/2) a_phi^{-1} u'' + u', the drift operator of g_phi on radial modes."""

    a_phi: np.ndarray = field(repr=False)
    h: float

    def apply(self, u):
        vals = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)
        return 0.5 * fd.d2(vals, self.h) / self.a_phi + fd.d1(vals, self.h)


def linearized_operator(model, phi):
    t = phi.t
    a = model.sample_a(t)
    a_phi = a + 0.5 * fd.d2(_anchored(phi), phi.h)
    if np.any(a_phi <= 0.0):
        i = int(np.argmin(a_phi / a))
        raise PositivityLost(i, t[i], a_phi[i])
    return LinearizedOperator(a_phi=a_phi, h=phi.h)


# ---- Newton core on the anchored unknown ----


class _RadialNewton:
    """Newton solver for the anchored nonlinear system at fixed s.

    Equations: central-stencil residual rows at interior nodes, plus either
    a one-sided Neumann row at the inner end (cigar-type: the radial update
    keeps phi'(t_min) = 0, matching smoothness at the center) or a Dirichlet
    row at the outer end (cylinder: psi(t_max) = 0; the inner Dirichlet is
    the anchoring itself).  The Jacobian of this system is banded and exact,
    so Newton converges quadratically.
    """

    def __init__(self, model, forcing, config):
        self.model = model
        self.cfg = config
        self.forcing = forcing.values
        self.t = forcing.t
        self.h = forcing.h
        self.n = len(self.t)
        self.a = model.sample_a(self.t)
        self.neumann_inner = model.kind in (Kind.CIGAR, Kind.GLUED)

    def residual(self, psi, s):
        """(sup_norm, interior_residual, min_ratio); sup is None when inadmissible."""
        h = self.h
        d2_int = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h**2
        x = d2_int / (2.0 * self.a[1:-1])
        min_ratio = 1.0 + float(np.min(x))
        if min_ratio <= 0.0:
            return None, None, min_ratio
        d1_int = (psi[2:] - psi[:-2]) / (2.0 * h)
        r = np.log1p(x) + d1_int - s * self.forcing[1:-1]
        sup = float(np.max(np.abs(r)))
        if self.neumann_inner:
            sup = max(sup, abs((-3.0 * psi[0] + 4.0 * psi[1] - psi[2]) / (2.0 * h)))
        else:
            sup = max(sup, abs(psi[-1]))
        return sup, r, min_ratio

    def _newton_step(self, psi, r):
        h = self.h
        n = self.n
        d2_int = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h**2
        a_phi = self.a[1:-1] + 0.5 * d2_int
        sub = 1.0 / h**2 - a_phi / h     # coefficient of u_{i-1}
        diag = np.full(n - 2, -2.0 / h**2)
        sup = 1.0 / h**2 + a_phi / h     # coefficient of u_{i+1}
        scaled_r = -2.0 * r * a_phi      # rows scaled by 2 a_phi
        if self.neumann_inner:
            # unknowns u_1..u_{n-1} (u_0 = 0); equations [neumann, r_1..r_{n-2}]
            # row i >= 1 holds r_i with columns i-2, i-1, i  ->  bands (l,u) = (2,1)
            m = n - 1
            ab = np.zeros((4, m))
            rhs = np.empty(m)
            ab[1, 0] = 4.0 / (2.0 * h)
            ab[0, 1] = -1.0 / (2.0 * h)
            rhs[0] = -(-3.0 * psi[0] + 4.0 * psi[1] - psi[2]) / (2.0 * h)
            rows = np.arange(1, n - 1)
            ab[1, rows] = sup
            ab[2, rows - 1] = diag
            ab[3, rows[1:] - 2] = sub[1:]
            rhs[1:] = scaled_r
            bands = (2, 1)
        else:
            # unknowns u_1..u_{n-1}; equations [r_1..r_{n-2}, dirichlet at t_max]
            m = n - 1
            ab = np.zeros((3, m))
            rhs = np.empty(m)
            rows = np.arange(0, n - 2)
            ab[1, rows] = diag
            ab[0, rows[:-1] + 1] = sup[:-1]
            ab[2, rows[1:] - 1] = sub[1:]
            # last unknown column appears in equation r_{n-2} as sup[-1]
            ab[0, m - 1] = sup[-1]
            ab[1, m - 1] = 1.0
            ab[2, m - 2] = 0.0
            rhs[:-1] = scaled_r
            rhs[-1] = -psi[-1]
            bands = (1, 1)
        try:
            update = scipy.linalg.solve_banded(bands, ab, rhs)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SingularSystem(str(exc)) from exc
        if not np.all(np.isfinite(update)):
            raise SingularSystem("non-finite Newton update")
        return np.concatenate(([0.0], update))

    def solve(self, psi, s):
        """Damped Newton at fixed s; returns (psi, iterations, sup) or raises."""
        cfg = self.cfg
        sup, r, _ = self.residual(psi, s)
        if sup is None:
            h = self.h
            ratio = 1.0 + (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / (h * h * 2.0 * self.a[1:-1])
            i = int(np.argmin(ratio)) + 1
            raise PositivityLost(i, self.t[i], ratio[i - 1] * self.a[i])
        iterations = 0
        while sup > cfg.newton_tol:
            if iterations >= cfg.max_newton:
                raise NewtonDiverged(
                    f"no convergence in {cfg.max_newton} iterations at s={s:.6g}",
                    iterations=iterations, residual=sup,
                )
            direction = self._newton_step(psi, r)
            tau = 1.0
            accepted = False
            while tau > 1e-8:
                trial = psi + tau * direction
                trial_sup, trial_r, min_ratio = self.residual(trial, s)
                if (
                    trial_sup is not None
                    and min_ratio > cfg.positivity_guard
                    and trial_sup <= (1.0 - cfg.armijo_decrease * tau) * sup
                ):
                    psi, r, sup = trial, trial_r, trial_sup
                    accepted = True
                    break
                tau *= cfg.armijo_factor
            iterations += 1
            if not accepted:
                raise NewtonDiverged(
                    f"Armijo line search failed at s={s:.6g}",
                    iterations=iterations, residual=sup,
                )
        return psi, iterations, sup


def _make_record(model, newton, psi, s, iterations, sup_residual, cfg):
    h = newton.h
    t = newton.t
    ratio = 1.0 + fd.d2(psi, h) / (2.0 * newton.a)
    d1psi = fd.d1(psi, h)
    phi_dec = psi - psi[-1]
    f_vals = 2.0 * t + np.asarray(model.f_minus_2t(t), dtype=float)
    return StepRecord(
        s=s,
        newton_iterations=iterations,
        sup_residual=sup_residual,
        min_metric_ratio=float(np.min(ratio)),
        max_metric_ratio=float(np.max(ratio)),
        weighted_sup_phi=float(np.max(np.exp(cfg.record_weight * t) * np.abs(phi_dec))),
        inf_drift_potential=float(np.min(f_vals + d1psi)),
        sup_radial_derivative=float(np.max(np.abs(d1psi))),
    )


def continuity_solve(model, forcing, config=None):
    """Drive log((a+phi''/2)/a) + phi' = s F from s = 0 to s = 1.

    The s-schedule starts with config.s_steps uniform steps; the step is
    halved when Newton fails and doubled (up to the initial size) after two
    consecutive single-iteration successes.  Raises ContinuityStalled when
    the step falls below config.min_step, with the accepted records attached.
    """
    cfg = config or ContinuityConfig()
    rate = decay_rate_fit(forcing)
    if not (1.0 < rate < 2.0):
        warnings.warn(
            f"forcing decay rate {rate:.3g} outside (1, 2); the a priori theory "
            "covers (1, 2), proceeding anyway",
            stacklevel=2,
        )
    newton = _RadialNewton(model, forcing, cfg)
    psi = np.zeros(newton.n)
    records: List[StepRecord] = []
    s = 0.0
    step = 1.0 / cfg.s_steps
    initial_step = step
    streak = 0
    while s < 1.0 - 1e-12:
        target = min(1.0, s + step)
        try:
            candidate, iterations, sup = newton.solve(psi.copy(), target)
        except (NewtonDiverged, PositivityLost, SingularSystem):
            step *= 0.5
            if step < cfg.min_step * (1.0 - 1e-12):
                raise ContinuityStalled(
                    f"s-step fell below {cfg.min_step:.6g} at s={s:.6g}",
                    s_reached=s,
                    records=records,
                ) from None
            streak = 0
            continue
        psi = candidate
        s = target
        records.append(_make_record(model, newton, psi, s, iterations, sup, cfg))
        if iterations <= 1:
            streak += 1
            if streak >= 2 and step < initial_step:
                step = min(2.0 * step, initial_step)
        else:
            streak = 0
    anchored = GridFunction(forcing.t_min, forcing.t_max, forcing.h, psi)
    phi = decaying_gauge(anchored)
    return SolitonSolution(
        phi=phi,
        phi_anchored=anchored,
        records=records,
        decay_rate=decay_rate_fit(phi),
    )


def uniqueness_check(model, forcing, config=None, initializations=()):
    """Final-stage (s = 1) Newton from each initialization; max pairwise distance.

    Initializations are admissible potentials on the forcing grid (any
    gauge; they are re-anchored internally).  Raises if any branch fails.
    """
    cfg = config or ContinuityConfig()
    if len(initializations) < 2:
        raise DomainError("need at least two initializations")
    newton = _RadialNewton(model, forcing, cfg)
    solutions = []
    for init in initializations:
        if not forcing.same_grid(init):
            raise DomainError("initialization grid mismatch")
        psi, _, _ = newton.solve(init.values - init.values[0], 1.0)
        solutions.append(psi - psi[-1])
    worst = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            worst = max(worst, float(np.max(np.abs(solutions[i] - solutions[j]))))
    return worst


# ---- 2D reduction (t, u), u a periodic torus coordinate ----


def ma_residual_2d(model, phi, forcing, s):
    """Residual of the full 2D Monge-Ampere reduction for n = 2.

    For phi = phi(t, u) invariant in theta and the second torus coordinate,
    the complex Hessian components relative to the coordinates z (with
    t = log|z|) and w = u + iv are

        phi_{z zbar} = phi_tt / (4|z|^2),  phi_{w wbar} = phi_uu / 4,
        phi_{z wbar} = phi_tu / (4 z),

    and with g_{z zbar} = a/(2|z|^2), g_{w wbar} = 1/2 the volume ratio is

        ((a/2 + phi_tt/4)(1/2 + phi_uu/4) - (phi_tu/4)^2) / (a/4).

    The residual is log of that ratio + phi_t - s F.  Cross terms vanish for
    u-independent phi and the formula reduces to the radial residual.
    """
    if model.n < 2:
        raise DomainError("the 2D reduction needs complex dimension n >= 2")
    if not phi.is_2d:
        raise DomainError("phi must be a 2D grid function")
    t = phi.t
    h = phi.h
    hu = phi.hu
    a = model.sample_a(t)[:, None]
    vals = phi.values - phi.values[0, 0]
    phi_tt = fd.d2(vals, h)
    phi_t = fd.d1(vals, h)
    phi_uu = fd.d2_periodic(vals, hu, axis=1)
    phi_tu = fd.d1_periodic(phi_t, hu, axis=1)
    principal = a / 2.0 + phi_tt / 4.0
    det = principal * (0.5 + phi_uu / 4.0) - (phi_tu / 4.0) ** 2
    bad = (principal <= 0.0) | (det <= 0.0)
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise PositivityLost(i, t[i], float(det[i, j]))
    r = np.log(det / (a / 4.0)) + phi_t
    if forcing is not None:
        if forcing.values.shape != phi.values.shape:
            raise DomainError("phi and F must share the grid")
        r = r - s * forcing.values
    return phi.like(r)
