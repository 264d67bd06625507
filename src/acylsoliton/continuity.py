"""Damped-Newton continuity method for the soliton Monge-Ampere equation.

In the radial reduction the equation (omega + i ddbar phi)^n =
e^{sF - X(phi)/2} omega^n becomes the scalar ODE

    log((a + phi''/2)/a) + phi' = s F,

since i ddbar of a radial function contributes phi''/2 relative to beta and
X(phi)/2 = phi' for X = 2 d/dt.  The continuity parameter s runs from 0
(trivial solution phi = 0) to 1; each step is solved by Newton with Armijo
backtracking on the sup-residual, using the exact Jacobian

    u  ->  (1/2) a_phi^{-1} u'' + u',     a_phi = a + phi''/2,

which is half the drift Laplacian of the deformed metric g_phi.

The unknown is the increments v_i = psi_{i+1} - psi_i of the gauge anchored
at the inner end, psi = phi - phi(t_min); interior row i reads
log1p((v_i - v_{i-1}) / (2 a_i h^2)) + (v_i + v_{i-1}) / (2h) - s F_i.
Rounding costs about eps_machine * |psi'| / h, where second differences of
stored psi lose eps_machine * |psi| / h^2 (above the Newton tolerance at
h = 1e-4); the solution's potentials carry v (grids.RadialPotential).
Scaled by 2 a_phi, Jacobian row i is sup_i dv_i - sub_i dv_{i-1}, with
sub, sup = 1/h^2 -+ a_phi/h, as _march_bands writes it: below one boundary row
the Newton matrix is a forward march (_forward_march, by LAPACK's dtbtrs),
stable since its factor (1 - a_phi h)/(1 + a_phi h) lies in (-1, 1).  s F is
formed once per s, and psi''/2, psi' and the rows once per iterate, by its
residual: the step (bands written straight into the layout dtbtrs reads) and
the path record reuse them.

Predictor-corrector (Allgower & Georg, Introduction to Numerical
Continuation Methods, ch. 2): from the second s-step on, Newton starts at
the secant extrapolation v_k + (v_k - v_{k-1}) (s_{k+1} - s_k)/(s_k - s_{k-1})
of the last two accepted points (s_0 = 0, v_0 = 0), or at v_k when that start
is not admissible.  On the manufactured problems this takes 3 iterations at
the first step and 2 at the others, against 3 at every step from v_k.  A
solve allocates its 12 grid-sized arrays once (14 for the cylinder; named,
with the rule each sharing rests on, by _RadialNewton), so neither a Newton
iteration nor a continuation step allocates one, and every output has the
bits of separate arrays.

The solve is single-threaded and deterministic; independent problem
instances may run in parallel (no shared mutable state).
"""

import warnings
from dataclasses import asdict, dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from . import _lapack
from .errors import ContinuityStalled, DomainError, NewtonDiverged, PositivityLost, SingularSystem
from .grids import RadialPotential, uniform_nodes
from .models import half_hessian, radial_derivatives, radial_increments
from .norms import decay_rate_fit


ARMIJO_FACTOR = 0.5      # backtracking factor
ARMIJO_DECREASE = 1e-4   # sufficient-decrease constant
POSITIVITY_GUARD = 1e-6  # reject trial steps with a_phi/a below this
RECORD_WEIGHT = 1.4      # weight for the e^{eps t}|phi| path record


@dataclass(frozen=True)
class ContinuityConfig:
    s_steps: int = 10               # uniform steps of the initial schedule
    newton_tol: float = 1e-10       # sup-residual tolerance
    max_newton: int = 30            # Newton iterations per s
    min_step: float = 1.0 / 160.0   # smallest allowed s-step

    def __post_init__(self):
        if not (0 < self.newton_tol < np.inf and 0 < self.min_step < np.inf
                and self.s_steps >= 1 and self.max_newton >= 1):
            raise DomainError("tolerances must be finite and positive, and counts at least 1")


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


@dataclass
class SolitonSolution:
    """Solved potential, with per-step path records: phi in the gauge phi(t_max) = 0
    and phi_anchored in phi(t_min) = 0, both carrying the solver's increments."""

    phi: RadialPotential
    phi_anchored: RadialPotential
    records: List[StepRecord]
    decay_rate: float

    def path_dict(self):
        return path_payload(self.records, decay_rate=self.decay_rate, converged=True)


def path_payload(records, **outcome):
    """path.json: the outcome fields in the order given, then the steps, one per record."""
    return {**outcome, "steps": [asdict(r) for r in records]}


def decaying_gauge(u):
    """Shift a grid function so its last value is zero."""
    return u.like(u.values - u.values[-1])


def _decaying(v):
    """The samples with increments v and last value zero, summed from the outer end."""
    out = np.empty(len(v) + 1)
    np.cumsum(v[::-1], out=out[-2::-1])
    np.negative(out[:-1], out=out[:-1])
    out[-1] = 0.0
    return out


def manufactured_potential(grid, amplitude=0.3):
    """amplitude * (1 + e^{2t})^p, p = -3/4, less its value at t_min, carrying the
    closed-form increments A (1 + x)^p expm1(p log1p(x expm1(2h) / (1 + x))),
    x = e^{2 t_i}, exact to relative rounding at every scale of e^{2t}.  The
    samples are their partial sums; decaying_gauge gives phi(t_max) = 0."""
    t_min, t_max, h = grid
    x = np.exp(2.0 * uniform_nodes(t_min, t_max, h)[:-1])
    v = (amplitude * np.exp(-0.75 * np.log1p(x))
         * np.expm1(-0.75 * np.log1p(x * np.expm1(2.0 * h) / (1.0 + x))))
    return RadialPotential(t_min, t_max, h, np.append(0.0, np.cumsum(v)), v)


def ma_residual_radial(model, phi, forcing, s):
    """Pointwise residual log((a + phi''/2)/a) + phi' - s F on the grid, with
    derivatives from phi's increments (models.radial_derivatives).  phi and F
    share the grid; F may be None (treated as zero), which turns this into the
    manufactured-forcing generator: the returned field is the exact discrete
    forcing for which phi solves the s = 1 equation."""
    if forcing is not None and not phi.same_grid(forcing):
        raise DomainError("phi and F must share the grid")
    d1, d2 = radial_derivatives(phi)
    a, half_dd = half_hessian(model, phi.t, d2)
    r = np.log1p(half_dd / a) + d1
    if forcing is not None:
        r = r - s * forcing.values
    return phi.like(r)


# ---- Newton core on the increments ----


class _Iterate(NamedTuple):  # increments v and what their residual formed
    v: np.ndarray
    sup: Optional[float]  # sup-norm of all rows; None where a_phi <= 0
    r: Optional[np.ndarray]  # interior residual rows
    slope: Optional[np.ndarray]  # psi' at the interior nodes; None where a_phi <= 0
    half_dd: np.ndarray  # psi''/2 at the interior nodes
    min_ratio: float  # 1 + min (psi''/2)/a over the interior nodes


class _RadialNewton:
    """Newton solver for the increments v (n - 1 values) at fixed s.

    Equations: the interior residual rows, plus either the one-sided
    Neumann row (3 v_0 - v_1)/(2h) at the inner end (cigar-type: the radial
    update keeps phi'(t_min) = 0, matching smoothness at the center) or the
    Dirichlet row sum(v) = psi(t_max) = 0 (cylinder; the inner Dirichlet is
    the anchoring itself).  The Jacobian is exact, so Newton converges
    quadratically.  It takes any grid of at least 3 nodes (one interior row).

    The solver lives for one continuity_solve (or uniqueness_check) and owns
    its grid-sized arrays for that long: a, two increment buffers, s F, the
    direction, the march rows (two arrays, whose first 2m values also hold
    the (psi''/2, rows) pair; the cylinder adds two march columns) and a
    scratch array; with the continuation's f, record weight and last two
    accepted increments, 12.  Sharing is safe as the iterate's pair is dead
    once the step has formed a_phi and the right-hand side from it, so the
    march bands write over it, and the bands are dead once the march has
    run, so trials write their pair over them; the scratch holds the
    residual's psi' until the step writes a_phi and then a_phi/h over it, so
    after solve it holds the iterate's psi'; a trial's v goes to idle(it.v),
    so a start is only read; and after solve, idle(it.v) is free for the
    path record and the secant start.
    """

    def __init__(self, model, forcing, config):
        if len(forcing.values) < 3:  # an interior row, and the Neumann row's two increments
            raise DomainError("the radial solve needs at least 3 grid nodes, "
                              f"got {len(forcing.values)}")
        self.cfg = config
        self.forcing = forcing.values
        self.t_min, self.h = forcing.t_min, forcing.h
        t = forcing.t  # freed after the buffers: freed first, it raised later peak RSS
        self.a = model.sample_a(t)
        self.neumann_inner = model.kind.neumann_centre
        m = len(t) - 2  # interior nodes
        self._increments = (np.empty(m + 1), np.empty(m + 1))
        self._target = np.empty(m)
        self._direction = np.empty(m + 1)
        self._rows = np.zeros(2 * m + 1)  # _march_bands rows; the last element stays 0
        self._pair = (self._rows[:m], self._rows[m:2 * m])  # psi''/2 and the rows
        self._columns = None if self.neumann_inner else np.empty((m, 2), order="F")
        self._scratch = np.empty(m)  # psi' of the last residual, then a_phi and a_phi/h in a step

    def idle(self, v):
        """The increment buffer that does not hold v (the second when v is neither)."""
        first, second = self._increments
        return first if v is second else second

    def residual(self, v, target, out):
        """The _Iterate at v; target is s F at the interior nodes.  psi''/2 and
        the rows are written into out = (half_dd, r), psi' into the scratch."""
        half_dd, x = out
        np.divide(np.subtract(v[1:], v[:-1], out=half_dd), 2.0 * self.h**2, out=half_dd)
        np.divide(half_dd, self.a[1:-1], out=x)
        min_ratio = 1.0 + float(np.min(x))
        if min_ratio <= 0.0:
            return _Iterate(v, None, None, None, half_dd, min_ratio)
        slope = self._scratch
        np.divide(np.add(v[1:], v[:-1], out=slope), 2.0 * self.h, out=slope)
        r = np.subtract(np.add(np.log1p(x, out=x), slope, out=x), target, out=x)
        boundary = (3.0 * v[0] - v[1]) / (2.0 * self.h) if self.neumann_inner else np.sum(v)
        return _Iterate(v, max(_sup_abs(r), abs(boundary)), r, slope, half_dd, min_ratio)

    def _newton_step(self, it):
        """Direction dv at the iterate: the boundary row fixes dv_0, then rows 1..n-2
        march in place.  dv is the solver's direction array, rewritten by the next call."""
        v, a_phi = it.v, np.add(self.a[1:-1], it.half_dd, out=self._scratch)
        dv = self._direction
        rhs = dv[1:]  # rows scaled by 2 a_phi
        np.multiply(np.multiply(a_phi, -2.0, out=rhs), it.r, out=rhs)
        ab, sub0 = _march_bands(a_phi, self.h, self._rows)  # over a_phi and the pair
        if self.neumann_inner:
            # 3 dv_0 - dv_1 = v_1 - 3 v_0, with dv_1 = (rhs_1 + sub_1 dv_0) / sup_1
            dv[0] = (rhs[0] / ab[0, 0] + v[1] - 3.0 * v[0]) / (3.0 - sub0 / ab[0, 0])
            rhs[0] += sub0 * dv[0]
            _forward_march(ab, rhs[:, None])  # overwrites rhs with dv[1:]
        else:
            # dv = y + dv_0 z, z the march of a unit dv_0; then sum(v + dv) = 0
            columns = self._columns
            columns[:, 0], columns[:, 1], columns[0, 1] = rhs, 0.0, sub0
            y, z = _forward_march(ab, columns).T
            dv[0] = -(np.sum(v) + np.sum(y)) / (1.0 + np.sum(z))
            np.add(y, np.multiply(z, dv[0], out=rhs), out=rhs)
        return dv

    def solve(self, v, s):
        """Damped Newton at fixed s from v; returns (converged _Iterate, iterations)
        or raises.  v is only read.  The iterate's v is v itself when no iteration
        was needed, else one of the increment buffers; the iterate stays valid
        until the next solve, which may start from its v."""
        cfg, target = self.cfg, np.multiply(s, self.forcing[1:-1], out=self._target)
        it = self.residual(v, target, self._pair)
        if it.sup is None:
            a_phi = self.a[1:-1] + it.half_dd
            i = int(np.argmin(a_phi / self.a[1:-1])) + 1
            raise PositivityLost(i, self.t_min + self.h * i, a_phi[i - 1])  # node i of t
        iterations = 0
        while it.sup > cfg.newton_tol:
            if iterations >= cfg.max_newton:
                raise NewtonDiverged(
                    f"no convergence in {cfg.max_newton} iterations at s={s:.6g}",
                    iterations=iterations, residual=it.sup,
                )
            direction = self._newton_step(it)
            iterations += 1
            tau, trial = 1.0, np.add(direction, it.v, out=self.idle(it.v))  # tau = 1: no product
            while tau > 1e-8:
                candidate = self.residual(trial, target, self._pair)
                if (
                    candidate.sup is not None
                    and candidate.min_ratio > POSITIVITY_GUARD
                    and candidate.sup <= (1.0 - ARMIJO_DECREASE * tau) * it.sup
                ):
                    break
                tau *= ARMIJO_FACTOR
                np.add(np.multiply(direction, tau, out=trial), it.v, out=trial)
            else:
                raise NewtonDiverged(
                    f"Armijo line search failed at s={s:.6g}",
                    iterations=iterations, residual=it.sup,
                )
            it = candidate
        return it, iterations


def _march_bands(a_phi, h, rows):
    """(ab, sub_0): the Newton rows sup_i dv_i - sub_i dv_{i-1}, sub, sup =
    1/h^2 -+ a_phi/h, as the Fortran-order lower band array of dtbtrs,
    ab[0] = sup, ab[1, :-1] = -sub[1:].

    The pairs (-sub_i, sup_i) are written interleaved into rows, an array of
    2 len(a_phi) + 1 values whose last stays 0; read from one element on, that
    memory is ab, so the bands are written once and never copied.  a_phi/h,
    which both bands read, is formed contiguously in a_phi itself, so a_phi
    is overwritten."""
    a_h = np.divide(a_phi, h, out=a_phi)
    # both bands in one call; C order over the (2, m) view keeps the inner loop along a_h
    np.add(a_h, ((-1 / h**2,), (1 / h**2,)), out=rows[:-1].reshape(-1, 2).T, order="C")
    return rows[1:].reshape(-1, 2).T, -rows[0]


def _forward_march(ab, rhs):
    """x with ab[0, i] x_i + ab[1, i-1] x_{i-1} = rhs_i (x_{-1} = 0), column by column,
    by dtbtrs on the band array of _march_bands, checked by _lapack.solved; a
    Fortran-ordered rhs is overwritten."""
    return _lapack.solved(*_lapack.provider().dtbtrs(ab, rhs), "tbtrs")


def _sup_abs(x):
    """max |x| without forming |x|: max(max x, -min x), with abs turning -0.0 into 0.0;
    nan propagates as in np.max."""
    return abs(max(float(np.max(x)), -float(np.min(x))))


def _make_record(newton, it, s, iterations, f, weight):
    """The StepRecord of the iterate newton.solve returned, formed in newton.idle(it.v),
    at the interior nodes, whose rows the solver solves (the weighted sup of phi reads
    every sample); f and weight are the model's f and e^{RECORD_WEIGHT t} on the grid."""
    samples = newton.idle(it.v)
    # (psi''/2)/a is the psi''/(2a) of increment_derivatives to the bit, as h**2 == h*h
    max_ratio = 1.0 + np.max(np.divide(it.half_dd, newton.a[1:-1], out=samples[1:]))
    inf_drift = np.min(np.add(f[1:-1], it.slope, out=samples[1:]))
    # -phi but for the last sample, 0, which cannot raise the weighted max; w |phi| = |w phi|
    np.cumsum(it.v[::-1], out=samples[::-1])
    weighted = _sup_abs(np.multiply(weight[:-1], samples, out=samples))
    return StepRecord(
        s=s,
        newton_iterations=iterations,
        sup_residual=it.sup,
        min_metric_ratio=it.min_ratio,
        max_metric_ratio=float(max_ratio),
        weighted_sup_phi=weighted,
        inf_drift_potential=float(inf_drift),
        sup_radial_derivative=_sup_abs(it.slope),
    )


def _secant_solve(newton, s_prev, v_prev, s, v, target):
    """newton.solve at target, started at the secant predictor through the last
    two accepted points, v + (v - v_prev) (target - s) / (s - s_prev), written
    into newton.idle(v); started at v when s_prev is None or the prediction is
    not admissible.  v and v_prev lie outside the solver's buffers."""
    if s_prev is not None:
        start = newton.idle(v)
        np.subtract(v, v_prev, out=start)
        np.add(v, np.multiply(start, (target - s) / (s - s_prev), out=start), out=start)
        try:
            return newton.solve(start, target)
        except PositivityLost:  # raised before any iteration: an inadmissible start
            pass
    return newton.solve(v, target)


def _continuation(newton, f, weight):
    """(v, records): the s-loop of continuity_solve on the solver's problem, with
    the path record's f and weight; the solver and its work arrays go when it returns."""
    cfg = newton.cfg
    # the last accepted increments v at s and the ones before them at s_prev
    # (None until a step is accepted), copied out of the solver's buffers
    v, v_prev = np.zeros(len(newton.a) - 1), np.zeros(len(newton.a) - 1)
    s_prev = None
    records: List[StepRecord] = []
    s = 0.0
    step = 1.0 / cfg.s_steps
    initial_step = step
    streak = 0
    while s < 1.0 - 1e-12:
        target = min(1.0, s + step)
        try:
            it, iterations = _secant_solve(newton, s_prev, v_prev, s, v, target)
        except (NewtonDiverged, SingularSystem):  # every start is admissible (_secant_solve)
            step *= 0.5
            if step < cfg.min_step * (1.0 - 1e-12):
                raise ContinuityStalled(
                    f"s-step fell below {cfg.min_step:.6g} at s={s:.6g}",
                    s_reached=s,
                    records=records,
                ) from None
            streak = 0
            continue
        records.append(_make_record(newton, it, target, iterations, f, weight))
        np.copyto(v_prev, it.v)  # over the increments two steps back
        s_prev, s, v_prev, v, it = s, target, v, v_prev, None
        if iterations <= 1:
            streak += 1
            if streak >= 2 and step < initial_step:
                step = min(2.0 * step, initial_step)
        else:
            streak = 0
    return v, records


def continuity_solve(model, forcing, config=None):
    """Drive log((a+phi''/2)/a) + phi' = s F from s = 0 to s = 1.

    The s-schedule starts with config.s_steps uniform steps; the step is
    halved when Newton fails and doubled (up to the initial size) after two
    consecutive single-iteration successes.  Each step after the first starts
    Newton at the secant predictor (_secant_solve).  Raises ContinuityStalled
    when the step falls below config.min_step, with the accepted records attached.
    Warns when the forcing's fitted decay rate is <= 1: a forcing decaying at
    rate >= 2 (inf when it vanishes on the fit window) lies in every weighted
    space of the window (1, 2), so only the slow side is outside the theory.
    """
    cfg = config or ContinuityConfig()
    rate = decay_rate_fit(forcing)
    if not rate > 1.0:
        warnings.warn(
            f"forcing decay rate {rate:.3g} <= 1; the a priori theory needs a "
            "rate above 1, proceeding anyway",
            stacklevel=2,
        )
    f, weight = model.f(forcing.t), np.exp(RECORD_WEIGHT * forcing.t)  # no t lives on
    v, records = _continuation(_RadialNewton(model, forcing, cfg), f, weight)
    phi = RadialPotential(forcing.t_min, forcing.t_max, forcing.h, _decaying(v), v)
    return SolitonSolution(
        phi=phi,
        phi_anchored=RadialPotential(phi.t_min, phi.t_max, phi.h,
                                     np.append(0.0, np.cumsum(v)), v),
        records=records,
        decay_rate=decay_rate_fit(phi),
    )


def uniqueness_check(model, forcing, initializations):
    """Final-stage (s = 1) Newton from each initialization, under the default
    ContinuityConfig; max pairwise distance.

    Initializations are admissible potentials on the forcing grid (any
    gauge; only their increments enter).  Raises if any branch fails.
    """
    if len(initializations) < 2:
        raise DomainError("need at least two initializations")
    if not all(forcing.same_grid(init) for init in initializations):
        raise DomainError("initialization grid mismatch")
    newton = _RadialNewton(model, forcing, ContinuityConfig())
    lo = hi = None  # running extrema of the decaying-gauge solutions; max - min is exact
    for init in initializations:
        u = _decaying(newton.solve(radial_increments(init), 1.0)[0].v)
        lo, hi = (u, u.copy()) if lo is None else (np.minimum(lo, u, out=lo),
                                                  np.maximum(hi, u, out=hi))
    return float(np.max(np.subtract(hi, lo, out=hi)))

