"""Cut-off gluing of an inner radial model to the exact cylinder.

The inner Kahler form a(t) beta is written as i ddbar of a radial potential
P (P'' = 2a, P(0) = 0), interpolated against the cylinder potential t^2 by
a polynomial cutoff chi (chi = 0 for t <= 1, chi = 1 for t >= t0), and a
bump rho >= 0 supported in [1/2, t0 + 1/2] is added:

    c = 1/2 (chi t^2 + (1 - chi) P)'' + rho
      = 1/2 chi'' (t^2 - P) - chi' (P' - 2t) + chi + (1 - chi) a + rho.

Every term has a closed form: chi and rho are polynomials, the cylinder
has P = t^2, and the cigar has P = t^2 + Li_2(-e^{-2t})/2 + pi^2/24 with
P' - 2t = log(1 + e^{-2t}).  The bump amplitude is the smallest that keeps
c above a positivity margin across the transition, not only on the nodes.

The glued soliton potential solves f' = 2c in the same closed form,

    f - 2t = 1 + chi' (t^2 - P) + (1 - chi)(P' - 2t) + 2 int_{1/2}^t rho,

which equals the inner model's f - 2t at t = 1/2 (so min f = 1 is kept)
and a constant kappa for t >= t0 + 1/2.  The glued model takes the inner
model's callables on t <= 1/2 and c = 1, f = 2t + kappa exactly on the
cylinder region, so the trivial-potential soliton residual vanishes
identically there, and so does the induced Monge-Ampere forcing.  On
t <= 1/2 the forcing is the constant 2 int_{1/2}^{t0+1/2} rho by which the
bump raises kappa: it has compact support only when rho = 0.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import GridFunction, uniform_nodes, whole_cells
from .models import Kind, RadialKahlerModel, soliton_residual

RHO_CAP = 1e6            # largest bump amplitude auto_rho returns
LI2_TERMS = 50           # series terms for Li_2(z), z <= 1/2: tail below 1e-18


def smoothstep(x, degree=7):
    """Odd-degree polynomial smoothstep on [0, 1], C^{(degree-1)/2} at junctions."""
    if (isinstance(degree, bool) or not isinstance(degree, numbers.Integral)
            or degree < 1 or degree % 2 == 0):
        raise DomainError(f"smoothstep degree must be an odd integer >= 1, got {degree!r}")
    m = (degree - 1) // 2
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    acc = np.zeros_like(x)
    for k in range(m + 1):
        coeff = math.comb(m + k, k) * math.comb(2 * m + 1, m - k)
        acc = acc + coeff * (-x) ** k
    return x ** (m + 1) * acc


def _smoothstep_derivatives(x, degree):
    """First and second derivative of smoothstep: S' = C (x (1 - x))^m on
    (0, 1), with C = (2m + 1)!/(m!)^2, and zero outside."""
    m = (degree - 1) // 2
    scale = (2 * m + 1) * math.comb(2 * m, m)
    inside = (x > 0.0) & (x < 1.0)
    q = x * (1.0 - x)
    d1 = np.where(inside, scale * q**m, 0.0)
    d2 = np.where(inside, scale * m * q ** (m - 1) * (1.0 - 2.0 * x), 0.0)
    return d1, d2


def _bump_profile(s):
    """Nonnegative C^3 profile (1 - s^2)^4 on [-1, 1], zero outside."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    out = np.zeros_like(s)
    out[inside] = (1.0 - s[inside] ** 2) ** 4
    return out


def _bump_profile_integral(s):
    """Integral of _bump_profile from -1 to s (degree 9; 256/315 for s >= 1)."""
    s = np.clip(s, -1.0, 1.0)
    s2 = s * s
    return s * (1.0 + s2 * (-4.0 / 3.0 + s2 * (6.0 / 5.0 + s2 * (-4.0 / 7.0 + s2 / 9.0)))) \
        + 128.0 / 315.0


@dataclass(frozen=True)
class GlueSpec:
    """Transition end t0 > 1, cutoff degree, positivity margin.

    The gluing grid is spec.grid; the bump amplitude is auto_rho's."""

    t0: float = 3.0
    smoothstep_degree: int = 7
    margin: float = 1e-2
    h = 0.005                         # gluing grid spacing, a class constant

    def __post_init__(self):
        for name in ("t0", "margin"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"GlueSpec {name} must be finite, got {value}")
        if self.t0 <= 1.0:
            raise DomainError("transition end t0 must exceed 1")
        if self.margin <= 0:
            raise DomainError("positivity margin must be positive")
        degree = self.smoothstep_degree
        # chi'' of a C^0 cutoff is a measure, not a coefficient
        if (isinstance(degree, bool) or not isinstance(degree, numbers.Integral)
                or degree < 3 or degree % 2 == 0):
            raise DomainError(f"cutoff degree must be an odd integer >= 3, got {degree!r}")

    @property
    def grid(self):
        """(0, end, h), end the first node of the lattice h Z at or past t0 + 3."""
        cells = (self.t0 + 3.0) / self.h
        exact = whole_cells(cells, f"gluing grid (0, {self.t0 + 3.0}, {self.h})") is not None
        end = self.t0 + 3.0 if exact else math.ceil(cells) * self.h
        return 0.0, end, self.h

    def cutoff(self, t):
        return smoothstep((np.asarray(t, dtype=float) - 1.0) / (self.t0 - 1.0),
                          self.smoothstep_degree)

    def _bump_coordinate(self, t):
        center = (0.5 + self.t0 + 0.5) / 2.0
        halfwidth = self.t0 / 2.0
        return (np.asarray(t, dtype=float) - center) / halfwidth

    def bump(self, t, rho0):
        return rho0 * _bump_profile(self._bump_coordinate(t))

    def bump_integral(self, t, rho0):
        """Integral of bump(., rho0) from 1/2 to t."""
        return rho0 * (self.t0 / 2.0) * _bump_profile_integral(self._bump_coordinate(t))


def _li2_of_minus(u):
    """Li_2(-u) for 0 <= u <= 1, by Landen's identity
    Li_2(-u) = -Li_2(z) - log(1 + u)^2 / 2 with z = u / (1 + u) <= 1/2,
    and Horner's rule on the series Li_2(z) = sum_k z^k / k^2."""
    z = u / (1.0 + u)
    series = np.zeros_like(z)
    for k in range(LI2_TERMS, 0, -1):
        series = z * (1.0 / k**2 + series)
    return -series - 0.5 * np.log1p(u) ** 2


def _potential_gaps(model, t):
    """t^2 - P and P' - 2t for the inner potential (P'' = 2a, P(0) = 0).

    Both vanish for the cylinder.  For the cigar t^2 - P is
    -Li_2(-e^{-2t})/2 - pi^2/24 on t >= 0, and t^2 minus that at |t| on
    t < 0 (Li_2's inversion identity); P' - 2t = log(1 + e^{-2t}).
    """
    t = np.asarray(t, dtype=float)
    if model.kind is Kind.CYLINDER:
        return np.zeros_like(t), np.zeros_like(t)
    if model.kind is not Kind.CIGAR:
        raise DomainError(f"gluing needs a cigar or cylinder inner model, got {model.kind.value}")
    gap = -0.5 * _li2_of_minus(np.exp(-2.0 * np.abs(t))) - math.pi**2 / 24.0
    return np.where(t < 0.0, t**2 - gap, gap), np.logaddexp(0.0, -2.0 * t)


def potential_of(model, grid):
    """Radial potential P with P'' = 2a, P(0) = 0, in closed form on the nodes
    of grid = (t_min, t_max, h)."""
    t_min, t_max, h = grid
    t = uniform_nodes(t_min, t_max, h)
    return GridFunction(t_min, t_max, h, t**2 - _potential_gaps(model, t)[0])


def _transition(inner_model, spec, rho0):
    """(c, f - 2t) of the glued model as a function of t in the transition."""
    width = spec.t0 - 1.0

    def evaluate(t):
        gap, slope = _potential_gaps(inner_model, t)
        chi = spec.cutoff(t)
        d1, d2 = _smoothstep_derivatives((t - 1.0) / width, spec.smoothstep_degree)
        d1, d2 = d1 / width, d2 / width**2
        c = (0.5 * d2 * gap - d1 * slope + chi + (1.0 - chi) * inner_model.a(t)
             + spec.bump(t, rho0))
        f_minus_2t = 1.0 + d1 * gap + (1.0 - chi) * slope + 2.0 * spec.bump_integral(t, rho0)
        return c, f_minus_2t

    return evaluate


def _piecewise(t0, left, transition, right):
    """Callable equal to left(t) for t <= 1/2, transition(t) on the
    transition and the constant right for t >= t0 + 1/2."""
    def evaluate(t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, right)
        lo = t <= 0.5
        mid = ~lo & (t < t0 + 0.5)
        out[lo] = left(t[lo])
        out[mid] = transition(t[mid])
        return out

    return evaluate


def glue_coefficient(grid, spec, inner_model, rho0):
    """Coefficient c of the glued Kahler form relative to beta on the nodes of
    grid = (t_min, t_max, h), with bump amplitude rho0.

    c is the inner coefficient for t <= 1/2, exactly 1 for t >= t0 + 1/2,
    and the closed form of the module docstring in between.
    """
    if rho0 < 0:
        raise DomainError("bump amplitude must be nonnegative")
    t_min, t_max, h = grid
    transition = _transition(inner_model, spec, rho0)
    coefficient = _piecewise(spec.t0, inner_model.sample_a, lambda t: transition(t)[0], 1.0)
    return GridFunction(t_min, t_max, h, coefficient(uniform_nodes(t_min, t_max, h)))


def _peak_vertex(t, y, k, h):
    """Vertex of the parabola through y at nodes k - 1, k, k + 1 of spacing h
    when all three are finite and it is concave (a peak within h/2 of t_k),
    else None."""
    if 0 < k < len(t) - 1 and np.all(np.isfinite(y[k - 1: k + 2])):
        y0, y1, y2 = y[k - 1: k + 2]
        if y0 - 2.0 * y1 + y2 < 0.0:
            return np.array([t[k] + 0.5 * h * (y0 - y2) / (y0 - 2.0 * y1 + y2)])
    return None


def auto_rho(spec, inner_model):
    """Smallest bump amplitude rho0 with c >= spec.margin across the transition.

    c = c_0 + rho0 b, b the unit bump: rho0 is the largest (margin - c_0)/b on
    the nodes of spec.grid, refined at the vertex of the parabola through it
    and its neighbours, then raised by ulps until every node clears.
    """
    c = glue_coefficient(spec.grid, spec, inner_model, rho0=0.0)
    t, c0, margin = c.t, c.values, spec.margin
    if np.all(c0 >= margin):
        return 0.0
    b = spec.bump(t, 1.0)
    need = np.divide(margin - c0, b, out=np.where(c0 < margin, np.inf, -np.inf), where=b > 0.0)
    k = int(np.argmax(need))
    rho0 = need[k]
    if rho0 == np.inf:  # b = 0: no amplitude lifts this node
        raise DomainError(f"c = {c0[k]:.3g} < margin at t={t[k]:.6g}, outside the bump support")
    vertex = _peak_vertex(t, need, k, c.h)  # need is finite where b > 0
    if vertex is not None:
        c_vertex = _transition(inner_model, spec, 0.0)(vertex)[0]
        rho0 = max(rho0, (margin - c_vertex[0]) / spec.bump(vertex, 1.0)[0])
    while np.any(c0 + rho0 * b < margin):
        rho0 = np.nextafter(rho0, np.inf)
    if rho0 > RHO_CAP:
        raise DomainError(f"bump amplitude {rho0:.6g} exceeds {RHO_CAP:.0e}: inconsistent spec")
    return float(rho0)


def glued_model(inner_model, spec=None):
    """ACyl background model equal to the inner model (cigar or cylinder) for
    t <= 1/2 and to the cylinder for t >= t0 + 1/2.

    The coefficient is c from the gluing with auto_rho's bump amplitude; the
    soliton potential solves f' = 2c, inherits the inner model's f on the left
    (so min f = 1 is preserved) and equals 2t + kappa exactly on the cylinder
    region.  c must be positive on the gluing nodes and at the vertex of the
    parabola through their minimum, where a narrow transition dips between
    the nodes.
    """
    spec = spec or GlueSpec()
    rho0 = auto_rho(spec, inner_model)
    t0 = spec.t0
    transition = _transition(inner_model, spec, rho0)
    a = _piecewise(t0, inner_model.a, lambda t: transition(t)[0], 1.0)
    c = GridFunction.sample(a, *spec.grid)
    k = int(np.argmin(c.values))
    c_low, t_low = c.values[k], c.t[k]
    vertex = _peak_vertex(c.t, -c.values, k, c.h)
    if vertex is not None:
        c_low, t_low = min((c_low, t_low), (a(vertex)[0], vertex[0]))
    if c_low <= 0.0:
        raise DomainError(f"glued coefficient c = {c_low:.3g} <= 0 at t={t_low:.6g}; "
                          "increase glue.margin")

    kappa = 1.0 + 2.0 * float(spec.bump_integral(t0 + 0.5, rho0))
    return RadialKahlerModel(
        n=inner_model.n,
        kind=Kind.GLUED,
        a=a,
        log_a=_piecewise(t0, inner_model.log_a, lambda t: np.log(transition(t)[0]), 0.0),
        f_minus_2t=_piecewise(t0, inner_model.f_minus_2t, lambda t: transition(t)[1], kappa),
        glue_params={
            "t0": spec.t0,
            "degree": float(spec.smoothstep_degree),
            "rho0": float(rho0),
            "margin": spec.margin,
        },
    )


def glued_forcing(model, grid):
    """Monge-Ampere forcing F = -soliton_residual(model, 0).

    Exactly zero on the cylinder region {t >= t0 + 1/2}, and on t <= 1/2 the
    constant 2 int rho (nonzero when the bump amplitude rho0 > 0); driving the
    continuity method with this F produces an exact steady soliton metric on
    the glued background.
    """
    t_min, t_max, h = grid
    zero = GridFunction(t_min, t_max, h, np.zeros(len(uniform_nodes(t_min, t_max, h))))
    residual = soliton_residual(model, zero)
    return residual.like(-residual.values)
