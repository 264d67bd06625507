"""Cut-off gluing of an inner radial model to the exact cylinder.

The inner Kahler form a(t) beta is written as i ddbar of a radial potential
P (P'' = 2a), then interpolated against the cylinder potential t^2 by a
polynomial cutoff chi (chi = 0 for t <= 1, chi = 1 for t >= t0):

    c(t) = 1/2 d^2/dt^2 [ chi t^2 + (1 - chi) P ] + rho(t),

where rho >= 0 is a bump supported in [1/2, t0 + 1/2] whose amplitude is
raised until c clears a positivity margin.  By construction c equals the
inner coefficient a for t <= 1/2 and 1 (the cylinder) for t >= t0 + 1/2;
those two regions are enforced exactly, not just to stencil error.

The glued soliton potential integrates f' = 2c, inheriting the inner
model's normalization (min f = 1) on the left and becoming 2t + kappa
exactly on the cylinder region, so the trivial-potential soliton residual
vanishes identically there and the induced Monge-Ampere forcing is
compactly supported.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from . import fd
from .errors import DomainError
from .grids import GridFunction, uniform_nodes
from .models import Kind, RadialKahlerModel

RHO_CAP = 1e6
QUAD_REFINE = 10         # internal refinement for the potential quadrature
TAIL_START = -14.0       # extension depth for the one-sided integral of 2a


def smoothstep(x, degree=7):
    """Odd-degree polynomial smoothstep on [0, 1], C^{(degree-1)/2} at junctions."""
    if degree < 1 or degree % 2 == 0:
        raise DomainError("smoothstep degree must be odd and >= 1")
    m = (degree - 1) // 2
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    acc = np.zeros_like(x)
    for k in range(m + 1):
        coeff = math.comb(m + k, k) * math.comb(2 * m + 1, m - k)
        acc = acc + coeff * (-x) ** k
    return x ** (m + 1) * acc


def bump_profile(s):
    """Nonnegative C^3 profile (1 - s^2)^4 on [-1, 1], zero outside."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    out = np.zeros_like(s)
    out[inside] = (1.0 - s[inside] ** 2) ** 4
    return out


@dataclass(frozen=True)
class GlueSpec:
    """Transition end t0 > 1, cutoff degree, bump amplitude, positivity margin."""

    t0: float = 3.0
    smoothstep_degree: int = 7
    rho0: Optional[float] = None      # None: choose automatically
    margin: float = 1e-2
    t_max: Optional[float] = None     # gluing grid end, default t0 + 3
    h: float = 0.005

    def __post_init__(self):
        if self.t0 <= 1.0:
            raise DomainError("transition end t0 must exceed 1")
        if self.margin <= 0:
            raise DomainError("positivity margin must be positive")

    @property
    def grid_end(self):
        return self.t0 + 3.0 if self.t_max is None else self.t_max

    def cutoff(self, t):
        return smoothstep((np.asarray(t, dtype=float) - 1.0) / (self.t0 - 1.0),
                          self.smoothstep_degree)

    def bump(self, t, rho0):
        center = (0.5 + self.t0 + 0.5) / 2.0
        halfwidth = self.t0 / 2.0
        return rho0 * bump_profile((np.asarray(t, dtype=float) - center) / halfwidth)


def _fine_derivative(model, t_min, t_max, h):
    """P' on the refined quadrature grid, with that grid and the slice that
    samples it back onto the nodes of (t_min, t_max, h)."""
    h_fine = h / QUAD_REFINE
    start = min(t_min, TAIL_START)
    t_fine = uniform_nodes(start, t_max, h_fine)
    two_a = 2.0 * model.sample_a(t_fine)
    tail = float(model.sample_a(np.array([start]))[0])  # ~ integral of 2a below start
    p_prime = tail + cumulative_simpson(two_a, x=t_fine, initial=0.0)
    stride = int(round(h / h_fine))
    offset = int(round((t_min - start) / h_fine))
    return t_fine, p_prime, slice(offset, None, stride)


def potential_of(model, grid=(0.0, 6.0, 0.005)):
    """Radial potential P with P'' = 2a, P(0) = 0.

    P'(t) is the one-sided integral of 2a from -infty; the cylinder case is
    exact (P = t^2) and decaying-coefficient models are integrated on an
    internally refined grid extended to the left until the tail is
    negligible, by composite Simpson quadrature.
    """
    t_min, t_max, h = grid
    t = uniform_nodes(t_min, t_max, h)
    if model.kind is Kind.CYLINDER:
        return GridFunction(t_min, t_max, h, t**2)
    t_fine, p_prime, coarse = _fine_derivative(model, t_min, t_max, h)
    p_fine = cumulative_simpson(p_prime, x=t_fine, initial=0.0)
    # fix P(0) = 0
    i0 = int(np.argmin(np.abs(t_fine)))
    p_fine -= p_fine[i0]
    return GridFunction(t_min, t_max, h, p_fine[coarse][: len(t)])


def potential_derivative_of(model, grid=(0.0, 6.0, 0.005)):
    """P'(t) on the grid (same quadrature as potential_of)."""
    t_min, t_max, h = grid
    t = uniform_nodes(t_min, t_max, h)
    if model.kind is Kind.CYLINDER:
        return GridFunction(t_min, t_max, h, 2.0 * t)
    _, p_prime, coarse = _fine_derivative(model, t_min, t_max, h)
    return GridFunction(t_min, t_max, h, p_prime[coarse][: len(t)])


def glue_coefficient(p_inner, spec, inner_model=None, rho0=None):
    """Coefficient c of the glued Kahler form relative to beta.

    c = 1/2 (chi t^2 + (1-chi) P)'' + rho by finite differences on the
    composite potential.  The regions t <= 1/2 (pure inner form) and
    t >= t0 + 1/2 (pure cylinder) are set exactly: when the inner model is
    supplied its coefficient is used there, otherwise 1/2 P'' is kept.
    """
    amplitude = spec.rho0 if rho0 is None else rho0
    if amplitude is None:
        raise DomainError("bump amplitude rho0 is not set; run auto_rho first")
    if amplitude < 0:
        raise DomainError("bump amplitude must be nonnegative")
    t = p_inner.t
    h = p_inner.h
    chi = spec.cutoff(t)
    composite = chi * t**2 + (1.0 - chi) * p_inner.values
    c = 0.5 * fd.d2(composite, h) + spec.bump(t, amplitude)
    outer = t >= spec.t0 + 0.5 - 1e-12
    c[outer] = 1.0
    inner = t <= 0.5 + 1e-12
    if inner_model is not None:
        c[inner] = inner_model.sample_a(t[inner])
    else:
        c[inner] = 0.5 * fd.d2(p_inner.values, h)[inner]
    return p_inner.like(c)


def auto_rho(p_inner, spec, inner_model=None):
    """Smallest bump amplitude rho0 with min c >= spec.margin.

    Geometric scan (factor 1.2) to bracket, then bisection to 1e-3 relative;
    returns the feasible upper end.  Fails when no amplitude below RHO_CAP
    works, or when the minimum outside the bump support is already below the
    margin (rho0 cannot fix that region).
    """
    def min_c(amplitude):
        return float(np.min(glue_coefficient(p_inner, spec, inner_model, rho0=amplitude).values))

    if min_c(0.0) >= spec.margin:
        return 0.0
    lo = 0.0
    hi = spec.margin
    while min_c(hi) < spec.margin:
        lo = hi
        hi *= 1.2
        if hi > RHO_CAP:
            raise DomainError(
                f"no bump amplitude below {RHO_CAP:.0e} achieves margin {spec.margin}; "
                "the glue specification is inconsistent"
            )
    while (hi - lo) > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if min_c(mid) >= spec.margin:
            hi = mid
        else:
            lo = mid
    return hi


def glued_model(inner_model, spec=None):
    """ACyl background model equal to the inner model for t <= 1/2 and to
    the cylinder for t >= t0 + 1/2.

    The coefficient is c from the gluing; the soliton potential integrates
    f' = 2c and inherits the inner model's f on the left (so min f = 1 is
    preserved) and equals 2t + kappa exactly on the cylinder region.
    """
    spec = spec or GlueSpec()
    grid = (0.0, spec.grid_end, spec.h)
    p_inner = potential_of(inner_model, grid)
    rho0 = spec.rho0 if spec.rho0 is not None else auto_rho(p_inner, spec, inner_model)
    c = glue_coefficient(p_inner, spec, inner_model, rho0=rho0)
    if float(np.min(c.values)) <= 0.0:
        raise DomainError("glued coefficient is not positive; increase rho0")

    t0 = spec.t0
    t_nodes = c.t
    transition = (t_nodes >= 0.5 - 1e-12) & (t_nodes <= t0 + 0.5 + 1e-12)
    c_spline = CubicSpline(t_nodes[transition], c.values[transition])

    inner_a = inner_model.a
    inner_log_a = inner_model.log_a
    inner_fm2t = inner_model.f_minus_2t

    def a(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        left = t <= 0.5
        right = t >= t0 + 0.5
        mid = ~left & ~right
        out[left] = inner_a(t[left])
        out[right] = 1.0
        out[mid] = c_spline(t[mid])
        return out

    def log_a(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        left = t <= 0.5
        right = t >= t0 + 0.5
        mid = ~left & ~right
        out[left] = inner_log_a(t[left])
        out[right] = 0.0
        out[mid] = np.log(c_spline(t[mid]))
        return out

    # f on the transition: f(1/2) from the inner model plus the integral of 2c
    h_fine = spec.h / 2.0
    t_fine = uniform_nodes(0.5, t0 + 0.5, h_fine)
    f_half = 2.0 * 0.5 + float(inner_fm2t(np.array([0.5]))[0])
    f_fine = f_half + cumulative_simpson(2.0 * a(t_fine), x=t_fine, initial=0.0)
    f_spline = CubicSpline(t_fine, f_fine)
    kappa = float(f_fine[-1] - 2.0 * (t0 + 0.5))

    def f_minus_2t(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        left = t <= 0.5
        right = t >= t0 + 0.5
        mid = ~left & ~right
        out[left] = inner_fm2t(t[left])
        out[right] = kappa
        out[mid] = f_spline(t[mid]) - 2.0 * t[mid]
        return out

    return RadialKahlerModel(
        n=inner_model.n,
        kind=Kind.GLUED,
        c0=inner_model.c0,
        a=a,
        log_a=log_a,
        f_minus_2t=f_minus_2t,
        torus=inner_model.torus,
        glue_params={
            "t0": spec.t0,
            "degree": float(spec.smoothstep_degree),
            "rho0": float(rho0),
            "margin": spec.margin,
        },
    )


def glued_forcing(model, grid):
    """Compactly supported Monge-Ampere forcing F = -soliton_residual(model, 0).

    Exactly zero on the cylinder region {t >= t0 + 1/2}; driving the
    continuity method with this F produces an exact steady soliton metric on
    the glued background.
    """
    from .models import soliton_residual

    t_min, t_max, h = grid
    zero = GridFunction(t_min, t_max, h, np.zeros(len(uniform_nodes(t_min, t_max, h))))
    residual = soliton_residual(model, zero)
    return residual.like(-residual.values)
