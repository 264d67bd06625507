"""Closed-form radial Kahler models with cylindrical ends.

A radial model is a Kahler form a(t)*beta + flat torus factor, where
beta = dt ^ d^c t is the cylinder area form and t the cylindrical
coordinate.  The soliton potential f satisfies f' = 2a (the radial form of
iota_{JX} omega = -df for X = 2 d/dt), normalized additively so that
min f = 1.

Two closed-form models are provided: the product cylinder (a = 1,
f = 2t + 1, Ricci-flat) and the cigar times a flat torus, with

    a(t) = (1 + e^{-2t})^{-1},     f(t) = log(1 + e^{2t}) + 1.

The model also exposes log a and f - 2t as separate callables.  Both are
built from the same log1p(e^{-2t}) expression, so the soliton bracket
log a + (f - 2t) collapses to the constant C0 without floating-point
cancellation; this is what makes the exact-soliton residual vanish to
machine precision on wide grids.
"""

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import fd
from .errors import DomainError, PositivityLost
from .grids import GridFunction, RadialPotential, uniform_nodes

C0 = 1.0  # log a + (f - 2t) of the cigar and the cylinder: min f = 1


class Kind(enum.Enum):
    CYLINDER = "cylinder"
    CIGAR = "cigar"
    GLUED = "glued"

    @property
    def neumann_centre(self):
        """Whether the inner end is the model's centre, the zero of X, where radial
        functions are smooth only with u'(t_min) = 0 (the cylinder is truncated)."""
        return self in (Kind.CIGAR, Kind.GLUED)


@dataclass(frozen=True)
class RadialKahlerModel:
    """Radially symmetric ACyl Kahler model.

    a, log_a, f_minus_2t are vectorized callables of t.  f(t) is recovered
    as 2t + f_minus_2t(t).  The flat factor is the unit square torus
    T^{2(n-1)}; the spectrum takes its lattice from spectrum.CrossSection.
    glue_params records how a glued model was built; model_to_text writes it
    out, and nothing reads it back.
    """

    n: int
    kind: Kind
    a: Callable = field(repr=False)
    log_a: Callable = field(repr=False)
    f_minus_2t: Callable = field(repr=False)
    glue_params: Optional[dict] = None

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return 2.0 * t + self.f_minus_2t(t)

    def sample_a(self, t):
        vals = np.asarray(self.a(np.asarray(t, dtype=float)), dtype=float)
        if np.any(vals <= 0.0):
            i = int(np.argmin(vals))
            raise DomainError(f"coefficient a(t) <= 0 at t={np.asarray(t)[i]:.6g}")
        return vals


def cigar_model(n):
    """Cigar soliton times a flat torus; ACyl with cross-section S^1 x T^{2(n-1)}.

    a(t) = (1+e^{-2t})^{-1} tends to 1 (the paper's asymptotic cylinder) and
    f - 2t = log(1+e^{-2t}) + 1 decays at rate e^{-2t}.  min f = 1 is
    attained in the limit t -> -infty (the fixed point of the flow).
    """
    if n < 1:
        raise DomainError(f"complex dimension must be >= 1, got n={n}")

    def a(t):
        t = np.asarray(t, dtype=float)
        return 1.0 / (1.0 + np.exp(-2.0 * t))

    def log_a(t):
        t = np.asarray(t, dtype=float)
        return -np.logaddexp(0.0, -2.0 * t)

    def f_minus_2t(t):
        t = np.asarray(t, dtype=float)
        return np.logaddexp(0.0, -2.0 * t) + 1.0

    return RadialKahlerModel(n=n, kind=Kind.CIGAR, a=a, log_a=log_a, f_minus_2t=f_minus_2t)


def cylinder_model(n):
    """Ricci-flat product cylinder: a = 1, f = 2t + 1 (min over t >= 0 is 1)."""
    if n < 1:
        raise DomainError(f"complex dimension must be >= 1, got n={n}")

    def a(t):
        return np.ones_like(np.asarray(t, dtype=float))

    def log_a(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def f_minus_2t(t):
        return np.full_like(np.asarray(t, dtype=float), 1.0)

    return RadialKahlerModel(n=n, kind=Kind.CYLINDER, a=a, log_a=log_a, f_minus_2t=f_minus_2t)


def ricci_coefficient(model, grid):
    """Coefficient of Ric(omega) relative to beta: -1/2 (log a)''.

    The e^{2t} Jacobian between (i/2) dz^dzbar and beta contributes -2t to
    log(omega^n / volume form), which drops out under d^2/dt^2.  Second
    derivative from the increments of log a on the nodes of grid = (t_min, t_max, h).
    """
    t_min, t_max, h = grid
    t = uniform_nodes(t_min, t_max, h)
    model.sample_a(t)  # positivity check
    log_a = np.asarray(model.log_a(t), dtype=float)
    _, d2 = fd.increment_derivatives(np.diff(log_a), h)
    return GridFunction(t_min, t_max, h, -0.5 * d2)


def radial_increments(phi):
    """phi_{i+1} - phi_i: the increments a RadialPotential carries, else np.diff."""
    return phi.increments if isinstance(phi, RadialPotential) else np.diff(phi.values)


def radial_derivatives(phi):
    """(phi', phi'') at the nodes by fd.increment_derivatives of radial_increments(phi)."""
    return fd.increment_derivatives(radial_increments(phi), phi.h)


def soliton_residual(model, phi):
    """Pointwise defect of the gradient-soliton volume identity.

    r(t) = log(a + phi''/2) - (2t - f - phi') - c_fit, with c_fit taken at
    the last node.  r vanishes (to stencil error) iff omega + i ddbar phi
    solves the soliton Monge-Ampere identity.  Derivatives come from phi's
    increments (radial_derivatives).
    """
    d1, d2 = radial_derivatives(phi)
    t = phi.t
    a, half_dd = half_hessian(model, t, d2)
    bracket = (np.log1p(half_dd / a) + np.asarray(model.log_a(t), dtype=float)
               + np.asarray(model.f_minus_2t(t), dtype=float) + d1)
    return phi.like(bracket - bracket[-1])


def half_hessian(model, t, d2):
    """(a, phi''/2) at the nodes t; raises PositivityLost where a + phi''/2 <= 0."""
    a = model.sample_a(t)
    half_dd = 0.5 * d2
    a_phi = a + half_dd
    if np.any(a_phi <= 0.0):
        i = int(np.argmin(a_phi / a))
        raise PositivityLost(i, t[i], a_phi[i])
    return a, half_dd


def model_to_text(model):
    """Key-value record of how model was built (docs/formats.md): kind, n, C0,
    the 2(n - 1) identity rows of the unit square lattice of T^{2(n-1)} and
    glue_params.  Nothing reads it back."""
    dim = 2 * (model.n - 1)
    lines = [f"kind = {model.kind.value}", f"n = {model.n}", f"c0 = {C0:.17g}"]
    lines += ["lattice_row = " + " ".join("1" if i == j else "0" for j in range(dim))
              for i in range(dim)]
    for key in sorted(model.glue_params or ()):
        lines.append(f"glue.{key} = {model.glue_params[key]:.17g}")
    return "\n".join(lines) + "\n"
