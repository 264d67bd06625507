"""Discrete weighted C^k norms and empirical decay rates.

The continuum norm sums sup_M |e^{eps t} grad^j u| over derivative orders
j <= k <= 2.  Discretely, the sup runs over every node, and u' and u'' are
read from u's increments by the package's one stencil along t
(models.radial_derivatives).  Holder seminorms are not discretized: at
fixed resolution they carry no extra information.
"""

import numbers

import numpy as np

from .errors import DomainError
from .models import radial_derivatives

TAIL_WINDOW = (0.6, 0.9)  # decay fits use this fraction of [t_min, t_max]


def weighted_sup_norm(u, k, epsilon):
    """max over 0 <= j <= k of max over the nodes of e^{epsilon t} |D^j u|, for
    the derivative order k = 0, 1 or 2.

    D u and D^2 u are models.radial_derivatives(u): a RadialPotential's
    carried increments, else np.diff of the samples."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k not in (0, 1, 2):
        raise DomainError(f"derivative order k must be 0, 1 or 2, got {k!r}")
    derivatives = (u.values, *radial_derivatives(u)) if k else (u.values,)
    weight = np.exp(epsilon * u.t)
    return max(float(np.max(weight * np.abs(d))) for d in derivatives[: k + 1])


def tail_window(u):
    """(lo, hi): the t range that decay_rate_fit fits over, the TAIL_WINDOW
    fraction of [t_min, t_max]."""
    return tuple(u.t_min + frac * (u.t_max - u.t_min) for frac in TAIL_WINDOW)


def decay_rate_fit(u):
    """Least-squares slope of -log|u| against t over tail_window(u).

    Returns +inf when u vanishes identically on the window (decays faster
    than any exponential the grid can see).
    """
    lo, hi = tail_window(u)
    t = u.t  # the nodes ascend, so t >= lo and t <= hi hold on one slice
    first, stop = np.searchsorted(t, lo, "left"), np.searchsorted(t, hi, "right")
    vals = np.abs(u.values[first:stop])
    tw = t[first:stop]
    nonzero = vals > 0.0
    if np.count_nonzero(nonzero) < 2:
        return float("inf")
    slope = np.polyfit(tw[nonzero], -np.log(vals[nonzero]), 1)[0]
    return float(slope)
