"""Discrete weighted C^k norms and empirical decay rates.

The continuum norm sums sup_M |e^{eps t} grad^j u| over derivative orders
j <= k.  Discretely, derivatives are minimal central stencils and the sup
runs over the nodes where the stencil fits.  Holder seminorms are not
discretized: at fixed resolution they carry no extra information.
"""

from dataclasses import dataclass

import numpy as np

from . import fd
from .errors import DomainError

TAIL_WINDOW = (0.6, 0.9)  # decay fits use this fraction of [t_min, t_max]


@dataclass(frozen=True)
class WeightedNormSpec:
    k: int = 0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.k < 0:
            raise DomainError("derivative order k must be >= 0")


def weighted_sup_norm(u, spec):
    """max over 0 <= j <= k of sup over valid nodes of e^{eps t} |D^j u|."""
    if u.is_2d:
        raise DomainError("weighted_sup_norm expects a 1D grid function")
    if len(u.values) == 0:
        raise DomainError("empty grid")
    t = u.t
    best = 0.0
    for j in range(spec.k + 1):
        vals, trim = fd.derivative_interior(u.values, u.h, j)
        if len(vals) == 0:
            raise DomainError(f"grid too short for order-{j} stencil")
        tj = t[trim: len(t) - trim] if trim else t
        best = max(best, float(np.max(np.exp(spec.epsilon * tj) * np.abs(vals))))
    return best


def decay_rate_fit(u):
    """Least-squares slope of -log|u| against t over the TAIL_WINDOW fraction.

    2D fields are reduced to per-slice maxima over the second axis first.
    Returns +inf when u vanishes identically on the window (decays faster
    than any exponential the grid can see).
    """
    t = u.t
    vals = np.abs(u.values)
    if u.is_2d:
        vals = vals.max(axis=1)
    lo_frac, hi_frac = TAIL_WINDOW
    lo = u.t_min + lo_frac * (u.t_max - u.t_min)
    hi = u.t_min + hi_frac * (u.t_max - u.t_min)
    window = (t >= lo) & (t <= hi)
    vals = vals[window]
    tw = t[window]
    nonzero = vals > 0.0
    if np.count_nonzero(nonzero) < 2:
        return float("inf")
    slope = np.polyfit(tw[nonzero], -np.log(vals[nonzero]), 1)[0]
    return float(slope)
