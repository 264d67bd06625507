"""Critical weights of the model drift operator d^2/dt^2 + 2 d/dt + Delta_L.

Separating a cross-section eigenmode with eigenvalue mu >= 0 and substituting
v = e^{i lambda t} u(t) (u polynomial in t) shows that lambda = gamma + i eps
must satisfy 2 gamma (1 - eps) = 0 and eps^2 - 2 eps - gamma^2 = mu.
gamma != 0 would force eps = 1 and mu = -1 - gamma^2 < 0, so gamma = 0 and
the critical weights are exactly

    eps = 1 +/- sqrt(1 + mu).

Double roots would need 1 + mu = 0, which never happens, so polynomial-in-t
solutions contribute no extra weights.  For mu >= 0 the branches satisfy
eps_- <= 0 and eps_+ >= 2 (equality only at mu = 0), hence the interval
(0, 2) is always free of critical weights and the drift Laplacian is
Fredholm there.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError

DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class CriticalWeight:
    epsilon: float
    mu: float
    branch: int  # +1 or -1


@dataclass(frozen=True)
class CriticalWeightSet:
    """Critical weights found inside `window`, from eigenvalues up to mu_max."""

    weights: Tuple[CriticalWeight, ...]
    window: Tuple[float, float]
    mu_max: float


def critical_weights(spectrum, window):
    """All eps = 1 +/- sqrt(1+mu) strictly inside the open window (lo, hi),
    sorted and deduplicated.

    `spectrum` holds eigenvalues mu or (mu, multiplicity) pairs, as a sequence
    or as an array of shape (k,) or (k, 2).
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise DomainError(f"empty window ({lo}, {hi})")
    mus = np.asarray(spectrum, dtype=float)
    if mus.ndim == 2:
        mus = mus[:, 0]
    negative = mus < -DEDUP_TOL
    if negative.any():
        raise DomainError(f"negative cross-section eigenvalue mu={float(mus[negative][0])}")
    mus = np.where(mus < 0.0, 0.0, mus)
    root = np.sqrt(1.0 + mus)
    eps = np.concatenate((1.0 - root, 1.0 + root))
    mu = np.concatenate((mus, mus))
    branch = np.repeat([-1, 1], len(mus))
    inside = (lo + DEDUP_TOL < eps) & (eps < hi - DEDUP_TOL)
    dedup = []
    for e, m, b in sorted(zip(eps[inside].tolist(), mu[inside].tolist(), branch[inside].tolist())):
        if dedup and abs(e - dedup[-1].epsilon) <= DEDUP_TOL:
            continue
        dedup.append(CriticalWeight(epsilon=e, mu=m, branch=b))
    return CriticalWeightSet(
        weights=tuple(dedup), window=(lo, hi), mu_max=float(mus.max()) if len(mus) else 0.0
    )


def fredholm_window_check(cws, interval):
    """True iff no critical weight lies in the open interval.

    Also returns the margin: the distance from the interval to the nearest
    known weight (0 when a weight sits on the boundary).  Raises when the
    weight set cannot certify the interval, either because the interval is
    not contained in the searched window or because the eigenvalue coverage
    mu_max is too small (all weights in [1-sqrt(1+mu_max), 1+sqrt(1+mu_max)]
    are known; anything outside might be missing).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise DomainError(f"empty interval ({lo}, {hi})")
    wlo, whi = cws.window
    if lo < wlo - DEDUP_TOL or hi > whi + DEDUP_TOL:
        raise DomainError(
            f"interval ({lo}, {hi}) not contained in searched window ({wlo}, {whi})"
        )
    reach = np.sqrt(1.0 + cws.mu_max)
    if hi > 1.0 + reach + DEDUP_TOL or lo < 1.0 - reach - DEDUP_TOL:
        raise DomainError(
            f"insufficient mu_max={cws.mu_max:.6g} to certify interval ({lo}, {hi})"
        )
    eps = np.array([w.epsilon for w in cws.weights])
    ok = not np.any((eps > lo + DEDUP_TOL) & (eps < hi - DEDUP_TOL))
    margin = np.min(np.maximum(np.maximum(lo - eps, eps - hi), 0.0), initial=np.inf)
    return ok, float(margin)


def weights_to_csv(cws, path):
    fields = tuple(x for w in cws.weights for x in (w.epsilon, w.mu, "-+"[w.branch > 0]))
    with open(path, "w", newline="") as fh:
        fh.write("epsilon,mu,branch\n")
        fh.write("%.17g,%.17g,%s\n" * len(cws.weights) % fields)
