"""Numerical surrogates for the structural estimates: weighted Poincare
constant and end-to-end verification reports.

The weighted Poincare inequality bounds lambda * int u^2 w <= int |u'|^2 w
with w = e^f / f^2 times the radial volume density a(t) (the normalization
min f = 1 makes the extra shift constant of the analytic statement
unnecessary).  Discretely this is the smallest generalized eigenvalue of
the (stiffness, mass) tridiagonal pencil with Dirichlet ends, computed by
one direct bisection solve (LAPACK xSTEBZ) of the symmetrised tridiagonal
matrix.  The barrier argument behind the analytic inequality suggests the
reference value 1/8, which is reported for orientation only; the discrete
constant need not dominate it.

poincare_rayleigh calls LAPACK dstebz through _lapack, which loads SciPy's
LAPACK extension on the first call without running SciPy's package __init__
or importing scipy.linalg.  The package imports this module (and with it
the continuity solver) on first use of one of its names, so `import
acylsoliton` loads neither it nor SciPy.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import _lapack
from .continuity import ma_residual_radial
from .errors import DomainError, SingularSystem
from .grids import uniform_nodes
from .norms import decay_rate_fit

REFERENCE_LAMBDA0 = 0.125  # barrier-argument reference line, not a threshold
MAX_EXPONENT = float(np.log(np.finfo(float).max))  # e^f overflows above this


def _poincare_weights(model, grid):
    """Nodal and midpoint weights w = e^f / f^2 * a on the grid."""
    t_min, t_max, h = grid
    t = uniform_nodes(t_min, t_max, h)
    a = model.sample_a(t)
    f = model.f(t)
    if np.any(f <= 0):
        i = int(np.argmax(f <= 0))
        raise DomainError(
            f"Poincare weight needs f > 0, but f = {f[i]:.6g} at t = {t[i]:.6g}; "
            "raise grid.t_min"
        )
    if np.any(f > MAX_EXPONENT):
        i = int(np.argmax(f > MAX_EXPONENT))
        raise DomainError(
            f"Poincare weight e^f overflows at t = {t[i]:.6g} (f = {f[i]:.6g} > "
            f"{MAX_EXPONENT:.6g}); lower grid.t_max"
        )
    w = np.exp(f) / f**2 * a
    return w, 0.5 * (w[1:] + w[:-1])


def poincare_rayleigh(model, grid):
    """Smallest eigenvalue of the weighted Rayleigh quotient on the grid.

    Stiffness K uses midpoint weights, mass M nodal weights, both with
    w = e^f / f^2 * a.  Dirichlet conditions at both truncation ends.  The
    pencil (K, M) is symmetrised to M^{-1/2} K M^{-1/2}, a symmetric
    tridiagonal matrix whose smallest eigenvalue LAPACK's Sturm-sequence
    bisection (xSTEBZ) computes directly.
    """
    h = grid[2]
    w, w_mid = _poincare_weights(model, grid)
    mass = w[1:-1] * h
    diag = (w_mid[:-1] + w_mid[1:]) / h / mass
    off = -w_mid[1:-1] / h / np.sqrt(mass[:-1] * mass[1:])
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise DomainError("Poincare matrix is not finite on the grid")
    # the arguments of scipy.linalg.eigvalsh_tridiagonal(select="i",
    # select_range=(0, 0)): index range 1..1, default tolerance, order "E"
    _, eig, _, _, info = _lapack.flapack().dstebz(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    if info != 0:
        raise SingularSystem(f"LAPACK dstebz failed (info = {info})")
    return float(eig[0])


def rayleigh_quotient(model, grid, u_interior):
    """Variational quotient of an interior test vector (Dirichlet extension)."""
    h = grid[2]
    w, w_mid = _poincare_weights(model, grid)
    u = np.concatenate(([0.0], np.asarray(u_interior, dtype=float), [0.0]))
    num = float(np.sum(w_mid * (np.diff(u) / h) ** 2 * h))
    den = float(np.sum(w[1:-1] * u[1:-1] ** 2 * h))
    return num / den


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool

    def as_dict(self):
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    checks: List[Check]
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "metadata": self.metadata,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2)

    def summary_lines(self):
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name}: {c.value:.6g} {c.comparison} {c.threshold:.6g}")
        return lines


def _check_le(name, value, threshold):
    return Check(name, float(value), float(threshold), "<=", bool(value <= threshold))


def _check_ge(name, value, threshold):
    return Check(name, float(value), float(threshold), ">=", bool(value >= threshold))


def verify_solution(model, solution, forcing, residual_tol=1e-9, metadata=None):
    """Verification report for a converged continuity solution.

    Checks: Monge-Ampere residual at s = 1; decay-rate transfer from the
    forcing (capped at the Fredholm window edge 2); two-sided metric
    equivalence along the path; the drift-potential lower bound
    inf(f + X(phi)/2) >= 1; and the path-uniform weighted bound (no record
    exceeds 10x its final value).
    """
    residual = ma_residual_radial(model, solution.phi, forcing, 1.0)
    sup_res = float(np.max(np.abs(residual.values)))

    forcing_rate = decay_rate_fit(forcing)
    target_rate = min(forcing_rate, 2.0) - 0.1

    min_ratio = min(r.min_metric_ratio for r in solution.records)
    max_ratio = max(r.max_metric_ratio for r in solution.records)
    inf_potential = min(r.inf_drift_potential for r in solution.records)
    weighted_path = max(r.weighted_sup_phi for r in solution.records)
    weighted_final = solution.records[-1].weighted_sup_phi

    checks = [
        _check_le("monge_ampere_residual_sup", sup_res, residual_tol),
        _check_ge("decay_rate_transfer", solution.decay_rate, target_rate),
        _check_ge("min_metric_ratio_along_path", min_ratio, 1e-6),
        _check_le("max_metric_ratio_along_path", max_ratio, 1e6),
        _check_ge("inf_drift_potential", inf_potential, 1.0 - 1e-8),
        _check_le(
            "weighted_path_bound_over_final",
            weighted_path / weighted_final if weighted_final > 0 else 1.0,
            10.0,
        ),
    ]
    meta = {
        "model_kind": model.kind.value,
        "complex_dimension": model.n,
        "grid": {
            "t_min": solution.phi.t_min,
            "t_max": solution.phi.t_max,
            "h": solution.phi.h,
        },
        "forcing_decay_rate": forcing_rate,
        "reference_lambda0": REFERENCE_LAMBDA0,
    }
    if metadata:
        meta.update(metadata)
    meta["config_hash"] = hashlib.sha256(
        json.dumps(meta, sort_keys=True).encode()
    ).hexdigest()[:16]
    return VerificationReport(checks=checks, metadata=meta)
