"""Numerical surrogates for the structural estimates: weighted Poincare
constant and end-to-end verification reports.

The weighted Poincare inequality bounds lambda * int u^2 w <= int |u'|^2 w
with w = e^f / f^2 times the radial volume density a(t) (the normalization
min f = 1 makes the extra shift constant of the analytic statement
unnecessary).  Discretely this is the smallest generalized eigenvalue of
the (stiffness, mass) tridiagonal pencil with Dirichlet ends, computed by
one bisection solve (LAPACK xSTEBZ) of the symmetrised tridiagonal matrix
over a bracket of that eigenvalue: the Gershgorin lower bound and the
Rayleigh quotient of one tridiagonal solve (LAPACK xPTSV).  The barrier
argument behind the analytic inequality suggests the reference value 1/8,
which is reported for orientation only; the discrete constant need not
dominate it.

poincare_rayleigh calls LAPACK dptsv and dstebz through _lapack's provider:
the OpenBLAS numpy has already loaded, or SciPy's LAPACK extension where
numpy's library lacks the routines.  The package imports this module on
first use of one of its names, so `import acylsoliton` does not load it;
verify_solution imports the continuity module's residual when it is
called, so the Poincare constant alone (the verify command) loads neither
the continuity solver nor the drift solves.
"""

from dataclasses import asdict, dataclass, field
from typing import List

import numpy as np

from . import _lapack
from .errors import DomainError, PositivityLost, SingularSystem
from .grids import uniform_nodes
from .norms import decay_rate_fit

REFERENCE_LAMBDA0 = 0.125  # barrier-argument reference line, not a threshold
MAX_EXPONENT = float(np.log(np.finfo(float).max))  # e^f overflows above this


def _poincare_weights(model, grid):
    """Nodal and midpoint weights w = e^f / f^2 * a on the grid; the midpoint
    weights are formed in the buffer of f."""
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
    w = np.exp(f)
    np.multiply(np.divide(w, np.square(f, out=f), out=w), a, out=w)
    w_mid = np.add(w[1:], w[:-1], out=f[:-1])
    return w, np.multiply(0.5, w_mid, out=w_mid)


def _poincare_matrix(model, grid):
    """The symmetric tridiagonal matrix M^{-1/2} K M^{-1/2} as (diag, off).

    Stiffness K uses midpoint weights, mass M nodal weights, both with
    w = e^f / f^2 * a; Dirichlet conditions at both truncation ends.  The
    off-diagonal divides by sqrt(m_i) * sqrt(m_{i+1}): the product
    m_i * m_{i+1} overflows once w_i * w_{i+1} * h^2 exceeds the float
    range, far below the e^f overflow the weight check guards, and would
    turn the entry into -0.0.

    Built in place: mass is formed in w, the product of the roots then in
    mass, and off in the midpoint weights once diag has read them.
    """
    h = grid[2]
    w, w_mid = _poincare_weights(model, grid)
    mass = np.multiply(w[1:-1], h, out=w[1:-1])
    root = np.sqrt(mass)
    diag = np.add(w_mid[:-1], w_mid[1:])
    np.divide(np.divide(diag, h, out=diag), mass, out=diag)
    product = np.multiply(root[:-1], root[1:], out=mass[:-1])
    off = np.divide(np.negative(w_mid[1:-1], out=w_mid[1:-1]), h, out=w_mid[1:-1])
    np.divide(off, product, out=off)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise DomainError("Poincare matrix is not finite on the grid")
    return diag, off


def _lowest_bracket(diag, off):
    """(low, high] holding the smallest eigenvalue of the tridiagonal T, or
    None when T is not positive definite or the solve overflows.

    low is the Gershgorin lower bound.  high is the Rayleigh quotient of the
    solution x of T x = 1 (LAPACK dptsv): x^T T x = sum(x), so
    sum(x) / sum(x^2) >= lambda_1.  Both are padded by the margin xSTEBZ puts
    on its own Gershgorin interval, 2.1 * ||T||_inf * eps * n, which covers
    the rounding of the bound and the backward error of the solve; a bracket
    that still misses holds no eigenvalue, and _lowest_eigenvalue then falls
    back.  The sums use np.sum, not a BLAS dot product, so that the bits do
    not depend on the number of BLAS threads.
    """
    n = len(diag)
    radius = np.zeros(n)  # |e_{i-1}| + |e_i|
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    pad = 2.1 * float(np.max(np.abs(diag) + radius)) * np.finfo(float).eps * n
    low = float(np.min(diag - radius)) - pad
    x, info = _lapack.provider().dptsv(diag, off, np.ones(n))
    if info != 0:
        return None
    high = float(np.sum(x) / np.sum(x * x)) + pad
    return (low, high) if low < high else None


def _lowest_eigenvalue(diag, off):
    """Smallest eigenvalue of the symmetric tridiagonal matrix (diag, off) by
    LAPACK dstebz bisection over the bracket of _lowest_bracket; the index
    call (range 1..1 from the Gershgorin interval) when there is no bracket
    or it holds no eigenvalue."""
    bracket = _lowest_bracket(diag, off)
    if bracket is not None:
        # eigvalsh_tridiagonal(select="v", select_range=bracket): default tolerance
        m, eig, info = _lapack.provider().dstebz(diag, off, "V", *bracket, 0, 0)
        if info != 0:
            raise SingularSystem(f"LAPACK dstebz failed (info = {info})")
        if m > 0:
            return float(eig[0])
    # eigvalsh_tridiagonal(select="i", select_range=(0, 0))
    _, eig, info = _lapack.provider().dstebz(diag, off, "I", 0.0, 1.0, 1, 1)
    if info != 0:
        raise SingularSystem(f"LAPACK dstebz failed (info = {info})")
    return float(eig[0])


def poincare_rayleigh(model, grid):
    """Smallest eigenvalue of the weighted Rayleigh quotient on the grid.

    The pencil (K, M) of _poincare_matrix, symmetrised to the tridiagonal
    T = M^{-1/2} K M^{-1/2}, whose smallest eigenvalue LAPACK's
    Sturm-sequence bisection (xSTEBZ) computes over the bracket (low, high]
    of _lowest_bracket.  At h = 1e-4 that bracket is 0.4-0.9 wide for the
    cigar and the cylinder and 5.5 for the glued model, against the
    Gershgorin interval of width about 4/h^2 = 4e8 that the index-range
    call (eigenvalue 1 of n) bisects first.

    Tolerance: with ABSTOL = 0, xSTEBZ bisects every interval down to
    eps * max(|gl|, |gu|) of T's Gershgorin interval [gl, gu], whatever the
    range it searches, and returns the midpoint.  The value-range call and
    the index-range call therefore each lie within about eps * ||T||_inf of
    the same eigenvalue and agree to about 2 * eps * ||T||_inf, not bit for
    bit: at h = 1e-4, eps * ||T||_inf = 8.9e-8 and the cigar's two values
    differ by 3.9e-8.

    Cost: a bracket that holds m eigenvalues costs m bisections.  m = 1 on
    the grids of the tests, the bench and the CLI defaults.  The low
    spectrum of a long cylinder is dense: at h = 1e-3, length 80 gives
    m = 2 (about the cost of the index call, 40 ms on a 2-vCPU Xeon VM) and
    length 150 gives m = 3 (111 ms against 75 ms).

    Memory, in grid-sized float arrays of 8n bytes: _poincare_matrix traces
    a peak of 5 (4 for the cylinder) and returns 2, diag and off; the
    bracket's dptsv adds its copies of both, the right-hand side and x * x,
    so the call traces a peak of 6.0.  With numpy's OpenBLAS, xSTEBZ's
    outputs and workspace (10 arrays, its integers being 64-bit) are mapped
    outside numpy's allocator, and only the pages bisection writes become
    resident: the n squared off-diagonals and a few more.  SciPy's f2py
    wrapper allocates and zero-fills all 7.5 of its own (a traced peak of
    9.5).  Measured at h = 1e-4 on the cigar, the eigenvalue call raises the
    resident high-water mark by 1.0 array, against 5.5 with SciPy's wrapper.
    """
    return _lowest_eigenvalue(*_poincare_matrix(model, grid))


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool


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
            "checks": [asdict(c) for c in self.checks],
            "metadata": self.metadata,
        }

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


def verify_solution(model, solution, forcing):
    """Verification report for a converged continuity solution.

    Checks: Monge-Ampere residual at s = 1 (sup <= 1e-9 over every node, the ends by
    one-sided stencils; inf where a + phi''/2 <= 0 at some node, so the check fails
    instead of raising); decay-rate transfer from the forcing (capped at the Fredholm
    window edge 2); and over the path records (derivatives at the interior nodes, whose
    rows the solver solves): two-sided metric equivalence, the drift-potential lower
    bound inf(f + X(phi)/2) >= 1 and the weighted bound (no record exceeds 10x its final value).
    """
    from .continuity import ma_residual_radial

    try:
        residual = ma_residual_radial(model, solution.phi, forcing, 1.0)
        sup_res = float(np.max(np.abs(residual.values)))
    except PositivityLost:  # the end stencils can see a + phi''/2 <= 0 where Newton's rows do not
        sup_res = np.inf

    forcing_rate = decay_rate_fit(forcing)
    target_rate = min(forcing_rate, 2.0) - 0.1

    min_ratio = min(r.min_metric_ratio for r in solution.records)
    max_ratio = max(r.max_metric_ratio for r in solution.records)
    inf_potential = min(r.inf_drift_potential for r in solution.records)
    weighted_path = max(r.weighted_sup_phi for r in solution.records)
    weighted_final = solution.records[-1].weighted_sup_phi

    checks = [
        _check_le("monge_ampere_residual_sup", sup_res, 1e-9),
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
    return VerificationReport(checks=checks, metadata=meta)
