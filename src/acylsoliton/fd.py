"""The finite-difference stencil on uniform grids.

Every derivative along t in the package, first or second, comes from one
stencil, increment_derivatives, which reads the increments v = diff(u) of
the samples, not the samples: rounding then costs about eps |u'| / h
instead of eps |u| / h^2.  Interior nodes use 2nd-order central
differences.  The two end nodes use one-sided stencils of order 4 so that
boundary values of reported residuals are not the accuracy bottleneck (the
radial operators divide second derivatives by coefficients as small as
e^{2t}, which magnifies stencil truncation error near the inner end).
"""

import numpy as np

from .errors import DomainError

# one-sided first derivative, order 4 (5 nodes)
_D1_EDGE = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -1.0 / 4.0])
# one-sided second derivative, order 4 (6 nodes)
_D2_EDGE = np.array([15.0 / 4.0, -77.0 / 6.0, 107.0 / 6.0, -13.0, 61.0 / 12.0, -5.0 / 6.0])

MIN_NODES = 6


def _edge_dot(coeffs, u, reverse):
    """Sum coeffs[k] * u[k] (or u[-1-k])."""
    acc = coeffs[0] * (u[-1] if reverse else u[0])
    for k in range(1, len(coeffs)):
        acc = acc + coeffs[k] * (u[-1 - k] if reverse else u[k])
    return acc


def increment_derivatives(v, h):
    """(u', u'') at the nodes of the u with increments v = diff(u): central
    inside, one-sided of order 4 at the two end nodes."""
    d1, d2 = np.empty(len(v) + 1), np.empty(len(v) + 1)
    d1[[0, -1]], d2[[0, -1]] = increment_edges(v, h)
    d1[1:-1] = (v[1:] + v[:-1]) / (2.0 * h)
    d2[1:-1] = (v[1:] - v[:-1]) / (h * h)
    return d1, d2


def increment_edges(v, h):
    """increment_derivatives at the end nodes, ([d1_first, d1_last], [d2_first, d2_last]).
    Edge stencils sum to zero, so they act on u_k - u_0 = v_0 + ... + v_{k-1}:
    the weight of v_j is the sum of the coefficients past j."""
    if len(v) + 1 < MIN_NODES:
        raise DomainError(f"need at least {MIN_NODES} nodes, got {len(v) + 1}")
    w1, w2 = (np.cumsum(c[::-1])[-2::-1] for c in (_D1_EDGE, _D2_EDGE))
    return (np.array([_edge_dot(w1, v, False), _edge_dot(w1, v, True)]) / h,
            np.array([_edge_dot(w2, v, False), -_edge_dot(w2, v, True)]) / (h * h))

