"""Laplace spectrum of the flat cross-section S^1 x T^{2(n-1)}.

Modes are e^{ij theta} e^{2 pi i <k*, x>} with j an integer circle index and
k* in the dual lattice with coefficients alpha; the eigenvalue is
mu = (2 pi j / l_theta)^2 + mu_torus(alpha) with mu_torus = |2 pi k*|^2.  The
alpha are enumerated over the ellipsoid mu_torus <= mu_max (Fincke and Pohst,
Math. Comp. 44 (1985), one level), at a cost of the kept vectors plus at most
two candidates per prefix.  The prefixes lie in the box |alpha_i| <= a_max,
the largest per-axis bound sqrt(mu_max (G^-1)_ii) of alpha^T G alpha <= mu_max
(G the dual Gram matrix), which needs no eigensolver.  The spectrum is
symmetric under conjugation (j, alpha) -> (-j, -alpha): mu_torus(-alpha) has
the same bits as mu_torus(alpha), -alpha has the orbit size of alpha (R is
linear), and m | j L exactly when m | -j L.  So only one alpha of each pair
+-alpha != 0 is enumerated and counted twice, and j runs over 0..j_max with
weight 2 for j > 0.  On S^1 x T^4 at mu_max 100 that is 29 012 candidates for
24 844 pairs, where the whole ellipsoid took 58 025 for 49 689 vectors and the
integer box [-a_max, a_max]^4 194 481.

A finite cyclic quotient (theta shift by 2 pi/m together with an integer
lattice map R of order m) acts on a mode by (j, alpha) -> (j, R^T alpha)
with character e^{2 pi i j/m} per generator application.  The invariant
subspectrum keeps, for each orbit, the dimension of the trivial-character
subspace: 1 if m divides j * L, where the orbit size L of alpha is the least
L >= 1 with (R^T)^L alpha = alpha.  So the lattice vectors are reduced, for
each L = 1..m, to their distinct torus values with member counts (np.unique
with counts, no inverse), and j is broadcast against these groups only; the
full spectrum is the order-1 case m = 1, R = I.  The kept eigenvalues are
sorted once.  Each gap of more than MERGE_TOL between neighbours starts a new
cluster, so a run of closer gaps is one cluster, reported at its smallest
value, and np.add.reduceat sums the integer weights of each cluster, so the
order of the groups does not matter.
"""

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .errors import DomainError

MERGE_TOL = 1e-10  # multiplicity merging tolerance on mu


@dataclass(frozen=True)
class CyclicQuotient:
    """Order-m cyclic action: circle shift 2 pi/m and lattice map R (integer)."""

    order: int
    lattice_map: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.lattice_map)
        object.__setattr__(self, "lattice_map", R)
        if self.order < 2:
            raise DomainError(f"quotient order must be >= 2, got {self.order}")
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise DomainError(f"lattice map must be a square matrix, got shape {R.shape}")
        if not np.array_equal(R, np.round(R)):
            raise DomainError("lattice map must be an integer matrix")
        if abs(abs(np.linalg.det(R)) - 1.0) > 1e-9:
            raise DomainError("lattice map must be unimodular")
        if not np.array_equal(np.linalg.matrix_power(R.astype(np.int64), self.order),
                              np.eye(len(R))):
            raise DomainError("lattice map does not satisfy R^m = identity")


@dataclass(frozen=True)
class CrossSection:
    """Flat cross-section: circle of length l_theta times a flat torus."""

    circle_length: float
    lattice: np.ndarray
    quotient: Optional[CyclicQuotient] = None
    # Gram matrix of 2 pi times the dual basis: mu_torus = alpha^T G* alpha
    dual_gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B = np.asarray(self.lattice, dtype=float)
        object.__setattr__(self, "lattice", B)
        if not 0 < self.circle_length < np.inf:
            raise DomainError("circle length must be positive and finite")
        if not np.isfinite(B).all():
            raise DomainError("lattice basis entries must be finite")
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise DomainError("lattice basis must be a square matrix")
        if abs(np.linalg.det(B)) < 1e-12:
            raise DomainError("degenerate lattice basis")
        gram = B @ B.T
        if self.quotient is not None:
            R = self.quotient.lattice_map
            if R.shape != B.shape:
                raise DomainError("lattice map dimension mismatch")
            # the action must be an isometry of the torus: R^T G R = G
            if not np.allclose(R.T @ gram @ R, gram, rtol=1e-9, atol=1e-9):
                raise DomainError("lattice map is not an isometry of the lattice")
        object.__setattr__(self, "dual_gram", 4.0 * np.pi**2 * np.linalg.inv(gram))


def _ellipsoid(gram, bound, a_max, dtype):
    """One alpha of each pair +-alpha != 0 in [-a_max, a_max]^d with alpha^T gram alpha
    <= bound, the one whose first nonzero coefficient is positive, and a few more.

    For each prefix of d - 1 coefficients the last coefficient x runs between the roots
    of g x^2 + 2 b x + c = bound, padded by one and clipped to +-a_max.  np.indices lists
    the prefixes lexicographically, so the representatives are the prefixes after the
    zero prefix (the middle one), and the zero prefix itself with x >= 1."""
    d, side = gram.shape[0], 2 * a_max + 1
    zero = side ** (d - 1) // 2  # row of the zero prefix
    prefix = np.indices((side,) * (d - 1)).reshape(d - 1, 2 * zero + 1)[:, zero:].T - a_max
    g, b = gram[-1, -1], prefix @ gram[:-1, -1]
    c = np.einsum("ki,ij,kj->k", prefix, gram[:-1, :-1], prefix) - bound * (1 + 1e-9)  # rounding
    disc = b * b - g * c
    real = disc >= 0  # true for the zero prefix (c < 0), which stays first
    root, b = np.sqrt(disc[real]), b[real]
    lo = np.maximum(np.ceil((-b - root) / g) - 1, -a_max)
    lo[0] = max(lo[0], 1)
    hi = np.minimum(np.floor((root - b) / g) + 1, a_max)
    count = np.maximum(hi - lo + 1, 0).astype(np.intp)
    alphas = np.empty((count.sum(), d), dtype, order="F")  # einsum runs 3x faster on columns
    alphas[:, :-1] = np.repeat(prefix[real], count, axis=0)
    alphas[:, -1] = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(alphas))
    return alphas


def spectrum(cs, mu_max):
    """Sorted list of (mu, multiplicity) with mu <= mu_max."""
    bound, torus, _ = _lattice_modes(cs, mu_max, None)
    return _grouped(cs.circle_length, bound, torus, None, 1)


def invariant_spectrum(cs, mu_max):
    """Quotient-invariant subspectrum as sorted (mu, multiplicity) pairs.

    With no quotient this equals spectrum(cs, mu_max).
    """
    bound, torus, size = _lattice_modes(cs, mu_max, cs.quotient)
    m = cs.quotient.order if cs.quotient else 1
    return _grouped(cs.circle_length, bound, torus, size, m)


def _lattice_modes(cs, mu_max, quotient):
    """bound = mu_max + MERGE_TOL, the torus values <= bound of the enumerated alpha
    (one of each pair +-alpha != 0) and their orbit sizes under quotient (all 1 if None)."""
    if not 0 < mu_max < np.inf:
        raise DomainError(f"mu_max must be positive and finite, got {mu_max}")
    bound = mu_max + MERGE_TOL
    gram = cs.dual_gram
    d = gram.shape[0]
    # alpha^T G alpha <= bound gives |alpha_i| <= sqrt(bound (G^-1)_ii) (Fincke and
    # Pohst); the box takes the largest, with _ellipsoid's rounding slack
    widest = np.max(np.linalg.inv(gram).diagonal(), initial=0.0)
    a_max = int(np.sqrt(bound * (1 + 1e-9) * widest))
    m, R = (quotient.order, quotient.lattice_map) if quotient else (1, np.eye(d))
    # narrowest integers holding every coefficient, R and the partial sums of alpha @ R
    dtype = np.min_scalar_type(-(a_max + 1) * int(np.abs(R).sum(axis=0).max(initial=1)))
    alphas = _ellipsoid(gram, bound, a_max, dtype) if d > 0 else np.zeros((0, 0), dtype)
    mus_torus = np.einsum("ki,ij,kj->k", alphas, gram, alphas)
    keep = mus_torus <= bound
    # orbit size: least L >= 1 with (R^T)^L alpha = alpha (rows: alpha R^L), so m
    # for the rows that no power below m fixes, since R^m = I; -alpha has the same
    size = np.full(np.count_nonzero(keep), m)
    if m > 1:
        alphas, R = np.compress(keep, alphas, axis=0), R.astype(dtype)
        image = alphas
        for power in range(1, m):
            image = image @ R
            fixed = np.logical_and.reduce([image[:, i] == alphas[:, i] for i in range(d)])
            size[(size == m) & fixed] = power
    return bound, mus_torus[keep], size


def _grouped(circle_length, bound, torus, size, m):
    """Sorted (mu, multiplicity) pairs, mu <= bound, of the order-m invariant modes
    whose torus parts are the representatives (torus, size) and alpha = 0."""
    # member counts of the distinct (torus value, orbit size) groups: each
    # representative stands for +-alpha, and alpha = 0 (value 0.0, size 1) for itself
    values, orbit, members = [np.zeros(1)], [np.ones(1, np.int64)], [np.ones(1, np.int64)]
    for L in range(1, m + 1):
        group, count = np.unique(torus if m == 1 else torus[size == L], return_counts=True)
        values.append(group)
        orbit.append(np.full(len(group), L, np.int64))
        members.append(2 * count)
    torus, orbit, members = (np.concatenate(x) for x in (values, orbit, members))
    circle_unit = (2.0 * np.pi / circle_length) ** 2
    j_max = int(np.floor(np.sqrt(bound / circle_unit)))
    js = np.arange(j_max + 1)[:, None]
    mu = circle_unit * js * js + torus
    # an invariant orbit (m | j L) weighs m in total, m // L per member; j > 0
    # stands for +-j, which have the same mu and the same character test
    weight = np.where(js * orbit % m == 0, (1 + (js > 0)) * members * (m // orbit), 0)
    kept = (mu <= bound) & (weight > 0)
    mu, weight = mu[kept], weight[kept]
    order = np.argsort(mu)
    mu = mu[order]
    starts = np.flatnonzero(_cluster_starts(mu))
    totals = np.add.reduceat(weight[order], starts)
    return list(zip(mu[starts].tolist(), (totals // m).tolist()))


def _cluster_starts(values):
    """Mask of the ascending values that start a cluster: the first, and each one
    more than MERGE_TOL above the value before it."""
    start = np.ones(len(values), dtype=bool)
    start[1:] = np.diff(values) > MERGE_TOL
    return start


def spectrum_to_csv(pairs, path):
    fields = tuple(chain.from_iterable(pairs))
    with open(path, "w", newline="") as fh:
        fh.write("mu,multiplicity\n")
        fh.write("%.17g,%s\n" * (len(fields) // 2) % fields)


# ---- common lattices and quotient actions ----

def square_lattice():
    return 2.0 * np.pi * np.eye(2)


def hexagonal_lattice():
    return 2.0 * np.pi * np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])


def negation_quotient(dim=2):
    """Order-2 action: theta -> theta + pi, x -> -x (any lattice of dimension dim)."""
    return CyclicQuotient(order=2, lattice_map=-np.eye(dim, dtype=int))


def hexagonal_rotation_quotient():
    """Order-3 action: theta shift 2 pi/3 with the 120-degree lattice rotation."""
    return CyclicQuotient(order=3, lattice_map=np.array([[-1, -1], [1, 0]]))
