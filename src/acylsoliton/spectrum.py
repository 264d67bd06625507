"""Laplace spectrum of the flat cross-section S^1 x T^{2(n-1)}.

Modes are e^{ij theta} e^{2 pi i <k*, x>} with j an integer circle index and
k* in the dual lattice; the eigenvalue is mu = (2 pi j / l_theta)^2 +
|2 pi k*|^2.  Enumeration is a bounded integer-box search over dual-lattice
coefficients, held as arrays (j, alpha, mu) with one entry per mode.

A finite cyclic quotient (theta shift by 2 pi/m together with an integer
lattice map R of order m) acts on a mode by (j, alpha) -> (j, R^T alpha)
with character e^{2 pi i j/m} per generator application.  The invariant
subspectrum keeps, for each orbit, the dimension of the trivial-character
subspace: 1 if m divides j * orbit_size, else 0.  The orbit size of alpha
is the least L >= 1 with (R^T)^L alpha = alpha, read off the first m powers
of R.  Distinct eigenvalues closer than MERGE_TOL are merged into one
cluster reported at its smallest value.
"""

from dataclasses import dataclass
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
        if not np.array_equal(R, np.round(R)):
            raise DomainError("lattice map must be an integer matrix")
        if abs(abs(np.linalg.det(R)) - 1.0) > 1e-9:
            raise DomainError("lattice map must be unimodular")
        power = np.eye(R.shape[0], dtype=np.int64)
        Ri = R.astype(np.int64)
        for _ in range(self.order):
            power = power @ Ri
        if not np.array_equal(power, np.eye(R.shape[0], dtype=np.int64)):
            raise DomainError("lattice map does not satisfy R^m = identity")


@dataclass(frozen=True)
class CrossSection:
    """Flat cross-section: circle of length l_theta times a flat torus."""

    circle_length: float
    lattice: np.ndarray
    quotient: Optional[CyclicQuotient] = None

    def __post_init__(self):
        B = np.asarray(self.lattice, dtype=float)
        object.__setattr__(self, "lattice", B)
        if self.circle_length <= 0:
            raise DomainError("circle length must be positive")
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise DomainError("lattice basis must be a square matrix")
        if abs(np.linalg.det(B)) < 1e-12:
            raise DomainError("degenerate lattice basis")
        if self.quotient is not None:
            R = self.quotient.lattice_map
            if R.shape != B.shape:
                raise DomainError("lattice map dimension mismatch")
            # the action must be an isometry of the torus: R^T G R = G
            gram = B @ B.T
            if not np.allclose(R.T @ gram @ R, gram, rtol=1e-9, atol=1e-9):
                raise DomainError("lattice map is not an isometry of the lattice")

    @property
    def dual_gram(self):
        """Gram matrix of 2 pi times the dual basis: mu_torus = alpha^T G* alpha."""
        B = self.lattice
        return 4.0 * np.pi**2 * np.linalg.inv(B @ B.T)


def _enumerate_modes(cs, mu_max):
    """Arrays (j, alpha, mu) of all modes with mu <= mu_max, j-major order."""
    if mu_max <= 0:
        raise DomainError("mu_max must be positive")
    bound = mu_max + MERGE_TOL
    circle_unit = (2.0 * np.pi / cs.circle_length) ** 2
    j_max = int(np.floor(np.sqrt(bound / circle_unit)))
    js = np.arange(-j_max, j_max + 1)
    gram = cs.dual_gram
    d = gram.shape[0]
    # |alpha| bound from the smallest eigenvalue of the dual Gram matrix
    a_max = int(np.floor(np.sqrt(bound / np.linalg.eigvalsh(gram)[0]))) if d > 0 else 0
    side = 2 * a_max + 1
    alphas = np.indices((side,) * d).reshape(d, side**d).T - a_max
    mus_torus = np.einsum("ki,ij,kj->k", alphas, gram, alphas)
    keep = mus_torus <= bound
    alphas, mus_torus = alphas[keep], mus_torus[keep]
    mu = (circle_unit * js * js)[:, None] + mus_torus
    j_index, alpha_index = np.nonzero(mu <= bound)
    return js[j_index], alphas[alpha_index], mu[j_index, alpha_index]


def _merge(pairs):
    """Merge (mu, count) pairs at MERGE_TOL, ascending in mu."""
    merged = []
    for mu, count in sorted(pairs):
        if merged and abs(mu - merged[-1][0]) <= MERGE_TOL:
            merged[-1][1] += count
        else:
            merged.append([mu, count])
    return [(mu, count) for mu, count in merged if count > 0]


def spectrum(cs, mu_max):
    """Sorted list of (mu, multiplicity) with mu <= mu_max."""
    values, counts = np.unique(_enumerate_modes(cs, mu_max)[2], return_counts=True)
    return _merge(zip(values.tolist(), counts.tolist()))


def invariant_spectrum(cs, mu_max):
    """Quotient-invariant subspectrum as sorted (mu, multiplicity) pairs.

    With no quotient this equals spectrum(cs, mu_max).
    """
    if cs.quotient is None:
        return spectrum(cs, mu_max)
    m = cs.quotient.order
    R = cs.quotient.lattice_map.astype(np.int64)
    js, alphas, mu = _enumerate_modes(cs, mu_max)
    # orbit size: least L >= 1 with (R^T)^L alpha = alpha (rows: alpha R^L)
    size = np.zeros(len(js), dtype=np.int64)
    image = alphas
    for power in range(1, m + 1):
        image = image @ R
        size[(size == 0) & (image == alphas).all(axis=1)] = power
    # an invariant orbit (m | j L) weighs m in total, m // L per member
    weight = np.where(js * size % m == 0, m // size, 0)
    values, inverse = np.unique(mu, return_inverse=True)
    totals = np.bincount(inverse, weights=weight).astype(np.int64)
    kept = totals > 0
    merged = _merge(zip(values[kept].tolist(), totals[kept].tolist()))
    return [(value, total // m) for value, total in merged]


def spectrum_to_csv(pairs, path):
    with open(path, "w", newline="") as fh:
        fh.write("mu,multiplicity\n")
        for mu, mult in pairs:
            fh.write(f"{mu:.17g},{mult}\n")


# ---- common lattices and quotient actions ----

def square_lattice(scale=2.0 * np.pi):
    return scale * np.eye(2)


def hexagonal_lattice(scale=2.0 * np.pi):
    return scale * np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])


def negation_quotient():
    """Order-2 action: theta -> theta + pi, x -> -x (any lattice)."""
    return CyclicQuotient(order=2, lattice_map=-np.eye(2, dtype=int))


def hexagonal_rotation_quotient():
    """Order-3 action: theta shift 2 pi/3 with the 120-degree lattice rotation."""
    return CyclicQuotient(order=3, lattice_map=np.array([[-1, -1], [1, 0]]))
