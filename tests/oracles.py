"""Independent oracles for the test suite.

These deliberately avoid the library code paths: spectra by direct box
enumeration, invariant multiplicities by explicit character projection,
derivatives by symbolic differentiation (sympy), integrals by mpmath-free
closed forms where available, the weighted Poincare constant by a dense
generalized eigensolve and the Rayleigh quotient of a test vector by its
quadratic forms, and the drift operator (u'' - s u)/c + 2u' applied to
samples (interior_drift), which the package only ever assembles as
tridiagonal and Newton rows.
"""

import numpy as np
import scipy.linalg
import sympy as sp


def brute_force_spectrum(circle_length, lattice, mu_max, index_bound=8):
    """Eigenvalues (mu, multiplicity) by direct enumeration over a large box."""
    lattice = np.asarray(lattice, dtype=float)
    dual = np.linalg.inv(lattice).T  # rows are the dual basis vectors
    mus = []
    d = lattice.shape[0]
    ranges = [range(-index_bound, index_bound + 1)] * d
    import itertools

    for j in range(-index_bound, index_bound + 1):
        mu_circle = (2 * np.pi * j / circle_length) ** 2
        for alpha in itertools.product(*ranges):
            k_star = dual.T @ np.array(alpha, dtype=float)
            mu = mu_circle + float(np.sum((2 * np.pi * k_star) ** 2))
            if mu <= mu_max + 1e-10:
                mus.append(mu)
    mus.sort()
    merged = []
    for mu in mus:
        if merged and abs(mu - merged[-1][0]) <= 1e-10:
            merged[-1][1] += 1
        else:
            merged.append([mu, 1])
    return [(mu, m) for mu, m in merged]


def character_projection_spectrum(circle_length, lattice, order, lattice_map,
                                  mu_max, index_bound=8):
    """Invariant multiplicities by explicit projection P = (1/m) sum_g rho(g).

    The generator sends mode (j, alpha) to exp(2 pi i j / m) * (j, R^T alpha).
    """
    lattice = np.asarray(lattice, dtype=float)
    dual = np.linalg.inv(lattice).T
    RT = np.asarray(lattice_map, dtype=np.int64).T
    import itertools

    modes = []
    d = lattice.shape[0]
    ranges = [range(-index_bound, index_bound + 1)] * d
    for j in range(-index_bound, index_bound + 1):
        mu_circle = (2 * np.pi * j / circle_length) ** 2
        for alpha in itertools.product(*ranges):
            k_star = dual.T @ np.array(alpha, dtype=float)
            mu = mu_circle + float(np.sum((2 * np.pi * k_star) ** 2))
            if mu <= mu_max + 1e-10:
                modes.append((j, alpha, mu))
    # group by eigenvalue
    modes.sort(key=lambda m: m[2])
    clusters = []
    for j, alpha, mu in modes:
        if clusters and abs(mu - clusters[-1][0]) <= 1e-10:
            clusters[-1][1].append((j, alpha))
        else:
            clusters.append([mu, [(j, alpha)]])
    out = []
    for mu, cluster in clusters:
        index = {mode: i for i, mode in enumerate(cluster)}
        size = len(cluster)
        G = np.zeros((size, size), dtype=complex)
        for (j, alpha), i in index.items():
            target = (j, tuple(int(x) for x in (RT @ np.array(alpha, dtype=np.int64))))
            if target not in index:
                raise AssertionError("orbit leaves the eigenvalue cluster")
            G[index[target], i] = np.exp(2j * np.pi * j / order)
        P = np.zeros((size, size), dtype=complex)
        g_power = np.eye(size, dtype=complex)
        for _ in range(order):
            P += g_power
            g_power = g_power @ G
        dim = int(round(np.trace(P).real / order))
        if dim > 0:
            out.append((mu, dim))
    return out


# ---- symbolic oracles on the cigar ----

_t = sp.symbols("t", real=True)
_A_CIGAR = 1 / (1 + sp.exp(-2 * _t))
_F_CIGAR = sp.log(1 + sp.exp(2 * _t)) + 1


def cigar_ricci_fn():
    """-1/2 (log a)'' for the cigar, as a vectorized callable."""
    expr = sp.simplify(-sp.Rational(1, 2) * sp.diff(sp.log(_A_CIGAR), _t, 2))
    return sp.lambdify(_t, expr, "numpy")


def cigar_residual_fn(phi_expr):
    """Exact radial residual of a symbolic potential on the cigar (forcing 0).

    Returns a callable for log((a + phi''/2)/a) + phi'; the grid-level
    residual subtracts the value at t_max (the fitted constant).
    """
    a = _A_CIGAR
    expr = sp.log((a + sp.diff(phi_expr, _t, 2) / 2) / a) + sp.diff(phi_expr, _t)
    return sp.lambdify(_t, expr, "numpy")


def manufactured_forcing_fn(amplitude=sp.Rational(3, 10), power=sp.Rational(-3, 4)):
    """Exact continuum forcing for phi* = amplitude (1+e^{2t})^{power} at s=1."""
    phi = amplitude * (1 + sp.exp(2 * _t)) ** power
    return cigar_residual_fn(phi)


# ---- weighted Poincare constant ----


def dense_poincare_lambda(a, f, t_min, t_max, h):
    """Smallest eigenvalue of the weighted Dirichlet pencil by a dense solve.

    The stiffness K is assembled cell by cell from the quadratic form
    sum_k w_{k+1/2} (u_{k+1} - u_k)^2 / h, with w = e^f / f^2 * a and
    w_{k+1/2} the mean of the two nodal weights; the mass M is diag(w_i h).
    Both ends are Dirichlet, so only the interior block enters the dense
    generalized eigenproblem K x = lambda M x.
    """
    n = int(round((t_max - t_min) / h))
    t = t_min + h * np.arange(n + 1)
    ft = f(t)
    w = np.exp(ft) / ft**2 * a(t)
    K = np.zeros((n + 1, n + 1))
    for k in range(n):
        c = 0.5 * (w[k] + w[k + 1]) / h
        K[k, k] += c
        K[k + 1, k + 1] += c
        K[k, k + 1] -= c
        K[k + 1, k] -= c
    M = np.diag(w * h)
    inner = slice(1, n)
    return float(scipy.linalg.eigh(K[inner, inner], M[inner, inner],
                                   subset_by_index=[0, 0], eigvals_only=True)[0])


def rayleigh_quotient(a, f, t_min, t_max, h, u_interior):
    """The quotient of the quadratic forms of dense_poincare_lambda at a test
    vector: sum_k w_{k+1/2} (u_{k+1} - u_k)^2 / h over sum_i w_i u_i^2 h, with
    u_interior at the interior nodes and 0 at both ends."""
    n = int(round((t_max - t_min) / h))
    t = t_min + h * np.arange(n + 1)
    ft = f(t)
    w = np.exp(ft) / ft**2 * a(t)
    u = np.concatenate(([0.0], np.asarray(u_interior, dtype=float), [0.0]))
    return float(np.sum(0.5 * (w[1:] + w[:-1]) * np.diff(u) ** 2) / h / np.sum(w * u**2 * h))


# ---- the drift operator on samples ----


def interior_drift(u, h, c, s=0.0):
    """(u'' - s u)/c + 2u' at the interior nodes of the samples u, by central
    differences of their increments; c and s are given at those nodes.

    L_mu at (c, s) = (a, a mu), and twice the continuity method's
    linearization (1/2) a_phi^{-1} u'' + u' at (a_phi, 0).
    """
    v = np.diff(u)
    return (np.diff(v) / h**2 - s * u[1:-1]) / c + (v[1:] + v[:-1]) / h
