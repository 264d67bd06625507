"""Sampled scalar fields on uniform grids.

GridFunction is the universal carrier for every numerical quantity in the
package: coefficients, right-hand sides, potentials, residuals.  The first
axis is always the cylindrical coordinate t on a uniform grid; 2D fields add
a periodic second axis (a torus coordinate u on [0, 2pi)).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_TWO_PI = 2.0 * np.pi


def uniform_nodes(t_min, t_max, h):
    """Node vector t_min + k*h covering [t_min, t_max]; validates divisibility."""
    if h <= 0:
        raise DomainError(f"grid spacing must be positive, got {h}")
    if t_max <= t_min:
        raise DomainError(f"empty grid: t_max={t_max} <= t_min={t_min}")
    n_cells = (t_max - t_min) / h
    n = int(round(n_cells))
    if abs(n_cells - n) > 1e-8 * max(1.0, abs(n_cells)):
        raise DomainError(f"(t_max - t_min)/h = {n_cells} is not an integer")
    return t_min + h * np.arange(n + 1)


@dataclass(frozen=True)
class GridFunction:
    """Scalar field sampled on a uniform t-grid, optionally times a u-grid.

    values has shape (n_t,) or (n_t, n_u).  The u-axis, when present, is the
    periodic grid u_k = 2*pi*k/n_u.
    """

    t_min: float
    t_max: float
    h: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        n_expected = len(uniform_nodes(self.t_min, self.t_max, self.h))
        if vals.shape[0] != n_expected:
            raise DomainError(
                f"values length {vals.shape[0]} inconsistent with grid "
                f"({self.t_min}, {self.t_max}, {self.h}) -> {n_expected} nodes"
            )
        if vals.ndim not in (1, 2):
            raise DomainError("values must be 1D or 2D")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function contains non-finite values")

    @property
    def t(self):
        return uniform_nodes(self.t_min, self.t_max, self.h)

    @property
    def is_2d(self):
        return self.values.ndim == 2

    @property
    def u(self):
        if not self.is_2d:
            raise DomainError("1D grid function has no u-axis")
        n_u = self.values.shape[1]
        return _TWO_PI * np.arange(n_u) / n_u

    @property
    def hu(self):
        return _TWO_PI / self.values.shape[1]

    @classmethod
    def sample(cls, fn, t_min, t_max, h):
        t = uniform_nodes(t_min, t_max, h)
        return cls(t_min, t_max, h, np.asarray(fn(t), dtype=float))

    @classmethod
    def sample_2d(cls, fn, t_min, t_max, h, n_u):
        t = uniform_nodes(t_min, t_max, h)
        u = _TWO_PI * np.arange(n_u) / n_u
        tt, uu = np.meshgrid(t, u, indexing="ij")
        return cls(t_min, t_max, h, np.asarray(fn(tt, uu), dtype=float))

    def like(self, values):
        """New field with the same grid."""
        return GridFunction(self.t_min, self.t_max, self.h, values)

    def zeros_like(self):
        return self.like(np.zeros_like(self.values))

    def same_grid(self, other):
        return (
            self.t_min == other.t_min
            and self.t_max == other.t_max
            and self.h == other.h
            and self.values.shape == other.values.shape
        )

    # ---- serialization: CSV with header `t,value` (or `t,u,value`) ----

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            if self.is_2d:
                fh.write("t,u,value\n")
                t, u = self.t, self.u
                for i in range(len(t)):
                    for j in range(len(u)):
                        fh.write(f"{t[i]:.17g},{u[j]:.17g},{self.values[i, j]:.17g}\n")
            else:
                fh.write("t,value\n")
                for ti, vi in zip(self.t, self.values):
                    fh.write(f"{ti:.17g},{vi:.17g}\n")

    @classmethod
    def from_csv(cls, path):
        """Read a grid-function CSV; DomainError names the line of a bad row or t."""
        with open(path, "r") as fh:
            header = fh.readline().strip()
            width = {"t,value": 2, "t,u,value": 3}.get(header)
            if width is None:
                raise DomainError(f"unrecognized CSV header {header!r}")
            rows, lines = [], []
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    row = [float(x) for x in line.split(",")]
                except ValueError:
                    row = []
                if len(row) != width:
                    raise DomainError(
                        f"{path}, line {lineno}: expected {width} numeric fields, "
                        f"got {line.strip()!r}"
                    )
                rows.append(row)
                lines.append(lineno)
        data = np.array(rows).reshape(-1, width)
        n_u = 1
        if width == 3:
            n_t, n_u = len(np.unique(data[:, 0])), len(np.unique(data[:, 1]))
            if len(data) != n_t * n_u:
                raise DomainError(
                    f"{path}, line {lines[-1]}: {len(data)} rows do not form a "
                    f"{n_t} x {n_u} (t, u) grid"
                )
        n_t = len(data) // n_u
        if n_t < 2:
            raise DomainError("need at least two grid nodes")
        t_first, t_last = data[:, 0].min(), data[:, 0].max()
        h = float((t_last - t_first) / (n_t - 1))  # span-averaged, exact for clean spacings
        # row r must be node (r // n_u, r % n_u): t ascending, u fastest on 2 pi k / n_u
        nodes = np.column_stack([
            np.repeat(uniform_nodes(t_first, t_last, h), n_u),
            np.tile(_TWO_PI * np.arange(n_u) / n_u, n_t),
        ])[:, : width - 1]
        tol = 1e-6 * np.array([h, _TWO_PI / n_u])[: width - 1]
        off = np.any(np.abs(data[:, :-1] - nodes) > tol, axis=1)
        if np.any(off):
            k = int(np.argmax(off))
            names = ("t", "u")[: width - 1]
            got = ", ".join(f"{n} = {x:.17g}" for n, x in zip(names, data[k]))
            want = ", ".join(f"{n} = {x:.17g}" for n, x in zip(names, nodes[k]))
            raise DomainError(
                f"{path}, line {lines[k]}: {got}, expected {want} on the ascending "
                f"uniform t-grid of spacing {h:.6g} over [{t_first:.17g}, {t_last:.17g}]"
                + (f", t-major with u = 2 pi k / {n_u}" if width == 3 else "")
            )
        vals = data[:, -1] if width == 2 else data[:, -1].reshape(n_t, n_u)
        return cls(float(t_first), float(t_last), h, vals)
