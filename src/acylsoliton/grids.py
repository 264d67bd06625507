"""Sampled scalar fields on uniform grids.

GridFunction is the universal carrier for every numerical quantity in the
package: coefficients, right-hand sides, potentials, residuals.  The first
axis is always the cylindrical coordinate t on a uniform grid; 2D fields add
a periodic second axis (a torus coordinate u on [0, 2pi)).  A 1D
RadialPotential also carries its increments u_{i+1} - u_i.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_TWO_PI = 2.0 * np.pi
_CSV_CHUNK_ROWS = 1024  # rows formatted by one % of the repeated row format


def whole_number(x):
    """x rounded to an int when it is one to 1e-8 relative, else None."""
    n = int(round(x))
    return n if abs(x - n) <= 1e-8 * max(1.0, abs(x)) else None


def uniform_nodes(t_min, t_max, h):
    """Node vector t_min + k*h covering [t_min, t_max]; validates divisibility."""
    for name, value in (("t_min", t_min), ("t_max", t_max), ("h", h)):
        if not math.isfinite(value):
            raise DomainError(f"grid {name} must be finite, got {value}")
    if h <= 0:
        raise DomainError(f"grid spacing must be positive, got {h}")
    if t_max <= t_min:
        raise DomainError(f"empty grid: t_max={t_max} <= t_min={t_min}")
    n_cells = (t_max - t_min) / h
    n = whole_number(n_cells)
    if n is None:
        raise DomainError(f"(t_max - t_min)/h = {n_cells} is not an integer")
    return t_min + h * np.arange(n + 1)


def _numbered_rows(path, width):
    """(rows, line numbers) of the non-blank lines after the CSV header, read
    one by one; DomainError names the first that is not width numeric fields."""
    rows, numbers = [], []
    with open(path, "r") as fh:
        fh.readline()
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
            numbers.append(lineno)
    return rows, numbers


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
                n_t, n_u = self.values.shape
                columns = (np.repeat(self.t, n_u), np.tile(self.u, n_t), self.values.ravel())
            else:
                fh.write("t,value\n")
                columns = (self.t, self.values)
            fields = np.column_stack(columns).ravel().tolist()  # row-major
            chunk = _CSV_CHUNK_ROWS * len(columns)
            row = ",".join(["%.17g"] * len(columns)) + "\n"
            for k in range(0, len(fields), chunk):
                block = fields[k:k + chunk]
                fh.write(row * (len(block) // len(columns)) % tuple(block))

    @classmethod
    def from_csv(cls, path):
        """Read a grid-function CSV; DomainError names the line of a bad row or t.

        np.loadtxt parses the body in bulk.  Where it fails (it rejects some
        fields float() reads, such as '1_0', and whitespace-only lines) or reads
        another column count, and where a check names a line, the per-row loop
        reads the body again, so both give the same rows and the same errors."""
        with open(path, "r") as fh:
            header = fh.readline().strip()
            width = {"t,value": 2, "t,u,value": 3}.get(header)
            if width is None:
                raise DomainError(f"unrecognized CSV header {header!r}")
            if not any(line.strip() for line in fh):  # loadtxt would warn
                raise DomainError(f"{path}: no data rows after the header line")
        try:  # loadtxt reads from the path faster than from an open text handle
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=1)
        except ValueError:
            data = None
        if data is None or data.shape[1] != width:
            data = np.array(_numbered_rows(path, width)[0])
        n_u = 1
        if width == 3:
            n_t, n_u = len(np.unique(data[:, 0])), len(np.unique(data[:, 1]))
            if len(data) != n_t * n_u:
                line = _numbered_rows(path, width)[1][-1]
                raise DomainError(
                    f"{path}, line {line}: {len(data)} rows do not form a "
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
            line = _numbered_rows(path, width)[1][k]
            raise DomainError(
                f"{path}, line {line}: {got}, expected {want} on the ascending "
                f"uniform t-grid of spacing {h:.6g} over [{t_first:.17g}, {t_last:.17g}]"
                + (f", t-major with u = 2 pi k / {n_u}" if width == 3 else "")
            )
        vals = data[:, -1] if width == 2 else data[:, -1].reshape(n_t, n_u)
        return cls(float(t_first), float(t_last), h, vals)


@dataclass(frozen=True)
class RadialPotential(GridFunction):
    """1D potential whose samples are partial sums of its increments
    v_i = u_{i+1} - u_i.  Derivatives read from v lose eps |u'| / h to
    rounding, from the samples eps |u| / h^2.  like() returns a plain
    GridFunction: a new field has new increments."""

    increments: np.ndarray = field(repr=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "increments", v := np.asarray(self.increments, dtype=float))
        if self.is_2d or v.shape != (len(self.values) - 1,) or not np.all(np.isfinite(v)):
            raise DomainError(f"a 1D potential on {len(self.values)} nodes needs as many "
                              f"finite increments as cells, got shape {v.shape}")
