"""Sampled scalar fields on uniform grids.

GridFunction is the universal carrier for every numerical quantity in the
package: coefficients, right-hand sides, potentials, residuals.  Its one
axis is the cylindrical coordinate t on a uniform grid.  A RadialPotential
also carries its increments u_{i+1} - u_i.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_CSV_CHUNK_ROWS = 1024  # rows formatted by one % of the repeated row format
# the most cells whose float node array numpy can size: its bytes fit in np.intp
MAX_CELLS = np.iinfo(np.intp).max // np.dtype(float).itemsize - 1


def whole_cells(cells, grid):
    """The cell count cells rounded to an int when it is one to 1e-8 relative, else
    None; DomainError naming grid when cells is not finite or exceeds MAX_CELLS."""
    if not cells <= MAX_CELLS:
        raise DomainError(f"{grid} has {cells} cells, more than {MAX_CELLS}")
    n = int(round(cells))
    return n if abs(cells - n) <= 1e-8 * max(1.0, abs(cells)) else None


def uniform_nodes(t_min, t_max, h):
    """Node vector t_min + k*h covering [t_min, t_max]; validates divisibility."""
    return t_min + h * np.arange(node_count(t_min, t_max, h))


def node_count(t_min, t_max, h):
    """The number of nodes of uniform_nodes(t_min, t_max, h), with its validation."""
    for name, value in (("t_min", t_min), ("t_max", t_max), ("h", h)):
        if not math.isfinite(value):
            raise DomainError(f"grid {name} must be finite, got {value}")
    if h <= 0:
        raise DomainError(f"grid spacing must be positive, got {h}")
    if t_max <= t_min:
        raise DomainError(f"empty grid: t_max={t_max} <= t_min={t_min}")
    n_cells = (t_max - t_min) / h
    n = whole_cells(n_cells, f"grid ({t_min}, {t_max}, {h})")
    if n is None:
        raise DomainError(f"(t_max - t_min)/h = {n_cells} is not an integer")
    return n + 1


def _numbered_rows(path):
    """(rows, line numbers) of the non-blank lines after the CSV header, read
    one by one; DomainError names the first that is not two numeric fields."""
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
            if len(row) != 2:
                raise DomainError(
                    f"{path}, line {lineno}: expected 2 numeric fields, "
                    f"got {line.strip()!r}"
                )
            rows.append(row)
            numbers.append(lineno)
    return rows, numbers


@dataclass(frozen=True)
class GridFunction:
    """Scalar field sampled on a uniform t-grid: values has shape (n_t,)."""

    t_min: float
    t_max: float
    h: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise DomainError(f"values must be 1D, got shape {vals.shape}")
        n_expected = node_count(self.t_min, self.t_max, self.h)
        if len(vals) != n_expected:
            raise DomainError(
                f"values length {len(vals)} inconsistent with grid "
                f"({self.t_min}, {self.t_max}, {self.h}) -> {n_expected} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function contains non-finite values")

    @property
    def t(self):
        return uniform_nodes(self.t_min, self.t_max, self.h)

    @classmethod
    def sample(cls, fn, t_min, t_max, h):
        t = uniform_nodes(t_min, t_max, h)
        return cls(t_min, t_max, h, np.asarray(fn(t), dtype=float))

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
        )

    # ---- serialization: CSV with header `t,value`, one row per node ----

    def to_csv(self, path):
        fields = np.column_stack((self.t, self.values)).ravel().tolist()  # row-major
        chunk = 2 * _CSV_CHUNK_ROWS
        with open(path, "w", newline="") as fh:
            fh.write("t,value\n")
            for k in range(0, len(fields), chunk):
                block = fields[k:k + chunk]
                fh.write("%.17g,%.17g\n" * (len(block) // 2) % tuple(block))

    @classmethod
    def from_csv(cls, path):
        """Read a grid-function CSV; DomainError names the line of a bad row or t.

        np.loadtxt parses the body in bulk.  Where it fails (it rejects some
        fields float() reads, such as '1_0', and whitespace-only lines) or reads
        another column count, and where a check names a line, the per-row loop
        reads the body again, so both give the same rows and the same errors."""
        with open(path, "r") as fh:
            header = fh.readline().strip()
            if header != "t,value":
                raise DomainError(f"{path}, line 1: unrecognized CSV header {header!r}")
            if not any(line.strip() for line in fh):  # loadtxt would warn
                raise DomainError(f"{path}: no data rows after the header line")
        try:  # loadtxt reads from the path faster than from an open text handle
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=1)
        except ValueError:
            data = None
        if data is None or data.shape[1] != 2:
            data = np.array(_numbered_rows(path)[0])
        if len(data) < 2:
            raise DomainError("need at least two grid nodes")
        t = data[:, 0]
        t_first, t_last = t.min(), t.max()
        h = float((t_last - t_first) / (len(t) - 1))  # span-averaged, exact for clean spacings
        nodes = uniform_nodes(t_first, t_last, h)  # row r must be node r: t ascending
        off = np.abs(t - nodes) > 1e-6 * h
        if np.any(off):
            k = int(np.argmax(off))
            line = _numbered_rows(path)[1][k]
            raise DomainError(
                f"{path}, line {line}: t = {t[k]:.17g}, expected t = {nodes[k]:.17g} on the "
                f"ascending uniform t-grid of spacing {h:.6g} over [{t_first:.17g}, {t_last:.17g}]"
            )
        return cls(float(t_first), float(t_last), h, data[:, 1])


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
        if v.shape != (len(self.values) - 1,) or not np.all(np.isfinite(v)):
            raise DomainError(f"a potential on {len(self.values)} nodes needs as many "
                              f"finite increments as cells, got shape {v.shape}")
