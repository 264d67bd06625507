import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acylsoliton as ak
from acylsoliton import fd, models
from oracles import cigar_ricci_fn, cigar_residual_fn

import sympy as sp


def test_cigar_coefficient_at_zero(cigar):
    assert cigar.a(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-15)


def test_cigar_rejects_bad_dimension():
    with pytest.raises(ak.DomainError):
        ak.cigar_model(0)
    with pytest.raises(ak.DomainError):
        ak.cylinder_model(-1)


def test_cigar_potential_asymptotics(cigar, default_grid):
    # |f(t) - 2t - C0| = log(1 + e^{-2t}) <= e^{-2t}
    t = ak.uniform_nodes(*default_grid)
    gap = np.abs(cigar.f(t) - 2 * t - models.C0)
    # atol at the ulp of f ~ 41: the tail gap e^{-2t} drops below representability
    assert np.allclose(gap, np.log1p(np.exp(-2 * t)), rtol=1e-12, atol=1e-14)
    assert np.all(gap <= np.exp(-2 * t) + 1e-14)


def test_cigar_volume_identity(cigar, default_grid):
    # a(t) e^{f(t) - C0 - 2t} = 1: the soliton volume identity in closed form
    t = ak.uniform_nodes(*default_grid)
    lhs = cigar.a(t) * np.exp(cigar.f(t) - models.C0 - 2 * t)
    assert np.max(np.abs(lhs - 1.0)) < 1e-13


def test_cigar_min_f_normalization(cigar):
    t = np.linspace(-40, 40, 2001)
    f = cigar.f(t)
    assert f.min() >= 1.0 - 1e-12
    assert f[0] == pytest.approx(1.0, abs=1e-12)


def test_cylinder_fields(cylinder):
    t = np.linspace(-3, 7, 101)
    assert np.all(cylinder.a(t) == 1.0)
    assert cylinder.a(np.array([5.0]))[0] == 1.0
    assert np.allclose(cylinder.f(t), 2 * t + 1.0)


def test_f_prime_is_2a_everywhere(cigar, cylinder, default_grid):
    for model in (cigar, cylinder):
        t = ak.uniform_nodes(*default_grid)
        fp = fd.increment_derivatives(np.diff(model.f(t)), default_grid[2])[0]
        err = np.abs(fp - 2 * model.a(t))[1:-1]
        assert np.max(err) < 5e-4  # 2nd-order stencil on e^{2t}-scale variation


def test_ricci_cylinder_vanishes(cylinder):
    r = ak.ricci_coefficient(cylinder, (0.0, 20.0, 0.01))
    assert np.max(np.abs(r.values)) < 1e-12


def test_ricci_cigar_matches_symbolic(cigar, default_grid):
    # closed form is 2 e^{2t} / (1 + e^{2t})^2; the value tagged 4e^{2t}/(1+e^{2t})^2
    # in the task description does not solve -1/2 (log a)'' (factor-two slip)
    r = ak.ricci_coefficient(cigar, default_grid)
    t = r.t
    exact = cigar_ricci_fn()(t)
    assert np.allclose(exact, 2 * np.exp(2 * t) / (1 + np.exp(2 * t)) ** 2, rtol=1e-12)
    assert np.max(np.abs(r.values - exact)) < 2e-5  # O(h^2)


def test_ricci_equals_half_f_second_derivative(cigar, default_grid):
    # the soliton identity Ric = i ddbar f in radial form: ricci = f''/2
    r = ak.ricci_coefficient(cigar, default_grid)
    t = r.t
    f_dd = fd.increment_derivatives(np.diff(cigar.f(t)), default_grid[2])[1]
    assert np.max(np.abs(r.values - 0.5 * f_dd)[1:-1]) < 2e-5


@pytest.mark.parametrize("h", [1e-3, 1e-4])
def test_ricci_end_nodes_match_closed_form(cigar, h):
    # the one-sided end stencils read the increments of log a, so the end
    # nodes do not pay eps |log a| / h^2 to rounding: 2 a (1 - a) to 1e-9
    r = ak.ricci_coefficient(cigar, (-12.0, 20.0, h))
    a = cigar.a(r.t[[0, -1]])
    assert np.max(np.abs(r.values[[0, -1]] - 2.0 * a * (1.0 - a))) <= 1e-9


def test_ricci_refinement_order(cigar):
    # convergence of the discrete Ricci coefficient to the closed form;
    # comparing against the discrete f''/2 instead would cancel the shared
    # log1p truncation error bitwise and measure only rounding
    exact_fn = cigar_ricci_fn()
    errs = []
    for h in (0.04, 0.02):
        r = ak.ricci_coefficient(cigar, (-12.0, 20.0, h))
        errs.append(np.max(np.abs(r.values - exact_fn(r.t))[1:-1]))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_ricci_rejects_nonpositive_coefficient(default_grid):
    bad = ak.RadialKahlerModel(
        n=1, kind=ak.Kind.CYLINDER,
        a=lambda t: np.asarray(t, dtype=float),  # vanishes at t=0
        log_a=lambda t: np.log(np.asarray(t, dtype=float)),
        f_minus_2t=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )
    with pytest.raises(ak.DomainError):
        ak.ricci_coefficient(bad, (-1.0, 1.0, 0.1))


@pytest.mark.parametrize("kind", ["cigar", "cylinder"])
def test_exact_soliton_residual_vanishes(kind, zero_field, default_grid):
    model = ak.cigar_model(2) if kind == "cigar" else ak.cylinder_model(2)
    if kind == "cylinder":
        t = ak.uniform_nodes(0.0, 20.0, 0.01)
        zero = ak.GridFunction(0.0, 20.0, 0.01, np.zeros(len(t)))
    else:
        zero = zero_field
    r = ak.soliton_residual(model, zero)
    assert np.max(np.abs(r.values)) <= 10 * np.finfo(float).eps


def test_residual_detects_perturbation(cigar, default_grid):
    phi = ak.GridFunction.sample(lambda t: 0.1 / (1 + np.exp(2 * t)), *default_grid)
    r = ak.soliton_residual(cigar, phi)
    assert np.max(np.abs(r.values)) > 1e-3
    # oracle: exact differentiation of the same potential, constant fitted at t_max
    t = r.t
    exact_fn = cigar_residual_fn(sp.Rational(1, 10) / (1 + sp.exp(2 * sp.Symbol("t", real=True))))
    exact = exact_fn(t)
    exact = exact - exact[-1]
    window = t >= -6.0  # rounding dominates the sampled field far below the inner end
    assert np.max(np.abs(r.values - exact)[window]) < 5e-4


def test_residual_positivity_error(cigar, default_grid):
    phi = ak.GridFunction.sample(lambda t: 5.0 / (1 + np.exp(2 * t)), *default_grid)
    with pytest.raises(ak.PositivityLost):
        ak.soliton_residual(cigar, phi)


def test_model_text_roundtrip(cigar):
    """model.txt records how a model was built: a glued model's glue.* lines
    rebuild it to the same text, and n fixes the lattice_row lines."""
    assert ak.model_to_text(cigar) == ("kind = cigar\nn = 2\nc0 = 1\n"
                                       "lattice_row = 1 0\nlattice_row = 0 1\n")
    text = ak.model_to_text(ak.glued_model(ak.cigar_model(2), ak.GlueSpec(t0=1.3, margin=0.02)))
    glue = dict(line[5:].split(" = ") for line in text.splitlines() if line.startswith("glue."))
    spec = ak.GlueSpec(t0=float(glue["t0"]), smoothstep_degree=int(glue["degree"]),
                       margin=float(glue["margin"]))
    assert ak.model_to_text(ak.glued_model(ak.cigar_model(2), spec)) == text
    for n in (1, 2, 3):  # n fixes the lattice_row lines: the 2(n - 1) identity rows
        lines = ak.model_to_text(ak.cigar_model(n)).splitlines()
        assert [line for line in lines if line.startswith("lattice_row")] == [
            "lattice_row = " + " ".join("1" if i == j else "0" for j in range(2 * (n - 1)))
            for i in range(2 * (n - 1))]


def test_gridfunction_csv_roundtrip(tmp_path, default_grid):
    u = ak.GridFunction.sample(lambda t: np.exp(-t) * np.sin(t), -2.0, 3.0, 0.05)
    path = tmp_path / "u.csv"
    u.to_csv(path)
    v = ak.GridFunction.from_csv(path)
    assert u.same_grid(v)
    assert np.array_equal(u.values, v.values)


AWKWARD = (-0.0, 5e-324, 1e300, 20.0, 0.1 + 0.2, -1.0 / 3.0)


def loop_csv_bytes(u):
    """The CSV bytes of a per-row f-string loop: the reference for to_csv."""
    rows = [f"{t:.17g},{value:.17g}\n" for t, value in zip(u.t, u.values)]
    return ("t,value\n" + "".join(rows)).encode()


@pytest.mark.parametrize("shape", [(6,), (24,), (2500,), (2800,)])
def test_gridfunction_csv_bytes_match_loop(tmp_path, shape):
    """to_csv writes the f-string loop's bytes on awkward values: signed zero,
    the smallest subnormal, huge, integral and inexact sums, also across and
    at the end of its blocks of rows."""
    values = np.resize(np.array(AWKWARD), shape)
    u = ak.GridFunction(-0.5, -0.5 + 0.5 * (shape[0] - 1), 0.5, values)
    u.to_csv(tmp_path / "u.csv")
    assert (tmp_path / "u.csv").read_bytes() == loop_csv_bytes(u)


def csv_outcome(path):
    """from_csv's grid and value bits, or its error message."""
    try:
        u = ak.GridFunction.from_csv(path)
    except ak.DomainError as exc:
        return str(exc)
    return u.t_min, u.t_max, u.h, u.values.shape, u.values.tobytes()


CSV_FIELD_FORMS = (repr, "{:.17g}".format, "{:.17e}".format, " {!r} ".format, "\t{!r}".format)


@st.composite
def csv_bodies(draw):
    """1D CSV bodies on a uniform t-grid, with padded and exponent fields, '1_0',
    blank and whitespace-only lines, LF or CRLF, and now and then an off-grid t
    or a bad field."""
    t0 = draw(st.sampled_from([0.0, -1.0, 2.5]))
    h = draw(st.sampled_from([0.1, 0.25, 1.0]))
    lines = []
    for i in range(draw(st.integers(2, 6))):
        t = t0 + i * h + draw(st.sampled_from([0.0] * 9 + [h / 3]))
        t, value = (draw(st.sampled_from(CSV_FIELD_FORMS))(x) for x in
                    (t, draw(st.floats(allow_nan=False, allow_infinity=False))))
        value = draw(st.sampled_from([value] * 12 + ["1_0", "-2_5e-1", "x", ""]))
        lines.append(f"{t},{value}")
        lines += draw(st.sampled_from([[]] * 6 + [[""], [""], [" "], ["\t "]]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=200, deadline=None)
@given(body=csv_bodies())
def test_gridfunction_csv_bulk_and_per_row_parses_agree(tmp_path_factory, body):
    """from_csv gives the same grid, bits and errors (line numbers included)
    whether np.loadtxt reads the body or only the per-row loop does."""
    from unittest import mock

    from acylsoliton import grids

    path = tmp_path_factory.mktemp("csv") / "u.csv"
    path.write_bytes(("t,value\n" + body).encode())
    with mock.patch.object(grids.np, "loadtxt", side_effect=ValueError):
        per_row = csv_outcome(path)
    assert csv_outcome(path) == per_row


def test_gridfunction_csv_clean_file_is_read_in_bulk(tmp_path, monkeypatch):
    from acylsoliton import grids

    u = ak.GridFunction.sample(lambda t: np.exp(-t) * np.cos(t), 0.0, 2.0, 0.001)
    u.to_csv(tmp_path / "u.csv")
    monkeypatch.setattr(grids, "_numbered_rows", None)  # the per-row loop is not called
    assert np.array_equal(ak.GridFunction.from_csv(tmp_path / "u.csv").values, u.values)


@pytest.mark.parametrize("text", ["t,value\n", "t,value\n\n  \n", "t,value\r\n\t\r\n"])
def test_gridfunction_csv_header_only_is_a_domain_error(tmp_path, text):
    """A body of blank lines is refused before np.loadtxt, which would warn."""
    path = tmp_path / "empty.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ak.DomainError, match="no data rows after the header line"):
            ak.GridFunction.from_csv(path)


def test_gridfunction_csv_rejects_off_grid_t(tmp_path):
    # files the package writes are read back exactly, also at h = 1e-4
    u = ak.GridFunction.sample(lambda t: np.exp(-t), 18.0, 20.0, 1e-4)
    u.to_csv(tmp_path / "fine.csv")
    v = ak.GridFunction.from_csv(tmp_path / "fine.csv")
    assert u.same_grid(v) and np.array_equal(u.values, v.values)
    path = tmp_path / "uneven.csv"
    path.write_text("t,value\n0,1\n0.1,0.5\n0.3,0.25\n0.35,0.2\n")
    with pytest.raises(ak.DomainError, match="line 3: t = 0.1"):
        ak.GridFunction.from_csv(path)


@pytest.mark.parametrize("body,line", [
    ("t,value\n0,1\n\n0.5,x\n1,2\n", 4),
    ("t,value\n0,1\n0.5\n1,2\n", 3),
], ids=["non_numeric", "short_row"])
def test_gridfunction_csv_rejects_malformed_rows(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ak.DomainError, match=f"line {line}:"):
        ak.GridFunction.from_csv(path)


def test_gridfunction_csv_needs_two_rows(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t,value\n0,1\n")
    with pytest.raises(ak.DomainError, match="need at least two grid nodes"):
        ak.GridFunction.from_csv(path)


def test_gridfunction_validation():
    with pytest.raises(ak.DomainError):
        ak.GridFunction(0.0, 1.0, 0.1, np.zeros(5))  # wrong length
    with pytest.raises(ak.DomainError):
        ak.GridFunction(0.0, 1.0, 0.1, np.full(11, np.nan))
    for values in (3.0, np.zeros((3, 2))):  # the dimension is checked before the length
        with pytest.raises(ak.DomainError, match="values must be 1D"):
            ak.GridFunction(0.0, 1.0, 0.5, values)


@pytest.mark.parametrize("grid,name", [
    ((0.0, np.inf, 0.01), "t_max"), ((0.0, np.nan, 0.01), "t_max"),
    ((-np.inf, 1.0, 0.01), "t_min"), ((0.0, 1.0, np.nan), "h"), ((0.0, 1.0, np.inf), "h"),
])
def test_uniform_nodes_rejects_non_finite_grid(grid, name):
    with pytest.raises(ak.DomainError, match=f"grid {name} must be finite"):
        ak.uniform_nodes(*grid)


def test_radial_potential_rejects_bad_increments():
    values = np.zeros(11)
    with pytest.raises(ak.DomainError, match="finite increments as cells"):
        ak.RadialPotential(0.0, 1.0, 0.1, values, np.zeros(11))  # one per node, not per cell
    with pytest.raises(ak.DomainError, match="finite increments as cells"):
        ak.RadialPotential(0.0, 1.0, 0.1, values, np.append(np.zeros(9), np.inf))
    with pytest.raises(ak.DomainError, match="values must be 1D"):
        ak.RadialPotential(0.0, 1.0, 0.1, np.zeros((11, 4)), np.zeros(10))  # radial only
    with pytest.raises(ak.DomainError, match="inconsistent with grid"):
        ak.RadialPotential(0.0, 1.0, 0.1, np.zeros(5), np.zeros(4))  # GridFunction's checks run


def test_radial_potential_like_drops_increments():
    phi = ak.manufactured_potential((0.0, 1.0, 0.1))
    assert isinstance(phi, ak.RadialPotential)
    for field in (phi.like(2.0 * phi.values), phi.zeros_like()):
        assert type(field) is ak.GridFunction
        assert not hasattr(field, "increments")
