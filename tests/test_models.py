import numpy as np
import pytest

import acylsoliton as ak
from acylsoliton import fd
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
    # |f(t) - 2t - c0| = log(1 + e^{-2t}) <= e^{-2t}
    t = ak.uniform_nodes(*default_grid)
    gap = np.abs(cigar.f(t) - 2 * t - cigar.c0)
    # atol at the ulp of f ~ 41: the tail gap e^{-2t} drops below representability
    assert np.allclose(gap, np.log1p(np.exp(-2 * t)), rtol=1e-12, atol=1e-14)
    assert np.all(gap <= np.exp(-2 * t) + 1e-14)


def test_cigar_volume_identity(cigar, default_grid):
    # a(t) e^{f(t) - c0 - 2t} = 1: the soliton volume identity in closed form
    t = ak.uniform_nodes(*default_grid)
    lhs = cigar.a(t) * np.exp(cigar.f(t) - cigar.c0 - 2 * t)
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
        fp = fd.d1(model.f(t), default_grid[2])
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
    f_dd = fd.d2(cigar.f(t), default_grid[2])
    assert np.max(np.abs(r.values - 0.5 * f_dd)[1:-1]) < 2e-5


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
        n=1, kind=ak.Kind.CYLINDER, c0=1.0,
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
    text = ak.model_to_text(cigar)
    clone = ak.model_from_text(text)
    assert clone.kind == cigar.kind and clone.n == cigar.n
    t = np.linspace(-5, 5, 11)
    assert np.allclose(clone.a(t), cigar.a(t))
    assert np.allclose(clone.f(t), cigar.f(t))


def test_gridfunction_csv_roundtrip(tmp_path, default_grid):
    u = ak.GridFunction.sample(lambda t: np.exp(-t) * np.sin(t), -2.0, 3.0, 0.05)
    path = tmp_path / "u.csv"
    u.to_csv(path)
    v = ak.GridFunction.from_csv(path)
    assert u.same_grid(v)
    assert np.array_equal(u.values, v.values)


def test_gridfunction_2d_csv_roundtrip(tmp_path):
    u = ak.GridFunction.sample_2d(
        lambda t, x: np.exp(-t) * (1 + 0.3 * np.sin(x)), 0.0, 2.0, 0.1, 12
    )
    path = tmp_path / "u2.csv"
    u.to_csv(path)
    v = ak.GridFunction.from_csv(path)
    assert v.is_2d and v.values.shape == u.values.shape
    assert np.array_equal(u.values, v.values)


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
    ("t,u,value\n0,0,1\n0,3,1\n1,0,2\n", 4),
], ids=["non_numeric", "short_row", "2d_row_count"])
def test_gridfunction_csv_rejects_malformed_rows(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ak.DomainError, match=f"line {line}:"):
        ak.GridFunction.from_csv(path)


def test_gridfunction_csv_rejects_u_major_and_off_grid_u(tmp_path):
    u = ak.GridFunction.sample_2d(lambda t, x: 10 * t + x, 0.0, 2.0, 1.0, 4)
    path = tmp_path / "u_major.csv"
    with open(path, "w") as fh:
        fh.write("t,u,value\n")
        for j, x in enumerate(u.u):
            for i, t in enumerate(u.t):
                fh.write(f"{t:.17g},{x:.17g},{u.values[i, j]:.17g}\n")
    with pytest.raises(ak.DomainError, match="line 3: t = 1, u = 0, expected t = 0, u = 1.57"):
        ak.GridFunction.from_csv(path)
    path.write_text("t,u,value\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n")  # u not on 2 pi k / 2
    with pytest.raises(ak.DomainError, match="line 3: t = 0, u = 1, expected t = 0, u = 3.14"):
        ak.GridFunction.from_csv(path)


def test_gridfunction_validation():
    with pytest.raises(ak.DomainError):
        ak.GridFunction(0.0, 1.0, 0.1, np.zeros(5))  # wrong length
    with pytest.raises(ak.DomainError):
        ak.GridFunction(0.0, 1.0, 0.1, np.full(11, np.nan))
