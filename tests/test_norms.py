import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acylsoliton as ak


def sample(fn, grid=(0.0, 20.0, 0.01)):
    return ak.GridFunction.sample(fn, *grid)


def test_weighted_sup_pure_exponential():
    for eps in (0.5, 1.0, 1.5):
        u = sample(lambda t: np.exp(-eps * t))
        assert ak.weighted_sup_norm(u, 0, eps) == pytest.approx(1.0, abs=1e-12)


def test_weighted_sup_zero():
    u = sample(lambda t: np.zeros_like(t))
    assert ak.weighted_sup_norm(u, 2, 1.0) == 0.0


def test_weighted_sup_with_derivatives():
    # e^{-1.5t}: derivatives scale by 1.5 and 2.25; max is 2.25, at order 2 in h
    # (the error reads 1.69e-4 and 4.22e-5 at h = 0.02 and 0.01)
    errors = [ak.weighted_sup_norm(sample(lambda t: np.exp(-1.5 * t), (0.0, 20.0, h)), 2, 1.5) - 2.25
              for h in (0.02, 0.01)]
    assert abs(errors[1]) <= 1e-4
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.2)


def test_weighted_sup_reads_carried_increments():
    """At h = 1e-4 the closed-form increments give 2.25 to 4.3e-9; second
    differences of the samples alone would read 7.5e-7 off."""
    h = 1e-4
    t = ak.uniform_nodes(0.0, 20.0, h)
    increments = np.exp(-1.5 * t[:-1]) * np.expm1(-1.5 * h)
    u = ak.RadialPotential(0.0, 20.0, h, np.exp(-1.5 * t), increments)
    assert ak.weighted_sup_norm(u, 2, 1.5) == pytest.approx(2.25, abs=5e-9)
    samples = ak.GridFunction(0.0, 20.0, h, u.values)
    assert abs(ak.weighted_sup_norm(samples, 2, 1.5) - 2.25) > 1e-7


def test_weight_monotonicity_on_decaying_tail():
    # on t >= 0, a faster-decaying u has weighted norms increasing in eps
    u = sample(lambda t: np.exp(-1.9 * t))
    norms = [
        ak.weighted_sup_norm(u, 0, eps)
        for eps in (0.3, 0.9, 1.5, 1.9)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_rejects_2d_and_short_grids():
    with pytest.raises(ak.DomainError, match="values must be 1D"):
        ak.GridFunction(0.0, 2.0, 0.1, np.zeros((21, 8)))
    short = ak.GridFunction.sample(np.exp, 0.0, 0.4, 0.1)  # 5 nodes: no edge stencil
    assert ak.weighted_sup_norm(short, 0, 0.0) == pytest.approx(np.exp(0.4))
    with pytest.raises(ak.DomainError, match="need at least 6 nodes"):
        ak.weighted_sup_norm(short, 1, 0.0)
    for k in (-1, 3, 1.0, True):  # a float or bool order is not an order
        with pytest.raises(ak.DomainError, match="k must be 0, 1 or 2"):
            ak.weighted_sup_norm(short, k, 0.0)
    # an integer of another type is one
    assert ak.weighted_sup_norm(short, np.int64(0), 0.0) == pytest.approx(np.exp(0.4))


@pytest.mark.parametrize("eps", [0.5, 1.0, 1.5, 1.9])
def test_decay_fit_exact_exponentials(eps):
    u = sample(lambda t: np.exp(-eps * t))
    assert ak.decay_rate_fit(u) == pytest.approx(eps, abs=1e-6)


def test_decay_fit_prefactor_invariance():
    u = sample(lambda t: 3.0 * np.exp(-1.2 * t))
    assert ak.decay_rate_fit(u) == pytest.approx(1.2, abs=1e-6)


def test_decay_fit_power_profile():
    # (1 + e^{2t})^{-3/4} decays at rate 1.5 once t >> 1
    u = ak.GridFunction.sample(lambda t: (1 + np.exp(2 * t)) ** (-0.75), -12.0, 20.0, 0.01)
    assert ak.decay_rate_fit(u) == pytest.approx(1.5, abs=0.02)


def test_decay_fit_subleading_term():
    u = sample(lambda t: np.exp(-t) * (1 + np.exp(-t)))
    rate = ak.decay_rate_fit(u)
    assert 0.98 <= rate <= 1.02


def test_decay_fit_zero_field_sentinel():
    u = sample(lambda t: np.zeros_like(t))
    assert ak.decay_rate_fit(u) == np.inf


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=1.9),
    st.floats(min_value=-1e3, max_value=1e3).filter(lambda c: abs(c) > 1e-6),
)
def test_decay_fit_scale_invariance(eps, scale):
    u = sample(lambda t: np.exp(-eps * t))
    scaled = u.like(scale * u.values)
    assert ak.decay_rate_fit(scaled) == pytest.approx(ak.decay_rate_fit(u), abs=1e-9)


@pytest.mark.parametrize("grid", [(0.0, 20.0, 0.01), (-12.0, 20.0, 1e-3), (0.0, 1.3, 0.1),
                                  (0.0, 1.0, 0.1), (-12.0, 20.0, 1e-4), (-3.7, 11.3, 0.005)])
def test_decay_fit_window_is_the_masked_window(grid):
    """The tail window sliced from the ascending nodes holds the nodes of the
    mask t_min + (0.6, 0.9) (t_max - t_min), and the fit keeps its bits."""
    u = ak.GridFunction.sample(lambda t: np.exp(-1.5 * t) * (2.0 + np.sin(7.0 * t)), *grid)
    t, (lo, hi) = u.t, (grid[0] + f * (grid[1] - grid[0]) for f in (0.6, 0.9))
    window = (t >= lo) & (t <= hi)
    expected = np.polyfit(t[window], -np.log(np.abs(u.values)[window]), 1)[0]
    assert float(ak.decay_rate_fit(u)).hex() == float(expected).hex()


@pytest.mark.parametrize("grid", [(0.0, 1.0, 0.1), (-12.0, 20.0, 1e-4), (0.0, 1.0, 0.3),
                                  (0.0, 0.0, 0.1), (0.0, 1.0, 0.0), (0.0, np.inf, 0.1),
                                  (np.nan, 1.0, 0.1)])
def test_node_count_is_the_length_of_the_nodes(grid):
    from acylsoliton.grids import node_count

    try:
        expected = len(ak.uniform_nodes(*grid))
    except ak.DomainError as exc:
        with pytest.raises(ak.DomainError, match=re.escape(str(exc))):
            node_count(*grid)
    else:
        assert node_count(*grid) == expected
