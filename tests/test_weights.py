import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acylsoliton as ak


def test_mu_zero_weights():
    cws = ak.critical_weights([0.0], (-5.0, 5.0))
    assert [w.epsilon for w in cws.weights] == [0.0, 2.0]
    assert {w.branch for w in cws.weights} == {-1, +1}


def test_mu_three_weights():
    cws = ak.critical_weights([3.0], (-5.0, 5.0))
    assert [w.epsilon for w in cws.weights] == [-1.0, 3.0]


def test_window_zero_two_is_empty():
    cs = ak.CrossSection(2 * np.pi, ak.square_lattice())
    spec = ak.spectrum(cs, 10.0)
    cws = ak.critical_weights(spec, (0.0, 2.0))
    assert cws.weights == ()


def test_fredholm_check_margin_zero():
    cs = ak.CrossSection(2 * np.pi, ak.square_lattice())
    cws = ak.critical_weights(ak.spectrum(cs, 10.0), (-1.0, 3.0))
    ok, margin = ak.fredholm_window_check(cws, (0.0, 2.0))
    assert ok and margin == 0.0


def test_fredholm_check_failing_interval():
    cws = ak.critical_weights([0.0, 1.0, 8.0], (-3.0, 5.0))
    ok, margin = ak.fredholm_window_check(cws, (-0.5, 2.5))
    assert not ok and margin == 0.0  # 0 and 2 are inside
    # weight 1 + sqrt(2) = 2.414... sits inside (2, 1+sqrt(2)+0.4)
    ok2, _ = ak.fredholm_window_check(cws, (2.0, 1.0 + np.sqrt(2.0) + 0.4))
    assert not ok2


def test_fredholm_insufficient_coverage():
    cws = ak.critical_weights([0.0], (-5.0, 5.0))  # mu_max = 0, covers [-1, 3] only... [0,2]
    with pytest.raises(ak.DomainError):
        ak.fredholm_window_check(cws, (-3.0, 4.5))


def test_interval_outside_window_rejected():
    cws = ak.critical_weights([0.0, 8.0], (0.0, 2.0))
    with pytest.raises(ak.DomainError):
        ak.fredholm_window_check(cws, (-1.0, 3.0))


def test_negative_mu_rejected():
    with pytest.raises(ak.DomainError):
        ak.critical_weights([-0.5], (0.0, 2.0))


def test_branch_bounds_and_indicial_equation():
    mus = [0.0, 0.3, 1.0, 4.0, 7.7]
    cws = ak.critical_weights(mus, (-10.0, 10.0))
    assert cws.verify_indicial()
    for w in cws.weights:
        if w.branch < 0:
            assert w.epsilon <= 0.0 + 1e-12
        else:
            assert w.epsilon >= 2.0 - 1e-12
        # e^{-eps t} solves u'' + 2u' - mu u = 0
        assert abs(w.epsilon**2 - 2 * w.epsilon - w.mu) < 1e-10


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_weights_monotone_in_spectrum(mus, extra_mu):
    """Adding eigenvalues never removes weights (up to the dedup tolerance)."""
    window = (-9.0, 11.0)
    base = [w.epsilon for w in ak.critical_weights(mus, window).weights]
    bigger = np.array(
        [w.epsilon for w in ak.critical_weights(mus + [extra_mu], window).weights]
    )
    for eps in base:
        assert np.min(np.abs(bigger - eps)) <= 2e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=100.0))
def test_branches_bracket_fredholm_window(mu):
    eps_minus = 1.0 - np.sqrt(1.0 + mu)
    eps_plus = 1.0 + np.sqrt(1.0 + mu)
    assert eps_minus <= 0.0 and eps_plus >= 2.0
    if mu > 1e-12:  # strictness is an exact-arithmetic statement
        assert eps_minus < 0.0 and eps_plus > 2.0


def test_accepts_mu_mult_pairs():
    cws_pairs = ak.critical_weights([(0.0, 1), (1.0, 4)], (-2.0, 4.0))
    cws_flat = ak.critical_weights([0.0, 1.0], (-2.0, 4.0))
    assert [w.epsilon for w in cws_pairs.weights] == [w.epsilon for w in cws_flat.weights]


def test_csv_emission(tmp_path):
    cws = ak.critical_weights([0.0], (-1.0, 3.0))
    path = tmp_path / "weights.csv"
    from acylsoliton.weights import weights_to_csv

    weights_to_csv(cws, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,mu,branch"
    assert len(lines) == 3
