import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acylsoliton as ak
from acylsoliton.cli import run
from acylsoliton.weights import weights_to_csv

TWO_PI = 2 * np.pi
FOUR_TORUS = TWO_PI * np.eye(4)
# the weights of every spectrum below 3 inside (-1, 3): mu = 0, 1, 2
NEAR_WINDOW = "6be839df0a1fee6d3978c174d16ff8b0be53a4a08c00df4bea4fd93fd3e9c124"


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


def test_empty_window_and_interval_rejected():
    with pytest.raises(ak.DomainError, match=r"empty window \(1.0, 1.0\)"):
        ak.critical_weights([0.0], (1.0, 1.0))
    cws = ak.critical_weights([0.0, 8.0], (0.0, 2.0))
    with pytest.raises(ak.DomainError, match=r"empty interval \(2.0, 0.0\)"):
        ak.fredholm_window_check(cws, (2.0, 0.0))


def test_negative_mu_rejected():
    with pytest.raises(ak.DomainError):
        ak.critical_weights([-0.5], (0.0, 2.0))


def test_branch_bounds_and_indicial_equation():
    mus = [0.0, 0.3, 1.0, 4.0, 7.7]
    cws = ak.critical_weights(mus, (-10.0, 10.0))
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


def test_accepts_arrays():
    pairs = ak.spectrum(ak.CrossSection(TWO_PI, ak.hexagonal_lattice()), 40.0)
    expected = ak.critical_weights(pairs, (-6.0, 8.0))
    for spectrum in (np.array(pairs), np.array([mu for mu, _ in pairs])):
        got = ak.critical_weights(spectrum, (-6.0, 8.0))
        assert got == expected
        assert all(type(w.mu) is float and type(w.epsilon) is float for w in got.weights)


def test_csv_emission(tmp_path):
    cws = ak.critical_weights([0.0], (-1.0, 3.0))
    path = tmp_path / "weights.csv"
    weights_to_csv(cws, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,mu,branch"
    assert len(lines) == 3


# SHA-256 of weights_to_csv output: the bench's spectrum_sweep cases, and one
# wide window that reports about 200 weights
@pytest.mark.parametrize("lattice,quotient,mu_max,window,digest", [
    (FOUR_TORUS, None, 100.0, (-1.0, 3.0), NEAR_WINDOW),
    (FOUR_TORUS, ak.CyclicQuotient(order=2, lattice_map=-np.eye(4, dtype=int)), 60.0,
     (-1.0, 3.0), NEAR_WINDOW),
    (ak.hexagonal_lattice(), ak.hexagonal_rotation_quotient(), 1000.0, (-1.0, 3.0),
     "1cb7438f45ada6235e0c2b1ad85449a8cb8c1bf40b2bfc553db741d00de7cb23"),
    (FOUR_TORUS, None, 100.0, (-20.0, 22.0),
     "0690e4a22f5fe31b0ecaeb9339422c3f5950066315492b572da1f83964906dc0"),
], ids=["s1t4", "s1t4_z2", "hex_z3", "s1t4_wide"])
def test_weights_csv_bytes_pinned(tmp_path, lattice, quotient, mu_max, window, digest):
    spectrum = ak.invariant_spectrum(ak.CrossSection(TWO_PI, lattice, quotient), mu_max)
    path = tmp_path / "weights.csv"
    weights_to_csv(ak.critical_weights(spectrum, window), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_cli_weights_csv_bytes_pinned(tmp_path):
    assert run(["weights", "--output", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "weights.csv").read_bytes()).hexdigest() == NEAR_WINDOW
