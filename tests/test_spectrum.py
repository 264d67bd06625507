import hashlib
import importlib

import numpy as np
import pytest

import acylsoliton as ak
from acylsoliton.spectrum import MERGE_TOL, spectrum_to_csv
from oracles import brute_force_spectrum, character_projection_spectrum

TWO_PI = 2 * np.pi
FOUR_TORUS = TWO_PI * np.eye(4)
FOUR_TORUS_NEGATION = ak.CyclicQuotient(order=2, lattice_map=-np.eye(4, dtype=int))


def as_dict(pairs):
    return {round(mu, 9): mult for mu, mult in pairs}


def test_square_torus_spectrum_small():
    cs = ak.CrossSection(TWO_PI, ak.square_lattice())
    got = as_dict(ak.spectrum(cs, 2.5))
    assert got == {0.0: 1, 1.0: 6, 2.0: 12}


def test_constant_mode_always_first():
    for lattice in (ak.square_lattice(), ak.hexagonal_lattice()):
        cs = ak.CrossSection(np.pi, lattice)
        pairs = ak.spectrum(cs, 1.5)
        assert pairs[0] == (0.0, 1)


def test_short_circle_ordering():
    # circle of length pi: circle modes enter at 4 j^2
    cs = ak.CrossSection(np.pi, ak.square_lattice())
    mus = [mu for mu, _ in ak.spectrum(cs, 3.9)]
    assert mus == [0.0, 1.0, 2.0]  # no mu in (2, 3.9]: x^2+y^2=3 has no solution
    mus_wide = [mu for mu, _ in ak.spectrum(cs, 4.1)]
    assert mus_wide == [0.0, 1.0, 2.0, 4.0]
    # at mu=4: torus (+-2, 0), (0, +-2) plus circle j=+-1 -> multiplicity 6
    assert as_dict(ak.spectrum(cs, 4.1))[4.0] == 6


# d = 1 enumerates with no prefix coefficients; d = 3 is odd and skewed
BRUTE_FORCE_LATTICES = {
    "square": ak.square_lattice(),
    "hexagonal": ak.hexagonal_lattice(),
    "line": TWO_PI * np.array([[1.3]]),
    "skew3": TWO_PI * np.array([[1.0, 0.0, 0.0], [0.3, 1.1, 0.0], [0.2, -0.4, 0.9]]),
}


@pytest.mark.parametrize("circle_length", [np.pi, TWO_PI])
@pytest.mark.parametrize("lattice_name", list(BRUTE_FORCE_LATTICES))
def test_spectrum_matches_brute_force(circle_length, lattice_name):
    lattice = BRUTE_FORCE_LATTICES[lattice_name]
    cs = ak.CrossSection(circle_length, lattice)
    # every mode with mu <= 9 has |j| and |alpha_i| below the oracle's box of 4
    assert 9.0 / min(np.linalg.eigvalsh(cs.dual_gram)[0], (TWO_PI / circle_length) ** 2) < 16
    got = as_dict(ak.spectrum(cs, 9.0))
    want = as_dict(brute_force_spectrum(circle_length, lattice, 9.0, index_bound=4))
    assert got == want


def test_invariant_spectrum_is_basis_invariant():
    # the hexagonal lattice in the skewed basis U B, with the rotation conjugated to
    # U^-T R U^T = [[-8, -1], [57, 7]]: a_max grows 31 -> 238, past 8-bit coefficients
    U = np.array([[1, 7], [0, 1]])
    rotation = ak.hexagonal_rotation_quotient()
    skewed_map = np.round(np.linalg.inv(U)).astype(int).T @ rotation.lattice_map @ U.T
    plain = ak.invariant_spectrum(ak.CrossSection(TWO_PI, ak.hexagonal_lattice(), rotation),
                                  1000.0)
    skewed = ak.invariant_spectrum(
        ak.CrossSection(TWO_PI, U @ ak.hexagonal_lattice(), ak.CyclicQuotient(3, skewed_map)),
        1000.0)
    assert [mult for _, mult in skewed] == [mult for _, mult in plain]
    np.testing.assert_allclose([mu for mu, _ in skewed], [mu for mu, _ in plain],
                               rtol=0, atol=1e-9)


def test_ellipsoid_candidates_are_few(monkeypatch):
    # S^1 x T^4 at mu_max 100 keeps 49 689 lattice vectors, 24 844 pairs +-alpha
    # besides alpha = 0; one of each pair is enumerated.  The integer box
    # [-10, 10]^4 holds 194 481, the ellipsoid adds at most two per prefix
    module = importlib.import_module("acylsoliton.spectrum")
    enumerate_ellipsoid, rows = module._ellipsoid, []

    def counted(*args):
        alphas = enumerate_ellipsoid(*args)
        rows.append(len(alphas))
        return alphas

    monkeypatch.setattr(module, "_ellipsoid", counted)
    ak.spectrum(ak.CrossSection(TWO_PI, FOUR_TORUS), 100.0)
    assert len(rows) == 1 and 24_844 <= rows[0] <= 1.4 * 24_844


# one alpha of each pair +-alpha and j >= 0 are enumerated; the oracles take
# every (j, alpha) in a box.  Orders 2 and 3 on 2-D lattices are checked in
# test_invariant_spectrum_matches_character_projection
HALVING_CASES = {
    # the quarter turn: R^2 = -I, so alpha and -alpha share an orbit
    "order4": (TWO_PI, ak.square_lattice(),
               ak.CyclicQuotient(order=4, lattice_map=np.array([[0, -1], [1, 0]])), 9.0),
    "circle_only": (TWO_PI, np.zeros((0, 0)),
                    ak.CyclicQuotient(order=3, lattice_map=np.zeros((0, 0), dtype=int)), 30.0),
    "line": (np.pi, TWO_PI * np.array([[1.3]]), ak.negation_quotient(1), 9.0),
    # (2 pi / 0.5)^2 > 50: only j = 0 survives
    "j_zero_only": (0.5, ak.square_lattice(),
                    ak.CyclicQuotient(order=4, lattice_map=np.array([[0, -1], [1, 0]])), 50.0),
}


@pytest.mark.parametrize("case", list(HALVING_CASES))
def test_pair_enumeration_matches_brute_force(case):
    circle, lattice, quotient, mu_max = HALVING_CASES[case]
    full = as_dict(ak.spectrum(ak.CrossSection(circle, lattice), mu_max))
    assert full == as_dict(brute_force_spectrum(circle, lattice, mu_max))
    got = as_dict(ak.invariant_spectrum(ak.CrossSection(circle, lattice, quotient), mu_max))
    assert got == as_dict(character_projection_spectrum(circle, lattice, quotient.order,
                                                        quotient.lattice_map, mu_max))
    if case == "j_zero_only":
        # no circle mode: the 161 points of Z^2 with |alpha|^2 <= 50, each once
        assert (TWO_PI / circle) ** 2 > mu_max and sum(full.values()) == 161


# mu_max is a torus value that is attained, by a mode whose largest coefficient
# is a_max: (2, 20) in the skewed basis U (2 pi I), where G^-1 = U U^T has
# condition number 1.04e4, (2, 1) on the hexagonal lattice and (2, 0, 0, 0) on
# the four-torus
EXACT_BOX_CASES = {
    "skewed": (np.array([[1, 0], [10, 1]]) @ ak.square_lattice(), ak.negation_quotient(), 4.0),
    "hexagonal": (ak.hexagonal_lattice(), ak.hexagonal_rotation_quotient(), 4.0),
    "four_torus": (FOUR_TORUS, FOUR_TORUS_NEGATION, 4.0),
}


@pytest.mark.parametrize("case", list(EXACT_BOX_CASES))
def test_box_without_eigensolver_is_exact(monkeypatch, case):
    """The per-axis box sqrt(mu_max (G^-1)_ii) keeps every mode of the direct-box
    oracles, whose box |alpha_i| <= |alpha| <= sqrt(mu_max trace G^-1) holds all,
    and the enumeration calls no eigensolver."""
    lattice, quotient, mu_max = EXACT_BOX_CASES[case]
    full, invariant = (ak.CrossSection(TWO_PI, lattice, q) for q in (None, quotient))
    box = int(np.ceil(np.sqrt(mu_max * np.trace(np.linalg.inv(full.dual_gram)))))
    want_full = brute_force_spectrum(TWO_PI, lattice, mu_max, index_bound=box)
    want_invariant = character_projection_spectrum(TWO_PI, lattice, quotient.order,
                                                   quotient.lattice_map, mu_max,
                                                   index_bound=box)

    def refuse(*args, **kwargs):
        raise AssertionError("the lattice box called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert as_dict(ak.spectrum(full, mu_max)) == as_dict(want_full)
    assert as_dict(ak.invariant_spectrum(invariant, mu_max)) == as_dict(want_invariant)
    assert as_dict(ak.invariant_spectrum(full, mu_max)) == as_dict(want_full)


def test_invariant_spectrum_negation_quotient():
    cs = ak.CrossSection(TWO_PI, ak.square_lattice(), ak.negation_quotient())
    inv = as_dict(ak.invariant_spectrum(cs, 2.5))
    # constants survive
    assert inv[0.0] == 1
    # mu=1: the spec sheet quotes multiplicity 4, but the character projection
    # gives 2 (cos x1, cos x2 survive; the circle modes j=+-1 carry character -1)
    oracle = as_dict(character_projection_spectrum(TWO_PI, ak.square_lattice(), 2, -np.eye(2, dtype=int), 2.5))
    assert inv[1.0] == 2
    assert inv == oracle


def test_trivial_quotient_is_full_spectrum():
    base = ak.CrossSection(TWO_PI, ak.square_lattice())
    assert ak.invariant_spectrum(base, 6.0) == ak.spectrum(base, 6.0)


@pytest.mark.parametrize(
    "lattice_name,quotient_fn",
    [
        ("square", ak.negation_quotient),
        ("hexagonal", ak.negation_quotient),
        ("hexagonal", ak.hexagonal_rotation_quotient),
    ],
)
def test_invariant_spectrum_matches_character_projection(lattice_name, quotient_fn):
    lattice = ak.square_lattice() if lattice_name == "square" else ak.hexagonal_lattice()
    quotient = quotient_fn()
    cs = ak.CrossSection(TWO_PI, lattice, quotient)
    got = as_dict(ak.invariant_spectrum(cs, 9.0))
    want = as_dict(
        character_projection_spectrum(TWO_PI, lattice, quotient.order,
                                      quotient.lattice_map, 9.0)
    )
    assert got == want


def test_four_torus_negation_quotient_matches_character_projection():
    cs = ak.CrossSection(TWO_PI, FOUR_TORUS, FOUR_TORUS_NEGATION)
    got = as_dict(ak.invariant_spectrum(cs, 5.0))
    want = as_dict(character_projection_spectrum(TWO_PI, FOUR_TORUS, 2,
                                                 FOUR_TORUS_NEGATION.lattice_map,
                                                 5.0, index_bound=3))
    assert got == want


def test_mode_on_the_enumeration_bound_is_kept():
    # the mode alpha = (3, 0) is on the box's edge: sqrt(mu_max (G^-1)_ii) is 3.0
    # to the bit, and sqrt(mu_max / lambda_min) rounded to just below 3
    lattice = 0.7 * np.eye(2)
    mu_max = 725.1137927330958
    got = ak.spectrum(ak.CrossSection(0.5, lattice), mu_max)
    assert as_dict(got) == as_dict(brute_force_spectrum(0.5, lattice, mu_max))
    assert got[-1] == (mu_max, 4)


def test_circle_only_cross_section():
    # n = 1: no torus factor, only the circle modes j^2
    circle = ak.CrossSection(TWO_PI, np.zeros((0, 0)))
    assert ak.spectrum(circle, 5.0) == [(0.0, 1), (1.0, 2), (4.0, 2)]
    # theta -> theta + pi keeps the even circle modes
    quotient = ak.CyclicQuotient(order=2, lattice_map=np.zeros((0, 0), dtype=int))
    halved = ak.CrossSection(TWO_PI, np.zeros((0, 0)), quotient)
    assert ak.invariant_spectrum(halved, 5.0) == [(0.0, 1), (4.0, 2)]


# SHA-256 of spectrum_to_csv output: the reported float of every merged
# cluster is pinned to the last bit, which the rounded comparisons above miss.
@pytest.mark.parametrize(
    "circle,lattice,quotient,mu_max,digest",
    [
        (TWO_PI, FOUR_TORUS, None, 30.0,
         "48277150456f42442c9444f458d5c3566bd3777fee45820ec6b53fbce82af951"),
        (TWO_PI, FOUR_TORUS, FOUR_TORUS_NEGATION, 20.0,
         "50d641cfaafe69857e38116207cce891d82160e92167aaf1359e372602424b6d"),
        (TWO_PI, ak.hexagonal_lattice(), ak.hexagonal_rotation_quotient(), 200.0,
         "07b786b30ebcb60e52c340cbaf1c97485dc90b529b2a330e9c93a82d2baa26af"),
        # the bench's spectrum_sweep case
        (TWO_PI, FOUR_TORUS, None, 100.0,
         "bf64a32c3319adc2ac8a358af547fe2584baf55c5c3883b79af34b7839c3d326"),
        # a short circle: many values carry only nontrivial characters
        (1.3, ak.square_lattice(), ak.negation_quotient(), 800.0,
         "4b3664c20ff4748fdbb052088beb3a14f67d2b35efff95fbc4c8002e9703d495"),
        # circle_unit is 3 up to rounding, so j^2 circle_unit + mu_torus meets
        # other values within MERGE_TOL; a zero-weight value just below a kept
        # one must be dropped before the merge, or it becomes the reported
        # float (11.999999999999998 instead of 12)
        (TWO_PI / np.sqrt(3), ak.hexagonal_lattice(), ak.hexagonal_rotation_quotient(), 60.0,
         "ff85ff8fd7feed0a76a7c29072b293e49696ab932c920594c047b16affda0439"),
    ],
    ids=["four_torus", "four_torus_negation", "hexagonal_rotation", "four_torus_sweep",
         "square_negation_short_circle", "hexagonal_rotation_merge_order"],
)
def test_spectrum_csv_bytes_pinned(tmp_path, circle, lattice, quotient, mu_max, digest):
    path = tmp_path / "spectrum.csv"
    spectrum_to_csv(ak.invariant_spectrum(ak.CrossSection(circle, lattice, quotient), mu_max),
                    path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("values, starts", [
    ([], []),
    ([3.0], [True]),
    # spacing 0.6 MERGE_TOL: every gap merges, so the chain is one cluster
    ([k * 0.6 * MERGE_TOL for k in range(7)], [True] + [False] * 6),
    # a gap of exactly MERGE_TOL merges; one just above does not
    ([0.0, MERGE_TOL, 2.0, 2.0 + np.nextafter(MERGE_TOL, 1.0)], [True, False, True, True]),
    # repeated values, a chain after a wide gap, and rounding-level gaps
    ([1.0, 1.0, 1.0 + 0.6 * MERGE_TOL, 1.0 + 0.6 * MERGE_TOL, 1.0 + 1.2 * MERGE_TOL, 5.0,
      5.0 + 0.5 * MERGE_TOL, 5.0 + 0.9 * MERGE_TOL, 5.0 + 1.4 * MERGE_TOL, 5.0 + 1.5 * MERGE_TOL,
      12.0, np.nextafter(12.0, 13.0), 12.0 + 2 * MERGE_TOL],
     [True, False, False, False, False, True, False, False, False, False, True, False, True]),
], ids=["empty", "single", "chain_0.6", "gap_exactly_tol", "mixed"])
def test_cluster_starts_follow_the_sequential_rule(values, starts):
    """Read in sequence, a value starts a cluster when it lies more than
    MERGE_TOL above the value before it."""
    from acylsoliton.spectrum import _cluster_starts

    assert _cluster_starts(np.array(values, dtype=float)).tolist() == starts


@pytest.mark.parametrize("circle,lattice,quotient,mu_max", [
    (TWO_PI, ak.square_lattice(), None, 10.0),
    (TWO_PI, ak.square_lattice(), ak.negation_quotient(), 10.0),
    (TWO_PI, ak.hexagonal_lattice(), ak.hexagonal_rotation_quotient(), 10.0),
    (TWO_PI, FOUR_TORUS, None, 100.0),
    (TWO_PI, FOUR_TORUS, FOUR_TORUS_NEGATION, 60.0),
    (TWO_PI, ak.hexagonal_lattice(), ak.hexagonal_rotation_quotient(), 1000.0),
], ids=["cli_default", "cli_quotient_2", "cli_quotient_3", "sweep_s1t4", "sweep_s1t4_z2",
        "sweep_hex_z3"])
def test_merged_clusters_span_at_most_merge_tol(monkeypatch, circle, lattice, quotient, mu_max):
    """On the spectra that the commands and the benchmark compute, each merged
    cluster spans at most MERGE_TOL, so every member lies within MERGE_TOL of
    the cluster's start: merging by gaps or by distance from the start agree."""
    spectrum_module = importlib.import_module("acylsoliton.spectrum")
    sorted_values, cluster_starts = [], spectrum_module._cluster_starts

    def recorded(values):
        sorted_values.append(values)
        return cluster_starts(values)

    monkeypatch.setattr(spectrum_module, "_cluster_starts", recorded)
    cs = ak.CrossSection(circle, lattice, quotient)
    ak.spectrum(cs, mu_max)
    if quotient is not None:
        ak.invariant_spectrum(cs, mu_max)
    assert len(sorted_values) == (1 if quotient is None else 2)
    for values in sorted_values:
        starts = np.flatnonzero(cluster_starts(values))
        ends = np.append(starts[1:], len(values)) - 1
        assert np.all(values[ends] - values[starts] <= MERGE_TOL)


def test_invariant_multiplicities_bounded_by_full():
    cs_full = ak.CrossSection(TWO_PI, ak.hexagonal_lattice())
    cs_quot = ak.CrossSection(TWO_PI, ak.hexagonal_lattice(),
                              ak.hexagonal_rotation_quotient())
    full = as_dict(ak.spectrum(cs_full, 9.0))
    inv = as_dict(ak.invariant_spectrum(cs_quot, 9.0))
    for mu, mult in inv.items():
        assert mu in full
        assert mult <= full[mu]


def test_isotypic_dimensions_sum_to_orbit_size():
    # over all characters, the isotypic dimensions fill each orbit span
    R = ak.hexagonal_rotation_quotient().lattice_map
    m = 3
    RT = R.T
    import itertools

    for j, alpha in itertools.product(range(-2, 3), itertools.product(range(-2, 3), repeat=2)):
        orbit = {tuple(alpha)}
        current = np.array(alpha)
        while True:
            current = RT @ current
            if tuple(current) in orbit:
                break
            orbit.add(tuple(current))
        o = len(orbit)
        dims = []
        for char in range(m):
            total = 0.0 + 0.0j
            for ell in range(m):
                fixed = o if ell % o == 0 else 0
                total += fixed * np.exp(2j * np.pi * (j - char) * ell / m)
            dims.append(round(total.real / m))
        assert sum(dims) == o


def test_enumeration_is_deterministic():
    cs = ak.CrossSection(TWO_PI, ak.hexagonal_lattice())
    assert ak.spectrum(cs, 7.0) == ak.spectrum(cs, 7.0)


def test_degenerate_lattice_rejected():
    with pytest.raises(ak.DomainError):
        ak.CrossSection(TWO_PI, np.array([[1.0, 2.0], [2.0, 4.0]]))


@pytest.mark.parametrize("circle,lattice", [
    (np.inf, ak.square_lattice()),
    (np.nan, ak.square_lattice()),
    (TWO_PI, np.array([[np.nan, 0.0], [0.0, 1.0]])),
    (TWO_PI, np.array([[np.inf, 0.0], [0.0, 1.0]])),
], ids=["inf_circle", "nan_circle", "nan_lattice", "inf_lattice"])
def test_non_finite_cross_section_rejected(circle, lattice):
    with pytest.raises(ak.DomainError):
        ak.CrossSection(circle, lattice)


@pytest.mark.parametrize("mu_max", [0.0, -1.0, np.nan, np.inf])
def test_mu_max_must_be_positive_and_finite(mu_max):
    cs = ak.CrossSection(TWO_PI, ak.square_lattice(), ak.negation_quotient())
    for compute in (ak.spectrum, ak.invariant_spectrum):
        with pytest.raises(ak.DomainError):
            compute(cs, mu_max)


def test_non_isometric_lattice_map_rejected():
    # shear preserves the lattice but not the flat metric
    with pytest.raises(ak.DomainError):
        ak.CrossSection(
            TWO_PI, ak.square_lattice(),
            ak.CyclicQuotient(order=2, lattice_map=np.array([[1, 1], [0, -1]])),
        )


def test_non_unimodular_map_rejected():
    with pytest.raises(ak.DomainError):
        ak.CyclicQuotient(order=2, lattice_map=np.array([[2, 0], [0, 1]]))
    # a map that is not a square matrix fails before its determinant is taken
    for lattice_map in (np.ones((2, 3), dtype=int), np.array([-1])):
        with pytest.raises(ak.DomainError, match="must be a square matrix"):
            ak.CyclicQuotient(order=2, lattice_map=lattice_map)
    # so do a trivial order, a non-integer map and a map whose order is not m
    for order, lattice_map, message in (
        (1, -np.eye(2, dtype=int), "quotient order must be >= 2, got 1"),
        (2, np.array([[0.5, 0.0], [0.0, 1.0]]), "must be an integer matrix"),
        (3, -np.eye(2, dtype=int), r"does not satisfy R\^m = identity"),
    ):
        with pytest.raises(ak.DomainError, match=message):
            ak.CyclicQuotient(order=order, lattice_map=lattice_map)


@pytest.mark.parametrize("lattice,lattice_map,message", [
    (np.ones((2, 3)), None, "lattice basis must be a square matrix"),
    (ak.square_lattice(), -np.eye(3, dtype=int), "lattice map dimension mismatch"),
], ids=["non_square_lattice", "map_of_another_dimension"])
def test_malformed_cross_section_rejected(lattice, lattice_map, message):
    quotient = None if lattice_map is None else ak.CyclicQuotient(2, lattice_map)
    with pytest.raises(ak.DomainError, match=message):
        ak.CrossSection(TWO_PI, lattice, quotient)
