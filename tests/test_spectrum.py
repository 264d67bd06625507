import hashlib

import numpy as np
import pytest

import acylsoliton as ak
from acylsoliton.spectrum import spectrum_to_csv
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


@pytest.mark.parametrize("circle_length", [np.pi, TWO_PI])
@pytest.mark.parametrize("lattice_name", ["square", "hexagonal"])
def test_spectrum_matches_brute_force(circle_length, lattice_name):
    lattice = ak.square_lattice() if lattice_name == "square" else ak.hexagonal_lattice()
    cs = ak.CrossSection(circle_length, lattice)
    got = as_dict(ak.spectrum(cs, 9.0))
    want = as_dict(brute_force_spectrum(circle_length, lattice, 9.0))
    assert got == want


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
    # sqrt(mu_max / lambda_min) rounds to just below 3 for the mode alpha = (3, 0)
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
    "lattice,quotient,mu_max,digest",
    [
        (FOUR_TORUS, None, 30.0,
         "48277150456f42442c9444f458d5c3566bd3777fee45820ec6b53fbce82af951"),
        (FOUR_TORUS, FOUR_TORUS_NEGATION, 20.0,
         "50d641cfaafe69857e38116207cce891d82160e92167aaf1359e372602424b6d"),
        (ak.hexagonal_lattice(), ak.hexagonal_rotation_quotient(), 200.0,
         "07b786b30ebcb60e52c340cbaf1c97485dc90b529b2a330e9c93a82d2baa26af"),
    ],
    ids=["four_torus", "four_torus_negation", "hexagonal_rotation"],
)
def test_spectrum_csv_bytes_pinned(tmp_path, lattice, quotient, mu_max, digest):
    path = tmp_path / "spectrum.csv"
    spectrum_to_csv(ak.invariant_spectrum(ak.CrossSection(TWO_PI, lattice, quotient), mu_max),
                    path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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
