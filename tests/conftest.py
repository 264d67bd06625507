import numpy as np
import pytest

import acylsoliton as ak

DEFAULT_GRID = (-12.0, 20.0, 0.01)
CYLINDER_GRID = (0.0, 20.0, 0.01)


@pytest.fixture(scope="session")
def cigar():
    return ak.cigar_model(2)


@pytest.fixture(scope="session")
def cylinder():
    return ak.cylinder_model(1)


@pytest.fixture(scope="session")
def default_grid():
    return DEFAULT_GRID


@pytest.fixture(scope="session")
def zero_field():
    t = ak.uniform_nodes(*DEFAULT_GRID)
    return ak.GridFunction(*DEFAULT_GRID, np.zeros(len(t)))


def seeded_admissible_field(rng, grid=DEFAULT_GRID, amplitude=0.1):
    """Random smooth potential with exact support in {t >= 0}.

    Gaussian bumps cut by a polynomial switch so the field vanishes
    identically where the cigar coefficient is exponentially small; the
    curvature then stays well inside metric positivity.
    """
    from acylsoliton.gluing import smoothstep

    t = ak.uniform_nodes(*grid)
    vals = np.zeros(len(t))
    for c, width, amp in zip(
        rng.uniform(2.0, 12.0, 3),
        rng.uniform(1.0, 3.0, 3),
        rng.uniform(-amplitude, amplitude, 3),
    ):
        vals += amp * np.exp(-0.5 * ((t - c) / width) ** 2)
    return ak.GridFunction(*grid, vals * smoothstep(t / 2.0))


@pytest.fixture(scope="session")
def manufactured():
    """Anchored manufactured potential and its exact discrete forcing."""
    model = ak.cigar_model(2)
    phi_star = ak.manufactured_potential(DEFAULT_GRID)
    forcing = ak.ma_residual_radial(model, phi_star, None, 0.0)
    return model, phi_star, forcing


@pytest.fixture(scope="session")
def manufactured_solution(manufactured):
    import warnings

    model, phi_star, forcing = manufactured
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solution = ak.continuity_solve(model, forcing)
    return model, phi_star, forcing, solution
