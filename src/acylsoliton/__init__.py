"""Steady Kahler-Ricci solitons on asymptotically cylindrical model geometries.

Numerical construction and verification of steady gradient Kahler-Ricci
solitons asymptotic to a Ricci-flat cylinder R x (S^1 x T^{2(n-1)}):
closed-form cigar and cylinder backgrounds, cross-section spectra and the
critical weights of the drift Laplacian, mode-by-mode linear drift solves,
a damped-Newton continuity method for the soliton Monge-Ampere equation in
the radial reduction, cut-off gluing of backgrounds, and diagnostic
surrogates (weighted Poincare constant, path bounds, decay rates).
"""

__version__ = "0.1.0"

from .continuity import (
    ContinuityConfig,
    SolitonSolution,
    StepRecord,
    continuity_solve,
    decaying_gauge,
    linearized_operator,
    manufactured_potential,
    ma_residual_2d,
    ma_residual_radial,
    uniqueness_check,
)
from .diagnostics import (
    REFERENCE_LAMBDA0,
    VerificationReport,
    poincare_rayleigh,
    rayleigh_quotient,
    verify_solution,
)
from .drift import (
    BoundaryPolicy,
    ModeProblem,
    apply_mode_operator,
    assemble_mode_operator,
    default_boundary,
    solve_field,
    solve_mode,
)
from .errors import (
    AcylSolitonError,
    ConfigError,
    ContinuityStalled,
    DomainError,
    NewtonDiverged,
    PositivityLost,
    SingularSystem,
)
from .gluing import (
    GlueSpec,
    auto_rho,
    bump_profile,
    glue_coefficient,
    glued_forcing,
    glued_model,
    potential_derivative_of,
    potential_of,
    smoothstep,
)
from .grids import GridFunction, uniform_nodes
from .models import (
    Kind,
    RadialKahlerModel,
    cigar_model,
    cylinder_model,
    model_from_text,
    model_to_text,
    ricci_coefficient,
    soliton_residual,
)
from .norms import WeightedNormSpec, decay_rate_fit, weighted_sup_norm
from .spectrum import (
    CrossSection,
    CyclicQuotient,
    hexagonal_lattice,
    hexagonal_rotation_quotient,
    invariant_spectrum,
    negation_quotient,
    spectrum,
    square_lattice,
)
from .weights import (
    CriticalWeight,
    CriticalWeightSet,
    critical_weights,
    fredholm_window_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
