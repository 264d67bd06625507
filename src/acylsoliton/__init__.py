"""Steady Kahler-Ricci solitons on asymptotically cylindrical model geometries.

Numerical construction and verification of steady gradient Kahler-Ricci
solitons asymptotic to a Ricci-flat cylinder R x (S^1 x T^{2(n-1)}):
closed-form cigar and cylinder backgrounds, cross-section spectra and the
critical weights of the drift Laplacian, mode-by-mode linear drift solves,
a damped-Newton continuity method for the soliton Monge-Ampere equation in
the radial reduction, cut-off gluing of backgrounds, and diagnostic
surrogates (weighted Poincare constant, path bounds, decay rates).

Submodules load on first use (PEP 562): `import acylsoliton` runs only the
spectrum module, and each public name imports its submodule the first time
it is read.  `spectrum` is bound eagerly, because importing the submodule of
the same name would otherwise leave the package attribute set to the module.
"""

import importlib

from .spectrum import spectrum

__version__ = "0.1.0"

_EXPORTS = {
    "continuity": "ContinuityConfig SolitonSolution StepRecord continuity_solve decaying_gauge "
                  "manufactured_potential ma_residual_radial uniqueness_check",
    "diagnostics": "REFERENCE_LAMBDA0 VerificationReport poincare_rayleigh verify_solution",
    "drift": "BoundaryPolicy ModeProblem solve_field solve_mode",
    "errors": "AcylSolitonError ConfigError ContinuityStalled DomainError NewtonDiverged "
              "PositivityLost SingularSystem",
    "gluing": "GlueSpec auto_rho glue_coefficient glued_forcing glued_model smoothstep",
    "grids": "GridFunction RadialPotential uniform_nodes",
    "models": "Kind RadialKahlerModel cigar_model cylinder_model model_to_text ricci_coefficient "
              "soliton_residual",
    "norms": "decay_rate_fit weighted_sup_norm",
    "spectrum": "CrossSection CyclicQuotient hexagonal_lattice hexagonal_rotation_quotient "
                "invariant_spectrum negation_quotient spectrum square_lattice",
    "weights": "CriticalWeight CriticalWeightSet critical_weights fredholm_window_check",
}
_SUBMODULES = {"fd", *_EXPORTS} - {"spectrum"}  # the name spectrum is the function
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted({*_MODULE_OF, *_SUBMODULES})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
