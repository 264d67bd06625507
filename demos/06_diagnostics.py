#!/usr/bin/env python3
"""Diagnostic surrogates: weighted norms, decay rates, Poincare constants.

The weighted sup-norms track membership in the exponentially weighted
spaces C^k_eps; the decay-rate fit estimates the exponent empirically; and
the weighted Poincare constant is the discrete spectral gap of the
quadratic-form pair with weight e^f / f^2 times the volume density, the
inequality that feeds the L^2 energy bound of the continuity method.
"""

import numpy as np

import acylsoliton as ak

# --- weighted norms -------------------------------------------------------
u = ak.GridFunction.sample(lambda t: np.exp(-1.5 * t), 0.0, 20.0, 0.01)
for k in (0, 1, 2):
    norm = ak.weighted_sup_norm(u, k, 1.5)
    print(f"||e^{{-1.5t}}||_C^{k}_1.5 = {norm:.6f}   (1.5^k from each derivative)")

# --- decay-rate fits ------------------------------------------------------
fields = {
    "3 e^{-1.2t}": ak.GridFunction.sample(lambda t: 3 * np.exp(-1.2 * t), 0.0, 20.0, 0.01),
    "(1+e^{2t})^{-3/4}": ak.GridFunction.sample(
        lambda t: (1 + np.exp(2 * t)) ** (-0.75), -12.0, 20.0, 0.01),
    "e^{-t}(1+e^{-t})": ak.GridFunction.sample(
        lambda t: np.exp(-t) * (1 + np.exp(-t)), 0.0, 20.0, 0.01),
}
print()
for name, field in fields.items():
    print(f"decay fit of {name:22s} -> {ak.decay_rate_fit(field):.4f}")

# --- weighted Poincare constants -----------------------------------------
print()
for name, model, t_min in (("cylinder", ak.cylinder_model(1), 0.0),
                           ("cigar", ak.cigar_model(2), -12.0)):
    lam = ak.poincare_rayleigh(model, (t_min, 20.0, 0.01))
    lam_wide = ak.poincare_rayleigh(model, (t_min, 30.0, 0.01))
    print(f"Poincare lambda_min on the {name}: {lam:.6f} "
          f"(domain growth shifts it by {abs(lam_wide - lam) / lam:.2e}; "
          f"barrier reference 1/8 = {ak.REFERENCE_LAMBDA0})")

# the variational principle: any test vector dominates lambda_min; here the
# constant one, zero at the Dirichlet ends, with the weight w = e^f a / f^2
model, h = ak.cylinder_model(1), 0.01
t = ak.uniform_nodes(0.0, 20.0, h)
w = np.exp(model.f(t)) * model.sample_a(t) / model.f(t) ** 2
u = np.ones(len(t))
u[[0, -1]] = 0.0
quotient = np.sum(0.5 * (w[1:] + w[:-1]) * (np.diff(u) / h) ** 2 * h) / np.sum(w * u**2 * h)
print(f"\nRayleigh quotient of the constant test vector: {quotient:.6f} >= lambda_min")
