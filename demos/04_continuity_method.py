#!/usr/bin/env python3
"""The damped-Newton continuity method for the soliton Monge-Ampere equation.

We solve  log((a + phi''/2)/a) + phi' = s F  from s = 0 to s = 1 on the
cigar background.  The forcing is manufactured from a known potential
phi* = 0.3 (1 + e^{2t})^{-3/4}, so the solver's answer can be compared
against the exact discrete solution.  Along the path the solver records the
quantities that mirror the a priori estimates of the existence proof:
two-sided metric bounds, the drift-potential lower bound inf(f + phi') >= 1,
the uniform weighted sup of phi, and the radial-derivative bound.
"""

import numpy as np

import acylsoliton as ak

grid = (-12.0, 20.0, 0.01)
model = ak.cigar_model(2)

phi_star = ak.manufactured_potential(grid, amplitude=0.3)
forcing = ak.ma_residual_radial(model, phi_star, None, 0.0)
print(f"manufactured forcing: sup |F| = {np.max(np.abs(forcing.values)):.4f}, "
      f"decay rate {ak.decay_rate_fit(forcing):.3f}")

solution = ak.continuity_solve(model, forcing)

print("\n  s    Newton  residual    metric ratio     inf(f+phi')   e^{1.4t}|phi|")
for r in solution.records:
    print(f" {r.s:4.1f}   {r.newton_iterations:3d}   {r.sup_residual:9.2e}  "
          f"[{r.min_metric_ratio:.3f}, {r.max_metric_ratio:.3f}]  "
          f"{r.inf_drift_potential:.9f}   {r.weighted_sup_phi:.4f}")

err = np.max(np.abs(solution.phi.values - ak.decaying_gauge(phi_star).values))
print(f"\nrecovery: sup |phi - phi*| = {err:.3e}")
print(f"decay rate of phi: {solution.decay_rate:.4f} (the forcing rate transfers)")

# uniqueness: the s = 1 equation has one solution regardless of the start
bump = ak.GridFunction.sample(lambda t: 0.05 * np.exp(-0.5 * (t - 2.0) ** 2), *grid)
distance = ak.uniqueness_check(
    model, forcing,
    initializations=[phi_star.zeros_like(), phi_star.like(0.5 * phi_star.values), bump],
)
print(f"uniqueness: max pairwise distance over three starts = {distance:.3e}")

# the verification report bundles the path bounds with documented thresholds
report = ak.verify_solution(model, solution, forcing)
print("\nverification report:")
for line in report.summary_lines():
    print("  ", line)
