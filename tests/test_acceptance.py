"""Acceptance suite: one criterion per test, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Each criterion asserts both its numerical tolerance and its runtime
budget.
"""

import filecmp
import os
import time

import numpy as np
import pytest

import acylsoliton as ak
from acylsoliton.cli import run as cli_run

GRID = (-12.0, 20.0, 0.01)
FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                       "F_manufactured_cigar.csv")


def _report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, detail


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start


@pytest.fixture(scope="module")
def manufactured_run():
    """Shared run for criteria 5, 6, 7: forcing, solution, wall time."""
    model = ak.cigar_model(2)
    phi_star = ak.manufactured_potential(GRID)
    forcing = ak.ma_residual_radial(model, phi_star, None, 0.0)
    with Timer() as timer:
        solution = ak.continuity_solve(model, forcing)
    return model, phi_star, forcing, solution, timer.elapsed


def test_criterion_01_cigar_soliton_identity():
    with Timer() as timer:
        worst = 0.0
        t = ak.uniform_nodes(*GRID)
        zero = ak.GridFunction(*GRID, np.zeros(len(t)))
        for n in (1, 2, 3):
            r = ak.soliton_residual(ak.cigar_model(n), zero)
            worst = max(worst, float(np.max(np.abs(r.values))))
    _report(
        "criterion 1 (cigar soliton identity)",
        worst <= 1e-12 and timer.elapsed < 1.0,
        f"sup residual {worst:.3e} <= 1e-12 over n=1,2,3 in {timer.elapsed:.2f}s",
    )


def test_criterion_02_critical_weight_window():
    with Timer() as timer:
        cases = []
        for circle in (np.pi, 2 * np.pi):
            cases.append(ak.CrossSection(circle, ak.square_lattice()))
            cases.append(ak.CrossSection(circle, ak.square_lattice(), ak.negation_quotient()))
            cases.append(ak.CrossSection(circle, ak.hexagonal_lattice()))
            cases.append(
                ak.CrossSection(circle, ak.hexagonal_lattice(), ak.negation_quotient())
            )
            cases.append(
                ak.CrossSection(circle, ak.hexagonal_lattice(), ak.hexagonal_rotation_quotient())
            )
        ok = True
        details = []
        for cs in cases:
            spec = ak.invariant_spectrum(cs, 10.0)
            inside = ak.critical_weights(spec, (0.0, 2.0))
            wide = ak.critical_weights(spec, (-1.0, 3.0))
            clear, margin = ak.fredholm_window_check(wide, (0.0, 2.0))
            eps = [w.epsilon for w in wide.weights]
            mu0 = [w for w in wide.weights if w.mu == 0.0]
            ok = ok and len(inside.weights) == 0 and clear and margin == 0.0
            ok = ok and 0.0 in eps and 2.0 in eps
            ok = ok and sorted(w.epsilon for w in mu0) == [0.0, 2.0]
            details.append(margin)
    _report(
        "criterion 2 (critical-weight window)",
        ok and timer.elapsed < 1.0,
        f"{len(cases)} cross-sections, (0,2) empty, weights 0 and 2 present, "
        f"margins {set(details)} in {timer.elapsed:.2f}s",
    )


def test_criterion_03_linear_solver_exactness():
    with Timer() as timer:
        model = ak.cylinder_model(1)
        worst = 0.0
        worst_order = np.inf
        for eps in (0.5, 1.0, 1.5):
            errs = []
            for h in (0.04, 0.02, 0.01):
                grid = (0.0, 20.0, h)
                rhs = ak.GridFunction.sample(lambda t: np.exp(-eps * t), *grid)
                exact = rhs.like(rhs.values / (eps**2 - 2 * eps))
                problem = ak.ModeProblem(
                    model=model, mu=0.0, rhs=rhs,
                    boundary=ak.BoundaryPolicy(inner=float(exact.values[0]),
                                               outer=float(exact.values[-1])),
                )
                u = ak.solve_mode(problem)
                errs.append(float(np.max(np.abs(u.values - exact.values))))
            worst = max(worst, errs[-1])
            orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
            worst_order = min(worst_order, min(orders))
    _report(
        "criterion 3 (linear solver exactness)",
        worst <= 5e-4 and worst_order >= 1.9 and timer.elapsed < 5.0,
        f"sup error {worst:.3e} <= 5e-4, order {worst_order:.3f} >= 1.9 in {timer.elapsed:.2f}s",
    )


def test_criterion_04_maximum_principle():
    with Timer() as timer:
        model = ak.cigar_model(1)
        t = ak.uniform_nodes(*GRID)
        rng = np.random.default_rng(0)
        worst = -np.inf
        for _ in range(20):
            vals = np.zeros(len(t))
            for c, width, amp in zip(
                rng.uniform(-5, 10, 3), rng.uniform(0.5, 2.0, 3), rng.uniform(0.1, 1.0, 3)
            ):
                vals += amp * np.exp(-0.5 * ((t - c) / width) ** 2)
            u = ak.solve_mode(ak.ModeProblem(model=model, mu=0.0, rhs=ak.GridFunction(*GRID, vals)))
            worst = max(worst, float(np.max(u.values)))
    _report(
        "criterion 4 (maximum principle)",
        worst <= 1e-12 and timer.elapsed < 10.0,
        f"worst positive excursion {worst:.3e} <= 1e-12 over 20 seeded RHS in {timer.elapsed:.2f}s",
    )


def test_criterion_05_manufactured_recovery(manufactured_run):
    model, phi_star, forcing, solution, elapsed = manufactured_run
    err = float(np.max(np.abs(solution.phi.values - ak.decaying_gauge(phi_star).values)))
    steps = len(solution.records)
    iterations = sum(r.newton_iterations for r in solution.records)
    no_halving = [r.s for r in solution.records] == pytest.approx(
        [k / 10 for k in range(1, 11)]
    )
    ok = (
        err <= 1e-6
        and steps <= 10
        and no_halving
        and iterations <= 60
        and 1.4 <= solution.decay_rate <= 1.6
        and elapsed < 30.0
    )
    _report(
        "criterion 5 (manufactured Monge-Ampere recovery)",
        ok,
        f"sup|phi - phi*| {err:.3e} <= 1e-6, {steps} steps, {iterations} Newton its, "
        f"decay {solution.decay_rate:.3f} in {elapsed:.2f}s",
    )


def test_criterion_06_uniqueness(manufactured_run):
    model, phi_star, forcing, _, _ = manufactured_run
    with Timer() as timer:
        zero = phi_star.zeros_like()
        half = phi_star.like(0.5 * phi_star.values)
        bump = ak.GridFunction.sample(lambda t: 0.05 * np.exp(-0.5 * (t - 2.0) ** 2), *GRID)
        distance = ak.uniqueness_check(model, forcing, initializations=[zero, half, bump])
    _report(
        "criterion 6 (uniqueness)",
        distance <= 1e-8 and timer.elapsed < 60.0,
        f"max pairwise distance {distance:.3e} <= 1e-8 in {timer.elapsed:.2f}s",
    )


def test_criterion_07_path_bounds(manufactured_run):
    _, _, _, solution, _ = manufactured_run
    min_ratio = min(r.min_metric_ratio for r in solution.records)
    max_ratio = max(r.max_metric_ratio for r in solution.records)
    inf_potential = min(r.inf_drift_potential for r in solution.records)
    weighted = [r.weighted_sup_phi for r in solution.records]
    ok = (
        min_ratio >= 0.5
        and max_ratio <= 2.0
        and inf_potential >= 1.0 - 1e-8
        and np.isfinite(max(weighted))
        and max(weighted) <= 10.0 * weighted[-1]
    )
    _report(
        "criterion 7 (path bounds)",
        ok,
        f"metric ratio [{min_ratio:.3f}, {max_ratio:.3f}] in [0.5, 2.0], "
        f"inf(f + phi') {inf_potential:.12f} >= 1 - 1e-8, "
        f"weighted path max/final {max(weighted)/weighted[-1]:.3f} <= 10",
    )


def test_criterion_08_gluing_pipeline():
    with Timer() as timer:
        inner = ak.cigar_model(2)
        spec = ak.GlueSpec(t0=3.0)
        model = ak.glued_model(inner, spec)
        t = ak.uniform_nodes(*GRID)
        coeff = model.sample_a(t)
        outer_exact = bool(np.all(coeff[t >= 3.5] == 1.0))
        # positivity margin on the gluing grid (the inner cigar coefficient
        # decays like e^{2t} below it, by design)
        glue_nodes = ak.uniform_nodes(*spec.grid)
        min_c = float(np.min(model.sample_a(glue_nodes)))
        forcing = ak.glued_forcing(model, GRID)
        compact = float(np.max(np.abs(forcing.values[t >= 3.5]))) == 0.0
        solution = ak.continuity_solve(model, forcing)
        residual = float(np.max(np.abs(ak.soliton_residual(model, solution.phi).values)))
    ok = outer_exact and min_c >= 1e-2 and compact and residual <= 1e-8 and timer.elapsed < 60.0
    _report(
        "criterion 8 (gluing pipeline)",
        ok,
        f"c=1 beyond t0+1/2 exactly: {outer_exact}, min c {min_c:.3f} >= 1e-2, "
        f"F compactly supported: {compact}, global soliton residual {residual:.3e} <= 1e-8 "
        f"in {timer.elapsed:.2f}s",
    )


def test_criterion_09_poincare_positivity():
    with Timer() as timer:
        results = {}
        for name, model, t_min in (
            ("cylinder", ak.cylinder_model(1), 0.0),
            ("cigar", ak.cigar_model(2), -12.0),
        ):
            lam = ak.poincare_rayleigh(model, (t_min, 20.0, 0.01))
            lam_domain = ak.poincare_rayleigh(model, (t_min, 30.0, 0.01))
            lam_fine = ak.poincare_rayleigh(model, (t_min, 20.0, 0.005))
            results[name] = (
                lam,
                abs(lam_domain - lam) / lam,
                abs(lam_fine - lam) / lam,
            )
        ok = all(
            lam > 0 and domain_shift <= 0.05 and grid_shift <= 0.02
            for lam, domain_shift, grid_shift in results.values()
        )
    _report(
        "criterion 9 (Poincare positivity)",
        ok and timer.elapsed < 30.0,
        "; ".join(
            f"{name}: lambda {v[0]:.4f}, domain shift {v[1]:.2e} <= 5e-2, "
            f"grid shift {v[2]:.2e} <= 2e-2"
            for name, v in results.items()
        )
        + f" in {timer.elapsed:.2f}s",
    )


def test_criterion_10_jacobian_consistency():
    """Finite differences of the Newton residual match the Jacobian rows the
    solver inverts, boundary row included, on the cigar (Neumann row) and the
    cylinder (Dirichlet row), over the same 10 seeded pairs each; scaled by
    2 a_phi, relative to 1/h^2, also along constant increments, which reach
    the cigar's inner rows (conftest.jacobian_gaps)."""
    from conftest import jacobian_gaps

    with Timer() as timer:
        gaps = {name: jacobian_gaps(model, grid, np.random.default_rng(7))
                for name, model, grid in (("cigar", ak.cigar_model(2), GRID),
                                          ("cylinder", ak.cylinder_model(2), (0.0, 20.0, 0.01)))}
    worst = max(max(interior, boundary) for interior, boundary, _ in gaps.values())
    worst_scaled = max(scaled for _, _, scaled in gaps.values())
    _report(
        "criterion 10 (Jacobian consistency)",
        worst <= 1e-4 and worst_scaled <= 1e-10 and timer.elapsed < 5.0,
        "; ".join(f"{name}: worst FD-vs-Jacobian gap {interior:.3e} (interior rows), "
                  f"{boundary:.3e} (boundary row), {scaled:.3e} (scaled rows)"
                  for name, (interior, boundary, scaled) in gaps.items())
        + f" <= 1e-4 (scaled <= 1e-10) over 10 seeded pairs in {timer.elapsed:.2f}s",
    )


def _run_pipeline(outdir):
    rhs_path = os.path.join(outdir, "field.csv")
    os.makedirs(outdir, exist_ok=True)
    u = ak.GridFunction.sample(
        lambda t: np.exp(-1.5 * t) * np.clip(t / 2, 0, 1) ** 4, -12.0, 20.0, 0.01
    )
    u.to_csv(rhs_path)
    commands = [
        ["spectrum"],
        ["weights", "--window", "0", "2"],
        ["solve-linear", "--model", "cigar", "--mu", "0", "--rhs", rhs_path],
        ["solve-ma", "--model", "cigar", "--n", "2", "--rhs", FIXTURE],
        ["glue", "--inner", "cigar", "--t0", "3", "--margin", "0.01"],
        ["verify", "--model", "cigar", "--decay", rhs_path],
        ["report"],
    ]
    for command in commands:
        code = cli_run(command + ["--output", outdir])
        assert code == 0, command


def test_criterion_11_determinism(tmp_path):
    dir_a = str(tmp_path / "run_a")
    dir_b = str(tmp_path / "run_b")
    _run_pipeline(dir_a)
    _run_pipeline(dir_b)
    mismatched = []
    for name in sorted(os.listdir(dir_a)):
        if name == "manifest.json":  # records wall time, exempt by design
            continue
        if not filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False):
            mismatched.append(name)
    _report(
        "criterion 11 (determinism)",
        not mismatched,
        f"byte-identical CSV/JSON outputs across two runs "
        f"({len(os.listdir(dir_a)) - 1} files compared, mismatches: {mismatched or 'none'})",
    )
