"""Command-line entry point.

Subcommands: spectrum, weights, solve-linear, solve-ma, glue, verify,
report.  Runs are configured by flags plus an optional key=value config
file; every run writes manifest.json (effective config, config hash, input
hashes, library versions, wall time) before any other output.  Exit codes:
0 success, 1 usage or configuration error, 2 continuation stall,
3 positivity loss, 4 verification failure.

All output formats are documented in docs/formats.md.  Result files
(CSV/JSON) are byte-deterministic for identical configs and inputs; the
manifest is not (it records wall time).  Each _cmd_* and _build_* function
imports the library functions it calls, so a process loads only the
modules of the command it runs.
"""

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, _lapack
from .errors import AcylSolitonError, ConfigError, ContinuityStalled, PositivityLost

OUTDIR_ENV = "ACYLSOLITON_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STALLED = 2
EXIT_POSITIVITY = 3
EXIT_VERIFICATION = 4


@dataclass
class RunConfig:
    """Effective configuration with defaults; unknown keys are rejected."""

    model_kind: str = "cigar"
    model_n: int = 2
    grid_t_min: float = -12.0
    grid_t_max: float = 20.0
    grid_h: float = 0.01
    solver_tol: float = 1e-10
    solver_s_steps: int = 10
    solver_max_newton: int = 30
    solver_min_step: float = 1.0 / 160.0
    glue_t0: float = 3.0
    glue_margin: float = 1e-2
    glue_degree: int = 7
    cross_section_circle: float = 2.0 * np.pi
    cross_section_lattice: str = "square"
    cross_section_lattice_rows: str = ""  # "a b; c d" overrides the preset
    cross_section_quotient: int = 1
    weights_mu_max: float = 10.0
    weights_window_lo: float = -1.0
    weights_window_hi: float = 3.0
    output_dir: str = "."
    seed: int = 0
    plot: bool = False

    # key -> (parse, valid); the field of key "a.b" is a_b
    KEYS = {
        "model.kind": (str, lambda v: v in ("cigar", "cylinder", "glued")),
        "model.n": (int, lambda v: v >= 1),
        "grid.t_min": (float, lambda v: True),
        "grid.t_max": (float, lambda v: True),
        "grid.h": (float, lambda v: v > 0),
        "solver.tol": (float, lambda v: v > 0),
        "solver.s_steps": (int, lambda v: v >= 1),
        "solver.max_newton": (int, lambda v: v >= 1),
        "solver.min_step": (float, lambda v: v > 0),
        "glue.t0": (float, lambda v: v > 1),
        "glue.margin": (float, lambda v: v > 0),
        "glue.degree": (int, lambda v: v >= 3 and v % 2 == 1),
        "cross_section.circle": (float, lambda v: v > 0),
        "cross_section.lattice": (str, lambda v: v in ("square", "hexagonal")),
        "cross_section.lattice_rows": (str, lambda v: True),
        "cross_section.quotient": (int, lambda v: v in (1, 2, 3)),
        "weights.mu_max": (float, lambda v: v > 0),
        "weights.window_lo": (float, lambda v: True),
        "weights.window_hi": (float, lambda v: True),
        "output.dir": (str, lambda v: True),
        "seed": (int, lambda v: v >= 0),
        "plot": (lambda s: s.lower() in ("1", "true", "yes"), lambda v: True),
    }

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def parse_config(text):
    """Parse key=value lines with # comments into a RunConfig."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in RunConfig.KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        try:
            parsed = RunConfig.KEYS[key][0](value)
        except ValueError:
            raise ConfigError(f"malformed value for {key!r}: {value!r}", line=lineno)
        _set_key(cfg, key, parsed, line=lineno)
    return cfg


def _validated(name, value, rule, line=None):
    """value, if it is finite (when a float) and satisfies rule; else ConfigError naming it."""
    finite = not isinstance(value, float) or np.isfinite(value)
    if not (finite and rule(value)):
        raise ConfigError(f"invalid value for {name!r}: {value!r}", line=line)
    return value


def _set_key(cfg, key, value, line=None):
    """Validate a parsed value of a config key and store it on cfg."""
    setattr(cfg, key.replace(".", "_"), _validated(key, value, RunConfig.KEYS[key][1], line))


def _build_model(cfg):
    from .models import cigar_model, cylinder_model

    if cfg.model_kind == "cigar":
        return cigar_model(cfg.model_n)
    if cfg.model_kind == "cylinder":
        return cylinder_model(cfg.model_n)
    from .gluing import GlueSpec, glued_model

    spec = GlueSpec(t0=cfg.glue_t0, smoothstep_degree=cfg.glue_degree, margin=cfg.glue_margin)
    return glued_model(cigar_model(cfg.model_n), spec)


def _build_cross_section(cfg):
    from .spectrum import (CrossSection, hexagonal_lattice, hexagonal_rotation_quotient,
                           negation_quotient, square_lattice)

    if cfg.cross_section_lattice_rows:
        try:
            rows = [
                [float(x) for x in row.split()]
                for row in cfg.cross_section_lattice_rows.split(";")
            ]
            lattice = np.array(rows, dtype=float)
        except ValueError:
            raise ConfigError("cross_section.lattice_rows must be numeric rows 'a b; c d'")
    elif cfg.cross_section_lattice == "square":
        lattice = square_lattice()
    else:
        lattice = hexagonal_lattice()
    quotient = None
    if cfg.cross_section_quotient == 2:
        quotient = negation_quotient()
    elif cfg.cross_section_quotient == 3:
        if cfg.cross_section_lattice != "hexagonal":
            raise ConfigError("order-3 quotients need the hexagonal lattice")
        quotient = hexagonal_rotation_quotient()
    return CrossSection(
        circle_length=cfg.cross_section_circle, lattice=lattice, quotient=quotient
    )


def _grid(cfg):
    return cfg.grid_t_min, cfg.grid_t_max, cfg.grid_h


class Run:
    """Output directory, manifest bookkeeping, deterministic writers."""

    def __init__(self, subcommand, cfg, input_paths=()):
        self.subcommand = subcommand
        self.cfg = cfg
        outdir = os.environ.get(OUTDIR_ENV, cfg.output_dir)
        self.outdir = outdir
        os.makedirs(outdir, exist_ok=True)
        self.start = time.monotonic()
        self.notes = {}
        self.inputs = {}
        for path in input_paths:
            with open(path, "rb") as fh:
                self.inputs[path] = hashlib.sha256(fh.read()).hexdigest()
        self._write_manifest(initial=True)

    def path(self, name):
        return os.path.join(self.outdir, name)

    def _write_manifest(self, initial=False):
        config = self.cfg.as_dict()
        payload = {
            "subcommand": self.subcommand,
            "config": config,
            "config_hash": hashlib.sha256(
                json.dumps(config, sort_keys=True).encode()
            ).hexdigest(),
            "inputs": self.inputs,
            "versions": {
                "acylsoliton": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(x) for x in sys.version_info[:3]),
            },
            "notes": self.notes,
            "wall_time_s": None if initial else round(time.monotonic() - self.start, 6),
        }
        # LAPACK from SciPy's build computed the numbers; record the version
        # without importing SciPy, and only when the run loaded the extension
        if not initial and _lapack.NAME in sys.modules:
            payload["versions"]["scipy"] = _lapack.scipy_version()
        with open(self.path("manifest.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def write_json(self, name, payload):
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def write_svg(self, name, t, values, log_scale=False):
        vals = np.abs(values) if log_scale else np.asarray(values)
        y = np.log10(np.maximum(vals, 1e-300)) if log_scale else vals
        width, height, pad = 640, 360, 40
        x0, x1 = float(t[0]), float(t[-1])
        y0, y1 = float(np.min(y)), float(np.max(y))
        if y1 - y0 < 1e-300:
            y1 = y0 + 1.0
        xs = pad + (np.asarray(t) - x0) / (x1 - x0) * (width - 2 * pad)
        ys = height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)
        points = " ".join(f"{x:.2f},{yy:.2f}" for x, yy in zip(xs, ys))
        with open(self.path(name), "w") as fh:
            fh.write(
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
                f'<rect width="{width}" height="{height}" fill="white"/>\n'
                f'<polyline points="{points}" fill="none" stroke="black" stroke-width="1"/>\n'
                "</svg>\n"
            )

    def finish(self):
        self._write_manifest(initial=False)


def _cmd_spectrum(cfg, run):
    from .spectrum import invariant_spectrum, spectrum, spectrum_to_csv

    cs = _build_cross_section(cfg)
    full = spectrum(cs, cfg.weights_mu_max)
    spectrum_to_csv(full, run.path("spectrum.csv"))
    if cs.quotient is not None:
        spectrum_to_csv(invariant_spectrum(cs, cfg.weights_mu_max),
                        run.path("invariant_spectrum.csv"))
    run.notes["modes"] = sum(m for _, m in full)
    return EXIT_OK


def _cmd_weights(cfg, run):
    from .spectrum import invariant_spectrum
    from .weights import critical_weights, fredholm_window_check, weights_to_csv

    cs = _build_cross_section(cfg)
    mus = invariant_spectrum(cs, cfg.weights_mu_max)
    window = (cfg.weights_window_lo, cfg.weights_window_hi)
    cws = critical_weights(mus, window)
    weights_to_csv(cws, run.path("weights.csv"))
    search = critical_weights(mus, (-1.0, 3.0))
    ok, margin = fredholm_window_check(search, (0.0, 2.0))
    run.notes["fredholm_interval"] = [0.0, 2.0]
    run.notes["fredholm_clear"] = ok
    run.notes["margin"] = margin
    return EXIT_OK


def _cmd_solve_linear(cfg, run, rhs_path, mu, order_study=False):
    from .drift import ModeProblem, mode_interior_residual, solve_mode
    from .grids import GridFunction
    from .norms import decay_rate_fit

    model = _build_model(cfg)
    rhs = GridFunction.from_csv(rhs_path)
    if order_study and (len(rhs.values) - 1) % 4 != 0:
        raise ConfigError("order study needs a node count of the form 4k + 1")
    problem = ModeProblem(model=model, mu=mu, rhs=rhs)
    solution = solve_mode(problem)
    solution.to_csv(run.path("solution.csv"))
    diagnostics = {
        "mu": mu,
        "interior_residual": mode_interior_residual(problem, solution.values),
        "decay_rate": decay_rate_fit(solution),
        "rhs_decay_rate": decay_rate_fit(rhs),
        "sup_norm": float(np.max(np.abs(solution.values))),
    }
    if order_study:
        # Richardson order from coarsened solves at 4h, 2h, h (subsampled rhs,
        # differences compared on the common 4h nodes)
        levels = {}
        for factor in (1, 2, 4):
            sub = GridFunction(rhs.t_min, rhs.t_max, rhs.h * factor, rhs.values[::factor])
            levels[factor] = solve_mode(ModeProblem(model=model, mu=mu, rhs=sub))
        d_coarse = float(np.max(np.abs(levels[4].values - levels[2].values[::2])))
        d_fine = float(np.max(np.abs(levels[2].values - levels[1].values[::2])))
        diagnostics["convergence_order"] = float(np.log2(d_coarse / d_fine))
    run.write_json("diagnostics.json", diagnostics)
    if cfg.plot:
        run.write_svg("solution.svg", solution.t, solution.values, log_scale=True)
    return EXIT_OK


def _cmd_solve_ma(cfg, run, rhs_path):
    from .continuity import (ContinuityConfig, continuity_solve, manufactured_potential,
                             ma_residual_radial)
    from .grids import GridFunction

    model = _build_model(cfg)
    if rhs_path == "manufactured":
        forcing = ma_residual_radial(
            model, manufactured_potential(_grid(cfg)), None, 0.0
        )
    else:
        forcing = GridFunction.from_csv(rhs_path)
    solver_cfg = ContinuityConfig(
        s_steps=cfg.solver_s_steps,
        newton_tol=cfg.solver_tol,
        max_newton=cfg.solver_max_newton,
        min_step=cfg.solver_min_step,
    )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solution = continuity_solve(model, forcing, solver_cfg)
    except ContinuityStalled as exc:
        run.write_json(
            "path.json",
            {
                "converged": False,
                "s_reached": exc.s_reached,
                "steps": [r.as_dict() for r in exc.records],
            },
        )
        return EXIT_STALLED
    except PositivityLost as exc:
        run.write_json(
            "path.json",
            {"converged": False, "error": str(exc), "steps": []},
        )
        return EXIT_POSITIVITY
    solution.phi.to_csv(run.path("phi.csv"))
    run.write_json("path.json", solution.path_dict())
    if cfg.plot:
        run.write_svg("phi.svg", solution.phi.t, solution.phi.values, log_scale=True)
    return EXIT_OK


def _cmd_glue(cfg, run):
    from .gluing import GlueSpec, glue_coefficient, glued_model
    from .models import cigar_model, model_to_text

    inner = cigar_model(cfg.model_n)
    spec = GlueSpec(t0=cfg.glue_t0, smoothstep_degree=cfg.glue_degree, margin=cfg.glue_margin)
    model = glued_model(inner, spec)
    with open(run.path("model.txt"), "w") as fh:
        fh.write(model_to_text(model))
    coefficient = glue_coefficient((0.0, spec.grid_end, spec.h), spec, inner,
                                   rho0=model.glue_params["rho0"])
    coefficient.to_csv(run.path("coefficient.csv"))
    run.notes["rho0"] = model.glue_params["rho0"]
    run.notes["min_coefficient"] = float(np.min(coefficient.values))
    return EXIT_OK


def _cmd_verify(cfg, run, decay_paths):
    from .diagnostics import REFERENCE_LAMBDA0, poincare_rayleigh
    from .grids import GridFunction
    from .norms import TAIL_WINDOW, decay_rate_fit

    failures = 0
    if decay_paths:
        rows = []
        for path in decay_paths:
            u = GridFunction.from_csv(path)
            lo, hi = (u.t_min + frac * (u.t_max - u.t_min) for frac in TAIL_WINDOW)
            rows.append((os.path.basename(path), decay_rate_fit(u), lo, hi))
        with open(run.path("decay.csv"), "w", newline="") as fh:
            fh.write("quantity,epsilon_hat,window\n")
            for name, rate, lo, hi in rows:
                fh.write(f"{name},{rate:.17g},[{lo:.6g};{hi:.6g}]\n")
    model = _build_model(cfg)
    lam = poincare_rayleigh(model, _grid(cfg))
    run.write_json(
        "poincare.json",
        {
            "lambda_min": lam,
            "reference_lambda0": REFERENCE_LAMBDA0,
            "model": cfg.model_kind,
        },
    )
    if lam <= 0:
        failures += 1
    return EXIT_VERIFICATION if failures else EXIT_OK


def _cmd_report(cfg, run):
    """End-to-end verification: exact solitons, Fredholm window, manufactured solve."""
    from .continuity import continuity_solve, manufactured_potential, ma_residual_radial
    from .diagnostics import verify_solution
    from .grids import GridFunction, uniform_nodes
    from .models import cigar_model, soliton_residual
    from .spectrum import invariant_spectrum
    from .weights import critical_weights, fredholm_window_check

    model = cigar_model(cfg.model_n)
    grid = _grid(cfg)
    t = uniform_nodes(*grid)
    zero = GridFunction(grid[0], grid[1], grid[2], np.zeros(len(t)))
    exact = float(np.max(np.abs(soliton_residual(model, zero).values)))

    cs = _build_cross_section(cfg)
    cws = critical_weights(invariant_spectrum(cs, cfg.weights_mu_max), (-1.0, 3.0))
    fredholm_ok, margin = fredholm_window_check(cws, (0.0, 2.0))

    forcing = ma_residual_radial(model, manufactured_potential(grid), None, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solution = continuity_solve(model, forcing)
    report = verify_solution(model, solution, forcing, metadata={"seed": cfg.seed})
    payload = report.as_dict()
    payload["exact_soliton_residual"] = exact
    payload["fredholm_window_clear"] = fredholm_ok
    payload["fredholm_margin"] = margin
    run.write_json("report.json", payload)
    ok = report.passed and exact < 1e-12 and fredholm_ok
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="output directory (overrides config)")
    common.add_argument("--plot", action="store_true", default=argparse.SUPPRESS,
                        help="emit SVG plots")

    parser = argparse.ArgumentParser(
        prog="acylsoliton",
        description="Steady Kahler-Ricci solitons on asymptotically cylindrical models",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("spectrum", help="cross-section Laplace spectrum", parents=[common])

    p_weights = sub.add_parser("weights", help="critical weights of the drift operator",
                               parents=[common])
    p_weights.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"))

    p_lin = sub.add_parser("solve-linear", help="linear drift solve for one mode",
                           parents=[common])
    p_lin.add_argument("--model", choices=["cigar", "cylinder", "glued"])
    p_lin.add_argument("--mu", type=float, default=0.0)
    p_lin.add_argument("--rhs", required=True, help="right-hand side CSV")
    p_lin.add_argument("--order-study", action="store_true",
                       help="estimate the convergence order by Richardson coarsening")

    p_ma = sub.add_parser("solve-ma", help="Monge-Ampere continuity solve", parents=[common])
    p_ma.add_argument("--model", choices=["cigar", "cylinder", "glued"])
    p_ma.add_argument("--n", type=int)
    p_ma.add_argument("--rhs", required=True, help="forcing CSV, or 'manufactured'")

    p_glue = sub.add_parser("glue", help="build a glued ACyl background model",
                            parents=[common])
    p_glue.add_argument("--inner", choices=["cigar"], default="cigar")
    p_glue.add_argument("--t0", type=float)
    p_glue.add_argument("--margin", type=float)

    p_verify = sub.add_parser("verify", help="decay and Poincare verification",
                              parents=[common])
    p_verify.add_argument("--decay", nargs="*", default=None, help="CSV fields to fit")
    p_verify.add_argument("--model", choices=["cigar", "cylinder", "glued"])

    sub.add_parser("report", help="end-to-end verification report", parents=[common])
    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = getattr(args, "config", None)
        if config_path:
            with open(config_path) as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = RunConfig()
        if getattr(args, "output", None):
            cfg.output_dir = args.output
        if getattr(args, "plot", False):
            cfg.plot = True
        model_flag = getattr(args, "model", None)
        if model_flag:
            cfg.model_kind = model_flag
        for key, flag in (("model.n", "n"), ("glue.t0", "t0"), ("glue.margin", "margin")):
            if getattr(args, flag, None) is not None:
                _set_key(cfg, key, getattr(args, flag))
        if getattr(args, "mu", None) is not None:  # solve-linear's mode, not a config key
            _validated("--mu", args.mu, lambda v: v >= 0)
        if getattr(args, "window", None):
            _set_key(cfg, "weights.window_lo", args.window[0])
            _set_key(cfg, "weights.window_hi", args.window[1])

        input_paths = list(getattr(args, "decay", None) or [])
        rhs = getattr(args, "rhs", None)
        if rhs and rhs != "manufactured":
            input_paths.append(rhs)
        runner = Run(args.subcommand, cfg, input_paths)
        if args.subcommand == "spectrum":
            code = _cmd_spectrum(cfg, runner)
        elif args.subcommand == "weights":
            code = _cmd_weights(cfg, runner)
        elif args.subcommand == "solve-linear":
            code = _cmd_solve_linear(cfg, runner, args.rhs, args.mu,
                                     order_study=args.order_study)
        elif args.subcommand == "solve-ma":
            code = _cmd_solve_ma(cfg, runner, args.rhs)
        elif args.subcommand == "glue":
            code = _cmd_glue(cfg, runner)
        elif args.subcommand == "verify":
            code = _cmd_verify(cfg, runner, args.decay)
        elif args.subcommand == "report":
            code = _cmd_report(cfg, runner)
        else:  # pragma: no cover
            return EXIT_USAGE
        runner.finish()
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PositivityLost as exc:
        print(f"positivity lost: {exc}", file=sys.stderr)
        return EXIT_POSITIVITY
    except ContinuityStalled as exc:
        print(f"continuation stalled: {exc}", file=sys.stderr)
        return EXIT_STALLED
    except AcylSolitonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":
    main()
