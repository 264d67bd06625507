"""Command-line entry point.

Subcommands: spectrum, weights, solve-linear, solve-ma, glue, verify,
report.  Runs are configured by flags plus an optional key=value config
file; every run writes manifest.json (effective config, config hash, input
hashes, library versions) before any other output, and again with its wall
time and exit code on every exit.  Exit codes: 0 success, 1 usage or
configuration error, 2 continuation stall, 3 positivity loss,
4 verification failure.

All output formats are documented in docs/formats.md.  Result files
(CSV/JSON) are byte-deterministic for identical configs and inputs; the
manifest is not (it records wall time).  Each config key is declared once
in KEYS and each command's flags once in COMMANDS; a flag whose dest is a
config key sets that key.  Each _cmd_* and _build_* function imports the
library functions it calls, so a process loads only the modules of the
command it runs.  It loads neither SciPy (the solves take LAPACK from the
OpenBLAS numpy has loaded) nor OpenSSL (the manifest and report digests
take CPython's built-in SHA-256); _lapack makes both choices.
"""

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, make_dataclass

import numpy as np

from . import __version__, _lapack
from .errors import AcylSolitonError, ConfigError, ContinuityStalled, PositivityLost

OUTDIR_ENV = "ACYLSOLITON_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STALLED = 2
EXIT_POSITIVITY = 3
EXIT_VERIFICATION = 4

MODELS = ("cigar", "cylinder", "glued")


def _lattice_rows(text):
    """The finite rows "a b; c d" of a square matrix as an array; else ValueError."""
    lattice = np.array([[float(x) for x in row.split()] for row in text.split(";")])
    if lattice.ndim != 2 or lattice.shape[0] != lattice.shape[1]:
        raise ValueError(f"not the rows of a square matrix: {text!r}")
    if not np.isfinite(lattice).all():
        raise ValueError(f"non-finite lattice entry: {text!r}")
    return lattice


def _rows_text(text):
    """text itself, if empty (the lattice preset applies) or rows _lattice_rows reads."""
    if text:
        _lattice_rows(text)
    return text


# key -> (default, parse, valid); the RunConfig field of key "a.b" is a_b
KEYS = {
    "model.kind": ("cigar", str, lambda v: v in MODELS),
    "model.n": (2, int, lambda v: v >= 1),
    "grid.t_min": (-12.0, float, lambda v: True),
    "grid.t_max": (20.0, float, lambda v: True),
    "grid.h": (0.01, float, lambda v: v > 0),
    "solver.tol": (1e-10, float, lambda v: v > 0),
    "solver.s_steps": (10, int, lambda v: v >= 1),
    "solver.max_newton": (30, int, lambda v: v >= 1),
    "solver.min_step": (1.0 / 160.0, float, lambda v: v > 0),
    "glue.t0": (3.0, float, lambda v: v > 1),
    "glue.margin": (1e-2, float, lambda v: v > 0),
    "glue.degree": (7, int, lambda v: v >= 3 and v % 2 == 1),
    "cross_section.circle": (2.0 * np.pi, float, lambda v: v > 0),
    "cross_section.lattice": ("square", str, lambda v: v in ("square", "hexagonal")),
    "cross_section.lattice_rows": ("", _rows_text, lambda v: True),  # overrides the preset
    "cross_section.quotient": (1, int, lambda v: v in (1, 2, 3)),
    "weights.mu_max": (10.0, float, lambda v: v > 0),
    "weights.window_lo": (-1.0, float, lambda v: True),
    "weights.window_hi": (3.0, float, lambda v: True),
    "output.dir": (".", str, lambda v: True),
    "seed": (0, int, lambda v: v >= 0),
    # index raises ValueError on a word outside the six
    "plot": (False, lambda s: ("0", "false", "no", "1", "true", "yes").index(s.lower()) >= 3,
             lambda v: True),
}

RunConfig = make_dataclass(
    "RunConfig",
    [(key.replace(".", "_"), type(default), default) for key, (default, _, _) in KEYS.items()],
    namespace={"__doc__": "Effective configuration with the defaults of KEYS."},
)


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
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        try:
            parsed = KEYS[key][1](value)
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
    setattr(cfg, key.replace(".", "_"), _validated(key, value, KEYS[key][2], line))


def _glue_spec(cfg):
    from .gluing import GlueSpec

    return GlueSpec(t0=cfg.glue_t0, smoothstep_degree=cfg.glue_degree, margin=cfg.glue_margin)


def _build_model(cfg):
    from .models import cigar_model, cylinder_model

    if cfg.model_kind == "cigar":
        return cigar_model(cfg.model_n)
    if cfg.model_kind == "cylinder":
        return cylinder_model(cfg.model_n)
    from .gluing import glued_model

    return glued_model(cigar_model(cfg.model_n), _glue_spec(cfg))


def _build_cross_section(cfg):
    from .spectrum import (CrossSection, hexagonal_lattice, hexagonal_rotation_quotient,
                           negation_quotient, square_lattice)

    if cfg.cross_section_lattice_rows:  # checked when the key was set
        lattice = _lattice_rows(cfg.cross_section_lattice_rows)
    elif cfg.cross_section_lattice == "square":
        lattice = square_lattice()
    else:
        lattice = hexagonal_lattice()
    quotient = None
    if cfg.cross_section_quotient == 2:
        quotient = negation_quotient(len(lattice))
    elif cfg.cross_section_quotient == 3:  # CrossSection checks it is an isometry
        quotient = hexagonal_rotation_quotient()
    return CrossSection(
        circle_length=cfg.cross_section_circle, lattice=lattice, quotient=quotient
    )


def _grid(cfg):
    return cfg.grid_t_min, cfg.grid_t_max, cfg.grid_h


def _manufactured_forcing(cfg, model):
    from .continuity import ma_residual_radial, manufactured_potential

    return ma_residual_radial(model, manufactured_potential(_grid(cfg)), None, 0.0)


def _continuity_solve(cfg, model, forcing, run):
    """The continuity solve with the solver.* keys; the messages of the warnings
    it raises (the forcing-decay warning) go into the manifest's notes.  A
    stall writes the steps taken to path.json and propagates."""
    from .continuity import ContinuityConfig, continuity_solve, path_payload

    solver = ContinuityConfig(s_steps=cfg.solver_s_steps, newton_tol=cfg.solver_tol,
                              max_newton=cfg.solver_max_newton, min_step=cfg.solver_min_step)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return continuity_solve(model, forcing, solver)
        except ContinuityStalled as exc:
            run.write_json("path.json", path_payload(exc.records, converged=False,
                                                     s_reached=exc.s_reached))
            raise
        finally:
            run.notes["warnings"] = [str(w.message) for w in caught]


def _fredholm_check(mus):
    """(clear, margin) of the Fredholm interval (0, 2) among the weights in (-1, 3)."""
    from .weights import critical_weights, fredholm_window_check

    return fredholm_window_check(critical_weights(mus, (-1.0, 3.0)), (0.0, 2.0))


class Run:
    """Output directory, manifest bookkeeping, deterministic writers."""

    def __init__(self, subcommand, cfg, input_paths=()):
        self.subcommand = subcommand
        self.cfg = cfg
        self.outdir = cfg.output_dir
        os.makedirs(self.outdir, exist_ok=True)
        self.start = time.monotonic()
        self.notes = {}
        self.error = None  # the manifest's error line of a run that fails its checks
        self.inputs = {}
        for path in input_paths:
            with open(path, "rb") as fh:
                self.inputs[path] = _lapack.sha256_hex(fh.read())
        self.write_manifest()

    def path(self, name):
        return os.path.join(self.outdir, name)

    def write_manifest(self, exit_code=None, error=None):
        """The manifest; given exit_code, the final one, with the wall time and LAPACK,
        and the failure line printed on stderr, if any."""
        config = asdict(self.cfg)
        payload = {
            "subcommand": self.subcommand,
            "config": config,
            "config_hash": _lapack.sha256_hex(json.dumps(config, sort_keys=True).encode()),
            "inputs": self.inputs,
            "versions": {
                "acylsoliton": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(x) for x in sys.version_info[:3]),
            },
            "notes": self.notes,
            "wall_time_s": None,
        }
        if exit_code is not None:
            payload.update(wall_time_s=round(time.monotonic() - self.start, 6), exit_code=exit_code)
            lapack = _lapack.chosen()
            if lapack is not None:
                payload["versions"]["lapack"] = lapack.name
            if error is not None:
                payload["error"] = error
        self.write_json("manifest.json", payload)

    def write_json(self, name, payload):
        """payload as strict JSON; the round trip spells non-finite floats "inf", "-inf", "nan"."""
        payload = json.loads(json.dumps(payload), parse_constant=lambda token: str(float(token)))
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")

    def write_svg(self, name, t, values):
        """Polyline of log10 |values| against t."""
        y = np.log10(np.maximum(np.abs(values), 1e-300))
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


def _cmd_spectrum(cfg, run, args):
    from .spectrum import spectra, spectrum_to_csv

    cs = _build_cross_section(cfg)
    full, invariant = spectra(cs, cfg.weights_mu_max)
    spectrum_to_csv(full, run.path("spectrum.csv"))
    if cs.quotient is not None:
        spectrum_to_csv(invariant, run.path("invariant_spectrum.csv"))
    run.notes["modes"] = sum(m for _, m in full)
    return EXIT_OK


def _cmd_weights(cfg, run, args):
    from .spectrum import invariant_spectrum
    from .weights import critical_weights, weights_to_csv

    mus = invariant_spectrum(_build_cross_section(cfg), cfg.weights_mu_max)
    cws = critical_weights(mus, (cfg.weights_window_lo, cfg.weights_window_hi))
    weights_to_csv(cws, run.path("weights.csv"))
    ok, margin = _fredholm_check(mus)
    run.notes["fredholm_interval"] = [0.0, 2.0]
    run.notes["fredholm_clear"] = ok
    run.notes["margin"] = margin
    return EXIT_OK


def _cmd_solve_linear(cfg, run, args):
    from .drift import ModeProblem, mode_interior_residual, solve_mode
    from .grids import GridFunction
    from .norms import decay_rate_fit

    model, mu = _build_model(cfg), args.mu
    rhs = GridFunction.from_csv(args.rhs)
    if args.order_study and (len(rhs.values) - 1) % 4 != 0:
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
    if args.order_study:
        # Richardson order from coarsened solves at 4h, 2h, h (subsampled rhs,
        # differences compared on the common 4h nodes; the h level is solution)
        levels = {1: solution}
        for factor in (2, 4):
            sub = GridFunction(rhs.t_min, rhs.t_max, rhs.h * factor, rhs.values[::factor])
            levels[factor] = solve_mode(ModeProblem(model=model, mu=mu, rhs=sub))
        d_coarse = float(np.max(np.abs(levels[4].values - levels[2].values[::2])))
        d_fine = float(np.max(np.abs(levels[2].values - levels[1].values[::2])))
        diagnostics["convergence_order"] = float(np.log2(d_coarse / d_fine))
    run.write_json("diagnostics.json", diagnostics)
    if cfg.plot:
        run.write_svg("solution.svg", solution.t, solution.values)
    return EXIT_OK


def _cmd_solve_ma(cfg, run, args):
    from .grids import GridFunction

    model = _build_model(cfg)
    if args.rhs == "manufactured":
        forcing = _manufactured_forcing(cfg, model)
    else:
        forcing = GridFunction.from_csv(args.rhs)
    solution = _continuity_solve(cfg, model, forcing, run)
    solution.phi.to_csv(run.path("phi.csv"))
    run.write_json("path.json", solution.path_dict())
    if cfg.plot:
        run.write_svg("phi.svg", solution.phi.t, solution.phi.values)
    return EXIT_OK


def _cmd_glue(cfg, run, args):
    from .gluing import glued_model
    from .grids import GridFunction
    from .models import cigar_model, model_to_text

    spec = _glue_spec(cfg)
    model = glued_model(cigar_model(cfg.model_n), spec)
    with open(run.path("model.txt"), "w") as fh:
        fh.write(model_to_text(model))
    coefficient = GridFunction.sample(model.a, *spec.grid)
    coefficient.to_csv(run.path("coefficient.csv"))
    run.notes["rho0"] = model.glue_params["rho0"]
    run.notes["min_coefficient"] = float(np.min(coefficient.values))
    return EXIT_OK


def _cmd_verify(cfg, run, args):
    from .diagnostics import REFERENCE_LAMBDA0, poincare_rayleigh
    from .grids import GridFunction
    from .norms import decay_rate_fit, tail_window

    if args.decay:
        rows = []
        for path in args.decay:
            u = GridFunction.from_csv(path)
            rows.append((os.path.basename(path), decay_rate_fit(u), *tail_window(u)))
        with open(run.path("decay.csv"), "w", newline="") as fh:
            fh.write("quantity,epsilon_hat,window\n")
            for name, rate, lo, hi in rows:
                fh.write(f"{name},{rate:.17g},[{lo:.6g};{hi:.6g}]\n")
    lam = poincare_rayleigh(_build_model(cfg), _grid(cfg))
    run.write_json("poincare.json", {"lambda_min": lam, "reference_lambda0": REFERENCE_LAMBDA0,
                                     "model": cfg.model_kind})
    return EXIT_VERIFICATION if lam <= 0 else EXIT_OK


def _cmd_report(cfg, run, args):
    """End-to-end verification: exact solitons, Fredholm window, manufactured solve."""
    from .diagnostics import verify_solution
    from .grids import GridFunction, uniform_nodes
    from .models import cigar_model, soliton_residual
    from .spectrum import invariant_spectrum

    if cfg.model_kind != "cigar":  # the exact-soliton and manufactured checks are the cigar's
        raise ConfigError(f"report runs on the cigar only, not model.kind = {cfg.model_kind!r}")
    model = cigar_model(cfg.model_n)
    grid = _grid(cfg)
    zero = GridFunction(*grid, np.zeros(len(uniform_nodes(*grid))))
    exact = float(np.max(np.abs(soliton_residual(model, zero).values)))
    fredholm_ok, margin = _fredholm_check(
        invariant_spectrum(_build_cross_section(cfg), cfg.weights_mu_max))
    forcing = _manufactured_forcing(cfg, model)
    solution = _continuity_solve(cfg, model, forcing, run)
    report = verify_solution(model, solution, forcing, metadata={"seed": cfg.seed})
    payload = report.as_dict()
    payload["exact_soliton_residual"] = exact
    payload["fredholm_window_clear"] = fredholm_ok
    payload["fredholm_margin"] = margin
    run.write_json("report.json", payload)
    failed = [line for line in report.summary_lines() if line.startswith("[FAIL]")]
    if failed:  # one line per failed check on stderr; the first is the manifest's error
        print(*failed, sep="\n", file=sys.stderr)
        run.error = failed[0]
    return EXIT_OK if not failed and exact < 1e-12 and fredholm_ok else EXIT_VERIFICATION


# flag -> argparse options; a dest that is a config key makes the flag set that key
MODEL_FLAG = ("--model", {"dest": "model.kind", "choices": MODELS})
PLOT_FLAG = ("--plot", {"action": "store_true", "help": "emit an SVG plot"})
COMMON_FLAGS = (
    ("--config", {"help": "key=value config file"}),
    ("--output", {"dest": "output.dir", "metavar": "OUTPUT",
                  "help": "output directory (overrides config)"}),
)
# command -> (help, flags); the command runs _cmd_<name with - as _>(cfg, run, args)
COMMANDS = {
    "spectrum": ("cross-section Laplace spectrum", ()),
    "weights": ("critical weights of the drift operator", (
        ("--window", {"nargs": 2, "type": float, "metavar": ("LO", "HI")}),
    )),
    "solve-linear": ("linear drift solve for one mode", (
        MODEL_FLAG,
        ("--mu", {"type": float, "default": 0.0}),
        ("--rhs", {"required": True, "help": "right-hand side CSV"}),
        ("--order-study", {"action": "store_true", "default": False,
                           "help": "estimate the convergence order by Richardson coarsening"}),
        PLOT_FLAG,
    )),
    "solve-ma": ("Monge-Ampere continuity solve", (
        MODEL_FLAG,
        ("--n", {"dest": "model.n", "type": int, "metavar": "N"}),
        ("--rhs", {"required": True, "help": "forcing CSV, or 'manufactured'"}),
        PLOT_FLAG,
    )),
    "glue": ("build a glued ACyl background model", (
        ("--inner", {"choices": ["cigar"], "default": "cigar",
                     "help": "inner model; cigar is the only one"}),
        ("--t0", {"dest": "glue.t0", "type": float, "metavar": "T0"}),
        ("--margin", {"dest": "glue.margin", "type": float, "metavar": "MARGIN"}),
    )),
    "verify": ("decay and Poincare verification", (
        ("--decay", {"nargs": "*", "default": None, "help": "CSV fields to fit"}),
        MODEL_FLAG,
    )),
    "report": ("end-to-end verification report", ()),
}

# the message prefix and exit code of a failure, first matching class wins
FAILURES = (
    (ConfigError, "config error", EXIT_USAGE),
    (FileNotFoundError, "missing input", EXIT_USAGE),
    (PositivityLost, "positivity lost", EXIT_POSITIVITY),
    (ContinuityStalled, "continuation stalled", EXIT_STALLED),
    ((AcylSolitonError, OSError, UnicodeDecodeError), "error", EXIT_USAGE),
)


def build_parser():
    # flags left out are absent from the namespace, so only given flags set keys
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for flag, options in COMMON_FLAGS:
        common.add_argument(flag, **options)
    parser = argparse.ArgumentParser(
        prog="acylsoliton",
        description="Steady Kahler-Ricci solitons on asymptotically cylindrical models",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text, parents=[common],
                                 argument_default=argparse.SUPPRESS)
        for flag, options in flags:
            command.add_argument(flag, **options)
    return parser


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the stall code
        return EXIT_USAGE if exc.code else EXIT_OK
    flags = vars(args)
    runner, code, error = None, EXIT_USAGE, None  # an uncaught exception also exits 1
    try:
        if flags.get("config"):
            with open(flags["config"]) as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = RunConfig()
        if OUTDIR_ENV in os.environ:  # set before the flags: --output > env > output.dir
            cfg.output_dir = os.environ[OUTDIR_ENV]
        for key, value in flags.items():
            if key in KEYS:
                _set_key(cfg, key, value)
        if "window" in flags:
            _set_key(cfg, "weights.window_lo", args.window[0])
            _set_key(cfg, "weights.window_hi", args.window[1])
        if "mu" in flags:  # solve-linear's mode, not a config key
            _validated("--mu", args.mu, lambda v: v >= 0)
        inputs = [path for path in [*(flags.get("decay") or []), flags.get("rhs")]
                  if path not in (None, "manufactured")]
        runner = Run(args.subcommand, cfg, inputs)
        code = globals()["_cmd_" + args.subcommand.replace("-", "_")](cfg, runner, args)
    except (AcylSolitonError, OSError, UnicodeDecodeError) as exc:
        prefix, code = next((prefix, code) for kind, prefix, code in FAILURES
                            if isinstance(exc, kind))
        error = f"{prefix}: {exc}"
        print(error, file=sys.stderr)
    finally:
        if runner is not None:  # every exit after the run starts finishes its manifest
            runner.write_manifest(code, error or runner.error)
    return code


def main():  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":
    main()
