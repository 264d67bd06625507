"""Benchmark of the acylsoliton package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload {cli_pipeline,solve_ladder,spectrum_sweep}
                         --seed N --seconds S --trace {0,1} [--smoke]

The package is imported from ./src.  Each run first times set-up in fresh
child interpreters (setup_s, median of several), builds the seeded inputs,
then repeats whole workload iterations for --seconds and checks every
output.  With --trace 0 the last stdout line carries the end-to-end metrics
(setup_s, iter_s, iter_s_tail, peak_rss_mb).  Their times are read on work
clocks (workloads.WorkClock): each set-up probe and each operation is
followed, for as long again, by a reference kernel of the same kind of work
that calls nothing of the package, and counts at the kernel's measured rate
relative to its fixed nominal rate, so that the shared host's changes of
speed cancel; the raw wall times go to the record.  With --trace 1 half of
the time runs untraced and half traced, both on plain wall time, and the
last line carries the per-layer metrics: span self times and counts per
iteration, import times from `python -X importtime`, the workload-specific
end-to-end figures (report_s, nodes_per_s, rung_s.*, fail_ratio) and
trace.overhead_s, the traced minus the untraced median iteration time.  On cli_pipeline the
traced pass runs the commands in process through acylsoliton.cli.run, so
its overhead also drops interpreter start and import.  --smoke runs one
iteration of each kind and prints both metric sets.

The line before the last, `bench-record {...}`, holds the environment, the
source size, iteration samples, failures with their context and SHA-256
digests of the deterministic outputs; it is also written with the spans to
bench/out/<workload>-seed<N>-trace<T>/.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"
os.environ.pop("ACYLSOLITON_OUTDIR", None)  # would override the CLI --output

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
SETUP_PROBES = 5
IMPORT_PROBES = 3
HARD_LIMIT_S = 130.0  # stop starting iterations after this, to exit well within 180 s
IMPORTED = {"import.total_s": "acylsoliton", "import.scipy_integrate_s": "scipy.integrate",
            "import.scipy_interpolate_s": "scipy.interpolate",
            "import.scipy_linalg_s": "scipy.linalg"}
CLI_COMMANDS = ("spectrum", "weights", "solve-linear", "solve-ma", "glue", "verify", "report")
CONTINUITY_KEYS = ("cigar.h1e-2", "cigar.h1e-3", "cylinder.h1e-3", "glued.h1e-3", "cigar.h1e-4")

END_TO_END = {"setup_s": "s", "iter_s": "s", "iter_s_tail": "s", "peak_rss_mb": "MB"}
WORKLOAD_FIGURES = {"report_s": "s", "nodes_per_s": "nodes/s", "rung_s.h1e-3": "s",
                    "rung_s.h1e-4": "s", "fail_ratio": "ratio"}
PER_LAYER = {
    **{name: "s" for name in IMPORTED},
    **{f"cli.{command}_s": "s" for command in CLI_COMMANDS},
    "cli.bytes_written": "bytes",
    "grids.to_csv_s": "s", "grids.from_csv_s": "s", "grids.csv_rows": "count",
    "models.soliton_residual_s": "s",
    "spectrum.spectrum_s": "s", "spectrum.invariant_spectrum_s": "s",
    "spectrum.spectrum_to_csv_s": "s", "spectrum.modes": "count", "spectrum.distinct_mu": "count",
    "weights.critical_weights_s": "s", "weights.fredholm_window_check_s": "s",
    "weights.count": "count",
    "drift.solve_mode_s": "s", "drift.solves": "count",
    **{f"continuity.continuity_solve_s.{key}": "s" for key in CONTINUITY_KEYS},
    **{f"continuity.newton_iterations.{key}": "count" for key in CONTINUITY_KEYS},
    **{f"continuity.s_steps.{key}": "count" for key in CONTINUITY_KEYS},
    **{f"continuity.failed.{key}": "count" for key in CONTINUITY_KEYS},
    "continuity.uniqueness_check_s": "s", "continuity.ma_residual_radial_s": "s",
    "gluing.glued_model_s": "s", "gluing.auto_rho_s": "s", "gluing.potential_of_s": "s",
    "gluing.glued_forcing_s": "s",
    "diagnostics.poincare_rayleigh_s.h1e-2": "s", "diagnostics.poincare_rayleigh_s.h1e-4": "s",
    "diagnostics.verify_solution_s": "s",
    "norms.decay_rate_fit_s": "s",
    **WORKLOAD_FIGURES,
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_pipeline", "solve_ladder", "spectrum_sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one iteration untraced and one traced; print every metric")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: build the inputs and print the monotonic time")
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tail(samples):
    """Highest percentile with at least 10 samples beyond it: (value, percentile,
    samples beyond).  Below 11 samples no such percentile exists and the
    maximum is reported, with 0 samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def measure(workload, ledger, budget, deadline, tracer=None):
    """Whole iterations while the next one should end within `budget` seconds,
    and at least two (one with a zero budget), so that a slow first iteration
    does not end the run alone: (wall times, times at the reference speed,
    figures).

    Wall times leave out the work clock's reference kernel; without a clock
    the scaled list is empty.  Each iteration's scaled time is its wall time
    times the mean rescaling factor of its operations.
    """
    times, scaled, figures, spans = [], [], [], []
    clock = ledger.clock
    start = time.monotonic()
    least = 2 if budget else 1
    while len(spans) < least or (
        time.monotonic() - start + statistics.median(spans) <= budget
        and time.monotonic() < deadline
    ):
        if tracer:
            tracer.iteration = len(times)
        if clock:
            ops_wall, ops_scaled = clock.wall, clock.scaled
        t0, w0 = time.perf_counter(), ledger.now()
        figures.append(workload.iteration(ledger, tracer))
        times.append(ledger.now() - w0)
        spans.append(time.perf_counter() - t0)
        if clock:
            scaled.append(times[-1] * (clock.scaled - ops_scaled) / (clock.wall - ops_wall))
    return times, scaled, figures


def setup_times(workload_name, seed, env, workdir, probes, clock=None):
    """Wall seconds of each set-up probe; each is paced on the clock if given."""
    from workloads import run_child

    if workload_name == "cli_pipeline":
        argv = [sys.executable, "-c", "import time, acylsoliton; print(time.monotonic())"]
    else:
        argv = [sys.executable, os.path.join(BENCH, "run.py"), "--setup-probe",
                "--workload", workload_name, "--seed", str(seed)]
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        code, _, out, err = run_child(argv, env, workdir)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}: {err[-500:]}")
        samples.append(float(out.split()[-1]) - start)
        if clock:
            clock.pace(samples[-1])
    return samples


def import_times(env, workdir, probes):
    """Cumulative import times of IMPORTED modules, median over fresh interpreters."""
    from workloads import run_child

    samples = {name: [] for name in IMPORTED}
    for _ in range(probes):
        code, _, _, err = run_child(
            [sys.executable, "-X", "importtime", "-c", "import acylsoliton"], env, workdir)
        if code != 0:
            raise RuntimeError(f"import probe exited with {code}: {err[-500:]}")
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, module = line.split("|")
                if cum.strip().isdigit():
                    cumulative[module.strip()] = int(cum) * 1e-6
        for name, module in IMPORTED.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def environment():
    import numpy
    import scipy

    cpu_model, cache = None, {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu_model is None:
                    cpu_model = value.strip()
                elif key.strip() == "cache size" and "cpuinfo" not in cache:
                    cache["cpuinfo"] = value.strip()
        cache_dir = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache_dir)):
            fields = {}
            for field in ("level", "type", "size"):
                with open(os.path.join(cache_dir, index, field)) as fh:
                    fields[field] = fh.read().strip()
            cache[f"L{fields['level']}-{fields['type']}"] = fields["size"]
    except OSError:
        pass
    loc = {}
    package = os.path.join(SRC, "acylsoliton")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                loc[name[:-3]] = sum(1 for line in fh if line.strip())
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model, "cache": cache,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "source_lines": loc, "source_lines_total": sum(loc.values()),
    }


def workload_figures(times, figures, ledger):
    """report_s, nodes_per_s, rung_s.* and fail_ratio of the untraced iterations."""
    def median_of(key):
        values = [f[key] for f in figures if f.get(key) is not None]
        return statistics.median(values) if values else 0.0

    return {
        "report_s": median_of("report_s"),
        "nodes_per_s": sum(f["ma_nodes"] for f in figures) / sum(times),
        "rung_s.h1e-3": median_of("rung_s.h1e-3"),
        "rung_s.h1e-4": median_of("rung_s.h1e-4"),
        "fail_ratio": ledger.failed / ledger.attempted,
    }


def layer_metrics(tracer, iterations):
    values = dict.fromkeys(PER_LAYER, 0.0)
    unlisted = []
    for (name, key), total in tracer.self_times().items():
        metric = f"{name}_s" + (f".{key}" if key else "")
        if metric in values:
            values[metric] = total / iterations
        else:
            unlisted.append(metric)
    for metric, total in tracer.counts.items():
        if metric in values:
            values[metric] = total / iterations
        else:
            unlisted.append(metric)
    return values, unlisted


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "acylsoliton", "__init__.py")):
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import workloads

    if args.setup_probe:
        probe_dir = os.path.join(BENCH, "out", f"probe-{args.workload}-{os.getpid()}")
        os.makedirs(probe_dir, exist_ok=True)
        try:
            workloads.WORKLOADS[args.workload](args.seed, probe_dir, child_env()).setup()
            print(time.monotonic())
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        return 0

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    workdir = os.path.join(BENCH, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env()
    end_to_end = not args.trace or args.smoke
    # end-to-end times run on work clocks; per-layer runs measure plain wall time.
    # Set-up probes are interpreter start-up and import on every workload.
    setup_clock = workloads.WorkClock("interpreter") if end_to_end else None
    setup = setup_times(args.workload, args.seed, env, workdir,
                        1 if args.smoke else SETUP_PROBES, setup_clock)
    # one factor over all probes: the median probe at the mean reference rate
    setup_factor = setup_clock.scaled / setup_clock.wall if end_to_end else None

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, env)
    workload.setup()
    ledger = workloads.Ledger(workloads.WorkClock(workload.reference) if end_to_end else None)
    traced = args.trace or args.smoke
    budget = 0.0 if args.smoke else (args.seconds / 2 if traced else args.seconds)
    times, scaled, figures = measure(workload, ledger, budget, deadline)
    if args.workload == "cli_pipeline":
        peak_rss_kb = max(f["rss_kb"] for f in figures)
    else:
        peak_rss_kb = workloads.peak_rss_kb()
    metrics = {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(),
        "setup_s_samples": setup, "iter_s_samples": times,
    }
    if end_to_end:
        tail_value, tail_percentile, beyond = tail(scaled)
        metrics.update({
            "setup_s": statistics.median(setup) * setup_factor,
            "iter_s": statistics.median(scaled),
            "iter_s_tail": tail_value, "peak_rss_mb": peak_rss_kb / 1024.0,
        })
        record.update({
            "reference": workload.reference,
            "reference_rate": ledger.clock.nominal,
            "setup_factor": setup_factor, "iter_s_scaled_samples": scaled,
            "iter_s_tail": {"percentile": tail_percentile, "samples_beyond": beyond,
                            "samples": len(scaled)},
        })
    if traced:
        import tracing

        figures_untraced = workload_figures(times, figures, ledger)
        ledger.clock = None
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced_times, _, _ = measure(workload, ledger, budget, deadline, tracer)
        finally:
            tracer.uninstall()
        layers, unlisted = layer_metrics(tracer, len(traced_times))
        layers.update(import_times(env, workdir, 1 if args.smoke else IMPORT_PROBES))
        layers.update(figures_untraced)
        layers["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        metrics.update(layers)
        record.update({"traced_iter_s_samples": traced_times, "unlisted_metrics": unlisted,
                       "spans_file": os.path.relpath(os.path.join(workdir, "spans.jsonl"), ROOT)})
        with open(os.path.join(workdir, "spans.jsonl"), "w") as fh:
            for span in tracer.records():
                fh.write(json.dumps(span) + "\n")
    record.update({"failures": ledger.failure_list(), "digests": ledger.digests,
                   "digest_mismatches": sorted(ledger.mismatched),
                   "wall_s": time.monotonic() - started})
    units = {**END_TO_END, **PER_LAYER}
    result = {
        "correct": ledger.correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print("bench-record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
