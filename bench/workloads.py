"""The three benchmark workloads: seeded inputs, one iteration, output checks.

All three are closed loops with one client in one process; child processes
run one at a time and BLAS/OpenMP use one thread each.

- cli_pipeline: the 7 commands of acceptance criterion 11, each a fresh
  Python process on the default config (h = 0.01, 3 201 nodes).  Interpreter
  start and `import acylsoliton` are most of each command, so import and
  CSV I/O gains show here.
- solve_ladder: in process.  Rung h = 1e-3 (32 001 nodes) runs manufactured
  continuation on cigar (Neumann, bands (2,1)) and cylinder (Dirichlet,
  bands (1,1)), the glued model/forcing/continuation, a uniqueness check
  from seeded starts (s = 1 Newton), verify_solution, drift mode solves and
  a phi CSV write and read-back.  Rung h = 1e-4 (320 001 nodes) runs cigar
  continuation, which stalls with the default ContinuityConfig (a known
  defect, counted as a failure), and the Poincare constant.
- spectrum_sweep: in process.  S^1 x T^4 full spectrum (mu_max 100), its
  invariant part under the order-2 map (theta + pi, x -> -x) at mu_max 60,
  and the hexagonal order-3 invariant spectrum at mu_max 1000, each with
  critical weights, the Fredholm window check and the CSV writers.  Pure
  Python enumeration and orbit code, no solver.

The seed draws only the generated inputs (rhs, manufactured forcing and
amplitude, uniqueness starts); grid sizes, mu_max and lattices are fixed,
so the amount of work does not depend on it.  spectrum_sweep has no
generated inputs.
"""

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from collections import Counter

import numpy as np
import scipy.linalg.lapack

import acylsoliton as ak
from acylsoliton.drift import mode_interior_residual
from acylsoliton.errors import ContinuityStalled, NewtonDiverged, PositivityLost

# modules whose functions are looked up at call time, so traced wrappers apply
cli = importlib.import_module("acylsoliton.cli")
spectrum_module = importlib.import_module("acylsoliton.spectrum")
weights_module = importlib.import_module("acylsoliton.weights")

PEAK_TAG = "bench-peak-rss-kb"
# A spawned child's wait4 ru_maxrss also counts the parent's memory at the
# spawn, so each CLI child reports its own high-water mark on stderr at exit.
CLI_ENTRY = (
    "import atexit, sys\n"
    "def report_peak():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        kb = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
    f"    sys.stderr.write('\\n{PEAK_TAG} ' + kb + '\\n')\n"
    "atexit.register(report_peak)\n"
    "from acylsoliton.cli import main\n"
    "main()\n"
)
CHILD_TIMEOUT_S = 120.0
TWO_PI = 2.0 * np.pi
MERGE_TOL = 1e-10  # the package's multiplicity merging tolerance on mu


# ---- work clock ----

# Reference kernels: fixed work of the kind each workload does, calling nothing
# of the package, with its rate in chunks per second (about the median on a
# 2-core Xeon VM).  Their arrays are preallocated, so a rate does not depend
# on the state of the heap the package left behind.
_REF_IN = np.linspace(0.0, 1.0, 100_000)
_REF_OUT = np.empty_like(_REF_IN)
_REF_DIAG = np.full(100_001, 4.0)
_REF_OFF = np.full(100_000, -1.0)
_REF_RHS = np.linspace(0.0, 1.0, 100_001)
_REF_WORK = [np.empty_like(a) for a in (_REF_OFF, _REF_DIAG, _REF_OFF, _REF_RHS)]


def _interpreter_chunk():
    """Interpreter dict updates and small numpy kernels, as in the spectrum
    enumeration and in interpreter start-up and import."""
    counts = {}
    for i in range(2000):
        counts[i & 63] = counts.get(i & 63, 0) + i
    np.sin(_REF_IN, out=_REF_OUT)
    np.multiply(_REF_OUT, _REF_IN, out=_REF_OUT)
    _REF_OUT.sort()


def _arrays_chunk():
    """A tridiagonal LAPACK solve in place on 100 001 nodes, about 5 MB with
    its inputs restored by copies, as in the Newton steps and inverse
    iterations on fine grids."""
    lower, diag, upper, rhs = _REF_WORK
    for work, source in zip(_REF_WORK, (_REF_OFF, _REF_DIAG, _REF_OFF, _REF_RHS)):
        np.copyto(work, source)
    scipy.linalg.lapack.dgtsv(lower, diag, upper, rhs, overwrite_dl=1, overwrite_d=1,
                              overwrite_du=1, overwrite_b=1)


REFERENCES = {"interpreter": (_interpreter_chunk, 420.0), "arrays": (_arrays_chunk, 345.0)}


class WorkClock:
    """Wall time of operations rescaled to a fixed speed of the machine.

    The cores of a shared host change speed by tens of percent within
    seconds and across minutes, with CPU time equal to wall time, so wall
    times of the same work drift between runs.  After each operation of w
    seconds the clock runs a reference kernel (REFERENCES) of the same kind
    of work on the same core for about w seconds more; the operation counts
    as w * rate / nominal seconds, where rate is the kernel's chunks per
    second and nominal its fixed rate.  A change of the machine's speed that
    lasts a few seconds moves both alike and cancels; a change of the
    package's speed moves only w.  The raw wall times are kept beside the
    scaled ones.
    """

    def __init__(self, reference):
        self.reference = reference
        self.chunk, self.nominal = REFERENCES[reference]
        self.wall = 0.0     # summed wall seconds of the operations
        self.scaled = 0.0   # the same at the nominal rate
        self.paced = 0.0    # wall seconds spent in the reference kernel

    def pace(self, wall):
        """Rescale one operation of `wall` seconds; returns its scaled seconds."""
        chunks = 0
        start = time.perf_counter()
        while True:
            self.chunk()
            chunks += 1
            elapsed = time.perf_counter() - start
            if elapsed >= wall:
                break
        scaled = wall * chunks / elapsed / self.nominal
        self.wall += wall
        self.scaled += scaled
        self.paced += elapsed
        return scaled


# ---- bookkeeping ----


class CommandFailed(Exception):
    """A CLI command exited with a non-zero code."""

    def __init__(self, command, exit_code, stderr):
        self.command = command
        self.exit_code = exit_code
        self.stderr = stderr
        super().__init__(f"{command} exited with {exit_code}")


def _context(exc):
    if isinstance(exc, CommandFailed):
        return {"command": exc.command, "exit_code": exc.exit_code, "stderr": exc.stderr}
    if isinstance(exc, ContinuityStalled):
        return {"s_reached": exc.s_reached, "accepted_steps": len(exc.records)}
    if isinstance(exc, NewtonDiverged):
        return {"iterations": exc.iterations, "residual": exc.residual}
    if isinstance(exc, PositivityLost):
        return {"node": exc.node, "t": exc.t}
    return {"message": str(exc)[:200]}


class Ledger:
    """Operations attempted, failures with their context, output digests.

    With a WorkClock each operation is followed by the clock's reference
    kernel.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.attempted = 0
        self.failures = Counter()   # (operation, kind, context json) -> count
        self.check_failures = 0
        self.digests = {}           # output name -> sha256 of its first occurrence
        self.mismatched = set()     # outputs whose bytes changed between iterations

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def correct(self):
        return self.check_failures == 0 and not self.mismatched

    def now(self):
        """perf_counter seconds less the time spent in the work clock's kernel."""
        return time.perf_counter() - (self.clock.paced if self.clock else 0.0)

    def fail(self, operation, kind, context):
        self.failures[(operation, kind, json.dumps(context, sort_keys=True))] += 1

    def run(self, operation, fn, check=None):
        """Run one operation; None when it raised or its output check failed.

        check(result) returns None when the output is right, else a reason.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = fn()
        except Exception as exc:  # record the failure and keep the loop running
            self.fail(operation, type(exc).__name__, _context(exc))
            return None
        finally:
            if self.clock:
                self.clock.pace(time.perf_counter() - start)
        try:
            problem = check(result) if check else None
        except Exception as exc:  # a missing or malformed output is a failed check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.check_failures += 1
            self.fail(operation, "check", {"reason": problem})
            return None
        return result

    def skip(self, operation, reason):
        self.attempted += 1
        self.fail(operation, "skipped", {"reason": reason})

    def digest(self, name, data):
        value = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(name, value) != value:
            self.mismatched.add(name)

    def failure_list(self):
        return [
            {"operation": op, "kind": kind, "context": json.loads(ctx), "count": n}
            for (op, kind, ctx), n in sorted(self.failures.items())
        ]


def peak_rss_kb():
    """This process's own resident high-water mark in kB (VmHWM); unlike
    ru_maxrss it leaves out the memory of the process that started it."""
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


def split_peak(stderr):
    """(peak RSS kB a CLI child reported, its stderr without that line)."""
    peak, lines = 0, []
    for line in stderr.splitlines():
        if line.startswith(PEAK_TAG + " "):
            peak = int(line.split()[1])
        elif line:
            lines.append(line)
    return peak, "\n".join(lines)


def run_child(argv, env, workdir, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion: (exit code, wall s, stdout, stderr).

    Output goes through files in workdir; a child that outlives the timeout
    is killed and reaped.
    """
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        while True:
            pid, status = os.waitpid(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - start > timeout:
                proc.kill()
                pid, status = os.waitpid(proc.pid, 0)
                break
            time.sleep(0.001)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as out, open(err_path, errors="replace") as err:
        return proc.returncode, wall, out.read(), err.read()


def _rng(seed, workload):
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _decaying_rhs(scale, rate):
    return lambda t: scale * np.exp(-rate * t) * np.clip(t / 2.0, 0.0, 1.0) ** 4


# ---- independent mode counts for the spectrum checks ----


def mode_count(cs, mu_max):
    """Cross-section modes with mu <= mu_max, counted without the package.

    With a quotient of order m the invariant count is the average character
    (1/m) sum_k sum_{modes fixed by R^k} e^{2 pi i j k / m}, which equals
    the number of orbits whose phased permutation has a trivial part.
    """
    circle_unit = (TWO_PI / cs.circle_length) ** 2
    gram = 4.0 * np.pi**2 * np.linalg.inv(cs.lattice @ cs.lattice.T)
    d = gram.shape[0]
    a_max = int(np.sqrt(mu_max / np.linalg.eigvalsh(gram)[0])) + 1
    axis = np.arange(-a_max, a_max + 1)
    alphas = np.stack([g.ravel() for g in np.meshgrid(*[axis] * d, indexing="ij")], axis=1)
    mu_torus = np.einsum("ki,ij,kj->k", alphas, gram, alphas)
    j_max = int(np.sqrt(mu_max / circle_unit)) + 1
    js = np.arange(-j_max, j_max + 1)
    order = 1 if cs.quotient is None else cs.quotient.order
    R_T = np.eye(d, dtype=np.int64) if cs.quotient is None else cs.quotient.lattice_map.T
    power = np.eye(d, dtype=np.int64)
    total = 0.0
    for k in range(order):
        fixed = np.sort(mu_torus[np.all(alphas @ power.T == alphas, axis=1)])
        per_j = np.searchsorted(fixed, mu_max + MERGE_TOL - circle_unit * js**2, side="right")
        total += float(np.sum(per_j * np.cos(TWO_PI * js * k / order)))
        power = power @ R_T.astype(np.int64)
    return int(round(total / order))


def spectrum_problem(pairs, mu_max, expected):
    """None when (mu, multiplicity) pairs are ascending, below mu_max and
    sum to the expected mode count; else the reason."""
    mus = np.array([mu for mu, _ in pairs])
    modes = sum(mult for _, mult in pairs)
    if modes != expected:
        return f"multiplicities sum to {modes}, expected {expected}"
    if np.any(np.diff(mus) <= 0) or mus[-1] > mu_max + MERGE_TOL:
        return "eigenvalues not ascending within mu_max"
    return None


def _read_csv_rows(path):
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---- cli_pipeline ----


class CliPipeline:
    name = "cli_pipeline"
    reference = "interpreter"  # interpreter start-up and import
    default_cross_section = ak.CrossSection(TWO_PI, ak.square_lattice())
    default_mu_max = 10.0

    def __init__(self, seed, workdir, env):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.rhs_path = os.path.join(workdir, "rhs.csv")
        self.forcing_path = os.path.join(workdir, "forcing.csv")

    def setup(self):
        rng = _rng(self.seed, self.name)
        grid = (-12.0, 20.0, 0.01)
        ak.GridFunction.sample(
            _decaying_rhs(rng.uniform(0.5, 2.0), rng.uniform(1.4, 1.6)), *grid
        ).to_csv(self.rhs_path)
        model = ak.cigar_model(2)
        phi = ak.manufactured_potential(grid, amplitude=rng.uniform(0.28, 0.32))
        ak.ma_residual_radial(model, phi, None, 0.0).to_csv(self.forcing_path)
        self.expected_modes = mode_count(self.default_cross_section, self.default_mu_max)

    def commands(self):
        return [
            ["spectrum"],
            ["weights", "--window", "0", "2"],
            ["solve-linear", "--model", "cigar", "--mu", "0", "--rhs", self.rhs_path],
            ["solve-ma", "--model", "cigar", "--n", "2", "--rhs", self.forcing_path],
            ["glue", "--inner", "cigar", "--t0", "3", "--margin", "0.01"],
            ["verify", "--model", "cigar", "--decay", self.rhs_path],
            ["report"],
        ]

    def check(self, command, outdir):
        """None when the command's outputs are right, else the reason."""
        path = lambda name: os.path.join(outdir, name)  # noqa: E731
        notes = _read_json(path("manifest.json"))["notes"]
        if command == "spectrum":
            modes = sum(int(row[1]) for row in _read_csv_rows(path("spectrum.csv")))
            if modes != self.expected_modes or notes["modes"] != modes:
                return f"spectrum sums to {modes}, expected {self.expected_modes}"
        elif command == "weights":
            if _read_csv_rows(path("weights.csv")) or not notes["fredholm_clear"]:
                return "critical weight inside the Fredholm window (0, 2)"
        elif command == "solve-linear":
            residual = _read_json(path("diagnostics.json"))["interior_residual"]
            if not residual <= 1e-12:
                return f"interior residual {residual}"
        elif command == "solve-ma":
            if not _read_json(path("path.json"))["converged"]:
                return "continuation did not converge"
        elif command == "glue":
            if not notes["min_coefficient"] >= 0.01 - 1e-12:
                return f"glued coefficient {notes['min_coefficient']} below the margin"
        elif command == "verify":
            if not _read_json(path("poincare.json"))["lambda_min"] > 0:
                return "Poincare lambda not positive"
        elif command == "report":
            if _read_json(path("report.json"))["passed"] is not True:
                return "report.json has passed != true"
        return None

    def iteration(self, ledger, tracer=None):
        """One pass of the 7 commands: fresh processes, or in process when traced."""
        outdir = os.path.join(self.workdir, "traced" if tracer else "out")
        shutil.rmtree(outdir, ignore_errors=True)
        walls = {}
        rss_kb = 0

        def execute(command, argv):
            nonlocal rss_kb
            if tracer:
                span = tracer.open(f"cli.{command}")
                start = time.perf_counter()
                try:
                    code = cli.run(argv)
                finally:
                    walls[command] = time.perf_counter() - start
                    tracer.close(span)
                stderr = ""
            else:
                code, walls[command], _, stderr = run_child(
                    [sys.executable, "-c", CLI_ENTRY] + argv, self.env, self.workdir
                )
                child_kb, stderr = split_peak(stderr)
                rss_kb = max(rss_kb, child_kb)
                stderr = stderr[-200:]
            if code != 0:
                raise CommandFailed(command, code, stderr)

        for command in self.commands():
            argv = command + ["--output", outdir]
            ledger.run(f"cli.{command[0]}", lambda: execute(command[0], argv),
                       check=lambda _: self.check(command[0], outdir))
        written = 0
        for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []:
            if name == "manifest.json":  # records wall time, not deterministic
                continue
            with open(os.path.join(outdir, name), "rb") as fh:
                data = fh.read()
            written += len(data)
            ledger.digest(f"cli/{name}", data)
        if tracer:
            tracer.counts["cli.bytes_written"] += written
        return {"report_s": walls.get("report"), "rss_kb": rss_kb, "ma_nodes": 0}


# ---- solve_ladder ----


class SolveLadder:
    name = "solve_ladder"
    reference = "arrays"
    grid_fine = (-12.0, 20.0, 1e-3)
    grid_finest = (-12.0, 20.0, 1e-4)
    mode_mus = (0.0, 1.0, 2.0, 4.0, 5.0)  # lowest eigenvalues of S^1 x T^2

    def __init__(self, seed, workdir, env):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        rng = _rng(self.seed, self.name)
        amplitude = rng.uniform(0.28, 0.32)
        self.cigar = ak.cigar_model(2)
        self.cylinder = ak.cylinder_model(2)
        self.phi_star = ak.manufactured_potential(self.grid_fine, amplitude=amplitude)
        self.forcing_cigar = ak.ma_residual_radial(self.cigar, self.phi_star, None, 0.0)
        self.forcing_cylinder = ak.ma_residual_radial(self.cylinder, self.phi_star, None, 0.0)
        phi_finest = ak.manufactured_potential(self.grid_finest, amplitude=amplitude)
        self.forcing_finest = ak.ma_residual_radial(self.cigar, phi_finest, None, 0.0)
        self.starts = []
        for _ in range(3):
            weight = rng.uniform(0.0, 1.0)
            height = rng.uniform(0.0, 0.05)
            center = rng.uniform(1.0, 3.0)
            bump = ak.GridFunction.sample(
                lambda t: height * np.exp(-0.5 * (t - center) ** 2), *self.grid_fine
            )
            self.starts.append(bump.like(weight * self.phi_star.values + bump.values))
        self.mode_rhs = ak.GridFunction.sample(
            _decaying_rhs(rng.uniform(0.5, 2.0), rng.uniform(1.4, 1.6)), *self.grid_fine
        )
        self.phi_path = os.path.join(self.workdir, "phi.csv")

    def _recovered(self, solution):
        err = float(np.max(np.abs(solution.phi.values - ak.decaying_gauge(self.phi_star).values)))
        return None if err <= 1e-6 else f"sup|phi - phi*| = {err:.3e}"

    def _cylinder_solved(self, solution):
        residual = ak.ma_residual_radial(self.cylinder, solution.phi_anchored,
                                         self.forcing_cylinder, 1.0).values
        worst = float(np.max(np.abs(residual[1:-1])))  # Dirichlet rows are the end nodes
        return None if worst <= 1e-9 else f"interior residual {worst:.3e}"

    def iteration(self, ledger, tracer=None):
        nodes = 0
        n_fine = len(self.forcing_cigar.values)
        start = ledger.now()

        cigar = ledger.run("continuity_solve.cigar.h1e-3",
                           lambda: ak.continuity_solve(self.cigar, self.forcing_cigar),
                           check=self._recovered)
        if cigar:
            nodes += n_fine
            ledger.digest("phi.cigar.h1e-3", cigar.phi.values.tobytes())
        cylinder = ledger.run("continuity_solve.cylinder.h1e-3",
                              lambda: ak.continuity_solve(self.cylinder, self.forcing_cylinder),
                              check=self._cylinder_solved)
        if cylinder:
            nodes += n_fine
            ledger.digest("phi.cylinder.h1e-3", cylinder.phi.values.tobytes())

        def build_glued():
            model = ak.glued_model(self.cigar)
            return model, ak.glued_forcing(model, self.grid_fine)

        def compact(glued):
            t = glued[1].t
            return None if np.all(glued[1].values[t >= 3.5] == 0.0) else "forcing not compact"

        glued = ledger.run("gluing.glued_model", build_glued, check=compact)
        if glued:
            model, forcing = glued

            def soliton(solution):
                residual = ak.soliton_residual(model, solution.phi_anchored).values
                worst = float(np.max(np.abs(residual)))
                return None if worst <= 1e-8 else f"soliton residual {worst:.3e}"

            solution = ledger.run("continuity_solve.glued.h1e-3",
                                  lambda: ak.continuity_solve(model, forcing), check=soliton)
            if solution:
                nodes += n_fine
                ledger.digest("phi.glued.h1e-3", solution.phi.values.tobytes())
        else:
            ledger.skip("continuity_solve.glued.h1e-3", "no glued model")

        distance = ledger.run(
            "uniqueness_check",
            lambda: ak.uniqueness_check(self.cigar, self.forcing_cigar,
                                        initializations=self.starts),
            check=lambda d: None if d <= 1e-8 else f"distance {d:.3e}",
        )
        if distance is not None:
            nodes += len(self.starts) * n_fine

        if cigar:
            ledger.run("verify_solution",
                       lambda: ak.verify_solution(self.cigar, cigar, self.forcing_cigar),
                       check=lambda report: None if report.passed else "verification failed")
        else:
            ledger.skip("verify_solution", "no cigar solution")

        for mu in self.mode_mus:
            problem = ak.ModeProblem(model=self.cigar, mu=mu, rhs=self.mode_rhs)
            u = ledger.run(f"solve_mode.mu{mu:g}", lambda: ak.solve_mode(problem),
                           check=lambda u: None
                           if mode_interior_residual(problem, u.values) <= 1e-12
                           else "interior residual above 1e-12")
            if u:
                ledger.digest(f"mode.mu{mu:g}", u.values.tobytes())

        if cigar:
            def roundtrip():
                cigar.phi.to_csv(self.phi_path)
                return ak.GridFunction.from_csv(self.phi_path)

            back = ledger.run("grids.csv_roundtrip", roundtrip,
                              check=lambda back: None if back.same_grid(cigar.phi)
                              and np.array_equal(back.values, cigar.phi.values)
                              else "phi CSV does not read back exactly")
            if back:
                with open(self.phi_path, "rb") as fh:
                    ledger.digest("phi.csv", fh.read())
        else:
            ledger.skip("grids.csv_roundtrip", "no cigar solution")
        rung_fine = ledger.now() - start

        start = ledger.now()
        finest = ledger.run("continuity_solve.cigar.h1e-4",
                            lambda: ak.continuity_solve(self.cigar, self.forcing_finest))
        if finest:
            nodes += len(self.forcing_finest.values)
        ledger.run("poincare_rayleigh.h1e-4",
                   lambda: ak.poincare_rayleigh(self.cigar, self.grid_finest),
                   check=lambda lam: None if lam > 0 else f"lambda {lam}")
        rung_finest = ledger.now() - start
        return {"rung_s.h1e-3": rung_fine, "rung_s.h1e-4": rung_finest, "ma_nodes": nodes}


# ---- spectrum_sweep ----


class SpectrumSweep:
    name = "spectrum_sweep"
    reference = "interpreter"

    def __init__(self, seed, workdir, env):
        self.workdir = workdir

    def setup(self):
        torus = TWO_PI * np.eye(4)
        negation = ak.CyclicQuotient(order=2, lattice_map=-np.eye(4, dtype=int))
        self.cases = [
            ("s1t4", ak.CrossSection(TWO_PI, torus), 100.0),
            ("s1t4_z2", ak.CrossSection(TWO_PI, torus, negation), 60.0),
            ("hex_z3", ak.CrossSection(TWO_PI, ak.hexagonal_lattice(),
                                       ak.hexagonal_rotation_quotient()), 1000.0),
        ]
        self.expected = {name: mode_count(cs, mu_max) for name, cs, mu_max in self.cases}

    def iteration(self, ledger, tracer=None):
        for name, cs, mu_max in self.cases:
            compute = ak.spectrum if cs.quotient is None else ak.invariant_spectrum
            expected = self.expected[name]
            pairs = ledger.run(f"spectrum.{name}", lambda: compute(cs, mu_max),
                               check=lambda pairs: spectrum_problem(pairs, mu_max, expected))
            if pairs is None:
                ledger.skip(f"weights.{name}", "no spectrum")
                continue

            def window(cws):
                clear, _ = ak.fredholm_window_check(cws, (0.0, 2.0))
                return None if clear else "critical weight inside (0, 2)"

            cws = ledger.run(f"weights.{name}", lambda: ak.critical_weights(pairs, (-1.0, 3.0)),
                             check=window)
            if cws is None:
                continue
            spectrum_path = os.path.join(self.workdir, f"spectrum_{name}.csv")
            weights_path = os.path.join(self.workdir, f"weights_{name}.csv")

            def write():
                spectrum_module.spectrum_to_csv(pairs, spectrum_path)
                weights_module.weights_to_csv(cws, weights_path)

            ledger.run(f"csv.{name}", write)
            for path in (spectrum_path, weights_path):
                with open(path, "rb") as fh:
                    ledger.digest(os.path.basename(path), fh.read())
        return {"ma_nodes": 0}


WORKLOADS = {w.name: w for w in (CliPipeline, SolveLadder, SpectrumSweep)}
