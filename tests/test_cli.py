import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
import scipy

import acylsoliton as ak
from acylsoliton import _lapack
from acylsoliton.cli import EXIT_OK, EXIT_VERIFICATION, KEYS, parse_config, run
from acylsoliton.spectrum import spectrum_to_csv
from conftest import DEFAULT_GRID, strict_json

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                       "F_manufactured_cigar.csv")


def test_parse_config_empty_gives_defaults():
    cfg = parse_config("")
    assert cfg.grid_h == 0.01 and cfg.model_kind == "cigar"


def test_parse_config_override():
    cfg = parse_config("grid.h = 0.02\n# comment\nmodel.kind = cylinder\n")
    assert cfg.grid_h == 0.02
    assert cfg.model_kind == "cylinder"


def test_parse_config_rejects_bad_values():
    with pytest.raises(ak.ConfigError) as excinfo:
        parse_config("grid.h = -1\n")
    assert "grid.h" in str(excinfo.value) and "line 1" in str(excinfo.value)
    with pytest.raises(ak.ConfigError) as excinfo:
        parse_config("nonsense.key = 3\n")
    assert "unknown key" in str(excinfo.value)
    with pytest.raises(ak.ConfigError):
        parse_config("grid.h 0.02\n")
    with pytest.raises(ak.ConfigError) as excinfo:  # GlueSpec needs a cutoff of degree >= 3
        parse_config("glue.degree = 1\n")
    assert "glue.degree" in str(excinfo.value)
    # non-finite floats are rejected for every key, before any computation
    for line in ("weights.mu_max = inf", "grid.t_min = nan", "grid.t_max = inf",
                 "glue.t0 = inf", "weights.window_lo = -inf"):
        with pytest.raises(ak.ConfigError) as excinfo:
            parse_config(line + "\n")
        assert line.split(" =")[0] in str(excinfo.value)


def documented_keys(text):
    """Keys of the first code block under '## Configuration files', 'a_lo/hi' expanded."""
    block = text.split("## Configuration files", 1)[1].split("```")[1]
    keys = []
    for line in block.splitlines():
        if line and not line[0].isspace():
            key = line.split()[0]
            stem, _, alt = key.partition("/")
            keys += [stem, stem.rsplit("_", 1)[0] + "_" + alt] if alt else [key]
    return keys


def test_documented_config_keys_are_the_config_table():
    formats = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "formats.md")
    with open(formats) as fh:
        assert documented_keys(fh.read()) == list(KEYS)


# config key -> (library dataclass, the field whose default the key's default repeats)
LIBRARY_DEFAULTS = {
    "solver.tol": (ak.ContinuityConfig, "newton_tol"),
    "solver.s_steps": (ak.ContinuityConfig, "s_steps"),
    "solver.max_newton": (ak.ContinuityConfig, "max_newton"),
    "solver.min_step": (ak.ContinuityConfig, "min_step"),
    "glue.t0": (ak.GlueSpec, "t0"),
    "glue.margin": (ak.GlueSpec, "margin"),
    "glue.degree": (ak.GlueSpec, "smoothstep_degree"),
}


@pytest.mark.parametrize("key", LIBRARY_DEFAULTS)
def test_config_default_is_the_library_default(key):
    kind, name = LIBRARY_DEFAULTS[key]
    assert KEYS[key][0] == getattr(kind(), name)


def test_readme_layout_lists_every_module():
    """The Layout block of README.md names each file of src/acylsoliton once."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md")) as fh:
        block = fh.read().split("## Layout", 1)[1].split("```")[1]
    listed = [line.split()[0] for line in block.splitlines()
              if line.startswith("  ") and not line.startswith("   ")]
    package = os.path.join(root, "src", "acylsoliton")
    assert sorted(listed) == sorted(name for name in os.listdir(package) if name.endswith(".py"))


def run_cli(args, outdir):
    return run(args + ["--output", str(outdir)])


def finished_manifest(outdir, code, err=None):
    """The manifest of a run that exited with code, checked to be the final write.
    A failed run (exit 1, 2 or 3) records its stderr line err as error; a run
    that fails its checks (exit 4) records the first of err's lines; exit 0
    records none."""
    manifest = strict_json(outdir / "manifest.json")
    assert manifest["exit_code"] == code and manifest["wall_time_s"] is not None
    if code == EXIT_OK:
        assert "error" not in manifest
    elif code == EXIT_VERIFICATION:
        assert manifest["error"] == err.splitlines()[0]
    else:
        assert manifest["error"] + "\n" == err
    return manifest


def test_weights_window_empty_body(tmp_path):
    code = run_cli(["weights", "--window", "0", "2"], tmp_path)
    assert code == 0
    lines = (tmp_path / "weights.csv").read_text().strip().splitlines()
    assert lines == ["epsilon,mu,branch"]
    manifest = finished_manifest(tmp_path, 0)
    assert manifest["notes"]["fredholm_clear"] is True
    assert manifest["notes"]["margin"] == 0.0


def test_spectrum_outputs(tmp_path):
    code = run_cli(["spectrum"], tmp_path)
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "mu,multiplicity"
    assert lines[1] == "0,1"


def test_negation_quotient_on_four_torus(tmp_path):
    # cross_section.quotient = 2 negates a lattice of any dimension
    rows = "; ".join(" ".join(repr(2 * np.pi * (i == k)) for k in range(4)) for i in range(4))
    config = tmp_path / "s1t4_z2.cfg"
    config.write_text(f"cross_section.lattice = {rows}\ncross_section.quotient = 2\n")
    for command in ("spectrum", "weights"):
        assert run_cli([command, "--config", str(config)], tmp_path / command) == 0
    quotient = ak.CyclicQuotient(2, -np.eye(4, dtype=int))
    cs = ak.CrossSection(2 * np.pi, 2 * np.pi * np.eye(4), quotient)
    for name, pairs in (("spectrum.csv", ak.spectrum(cs, 10.0)),
                        ("invariant_spectrum.csv", ak.invariant_spectrum(cs, 10.0))):
        spectrum_to_csv(pairs, tmp_path / name)
        assert ((tmp_path / "spectrum" / name).read_bytes()
                == (tmp_path / name).read_bytes())


def test_order_three_quotient_on_explicit_hexagonal_rows(tmp_path):
    # the rotation is an isometry of the rows themselves, preset or not
    rows = "; ".join(" ".join(map(repr, row)) for row in ak.hexagonal_lattice().tolist())
    configs = {"preset": "cross_section.lattice = hexagonal",
               "rows": f"cross_section.lattice = {rows}"}
    for name, line in configs.items():
        (tmp_path / f"{name}.cfg").write_text(f"{line}\ncross_section.quotient = 3\n")
        assert run_cli(["spectrum", "--config", str(tmp_path / f"{name}.cfg")],
                       tmp_path / name) == 0
    assert ((tmp_path / "rows" / "invariant_spectrum.csv").read_bytes()
            == (tmp_path / "preset" / "invariant_spectrum.csv").read_bytes())


def decaying_rhs(tmp_path, t_max=20.0):
    rhs = ak.GridFunction.sample(lambda t: np.exp(-1.5 * t) * np.clip(t / 2, 0, 1) ** 4,
                                 -12.0, t_max, 0.01)
    path = tmp_path / "rhs.csv"
    rhs.to_csv(path)
    return str(path), len(rhs.values)


def test_solve_linear(tmp_path):
    rhs_path, _ = decaying_rhs(tmp_path)
    code = run_cli(["solve-linear", "--model", "cigar", "--mu", "0", "--rhs", rhs_path],
                   tmp_path)
    assert code == 0
    assert (tmp_path / "solution.csv").exists()
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["decay_rate"] >= 1.45


def zero_rhs(tmp_path):
    """A zero field on the default grid, as a CSV file; its path and node count."""
    zero = ak.GridFunction(*DEFAULT_GRID, np.zeros(len(ak.uniform_nodes(*DEFAULT_GRID))))
    zero.to_csv(tmp_path / "zero.csv")
    return str(tmp_path / "zero.csv"), len(zero.values)


def test_infinite_decay_rates_are_strict_json(tmp_path):
    """A zero forcing, and the zero solution it gives, vanish on the fit window,
    so their decay rates are inf: path.json and diagnostics.json hold the string
    "inf", which float() reads back, and every JSON file of both runs parses
    with the non-standard constants refused."""
    rhs, _ = zero_rhs(tmp_path)
    assert run_cli(["solve-ma", "--rhs", rhs], tmp_path / "ma") == 0
    assert run_cli(["solve-linear", "--mu", "0", "--rhs", rhs], tmp_path / "linear") == 0
    path = strict_json(tmp_path / "ma" / "path.json")
    diagnostics = strict_json(tmp_path / "linear" / "diagnostics.json")
    assert path["decay_rate"] == diagnostics["decay_rate"] == diagnostics["rhs_decay_rate"] == "inf"
    assert float(path["decay_rate"]) == np.inf
    for name in ("ma", "linear"):
        finished_manifest(tmp_path / name, 0)


def test_write_json_spells_out_non_finite_floats(tmp_path):
    """Every non-finite float, at any depth, becomes "inf", "-inf" or "nan";
    finite values, keys and their order are written as json.dump writes them."""
    from acylsoliton.cli import Run, RunConfig

    payload = {"b": [1.5, np.inf, {"c": (-np.inf, np.float64(np.nan))}], "a": 0.1, "d": None}
    Run("spectrum", RunConfig(output_dir=str(tmp_path))).write_json("x.json", payload)
    assert strict_json(tmp_path / "x.json") == {
        "b": [1.5, "inf", {"c": ["-inf", "nan"]}], "a": 0.1, "d": None}
    assert list(strict_json(tmp_path / "x.json")) == ["b", "a", "d"]
    finite = {"b": [1.5, 2.0, {"c": (3.0, 1e-300)}], "a": 0.1, "d": None}
    Run("spectrum", RunConfig(output_dir=str(tmp_path))).write_json("y.json", finite)
    assert (tmp_path / "y.json").read_text() == json.dumps(finite, indent=2) + "\n"


def test_solve_linear_plot_of_a_zero_solution_is_flat(tmp_path):
    """The zero solution has no range of log10 |u| to scale: solution.svg is
    still well-formed, with one point per node on one horizontal line."""
    from xml.etree import ElementTree

    rhs, nodes = zero_rhs(tmp_path)
    assert run_cli(["solve-linear", "--mu", "0", "--rhs", rhs, "--plot"], tmp_path / "out") == 0
    svg = ElementTree.parse(tmp_path / "out" / "solution.svg").getroot()
    points = [point.split(",") for point in
              svg.find("{http://www.w3.org/2000/svg}polyline").get("points").split()]
    assert len(points) == nodes
    assert {y for _, y in points} == {"320.00"}  # the bottom of the 360-high plot, less its pad
    assert (points[0][0], points[-1][0]) == ("40.00", "600.00")


@pytest.mark.parametrize("mu", ["0", "2"])
def test_solve_linear_order_study(tmp_path, mu):
    rhs_path, nodes = decaying_rhs(tmp_path)
    assert nodes == 3201
    code = run_cli(["solve-linear", "--mu", mu, "--rhs", rhs_path, "--order-study"], tmp_path)
    assert code == 0
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert abs(diag["convergence_order"] - 2.0) <= 0.05


def test_solve_linear_order_study_solves_each_level_once(tmp_path, monkeypatch):
    """The h level of the study is the solution itself: 3 solves, at h, 2h and 4h."""
    from acylsoliton import drift

    steps, solve_mode = [], drift.solve_mode
    monkeypatch.setattr(drift, "solve_mode", lambda problem: steps.append(problem.rhs.h)
                        or solve_mode(problem))
    rhs_path, _ = decaying_rhs(tmp_path)
    assert run_cli(["solve-linear", "--rhs", rhs_path, "--order-study"], tmp_path) == 0
    assert steps == [0.01, 0.02, 0.04]


def test_solve_linear_order_study_rejects_node_count_before_solving(tmp_path, capsys):
    rhs_path, nodes = decaying_rhs(tmp_path, 19.98)
    assert nodes == 3199
    out = tmp_path / "out"
    assert run_cli(["solve-linear", "--rhs", rhs_path, "--order-study"], out) == 1
    err = capsys.readouterr().err
    assert "4k + 1" in err
    assert not (out / "solution.csv").exists()
    finished_manifest(out, 1, err)


@pytest.mark.parametrize("mu_args,value", [
    (["--mu", "nan"], "nan"),
    (["--mu", "inf"], "inf"),
    (["--mu=-inf"], "-inf"),  # with a space argparse would read -inf as an option
    (["--mu", "-1"], "-1.0"),
], ids=["nan", "inf", "minus_inf", "negative"])
def test_solve_linear_bad_mu_is_a_usage_error(tmp_path, capsys, mu_args, value):
    """--mu gets the finiteness and domain check of the other flags, before any output."""
    rhs_path, _ = decaying_rhs(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["solve-linear", *mu_args, "--rhs", rhs_path], out) == 1
    assert f"error: invalid value for '--mu': {value}\n" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_solve_ma_fixture(tmp_path):
    code = run_cli(["solve-ma", "--model", "cigar", "--n", "2", "--rhs", FIXTURE], tmp_path)
    assert code == 0
    assert (tmp_path / "phi.csv").exists()
    path = json.loads((tmp_path / "path.json").read_text())
    assert path["converged"] is True
    assert len(path["steps"]) == 10


def test_solve_ma_synthesized_manufactured(tmp_path):
    code = run_cli(["solve-ma", "--model", "cigar", "--rhs", "manufactured"], tmp_path)
    assert code == 0
    phi = ak.GridFunction.from_csv(tmp_path / "phi.csv")
    target = ak.decaying_gauge(ak.manufactured_potential((-12.0, 20.0, 0.01)))
    assert np.max(np.abs(phi.values - target.values)) <= 1e-6


def test_solve_ma_records_the_forcing_decay_warning(tmp_path):
    """A forcing whose fitted rate is <= 1 still solves; the warning that says
    so reaches the manifest's notes, and a clean solve records none."""
    slow = ak.GridFunction.sample(lambda t: 1e-8 * np.exp(-0.5 * t) * np.clip(t / 2, 0, 1) ** 4,
                                  -12.0, 20.0, 0.01)
    assert ak.decay_rate_fit(slow) <= 1.0
    slow.to_csv(tmp_path / "slow.csv")
    assert run_cli(["solve-ma", "--rhs", str(tmp_path / "slow.csv")], tmp_path / "slow") == 0
    notes = json.loads((tmp_path / "slow" / "manifest.json").read_text())["notes"]
    assert len(notes["warnings"]) == 1
    assert notes["warnings"][0].startswith("forcing decay rate 0.5 <= 1;")
    assert run_cli(["solve-ma", "--rhs", "manufactured"], tmp_path / "clean") == 0
    notes = json.loads((tmp_path / "clean" / "manifest.json").read_text())["notes"]
    assert notes["warnings"] == []


def test_solve_ma_huge_amplitude_exits_2(tmp_path, capsys):
    """A Newton step that loses positivity halves the s-step, so the solve stalls."""
    forcing = ak.GridFunction.from_csv(FIXTURE)
    hostile = forcing.like(1e3 * forcing.values)
    hostile_path = tmp_path / "hostile.csv"
    hostile.to_csv(hostile_path)
    code = run_cli(["solve-ma", "--model", "cigar", "--rhs", str(hostile_path)], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("continuation stalled: ")
    path = json.loads((tmp_path / "path.json").read_text())
    assert path["converged"] is False
    finished_manifest(tmp_path, 2, err)


@pytest.mark.parametrize("args", [["solve-ma", "--rhs", "manufactured"], ["report"]],
                         ids=["solve_ma", "report"])
def test_solver_config_stall_exits_2_with_its_cause(tmp_path, capsys, args):
    """Both continuity solves read the solver.* keys; one Newton step per s stalls at s = 0."""
    config = tmp_path / "stall.cfg"
    config.write_text("solver.max_newton = 1\n")
    out = tmp_path / "out"
    assert run_cli(args + ["--config", str(config)], out) == 2
    err = capsys.readouterr().err
    assert err.startswith("continuation stalled: s-step fell below")
    path = json.loads((out / "path.json").read_text())
    assert path["converged"] is False and path["s_reached"] == 0.0 and path["steps"] == []
    manifest = finished_manifest(out, 2, err)
    assert "warnings" in manifest["notes"] and "lapack" in manifest["versions"]


@pytest.mark.parametrize("args", [["solve-ma", "--rhs", "manufactured"], ["report"]],
                         ids=["solve_ma", "report"])
def test_inadmissible_manufactured_potential_exits_3(tmp_path, capsys, args):
    """At h = 2 the manufactured potential has a + phi''/2 < 0 at t = -10, so
    its forcing cannot be built: exit 3 with a finished manifest."""
    config = tmp_path / "coarse.cfg"
    config.write_text("grid.h = 2\n")
    out = tmp_path / "out"
    assert run_cli(args + ["--config", str(config)], out) == 3
    err = capsys.readouterr().err
    assert err.startswith("positivity lost: metric positivity lost at node 1")
    finished_manifest(out, 3, err)


def library_exit(kind, n, grid):
    """The exit code solve-ma owes the manufactured problem on grid: 0 when
    continuity_solve returns, else that of the library error raised."""
    model = ak.cigar_model(n) if kind == "cigar" else ak.cylinder_model(n)
    try:
        with warnings.catch_warnings(record=True):  # solve-ma records them in its manifest
            warnings.simplefilter("always")
            ak.continuity_solve(model, ak.ma_residual_radial(
                model, ak.manufactured_potential(grid), None, 0.0))
    except ak.DomainError:
        return 1
    except ak.ContinuityStalled:
        return 2
    except ak.PositivityLost:
        return 3
    return 0


def test_solve_ma_exits_as_the_library_on_the_grid_lattice(tmp_path, capsys):
    """solve-ma on 10 seeded cigar and cylinder points of the lattice of
    test_continuity.py::test_solve_and_verify_fail_only_with_library_errors
    exits with the code of the in-process outcome, and its manifest records
    it.  N = (t_max - t_min)/h is drawn log-uniform on [4, 1000], so the
    coarse grids, where exits 1 and 3 come from, are drawn as often as fine ones."""
    rng = np.random.default_rng(0)
    codes = []
    for case in range(10):
        kind, n = ("cigar", "cylinder")[rng.integers(2)], int(rng.integers(1, 4))
        t_min = float(rng.choice([-12.0, -6.0, -3.0, 0.0]))
        t_max = float(rng.choice([6.0, 8.0, 12.0, 20.0, 30.0]))
        grid = (t_min, t_max, (t_max - t_min) / round(4 * 250 ** rng.random()))
        config = tmp_path / f"{case}.cfg"
        config.write_text("".join(f"grid.{key} = {value!r}\n"
                                  for key, value in zip(("t_min", "t_max", "h"), grid)))
        out = tmp_path / str(case)
        code = run_cli(["solve-ma", "--model", kind, "--n", str(n), "--rhs", "manufactured",
                        "--config", str(config)], out)
        assert code == library_exit(kind, n, grid), (kind, n, grid)
        finished_manifest(out, code, capsys.readouterr().err)
        codes.append(code)
    assert {0, 1, 3} <= set(codes), codes


def test_solve_ma_short_forcing_is_a_usage_error(tmp_path, capsys):
    short = tmp_path / "short.csv"
    ak.GridFunction.sample(lambda t: 0.1 * np.exp(-t), 0.0, 0.1, 0.1).to_csv(short)
    assert run_cli(["solve-ma", "--model", "cylinder", "--rhs", str(short)], tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the radial solve needs at least 3 grid nodes, got 2")
    assert "Traceback" not in err
    finished_manifest(tmp_path / "out", 1, err)


@pytest.mark.parametrize("command", [
    ["verify", "--decay"], ["solve-linear", "--mu", "0", "--rhs"], ["solve-ma", "--rhs"],
], ids=["verify", "solve_linear", "solve_ma"])
def test_2d_rhs_is_a_usage_error(tmp_path, capsys, command):
    # every reader takes only the t,value header: a (t, u) field is not a grid function
    path = tmp_path / "rhs_2d.csv"
    path.write_text("t,u,value\n0,0,1\n0,3.14,1\n1,0,0.5\n1,3.14,0.5\n")
    assert run_cli(command + [str(path), "--model", "cylinder"], tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 1: unrecognized CSV header 't,u,value'" in err
    assert "Traceback" not in err


def test_glue_outputs(tmp_path):
    code = run_cli(["glue", "--inner", "cigar", "--t0", "3", "--margin", "0.01"], tmp_path)
    assert code == 0
    text = (tmp_path / "model.txt").read_text()
    assert "kind = glued" in text
    coeff = ak.GridFunction.from_csv(tmp_path / "coefficient.csv")
    assert np.min(coeff.values) >= 0.01


@pytest.mark.parametrize("t0, n, model_digest, coefficient_digest", [
    ("3", 2, "d28e78e0487644fded5c6638aa2bedc877275e0d0e00f562c9f639ab16ae648f",
     "ac39289682a0b725ea326f9114d632c205c9acfb3bc2f82e19c5213de3dedacb"),
    # a narrow transition: auto_rho's bump, refined between the nodes
    ("1.3", 2, "ca225cdaf38a4a429d1af9429a7e895d59fd8387a9de610a4d1b7ebd6c10f06e",
     "3be82d2ed81731f741eb9fa1398d5f32e340f53a3c11aef355140459d75a2732"),
    # t0 + 3 off the gluing lattice: the grid ends at the next node
    ("3.001", 2, "55bb88ba72181a316ddb077624ad82558c33f6f431b7adedfc8dbf75384fdca0",
     "228530a7f9f906bbb700ff736982893e78956161a546b62829bcb2f6d847b347"),
    # no lattice rows; the coefficient is the one of n = 2
    ("3", 1, "ab49aead9a48857a2d45f9894380be3e2f19779e65fc18f67a19ed2df8f8d37a",
     "ac39289682a0b725ea326f9114d632c205c9acfb3bc2f82e19c5213de3dedacb"),
    ("2", 3, "669357dc6b670de24d20434354d1cb7f77f8e5d011b4f48e89844eb172447df3",
     "a1700b3fa206164113872a4035f334134e4fb41b69520cd0164e297a26f8d420"),
], ids=["t0_3", "t0_1.3", "t0_3.001", "n_1", "n_3_t0_2"])
def test_glue_bytes_pinned(tmp_path, t0, n, model_digest, coefficient_digest):
    """model.txt (its lattice rows come from n) and coefficient.csv (on the
    h = 0.005 gluing grid) pinned to the last bit."""
    config = tmp_path / "n.cfg"
    config.write_text(f"model.n = {n}\n")
    assert run_cli(["glue", "--t0", t0, "--config", str(config)], tmp_path) == 0
    assert hashlib.sha256((tmp_path / "model.txt").read_bytes()).hexdigest() == model_digest
    digest = hashlib.sha256((tmp_path / "coefficient.csv").read_bytes()).hexdigest()
    assert digest == coefficient_digest


@pytest.mark.parametrize(
    "args",
    [
        ["solve-ma", "--rhs", "manufactured", "--n", "0"],
        ["glue", "--t0", "0"],
        ["glue", "--margin", "0"],
        ["weights", "--window", "nan", "2"],
        # argparse's own usage errors exit 1 too, not 2 (the stall code)
        ["solve-ma"],
        ["solve-ma", "--model", "foo", "--rhs", "manufactured"],
        ["foo"],
    ],
)
def test_zero_valued_flags_are_validated(tmp_path, args):
    assert run_cli(args, tmp_path) == 1
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("args", [["--help"], ["solve-ma", "--help"]], ids=["top", "command"])
def test_help_exits_0(capsys, args):
    assert run(args) == 0
    assert capsys.readouterr().out.startswith("usage: acylsoliton")


def test_verify_decay_and_poincare(tmp_path):
    u = ak.GridFunction.sample(lambda t: np.exp(-1.2 * t), 0.0, 20.0, 0.01)
    u_path = tmp_path / "field.csv"
    u.to_csv(u_path)
    code = run_cli(["verify", "--model", "cigar", "--decay", str(u_path)], tmp_path)
    assert code == 0
    decay = (tmp_path / "decay.csv").read_text().splitlines()
    assert decay[0] == "quantity,epsilon_hat,window"
    assert "field.csv" in decay[1]
    poincare = json.loads((tmp_path / "poincare.json").read_text())
    assert poincare["lambda_min"] > 0
    assert poincare["reference_lambda0"] == 0.125


def test_verify_decay_inputs_are_hashed_in_the_manifest(tmp_path):
    paths = []
    for rate in (1.2, 1.5):
        u = ak.GridFunction.sample(lambda t: np.exp(-rate * t), 0.0, 20.0, 0.01)
        paths.append(tmp_path / f"field{rate}.csv")
        u.to_csv(paths[-1])
    assert run_cli(["verify", "--decay"] + [str(p) for p in paths], tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["inputs"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
    }


def test_poincare_weight_overflow_is_a_usage_error(tmp_path, capsys):
    # e^f overflows past t ~ 354 on the cigar: a clean error, no RuntimeWarning
    config = tmp_path / "big.cfg"
    config.write_text("grid.t_max = 400\ngrid.h = 0.1\n")
    code = run_cli(["verify", "--model", "cigar", "--config", str(config)], tmp_path / "out")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Poincare weight e^f overflows at t = 354.4")
    assert "Traceback" not in err
    finished_manifest(tmp_path / "out", 1, err)


def test_poincare_weight_nonpositive_f_is_a_usage_error(tmp_path, capsys):
    # the cylinder's f = 2t + 1 is negative on the default grid (t_min = -12)
    code = run_cli(["verify", "--model", "cylinder"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Poincare weight needs f > 0, but f = -23 at t = -12;")
    assert "raise grid.t_min" in err and "Traceback" not in err
    finished_manifest(tmp_path, 1, err)


@pytest.mark.parametrize("command,key,value", [
    ("solve-linear", "plot", "banana"),
    ("spectrum", "cross_section.lattice", "1 x; 0 1"),
    ("glue", "cross_section.lattice", "1 x; 0 1"),
    ("spectrum", "cross_section.lattice", "1 0 0; 0 1 0"),
    ("spectrum", "cross_section.lattice", "nan 0; 0 1"),
    ("spectrum", "cross_section.lattice", "triangular"),
], ids=["plot_word", "word_in_rows", "word_in_rows_glue", "non_square_rows", "nan_lattice_rows",
        "lattice_word"])
def test_malformed_config_value_exits_1_before_any_output(tmp_path, capsys, command, key, value):
    """plot takes six words only, and the lattice a preset name or the rows of a
    finite square matrix: both are read with the config and name the line before
    manifest.json is written."""
    path = tmp_path / "bad.cfg"
    path.write_text(f"grid.h = 0.01\n{key} = {value}\n")
    args = ["--rhs", decaying_rhs(tmp_path)[0]] if command == "solve-linear" else []
    assert run_cli([command, *args, "--config", str(path)], tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == f"config error: malformed value for {key!r}: {value!r} (line 2)\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command,config,message", [
    # grid.h = 8 on [-12, 20] gives 5 nodes; the stencils need 6
    ("report", "grid.h = 8", "error: need at least 6 nodes, got 5"),
    # the rotation acts on the hexagonal rows only, not on the square ones
    ("spectrum", "cross_section.lattice = 6.283185307179586 0; 0 6.283185307179586\n"
     "cross_section.quotient = 3", "error: lattice map is not an isometry of the lattice"),
    ("weights --window 2 0", "", "error: empty window (2.0, 0.0)"),
    # the cigar's c(0) = 1/2 lies below the margin, left of the bump support
    ("glue --margin 1e7", "", "error: c = 0.5 < margin at t=0, outside the bump"),
    # a cell count that overflows, or that no float array can hold, names its grid
    ("glue --t0 1e308", "", "error: gluing grid (0, 1e+308, 0.005) has inf cells"),
    ("glue --t0 1e20", "", "error: gluing grid (0, 1e+20, 0.005) has 2e+22 cells"),
    ("verify", "grid.t_min = -1e308\ngrid.t_max = 1e308",
     "error: grid (-1e+308, 1e+308, 0.01) has inf cells"),
    ("verify", "grid.h = 1e-300",
     "error: grid (-12.0, 20.0, 1e-300) has 3.1999999999999997e+301 cells"),
    # fewer cells than np.intp counts, but more float bytes than it does
    ("verify", "grid.h = 1e-17", "error: grid (-12.0, 20.0, 1e-17) has 3.2e+18 cells"),
], ids=["five_node_grid", "square_rows_order_three", "empty_window", "glue_margin",
        "glue_inf_cells", "glue_too_many_cells", "grid_inf_cells", "grid_too_many_cells",
        "grid_too_many_bytes"])
def test_config_the_computation_rejects_is_a_usage_error(tmp_path, capsys, command, config,
                                                         message):
    path = tmp_path / "bad.cfg"
    path.write_text(config + "\n")
    assert run_cli([*command.split(), "--config", str(path)], tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    finished_manifest(tmp_path / "out", 1, err)


@pytest.mark.parametrize("command", [["verify", "--decay"], ["solve-linear", "--rhs"]],
                         ids=["verify", "solve_linear"])
@pytest.mark.parametrize("body", [
    "t,value\n0,1\n0.1,0.5\n0.3,0.25\n0.35,0.2\n",  # non-uniform t
    "t,value\n0,1\n0.5,abc\n1,2\n",                   # non-numeric field
    "t,value\n0,1\n0.5\n1,2\n",                       # short row
    "t,u,value\n0,0,1\n0,3,1\n1,0,2\n",               # a (t, u) field
    "t,u,value\n",                                    # a (t, u) header only
], ids=["uneven_t", "non_numeric", "short_row", "2d_row_count", "2d_header_only"])
def test_bad_csv_is_a_usage_error(tmp_path, capsys, command, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    assert run_cli(command + [str(path)], tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line" in err and "Traceback" not in err
    finished_manifest(tmp_path / "out", 1, err)


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"t,value\n0,\xff\xfe\n")
    folder = tmp_path / "folder.csv"
    folder.mkdir()
    for command in (["verify", "--decay", str(binary)], ["solve-linear", "--rhs", str(folder)]):
        assert run_cli(command, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


IMPORT_PROBE = """
import json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def package_loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("acylsoliton."))

import acylsoliton, acylsoliton.cli
out, provider, names = sys.argv[1], sys.argv[2], sys.argv[3:]
if provider == "scipy":  # as when numpy links no scipy-openblas64
    acylsoliton._lapack._numpy_core = lambda: "no-such-library.so"
steps = [("import", 0, scipy_loaded(), "_hashlib" in sys.modules, package_loaded())]
extra = {"solve-linear": ["--rhs", out + "/rhs.csv"], "solve-ma": ["--rhs", "manufactured"]}
for name in names:
    code = acylsoliton.cli.run([name, *extra.get(name, []), "--output", out + "/" + name])
    steps.append((name, code, scipy_loaded(), "_hashlib" in sys.modules, package_loaded()))
same_flapack = None
if provider == "scipy":  # the solves' module is the attribute scipy.linalg._flapack
    import scipy.linalg
    same_flapack = scipy.linalg._flapack is acylsoliton._lapack.chosen()._flapack
print(json.dumps({"steps": steps, "same_flapack": same_flapack}))
"""
COMMANDS = ["spectrum", "weights", "solve-linear", "solve-ma", "verify", "report", "glue"]


def _fresh_python(args, cwd):
    """Run python with args in a fresh interpreter (the test process has SciPy loaded)."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def _import_probe(out, names, provider="chosen"):
    """(steps, same_flapack, openssl, modules) of a fresh interpreter that runs the
    commands names in turn, writing into out: per step its (exit code, SciPy
    modules loaded), whether _hashlib is loaded and the acylsoliton modules loaded."""
    decaying_rhs(out)  # solve-linear's rhs, written here so that the probe loads only what runs
    done = _fresh_python(["-c", IMPORT_PROBE, str(out), provider, *names], None)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    steps = {name: (code, loaded) for name, code, loaded, *_ in probe["steps"]}
    openssl = {name: hashlib_loaded for name, _, _, hashlib_loaded, _ in probe["steps"]}
    modules = {name: package for name, *_, package in probe["steps"]}
    return steps, probe["same_flapack"], openssl, modules


def _versions(out, names):
    return {name: json.loads((out / name / "manifest.json").read_text())["versions"]
            for name in names}


def test_scipy_is_imported_only_by_the_commands_that_call_it(tmp_path):
    """With SciPy's extension as the LAPACK provider (numpy without
    scipy-openblas64), SciPy loads on the first solve and not before."""
    steps, same_flapack, _, _ = _import_probe(tmp_path, COMMANDS, "scipy")
    assert list(steps) == ["import", *COMMANDS]
    assert all(code == 0 for code, _ in steps.values())
    for name in ("import", "spectrum", "weights"):
        assert steps[name][1] == [], name
    assert "scipy.linalg._flapack" in steps["solve-linear"][1]
    # solve-linear loads the extension first above; the others load it on their own
    (tmp_path / "alone").mkdir()
    for name in ("solve-ma", "verify", "report"):
        alone, _, _, _ = _import_probe(tmp_path / "alone", [name], "scipy")
        assert alone[name][0] == 0 and "scipy.linalg._flapack" in alone[name][1], name
    # the provider's module is the one scipy.linalg itself holds
    assert same_flapack is True
    # the manifest names the LAPACK exactly when the run has called it
    versions = _versions(tmp_path, COMMANDS)
    for name in ("spectrum", "weights"):
        assert "lapack" not in versions[name] and "scipy" not in versions[name], name
    for name in ("solve-linear", "solve-ma", "verify", "report", "glue"):
        assert versions[name]["lapack"] == f"scipy {scipy.__version__}", name


@pytest.mark.skipif(not isinstance(_lapack.provider(), _lapack._OpenBLAS),
                    reason="numpy links no scipy-openblas64")
def test_no_command_imports_scipy_with_numpys_openblas(tmp_path):
    """Where numpy's OpenBLAS has the four routines, none of the seven commands
    imports any scipy module, and the manifest names that OpenBLAS."""
    steps, _, _, _ = _import_probe(tmp_path, COMMANDS)
    assert steps == {name: (0, []) for name in ["import", *COMMANDS]}
    versions = _versions(tmp_path, COMMANDS)
    for name in ("spectrum", "weights"):
        assert "lapack" not in versions[name], name
    for name in ("solve-linear", "solve-ma", "verify", "report", "glue"):
        assert versions[name]["lapack"] == _lapack.provider().name, name


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="no built-in SHA-256 module: the digests fall back to hashlib")
def test_no_command_loads_openssl(tmp_path):
    """The digests come from CPython's built-in SHA-256, so neither the import
    nor any of the seven commands loads hashlib's OpenSSL module _hashlib."""
    steps, _, openssl, _ = _import_probe(tmp_path, COMMANDS)
    assert all(code == 0 for code, _ in steps.values())
    assert openssl == dict.fromkeys(["import", *COMMANDS], False)


# command -> the acylsoliton modules it loads when it runs alone in a fresh process
COMMAND_MODULES = {
    "spectrum": "_lapack cli errors spectrum",
    "weights": "_lapack cli errors spectrum weights",
    "solve-linear": "_lapack cli drift errors fd grids models norms spectrum",
    "solve-ma": "_lapack cli continuity errors fd grids models norms spectrum",
    "verify": "_lapack cli diagnostics errors fd grids models norms spectrum",
    "report": "_lapack cli continuity diagnostics errors fd grids models norms spectrum weights",
    "glue": "_lapack cli errors fd gluing grids models spectrum",
}


def test_each_command_alone_loads_exactly_its_modules(tmp_path):
    """The exact package modules of each command, run alone.  The Newton
    solver's band march is continuity's own, so solve-ma and report leave drift
    (the linear mode solve) unloaded."""
    assert list(COMMAND_MODULES) == COMMANDS
    for name, modules in COMMAND_MODULES.items():
        (tmp_path / name).mkdir()
        steps, _, _, loaded = _import_probe(tmp_path / name, [name])
        assert steps[name][0] == 0, name
        assert loaded["import"] == "_lapack cli errors spectrum".split()
        assert loaded[name] == modules.split(), name


def test_glue_alone_imports_no_scipy(tmp_path):
    probe = ("import json, sys, acylsoliton.cli\n"
             "code = acylsoliton.cli.run(['glue', '--output', 'g'])\n"
             "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    done = _fresh_python(["-c", probe], tmp_path)
    assert json.loads(done.stdout) == [0, []], done.stderr
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert "lapack" not in manifest["versions"]


CONTRACT_PROBE = """
import json, sys
import acylsoliton as ak
from acylsoliton import _lapack

def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)

steps = {"import": loaded("acylsoliton")}
scipy_at_import = loaded("scipy")
import acylsoliton.cli
extra = {"solve-linear": ["--rhs", sys.argv[1]]}
for name in sys.argv[2:]:
    assert acylsoliton.cli.run([name, *extra.get(name, []), "--output", name]) == 0, name
    steps[name] = loaded("acylsoliton")
import acylsoliton.spectrum
print(json.dumps([steps, scipy_at_import, type(ak.spectrum).__name__]))
"""


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    """A fresh interpreter runs the commands in turn, so each step's module
    set also holds every earlier step's.  verify loads diagnostics, which
    glue must not, and solve-linear loads drift, which verify must not, so
    verify runs in an interpreter of its own."""

    def probe(*commands):
        done = _fresh_python(["-c", CONTRACT_PROBE, os.path.abspath(FIXTURE), *commands],
                             tmp_path)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    steps, scipy_at_import, spectrum_type = probe("spectrum", "weights", "solve-linear", "glue")
    steps["verify"] = probe("verify")[0]["verify"]

    def loads(step, *names):
        return {f"acylsoliton.{name}" for name in names} & set(steps[step])

    assert scipy_at_import == []
    assert not loads("import", "continuity", "drift", "diagnostics", "gluing")
    assert not loads("weights", "continuity", "drift")
    assert not loads("solve-linear", "continuity", "gluing")
    assert not loads("glue", "continuity", "diagnostics")
    assert not loads("verify", "continuity", "drift")
    # importing the submodule leaves the package's spectrum bound to the function
    assert spectrum_type == "function"


def relative_import_graph(package_dir):
    """module -> the package modules it imports by relative import, at module
    level or inside a function; `from . import x` names module x if there is
    one, else the package's __init__."""
    modules = {name[:-3] for name in os.listdir(package_dir) if name.endswith(".py")}
    graph = {}
    for module in modules:
        with open(os.path.join(package_dir, module + ".py")) as fh:
            tree = ast.parse(fh.read())
        graph[module] = {
            target
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
            for target in ([node.module.split(".")[0]] if node.module else
                           [name.name if name.name in modules else "__init__"
                            for name in node.names])
        }
    return graph


def import_cycle(graph):
    """A list of modules that import each other in a ring, or None."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        cycle = next(filter(None, map(visit, sorted(graph[module]))), None)
        path.pop()
        done.add(module)
        return cycle

    return next(filter(None, map(visit, sorted(graph))), None)


def test_relative_imports_have_no_cycle():
    """No module of the package imports one that imports it back, even
    through a deferred import inside a function."""
    package_dir = os.path.dirname(ak.__file__)
    graph = relative_import_graph(package_dir)
    assert {"cli", "gluing", "models"} <= set(graph)
    assert "models" in graph["gluing"] and "fd" in graph["models"]
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert import_cycle(graph) is None


PUBLIC_NAMES = """
    AcylSolitonError BoundaryPolicy ConfigError ContinuityConfig ContinuityStalled CriticalWeight
    CriticalWeightSet CrossSection CyclicQuotient DomainError GlueSpec GridFunction Kind
    ModeProblem NewtonDiverged PositivityLost REFERENCE_LAMBDA0 RadialKahlerModel
    RadialPotential SingularSystem SolitonSolution StepRecord VerificationReport
    auto_rho
    cigar_model continuity continuity_solve critical_weights cylinder_model decay_rate_fit
    decaying_gauge diagnostics drift errors fd fredholm_window_check
    glue_coefficient glued_forcing glued_model gluing grids hexagonal_lattice
    hexagonal_rotation_quotient invariant_spectrum ma_residual_radial
    manufactured_potential model_to_text models
    negation_quotient norms poincare_rayleigh ricci_coefficient
    smoothstep soliton_residual solve_field solve_mode spectrum square_lattice uniform_nodes
    uniqueness_check verify_solution weighted_sup_norm weights
""".split()


# The parameter names of each public function and dataclass, and of the
# dataclasses' public methods: a new setting shows up here as a test edit.
PUBLIC_SIGNATURES = {
    "BoundaryPolicy": "inner outer",
    "ContinuityConfig": "s_steps newton_tol max_newton min_step",
    "CriticalWeight": "epsilon mu branch",
    "CriticalWeightSet": "weights window mu_max",
    "CrossSection": "circle_length lattice quotient",
    "CyclicQuotient": "order lattice_map",
    "GlueSpec": "t0 smoothstep_degree margin",
    "GlueSpec.bump": "self t rho0",
    "GlueSpec.bump_integral": "self t rho0",
    "GlueSpec.cutoff": "self t",
    "GridFunction": "t_min t_max h values",
    "GridFunction.from_csv": "path",
    "GridFunction.like": "self values",
    "GridFunction.same_grid": "self other",
    "GridFunction.sample": "fn t_min t_max h",
    "GridFunction.to_csv": "self path",
    "GridFunction.zeros_like": "self",
    "ModeProblem": "model mu rhs boundary",
    "RadialKahlerModel": "n kind a log_a f_minus_2t glue_params",
    "RadialKahlerModel.f": "self t",
    "RadialKahlerModel.sample_a": "self t",
    "RadialPotential": "t_min t_max h values increments",
    "SolitonSolution": "phi phi_anchored records decay_rate",
    "SolitonSolution.path_dict": "self",
    "StepRecord": ("s newton_iterations sup_residual min_metric_ratio "
                   "max_metric_ratio weighted_sup_phi inf_drift_potential sup_radial_derivative"),
    "VerificationReport": "checks metadata",
    "VerificationReport.as_dict": "self",
    "VerificationReport.summary_lines": "self",
    "auto_rho": "spec inner_model",
    "cigar_model": "n",
    "continuity_solve": "model forcing config",
    "critical_weights": "spectrum window",
    "cylinder_model": "n",
    "decay_rate_fit": "u",
    "decaying_gauge": "u",
    "fredholm_window_check": "cws interval",
    "glue_coefficient": "grid spec inner_model rho0",
    "glued_forcing": "model grid",
    "glued_model": "inner_model spec",
    "hexagonal_lattice": "",
    "hexagonal_rotation_quotient": "",
    "invariant_spectrum": "cs mu_max",
    "ma_residual_radial": "model phi forcing s",
    "manufactured_potential": "grid amplitude",
    "model_to_text": "model",
    "negation_quotient": "dim",
    "poincare_rayleigh": "model grid",
    "ricci_coefficient": "model grid",
    "smoothstep": "x degree",
    "soliton_residual": "model phi",
    "solve_field": "model cross_section rhs_by_mode",
    "solve_mode": "problem",
    "spectrum": "cs mu_max",
    "square_lattice": "",
    "uniform_nodes": "t_min t_max h",
    "uniqueness_check": "model forcing initializations",
    "verify_solution": "model solution forcing",
    "weighted_sup_norm": "u k epsilon",
}


def _public_signatures():
    signatures = {}
    for name in ak.__all__:
        value = getattr(ak, name)
        if inspect.isfunction(value) or dataclasses.is_dataclass(value):
            signatures[name] = " ".join(inspect.signature(value).parameters)
        if dataclasses.is_dataclass(value):
            for attr, member in vars(value).items():
                if not attr.startswith("_") and (inspect.isfunction(member)
                                                 or isinstance(member, classmethod)):
                    signatures[f"{name}.{attr}"] = " ".join(
                        inspect.signature(getattr(value, attr)).parameters)
    return signatures


def test_public_names_resolve_on_first_access():
    assert sorted(ak.__all__) == PUBLIC_NAMES
    assert _public_signatures() == PUBLIC_SIGNATURES
    submodules = {"continuity", "diagnostics", "drift", "errors", "fd", "gluing", "grids",
                  "models", "norms", "weights"}
    for name in ak.__all__:
        value = getattr(ak, name)
        assert isinstance(value, types.ModuleType) == (name in submodules), name
        assert name in dir(ak)
    assert ak.spectrum is sys.modules["acylsoliton.spectrum"].spectrum
    with pytest.raises(AttributeError, match="no_such_name"):
        ak.no_such_name


@pytest.mark.parametrize("args", [["glue", "--t0", t0] for t0 in ("3.001", "3.0025", "5.123")]
                         + [["solve-ma", "--model", "glued", "--rhs", "manufactured"]])
def test_glue_off_the_lattice_t0(tmp_path, args):
    """t0 + 3 off the h = 0.005 gluing lattice: the grid ends at the next node."""
    config = tmp_path / "glue.cfg"
    config.write_text("glue.t0 = 3.001\n")
    assert run_cli(args + ["--config", str(config)], tmp_path / "out") == 0
    if args[0] == "glue":
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["notes"]["min_coefficient"] >= manifest["config"]["glue_margin"]


def test_python_dash_m_runs_the_cli(tmp_path):
    done = _fresh_python(["-m", "acylsoliton", "spectrum", "--output", "d"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "d" / "spectrum.csv").exists()


def test_report_passes(tmp_path):
    code = run_cli(["report"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["exact_soliton_residual"] < 1e-12
    assert report["fredholm_window_clear"] is True


@pytest.mark.slow
def test_report_passes_at_finest_grid(tmp_path):
    """At h = 1e-4 the manufactured forcing is exact to rounding, so the
    solved residual reads 1.0e-11 and the report passes."""
    config = tmp_path / "fine.cfg"
    config.write_text("grid.h = 0.0001\n")
    assert run_cli(["report", "--config", str(config)], tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    residual = next(c for c in report["checks"] if c["name"] == "monge_ampere_residual_sup")
    assert residual["value"] <= 1e-9


@pytest.mark.parametrize("kind", ["cylinder", "glued"])
def test_report_rejects_a_model_other_than_the_cigar(tmp_path, capsys, kind):
    # report's checks are the cigar's; solving the cigar under another
    # model.kind would make manifest.json and report.json disagree
    config = tmp_path / "model.cfg"
    config.write_text(f"model.kind = {kind}\ngrid.t_min = 0\n")
    assert run_cli(["report", "--config", str(config)], tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "model.kind" in err and repr(kind) in err
    assert not (tmp_path / "out" / "report.json").exists()
    finished_manifest(tmp_path / "out", 1, err)


def test_report_failing_check_exits_4_with_a_finished_manifest(tmp_path, capsys):
    """On t_min = 0 the manufactured Monge-Ampere residual check fails (2.2e-6 at
    h = 0.01): report.json says so, stderr names the check, and the manifest
    records exit 4 with that line as its error."""
    config = tmp_path / "cut.cfg"
    config.write_text("grid.t_min = 0\n")
    assert run_cli(["report", "--config", str(config)], tmp_path / "out") == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    captured = capsys.readouterr()
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["monge_ampere_residual_sup"]
    assert captured.err == f"[FAIL] monge_ampere_residual_sup: {failed[0]['value']:.6g} <= 1e-09\n"
    manifest = finished_manifest(tmp_path / "out", 4, captured.err)
    assert "lapack" in manifest["versions"]


def test_manifest_written_before_outputs(tmp_path, monkeypatch, capsys):
    # fail inside the subcommand: the manifest must already exist
    import acylsoliton.cli as cli

    def boom(cfg, runner, args):
        raise ak.DomainError("forced failure")

    monkeypatch.setattr(cli, "_cmd_spectrum", boom)
    code = run_cli(["spectrum"], tmp_path)
    assert code == 1
    assert finished_manifest(tmp_path, 1, capsys.readouterr().err)["error"] == \
        "error: forced failure"


def test_usage_error_on_missing_rhs(tmp_path):
    code = run_cli(["solve-linear", "--model", "cigar", "--mu", "0",
                    "--rhs", str(tmp_path / "missing.csv")], tmp_path)
    assert code == 1


def test_outdir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "enviro"
    monkeypatch.setenv("ACYLSOLITON_OUTDIR", str(target))
    code = run(["spectrum"])
    assert code == 0
    assert (target / "spectrum.csv").exists()


def test_output_flag_beats_env_and_config(tmp_path, monkeypatch):
    """--output > ACYLSOLITON_OUTDIR > output.dir, and the manifest names the directory used."""
    config = tmp_path / "out.cfg"
    config.write_text(f"output.dir = {tmp_path / 'config'}\n")
    monkeypatch.setenv("ACYLSOLITON_OUTDIR", str(tmp_path / "env"))
    flag = ["--output", str(tmp_path / "flag")]
    for args, used in ((flag, "flag"), ([], "env"), ([], "config")):
        if used == "config":
            monkeypatch.delenv("ACYLSOLITON_OUTDIR")
        assert run(["spectrum", "--config", str(config), *args]) == 0
        manifest = json.loads((tmp_path / used / "manifest.json").read_text())
        assert manifest["config"]["output_dir"] == str(tmp_path / used)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config", "env", "flag", "out.cfg"]


def test_plot_svg(tmp_path):
    rhs_path, _ = decaying_rhs(tmp_path)
    code = run(["solve-linear", "--model", "cigar", "--mu", "0", "--plot",
                "--rhs", rhs_path, "--output", str(tmp_path)])
    assert code == 0
    svg = (tmp_path / "solution.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("args", [["spectrum", "--plot"],
                                  ["--plot", "solve-ma", "--rhs", "manufactured"]],
                         ids=["spectrum", "before_the_command"])
def test_plot_flag_only_on_the_commands_that_plot(tmp_path, capsys, args):
    """--plot belongs to solve-linear and solve-ma, after the command name."""
    assert run(args + ["--output", str(tmp_path / "out")]) == 1
    assert "unrecognized arguments: --plot" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
