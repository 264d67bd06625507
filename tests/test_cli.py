import json
import os

import numpy as np
import pytest

import acylsoliton as ak
from acylsoliton.cli import parse_config, run

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                       "F_manufactured_cigar.csv")


def test_parse_config_empty_gives_defaults():
    cfg = parse_config("")
    assert cfg.grid_h == 0.01 and cfg.model_kind == "cigar" and cfg.seed == 0


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


def run_cli(args, outdir):
    return run(args + ["--output", str(outdir)])


def test_weights_window_empty_body(tmp_path):
    code = run_cli(["weights", "--window", "0", "2"], tmp_path)
    assert code == 0
    lines = (tmp_path / "weights.csv").read_text().strip().splitlines()
    assert lines == ["epsilon,mu,branch"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["notes"]["fredholm_clear"] is True
    assert manifest["notes"]["margin"] == 0.0
    assert manifest["wall_time_s"] is not None


def test_spectrum_outputs(tmp_path):
    code = run_cli(["spectrum"], tmp_path)
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "mu,multiplicity"
    assert lines[1] == "0,1"


def test_solve_linear(tmp_path):
    rhs = ak.GridFunction.sample(lambda t: np.exp(-1.5 * t) * np.clip(t / 2, 0, 1) ** 4,
                                 -12.0, 20.0, 0.01)
    rhs_path = tmp_path / "rhs.csv"
    rhs.to_csv(rhs_path)
    code = run_cli(["solve-linear", "--model", "cigar", "--mu", "0", "--rhs", str(rhs_path)],
                   tmp_path)
    assert code == 0
    assert (tmp_path / "solution.csv").exists()
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["decay_rate"] >= 1.45


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


def test_solve_ma_huge_amplitude_exits_2_or_3(tmp_path):
    forcing = ak.GridFunction.from_csv(FIXTURE)
    hostile = forcing.like(1e3 * forcing.values)
    hostile_path = tmp_path / "hostile.csv"
    hostile.to_csv(hostile_path)
    code = run_cli(["solve-ma", "--model", "cigar", "--rhs", str(hostile_path)], tmp_path)
    assert code in (2, 3)
    if code == 2:
        path = json.loads((tmp_path / "path.json").read_text())
        assert path["converged"] is False


def test_glue_outputs(tmp_path):
    code = run_cli(["glue", "--inner", "cigar", "--t0", "3", "--margin", "0.01"], tmp_path)
    assert code == 0
    text = (tmp_path / "model.txt").read_text()
    assert "kind = glued" in text
    coeff = ak.GridFunction.from_csv(tmp_path / "coefficient.csv")
    assert np.min(coeff.values) >= 0.01


@pytest.mark.parametrize(
    "args",
    [
        ["solve-ma", "--rhs", "manufactured", "--n", "0"],
        ["glue", "--t0", "0"],
        ["glue", "--margin", "0"],
    ],
)
def test_zero_valued_flags_are_validated(tmp_path, args):
    assert run_cli(args, tmp_path) == 1
    assert not (tmp_path / "manifest.json").exists()


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


def test_report_passes(tmp_path):
    code = run_cli(["report"], tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["exact_soliton_residual"] < 1e-12
    assert report["fredholm_window_clear"] is True


def test_manifest_written_before_outputs(tmp_path, monkeypatch):
    # fail inside the subcommand: the manifest must already exist
    import acylsoliton.cli as cli

    def boom(cfg, runner):
        raise ak.DomainError("forced failure")

    monkeypatch.setattr(cli, "_cmd_spectrum", boom)
    code = run_cli(["spectrum"], tmp_path)
    assert code == 1
    assert (tmp_path / "manifest.json").exists()


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


def test_plot_svg(tmp_path):
    rhs = ak.GridFunction.sample(lambda t: np.exp(-1.5 * t) * np.clip(t / 2, 0, 1) ** 4,
                                 -12.0, 20.0, 0.01)
    rhs_path = tmp_path / "rhs.csv"
    rhs.to_csv(rhs_path)
    code = run(["--plot", "solve-linear", "--model", "cigar", "--mu", "0",
                "--rhs", str(rhs_path), "--output", str(tmp_path)])
    assert code == 0
    svg = (tmp_path / "solution.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
