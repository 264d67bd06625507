"""Smoke test of the benchmark: no timing gates.

Each workload runs once untraced and once traced (--smoke).  The test checks
that every metric named in BENCHMARK.json is emitted with its unit, that the
output checks ran and passed, that spans carry parent links, that the work
clock paces each operation, and that the benchmark refuses to run without
the package source.

    python -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("bench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# figures each workload exists to produce; they must be non-zero there
OWN_FIGURES = {
    "cli_pipeline": ["report_s", "cli.report_s", "cli.bytes_written", "import.total_s"],
    "solve_ladder": ["nodes_per_s", "rung_s.h1e-3", "rung_s.h1e-4", "fail_ratio",
                     "continuity.failed.cigar.h1e-4", "diagnostics.poincare_rayleigh_s.h1e-4",
                     "drift.solves", "grids.csv_rows"],
    "spectrum_sweep": ["spectrum.modes", "spectrum.invariant_spectrum_s", "weights.count"],
}


def _smoke(workload, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", "1", "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload):
    proc = _smoke(workload)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2][len("bench-record "):])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert spec["name"] in metrics, spec["name"]
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["value"] > 0, spec["name"]
    for name in OWN_FIGURES[workload]:
        assert metrics[name]["value"] > 0, name
    assert record["unlisted_metrics"] == []
    assert record["setup_factor"] > 0 and len(record["iter_s_scaled_samples"]) == 1
    assert record["digests"] and not record["digest_mismatches"]
    assert set(record["environment"]) >= {"python", "numpy", "scipy", "nproc", "cpu_model",
                                          "threads", "source_lines"}
    with open(os.path.join(ROOT, record["spans_file"])) as fh:
        spans = [json.loads(line) for line in fh]
    by_id = {s["id"]: s for s in spans}
    nested = [s for s in spans if s["parent"] is not None]
    if workload != "spectrum_sweep":  # its traced functions call no other traced one
        assert nested, "no nested spans"
    for span in nested:
        parent = by_id[span["parent"]]
        assert parent["iteration"] == span["iteration"]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    if workload == "solve_ladder":  # the known h = 1e-4 stall is reported, not hidden
        assert result["failed"] >= 1
        assert any(f["kind"] == "ContinuityStalled" and "s_reached" in f["context"]
                   for f in record["failures"])


@pytest.mark.parametrize("reference", ["interpreter", "arrays"])
def test_work_clock_paces_each_operation(reference):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    assert set(workloads.REFERENCES) == {"interpreter", "arrays"}
    clock = workloads.WorkClock(reference)
    ledger = workloads.Ledger(clock)
    assert ledger.run("sleep", lambda: time.sleep(0.05)) is None
    assert clock.wall >= 0.05 and clock.paced >= clock.wall
    assert clock.scaled > 0 and ledger.failed == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _smoke("solve_ladder", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
