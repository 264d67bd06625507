"""The benchmark's workloads still run on the package.

One seeded iteration of each workload of bench/workloads.py goes through the
benchmark's own Ledger in a temporary directory, untraced and without a work
clock; every operation must succeed and every output check pass.  The
benchmark's files are imported as they are, so a package change that breaks
a call the benchmark makes fails here.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 3


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return workloads


@pytest.mark.slow
@pytest.mark.parametrize("name", ["cli_pipeline", "solve_ladder", "spectrum_sweep"])
def test_one_iteration_fails_no_operation(workloads, name, tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "ACYLSOLITON_OUTDIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    workload = workloads.WORKLOADS[name](SEED, str(tmp_path), env)
    workload.setup()
    ledger = workloads.Ledger()
    workload.iteration(ledger)
    assert ledger.attempted > 0 and ledger.digests
    assert ledger.failed == 0, ledger.failure_list()
    assert ledger.correct
