"""The benchmark's traced run, half a second of each workload.

`perfbench/tracer.py` wraps library functions by name (its `TRACED` table),
so a traced run fails once one of them is renamed or deleted.  A traced run
also fails when the `ShiftOracle.query` calls differ from the summed calls of
the oracles `oracle.new_oracle` built.  Each workload that `BENCHMARK.json`
declares must exit 0.  The test reads `perfbench/` and changes nothing in it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_exits_0(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "1"]
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
