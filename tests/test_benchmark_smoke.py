"""The benchmark's runs, half a second of each workload, untraced and traced.

Every run checks each operation's output.  `perfbench/tracer.py` wraps
library functions by name (its `TRACED` table), so a traced run also fails
once one of them is renamed or deleted, or when the `ShiftOracle.query`
calls differ from the summed calls of the oracles `oracle.new_oracle` built.
Each workload that `BENCHMARK.json` declares must exit 0.  The tests read
`perfbench/` and change nothing in it.
"""

import json

import pytest

from reference import ROOT, run_python

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run_benchmark(workload, trace):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", trace]
    return run_python([str(ROOT / "perfbench" / "run.py"), *argv], 120)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_benchmark_run_exits_0(workload):
    run = _run_benchmark(workload, "0")
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_exits_0(workload):
    run = _run_benchmark(workload, "1")
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
