"""Quick self-test of the benchmark (a few seconds).

    python3 perfbench/selftest.py

Runs a tiny version of every workload untraced and traced, and checks that:
every metric named in BENCHMARK.json is emitted with its unit; the tiny runs
pass their output checks; the traced oracle-call cross-check holds; a
corrupted answer in each workload is caught and makes the run incorrect;
and the command fails without a result where no `src/` sits beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import harness
from lib import ROOT, it
from workloads import WORKLOADS, Workload

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def corrupt(answer):
    """The same answer with one field wrong, for every kind of operation."""
    if isinstance(answer, int):
        return answer + 1
    if answer in (it.EQUAL, it.DISTINCT):
        return it.DISTINCT if answer == it.EQUAL else it.EQUAL
    code, out = answer
    rows = [json.loads(line) for line in out.splitlines()]
    key = "exact_count" if "exact_count" in rows[0] else "recovered"
    rows[0][key] += 1
    return code, "".join(json.dumps(row) + "\n" for row in rows)


class Corrupted(Workload):
    """Wraps a workload so that the first operation of each pass lies."""

    def __init__(self, workload):
        self.inner = workload
        self.name, self.why = workload.name, workload.why
        self.deadline_s = workload.deadline_s

    def setup(self, seed):
        return self.inner.setup(seed)

    def cells(self, state):
        return self.inner.cells(state)

    def pass_ops(self, state, rng):
        groups = self.inner.pass_ops(state, rng)
        first = groups[0][0]
        groups[0][0] = harness.Op(
            first.label,
            lambda sink, run=first.run: corrupt(run(sink)),
            first.check,
            first.fallback,
            first.queries,
            first.calls_from,
        )
        return groups


def check_spec(spec) -> tuple[dict, dict]:
    from tracer import layer_metric_specs

    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly its six keys",
    )
    expect(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json lists the four workloads",
    )
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(
        layer == {n: u for n, (u, _) in layer_metric_specs().items()},
        "per_layer in BENCHMARK.json matches the tracer's metrics",
    )
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, layer


def check_workloads(e2e: dict, layer: dict) -> None:
    for name, cls in WORKLOADS.items():
        workload = cls(tiny=True)
        try:
            plain = harness.run_workload(workload, seed=1, seconds=0, trace=False)
            traced = harness.run_workload(workload, seed=1, seconds=0, trace=True)
            bad = harness.run_workload(Corrupted(workload), seed=1, seconds=0, trace=False)
        finally:
            workload.close()
        for res, want, mode in ((plain, e2e, "untraced"), (traced, layer, "traced")):
            got = {n: u for n, (_, u) in res.metrics.items()}
            expect(got == want, f"{name} {mode}: every metric emitted with its unit")
            expect(res.correct and res.failed == 0 and res.attempted > 0,
                   f"{name} {mode}: {res.attempted} operations, all outputs checked right")
        if name == "recover_wide_p":
            aborted = traced.metrics["field_core.aborted"][0]
            expect(aborted == len(traced.notes["probes"]) > 0,
                   f"{name} traced: probes {traced.notes['probes']}, "
                   f"{aborted} charged to field_core.aborted")
        calls = traced.notes["query_calls_traced"]
        expect(calls == traced.notes["oracle_calls_summed"] and calls > 0,
               f"{name} traced: {calls} query calls equal the summed oracle.calls")
        expect(not bad.correct and bad.failed == 1,
               f"{name}: a corrupted answer is caught ({bad.failed} failed)")


def check_bare_directory(spec) -> None:
    """Only BENCHMARK.json and the benchmark's own files: must fail cleanly."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, f"{bare}/{path}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                 "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           f"without src/ the command exits {proc.returncode} and prints no result")


def main() -> int:
    harness.set_memory_cap()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, layer = check_spec(spec)
    check_workloads(e2e, layer)
    check_bare_directory(spec)
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
