"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads identity_exact cli_lab --seeds 1-10
    python3 perfbench/spread.py --trace 1 --seeds 1-3 --json traced.json

For every workload and metric it prints the median of the runs and the
distance between their first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`), beside the metric's bound from
BENCHMARK.json.  Runs go one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, with the run's wall time added."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]) | {"wall_s": wall_s}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("nan"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(spec, workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            runs.append(result)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values) | {
                "unit": runs[0]["metrics"][name]["unit"],
                "values": values,
            }
        summary[workload] = {
            "seeds": seed_list(args.seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "metrics": metrics,
        }
        walls = summary[workload]["wall_s"]
        print(f"\n{workload}  (run wall time: max {max(walls):.1f} s, "
              f"total {sum(walls):.0f} s)")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and m["spread"] == m["spread"]:
                flag = "ok" if m["spread"] < bound / 3 else (
                    "WIDE" if m["spread"] <= bound else "OVER BOUND")
            print(f"  {name:<56} median {m['median']:<12.6g} {m['unit']:<9} "
                  f"spread {m['spread']:.4f}  bound {bound}  {flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
