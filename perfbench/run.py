"""shiftbreak benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload recover_small_sweep --seed 1 \
        --seconds 30 --trace 0

With `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
the same workload runs with every public function of the seven modules
wrapped, and the result holds the per-layer metrics.  Earlier lines give the
run's provenance, every metric by name and unit, and the failures.  The exit
code is 0 when every output matched its ground truth, 1 when one did not, and
2 when the benchmark could not run (for example, no `src/` next to it).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import harness
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    harness.set_memory_cap()
    workload = WORKLOADS[args.workload]()
    try:
        result = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        workload.close()

    notes = result.notes
    tracer = notes.pop("tracer", None)
    if tracer is not None:
        spans = harness.trace_path(workload.name, args.seed)
        tracer.write_spans(spans)
        notes["spans_file"] = str(spans.relative_to(harness.ROOT))
    print("provenance " + json.dumps(notes.pop("provenance")))
    print("run " + json.dumps(notes))
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, (value, unit) in result.reported.items():
        print(f"metric {name} {value:.6g} {unit} (reported, not gated)")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
