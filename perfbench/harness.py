"""Closed-loop runner: set-up, timed passes, output checks, metrics.

One client in one thread issues each operation after the previous one
returns.  A run is a sequence of whole passes; every pass of a workload does
the same kind of work (fresh seeded inputs, library caches emptied first),
and a new pass starts only while it is expected to end within the run's
seconds, so ratios such as ops/s do not depend on where a run was cut.
Every time is corrected for the host's speed as `hostspeed.py` describes.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from hostspeed import SEGMENT_NS, HostClock
from lib import ROOT, clear_caches
from lib import errors as lib_errors
from tracer import Tracer

SETUP_ROUNDS = 3
SETUP_MIN_S = 0.25
SETUP_ROUND_S = 0.05
MEMORY_CAP_MB = 512  # address-space cap of the benchmark process


class Deadline(BaseException):
    """Raised by SIGALRM when an operation overruns the workload deadline.

    A BaseException, so that no `except Exception` in the library can
    swallow it."""


@dataclass(eq=False)
class Op:
    label: str
    # The timed operation.  It appends every oracle it builds to the list it
    # is given, so that calls can be counted even when it fails.
    run: Callable[[list], object]
    # Returns None when the answer is right, else a description of the error.
    check: Callable[[object], str | None]
    # Calls charged on failure on top of those made: e + 1 for a recovery,
    # the cost of falling back to interpolation.
    fallback: int = 0
    # Whether the operation queries an oracle; others stay out of the
    # oracle metrics.
    queries: bool = True
    # For operations whose oracles the benchmark cannot see (the CLI): the
    # calls read from the answer.
    calls_from: Callable[[object], int] | None = None


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    # End-to-end numbers printed beside the metrics but not gated: see
    # perfbench/README.md for why each is left out of BENCHMARK.json.
    reported: dict[str, tuple[float, str]]
    notes: dict = field(default_factory=dict)


@dataclass
class Tally:
    """What a run keeps of its operations.  Answers are checked as they come
    and dropped, so memory does not grow with the length of the run beyond
    one float per latency."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # answers that failed their check, and untyped errors
    mismatches: list[str] = field(default_factory=list)  # the first 20
    failures: set[str] = field(default_factory=set)  # the first 20 kinds
    calls_sum: int = 0
    calls_ops: int = 0
    calls_max: int = 0
    latencies_ms: array = field(default_factory=lambda: array("d"))
    passes: int = 0
    loop_ns: float = 0.0  # summed latencies of all operations, corrected
    raw_loop_ns: int = 0  # and as measured
    pass_rates: list[float] = field(default_factory=list)  # completed ops/s

    def add(self, op: Op, answer, error: str | None, calls: int) -> bool:
        """Checks one answer; returns whether the operation completed."""
        self.attempted += 1
        if error is None:
            error = op.check(answer)
            wrong = error is not None
        else:
            wrong = error.startswith("untyped")
        if wrong:
            self.wrong += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(f"{op.label}: {error}")
        if op.queries:
            calls += op.fallback if error is not None else 0
            self.calls_sum += calls
            self.calls_ops += 1
            self.calls_max = max(self.calls_max, calls)
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.add(f"{op.label}: {error}")
        return error is None


def set_memory_cap() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_MB * 2**20
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _on_alarm(signum, frame):
    raise Deadline("operation deadline reached")


def _execute(op: Op, deadline_s: float | None):
    """Runs one operation: (answer, error, latency_ns, oracle calls)."""
    sink: list = []
    answer, error, end = None, None, None
    start = time.perf_counter_ns()
    try:
        if deadline_s:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            answer = op.run(sink)
        finally:
            end = time.perf_counter_ns()
            if deadline_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except (lib_errors.ShiftbreakError, MemoryError, Deadline) as exc:
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # an untyped error is a defect: keep going, report it
        error = f"untyped {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    if end is None:  # the deadline fired inside the `finally` above
        end = time.perf_counter_ns()
    if op.calls_from is not None:
        calls = op.calls_from(answer) if error is None else 0
    else:
        calls = sum(o.calls for o in sink)
    return answer, error, end - start, calls


def measure_setup(workload, seed: int, clock: HostClock):
    """Median over rounds of set-ups: at least SETUP_ROUNDS, and more while
    their total is under SETUP_MIN_S.  A round repeats the set-up until it
    has taken SETUP_ROUND_S, so that sub-millisecond set-ups are timed often
    enough to be steady, and is corrected for the host's speed as a whole.
    Returns the state, the corrected and raw medians, and the set-ups run."""
    corrected, raw = [], []
    repeats, total_s = 0, 0.0
    while len(raw) < SETUP_ROUNDS or total_s < SETUP_MIN_S:
        n, round_s = 0, 0.0
        while n == 0 or round_s < SETUP_ROUND_S:
            start = time.perf_counter()
            state = workload.setup(seed)
            round_s += time.perf_counter() - start
            n += 1
        repeats += n
        total_s += round_s
        raw.append(round_s / n)
        corrected.append(round_s / n * clock.correction())
    return state, statistics.median(corrected), statistics.median(raw), repeats


def _close_stretch(stretch: list[tuple[int, bool]], clock: HostClock, latencies_ms: list) -> float:
    """Corrects a stretch of (latency ns, completed) pairs by a new
    reference timing; appends the completed latencies (ms) to
    `latencies_ms` and returns the stretch's corrected total (ns)."""
    factor = clock.correction()
    for latency_ns, completed in stretch:
        if completed:
            latencies_ms.append(latency_ns * factor / 1e6)
    return sum(latency_ns for latency_ns, _ in stretch) * factor


def run_passes(workload, state, seed: int, seconds: float, tracer: Tracer | None,
               clock: HostClock) -> Tally:
    """Whole passes until the next one would end after `seconds`; at least one.

    A pass's time is the sum of its operations' latencies; the cache
    clearing between groups, the output checks and the reference timings
    are outside it."""
    tally = Tally()
    started = time.perf_counter()
    while True:
        groups = workload.pass_ops(state, random.Random(f"{seed}/{tally.passes}"))
        pass_started = time.perf_counter()
        pass_ns, raw_pass_ns = 0.0, 0
        pass_latencies = []
        stretch, stretch_ns = [], 0  # operations since the last reference timing
        for group in groups:
            clear_caches()
            for op in group:
                if tracer:
                    tracer.begin_op(tally.attempted)
                answer, error, latency_ns, calls = _execute(op, workload.deadline_s)
                if tracer:
                    tracer.end_op()
                stretch.append((latency_ns, tally.add(op, answer, error, calls)))
                stretch_ns += latency_ns
                raw_pass_ns += latency_ns
                if stretch_ns >= SEGMENT_NS:
                    pass_ns += _close_stretch(stretch, clock, pass_latencies)
                    stretch, stretch_ns = [], 0
        if stretch:
            pass_ns += _close_stretch(stretch, clock, pass_latencies)
        tally.passes += 1
        tally.latencies_ms.extend(pass_latencies)
        tally.loop_ns += pass_ns
        tally.raw_loop_ns += raw_pass_ns
        tally.pass_rates.append(len(pass_latencies) / (pass_ns / 1e9))
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return tally


def run_workload(workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """One run.  Throughput is every completed operation of the run over
    the summed latencies of all its operations, failed ones included; p50
    and p99 pool every completed operation.  All of them, and the set-up
    time, are corrected for the host's speed."""
    if workload.deadline_s:
        signal.signal(signal.SIGALRM, _on_alarm)
    clock = HostClock()
    state, setup_s, raw_setup_s, setup_repeats = measure_setup(workload, seed, clock)
    tracer = Tracer((Deadline, MemoryError)) if trace else None
    if tracer:
        tracer.install()
    try:
        tally = run_passes(workload, state, seed, seconds, tracer, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = _run_probes(workload, state, tracer) if tracer else []
    finally:
        if tracer:
            tracer.uninstall()

    mismatches = list(tally.mismatches)
    for label, outcome in probes:
        if outcome.startswith(("wrong", "untyped")):
            mismatches.append(f"probe {label}: {outcome}")
    if tracer and tracer.query_calls() != tracer.oracle_calls:
        mismatches.append(
            f"traced ShiftOracle.query calls {tracer.query_calls()} != "
            f"summed oracle.calls {tracer.oracle_calls}"
        )

    latencies = tally.latencies_ms
    completed = len(latencies)
    ops_per_s = completed / (tally.loop_ns / 1e9)
    p50 = statistics.median(latencies) if latencies else float("nan")
    p99 = statistics.quantiles(latencies, n=100)[98] if len(latencies) > 1 else p50
    notes = {
        "provenance": provenance(workload, state, seed, seconds, trace),
        "setup_repeats": setup_repeats,
        "host_slowdown": {
            "median": round(statistics.median(clock.slowdowns), 4),
            "min": round(min(clock.slowdowns), 4),
            "max": round(max(clock.slowdowns), 4),
            "timings": len(clock.slowdowns),
        },
        "passes": tally.passes,
        "pass_ops_per_s": [round(r, 3) for r in tally.pass_rates],
        "latency_samples": len(latencies),
        "samples_above_p99": sum(1 for x in latencies if x > p99),
        "failures": sorted(tally.failures),
        "wrong": tally.wrong,
        "mismatches": mismatches,
    }
    if tracer:
        notes.update(
            probes=probes,
            query_calls_traced=tracer.query_calls(),
            oracle_calls_summed=tracer.oracle_calls,
            spans_kept=len(tracer.spans),
            spans_dropped=tracer.spans_dropped,
            tracer=tracer,
        )
        metrics = tracer.metrics(ops_per_s)
        reported = {}
    else:
        calls_mean = tally.calls_sum / tally.calls_ops if tally.calls_ops else 0.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p99_ms": (p99, "ms"),
            "oracle_calls_mean": (calls_mean, "calls/op"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        reported = {
            "oracle_calls_max": (tally.calls_max, "calls"),
            "failed_frac": (tally.failed / tally.attempted, "ratio"),
            "setup_s_raw": (raw_setup_s, "s"),
            "ops_per_s_raw": (completed / (tally.raw_loop_ns / 1e9), "ops/s"),
        }
    correct = not mismatches and tally.wrong == 0
    return RunResult(correct, tally.attempted, tally.failed, metrics, reported, notes)


def trace_path(workload_name: str, seed: int) -> Path:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    return out / f"trace-{workload_name}-seed{seed}.jsonl"


def _run_probes(workload, state, tracer: Tracer) -> list[tuple[str, str]]:
    """Traced run only: operations the workload expects to abort today."""
    out = []
    for op in workload.probes(state):
        clear_caches()
        tracer.begin_op(-1)
        answer, error, _, _ = _execute(op, workload.deadline_s)
        tracer.end_op()
        if error is None:
            wrong = op.check(answer)
            out.append((op.label, f"wrong: {wrong}" if wrong else "ok"))
        else:
            out.append((op.label, error.split(":")[0]))
    return out


def provenance(workload, state, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cells": workload.cells(state),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "deadline_s": workload.deadline_s,
        "memory_cap_mb": MEMORY_CAP_MB,
    }
