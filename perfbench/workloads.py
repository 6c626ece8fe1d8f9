"""The four benchmark workloads.

Operations reach the library through module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import tempfile
from pathlib import Path

import naive
from harness import Op
from lib import ROOT, cli, fc, it, oracle, rs, sr

SAFE_PRIME_48 = 140737488356903  # 2q + 1 with q prime, 48 bits
MERSENNE_61 = 2**61 - 1


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi) if fc.is_prime(p)]


class Workload:
    """A named, seeded source of operations.

    `setup(seed)` builds every PrimeContext, ExponentParams and WitnessSet
    (for `cli_lab`: every command line and grid file) the run uses;
    `pass_ops(state, rng)` returns one pass as groups of operations, each
    group starting with the library caches empty; `cells(state)` lists the
    cells for the run's provenance."""

    name: str
    why: str  # one sentence, recorded with every run
    deadline_s: float | None = None  # per operation

    def probes(self, state) -> list[Op]:
        """Operations expected to abort today; only the traced run tries them."""
        return []

    def close(self) -> None:
        pass


# -- recovery ------------------------------------------------------------


def _run_recovery(alg, o, wits, policy, seed):
    if alg == "interpolation":
        return sr.interpolation_recover(o)
    if alg == "zero_call_narrow":
        return sr.recover_zero_call_narrow(o, policy)
    if alg == "smooth_narrow":
        return sr.recover_smooth_narrow(o, policy)
    if alg == "randomized":
        return sr.recover_randomized(o, sr.initial_candidates_zero_call(o, wits), seed)
    return sr.recover_large_e(o, policy)


def recovery_op(cell, alg: str, s: int, seed: int) -> Op:
    ctx, params, wits, policy = cell

    def run(sink):
        o = oracle.new_oracle(ctx, params, s)
        sink.append(o)
        return _run_recovery(alg, o, wits, policy, seed)

    def check(got):
        return None if got == s else f"recovered {got}, planted {s}"

    return Op(f"{alg} p={ctx.p} e={params.e}", run, check, fallback=params.e + 1)


def _recovery_cell(ctx, e: int, max_rounds: int):
    params = fc.make_params(ctx, e)
    policy = sr.ProbePolicy(max_rounds=max_rounds)
    return ctx, params, rs.full_witness_set(ctx, params), policy


ALGORITHMS = (
    "interpolation",
    "zero_call_narrow",
    "smooth_narrow",
    "randomized",
    "large_e",
)


class RecoverSmallSweep(Workload):
    name = "recover_small_sweep"
    why = (
        "all five algorithms over every p in a small band and every e | p-1: "
        "tiny reused tables, so the work is narrowing, the d = 1 path, root "
        "descent, the pigeonhole and the large_e scan"
    )

    def __init__(self, tiny: bool = False):
        self.band = (101, 110) if tiny else (101, 400)

    def setup(self, seed):
        cells = []
        for p in _primes(*self.band):
            ctx = fc.make_context(p)
            for e in _divisors(p - 1):
                cells.append(_recovery_cell(ctx, e, max(64, p)))
        return cells

    def pass_ops(self, cells, rng):
        ops = []
        for cell in cells:
            s = rng.randrange(cell[0].p)
            for alg in ALGORITHMS:
                ops.append(recovery_op(cell, alg, s, rng.randrange(2**32)))
        return [ops]

    def cells(self, cells):
        return [[c[0].p, c[1].e] for c in cells]


_DENSE = ("interpolation", "zero_call_narrow", "smooth_narrow", "randomized")
_SPARSE = ("interpolation", "smooth_narrow")

# (p, e, algorithms).  Above p = 10^6 only the algorithms that complete
# without a dense field table today are timed; the others are probes.
WIDE_CELLS = (
    (9871, 3, _DENSE),
    (9871, 35, _DENSE),
    (100591, 3, _DENSE),
    (100591, 35, _DENSE),
    (1000231, 3, _DENSE),
    (1000231, 35, _DENSE),
    (1000000009, 4, _SPARSE + ("zero_call_narrow",)),
    (1000000009, 504, _SPARSE),
    (MERSENNE_61, 3, _SPARSE + ("zero_call_narrow",)),
    (MERSENNE_61, 150, _SPARSE),
    (MERSENNE_61, 1001, _SPARSE),
    (SAFE_PRIME_48, 2, _SPARSE + ("zero_call_narrow",)),
)
# Dense-table recoveries at p >= 10^9: abort (MemoryError or deadline) today.
WIDE_PROBES = (
    (1000000009, 4, "randomized"),
    (MERSENNE_61, 150, "zero_call_narrow"),
    (SAFE_PRIME_48, 2, "randomized"),
)


class RecoverWideP(Workload):
    name = "recover_wide_p"
    why = (
        "cold (p, e) cells from p = 10^4 to 2^61 - 1 and e up to 1001: the work "
        "is power_table, _root_buckets, _interp_weights and make_context"
    )
    # 3x above the slowest operation that completes (randomized, first touch
    # at p = 1000231: about 1.3 s on a 2-core 2.1 GHz VM).
    deadline_s = 4.0

    def __init__(self, tiny: bool = False):
        self.table = WIDE_CELLS[:1] + WIDE_CELLS[6:7] if tiny else WIDE_CELLS
        self.shifts = 2 if tiny else 20

    def setup(self, seed):
        contexts = {p: fc.make_context(p) for p in dict.fromkeys(c[0] for c in self.table)}
        return {
            (p, e): (_recovery_cell(contexts[p], e, 64), algs)
            for p, e, algs in self.table
        }

    def pass_ops(self, state, rng):
        groups = []
        for cell, algs in state.values():
            group = []
            for _ in range(self.shifts):
                s = rng.randrange(cell[0].p)
                for alg in algs:
                    group.append(recovery_op(cell, alg, s, rng.randrange(2**32)))
            groups.append(group)
        return groups

    def cells(self, state):
        return [[p, e, list(algs), self.shifts] for (p, e), (_, algs) in state.items()]

    def probes(self, state):
        rng = random.Random(0)
        return [
            recovery_op(state[(p, e)][0], alg, rng.randrange(p), 1)
            for p, e, alg in WIDE_PROBES
            if (p, e) in state
        ]


# -- identity testing ----------------------------------------------------

# (p, e, theoretical): theoretical-mode pairs are drawn only where the
# closed-form budgets cover the exact windows for both variants, so that
# every verdict is determined; elsewhere the closed form is not claimed sound.
IDENTITY_CELLS = (
    (211, 15, True),
    (211, 105, False),
    (401, 2, False),
    (401, 200, False),
    (1009, 36, True),
    (1009, 504, False),
    (2003, 77, True),
    (4001, 80, True),
)
THEORETICAL_SHARE = 0.25
EXACT = it.HPolicy(mode="exact")
THEORETICAL = it.HPolicy(mode="theoretical")


def identity_op(ctx, params, s: int, t: int, variant: str, policy) -> Op:
    p = ctx.p
    if variant == "known_t":

        def run(sink):
            o = oracle.new_oracle(ctx, params, s, frozenset({(-t) % p}))
            sink.append(o)
            return it.test_known_t(o, t, policy)

    else:

        def run(sink):
            o_s = oracle.new_oracle(ctx, params, s)
            sink.append(o_s)
            o_t = oracle.new_oracle(ctx, params, t)
            sink.append(o_t)
            return it.test_unknown_t(o_s, o_t, policy)

    want = it.EQUAL if s == t else it.DISTINCT

    def check(got):
        return None if got == want else f"verdict {got} for s={s}, t={t}"

    return Op(f"{variant} {policy.mode} p={p} e={params.e}", run, check)


class IdentityExact(Workload):
    name = "identity_exact"
    why = (
        "seeded (s, t) pairs, half equal, through both identity testers: p50 is "
        "per-call overhead (choose_h, oracles), throughput is the O(p^2) "
        "exact_unknown_window on each cell's first test"
    )

    def __init__(self, tiny: bool = False):
        self.table = IDENTITY_CELLS[:2] if tiny else IDENTITY_CELLS
        self.pairs = 5 if tiny else 200

    def setup(self, seed):
        contexts = {p: fc.make_context(p) for p in dict.fromkeys(c[0] for c in self.table)}
        return [
            (contexts[p], fc.make_params(contexts[p], e), theory)
            for p, e, theory in self.table
        ]

    def pass_ops(self, cells, rng):
        ops = []
        for ctx, params, theory in cells:
            p = ctx.p
            for _ in range(self.pairs):
                s = rng.randrange(p)
                t = s if rng.random() < 0.5 else (s + rng.randrange(1, p)) % p
                theoretical = theory and rng.random() < THEORETICAL_SHARE
                policy = THEORETICAL if theoretical else EXACT
                for variant in ("known_t", "unknown_t"):
                    ops.append(identity_op(ctx, params, s, t, variant, policy))
        return [ops]

    def cells(self, cells):
        return [[ctx.p, params.e, theory, self.pairs] for ctx, params, theory in cells]


# -- the command line ----------------------------------------------------


def _rows(answer):
    _, out = answer
    return [json.loads(line) for line in out.splitlines()]


def _cli_run(argv):
    def run(sink):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def _cli_check(expect_rows):
    """Wrap a row checker: exit code 0, every line parses as JSON."""

    @functools.cache
    def check(answer):
        code, out = answer
        if code != 0:
            return f"exit code {code}"
        try:
            rows = _rows(answer)
        except json.JSONDecodeError as exc:
            return f"unparsable output: {exc}"
        return expect_rows(rows)

    return check


def _lab_cells(rng):
    """(lemma, cell, naive counter) triples: five cells of about 1 ms for
    each lemma but psi, and psi at three light cells and one of ~50 ms.

    The seed picks the values in each cell; the ranges are narrow so that
    every seed gives a pass of about the same cost.  The naive counts are
    computed when the first answer is checked, never during set-up."""
    out = []
    for p in (211, 401, 1009, 2003, 10007):
        e = rng.choice([d for d in _divisors(p - 1) if d < p - 1])
        out.append(("coset_run", {"p": p, "e": e}, functools.partial(naive.coset_run, p, e)))
    for p in (1009, 2003, 4001, 10007, 100003):
        u, v, H = rng.randrange(p), rng.randrange(1, p), rng.randrange(250, 300)
        out.append(("hyperbola", {"p": p, "u": u, "v": v, "H": H},
                    functools.partial(naive.hyperbola, p, u, v, H)))
    for p in (101, 211, 401, 1009, 2003):
        a, H = rng.randrange(p), rng.randrange(12, 16)
        out.append(("energy", {"p": p, "a": a, "H": H}, functools.partial(naive.energy, p, a, H)))
    for p in (211, 401, 1009, 2003, 10007):
        e = rng.choice([d for d in _divisors(p - 1) if 2 <= d <= 60])
        shifts = [[rng.randrange(1, p), rng.randrange(1, p)] for _ in range(2)]
        out.append(
            ("subgroup_shift", {"p": p, "e": e, "shifts": shifts},
             functools.partial(naive.subgroup_shift, p, e, shifts))
        )
    for p in (101, 211, 401, 1009, 2003):
        nu, lam, s, h = 3, rng.randrange(1, p), rng.randrange(p), rng.randrange(5, 7)
        cell = {"p": p, "nu": nu, "lam": lam, "s": s, "h": h}
        out.append(("product_J", cell, functools.partial(naive.product_J, p, nu, lam, s, h)))
    for p in (101, 211, 401, 1009, 2003):
        nu, s, h = 3, rng.randrange(p), rng.randrange(6, 8)
        t = (s + rng.randrange(1, p)) % p if rng.random() < 0.5 else None
        cell = {"p": p, "nu": nu, "s": s, "t": t, "h": h}
        out.append(("product_set", cell, functools.partial(naive.product_set, p, nu, s, t, h)))
    # The last psi cell is the one slow operation of a round, 1 in 50, so
    # that p99 lands in the middle of its cluster.
    for lo, hi, ys in ((4000, 4200, (2, 30)), (8000, 8200, (2, 30)),
                       (18000, 18500, (2, 30)), (195000, 200000, (20, 30))):
        x, y = rng.randrange(lo, hi), rng.randrange(*ys)
        out.append(("psi", {"x": x, "y": y}, functools.partial(naive.psi, x, y)))
    for p in (211, 401, 1009, 2003, 10007):
        y = rng.randrange(2, 7)
        out.append(("smooth_subgroup", {"p": p, "y": y}, functools.partial(naive.smooth_subgroup, p, y)))
    return out


def _lab_op(lemma, cell, naive_count, grid: Path) -> Op:
    def expect(rows):
        want = naive_count()
        if len(rows) != 1 or rows[0].get("exact_count") != want:
            return f"rows {rows}, naive count {want}"
        return None

    return Op(
        f"lab {lemma} {json.dumps(cell)}",
        _cli_run(["lab", "--lemma", lemma, "--grid", str(grid)]),
        _cli_check(expect),
        queries=False,
    )


def _recover_op(p, e, alg, trials, seed) -> Op:
    def expect(rows):
        if len(rows) != trials:
            return f"{len(rows)} rows for {trials} trials"
        for row in rows:
            if row["recovered"] != row["s"] or row["algorithm"] != alg:
                return f"row {row}"
            if alg == "interpolation" and row["oracle_calls"] != e + 1:
                return f"interpolation made {row['oracle_calls']} calls"
        return None

    argv = ["recover", "--p", str(p), "--e", str(e), "--seed", str(seed),
            "--trials", str(trials), "--algorithm", alg]
    return Op(
        f"recover {alg} p={p} e={e}",
        _cli_run(argv),
        _cli_check(expect),
        fallback=(e + 1) * trials,
        calls_from=lambda answer: sum(row["oracle_calls"] for row in _rows(answer)),
    )


def _bench_op(p, e, algs, trials, seed) -> Op:
    def expect(rows):
        if [row["algorithm"] for row in rows] != list(algs):
            return f"rows {rows}"
        for row in rows:
            if row["trials"] != trials or not row["mean_calls"] <= row["max_calls"]:
                return f"row {row}"
            if row["algorithm"] == "interpolation" and row["max_calls"] != e + 1:
                return f"row {row}"
        return None

    argv = ["bench", "--p", str(p), "--e", str(e), "--trials", str(trials),
            "--seed", str(seed), "--algorithms", *algs]
    return Op(
        f"bench p={p} e={e}",
        _cli_run(argv),
        _cli_check(expect),
        fallback=(e + 1) * trials * len(algs),
        calls_from=lambda answer: sum(
            round(row["mean_calls"] * row["trials"]) for row in _rows(answer)
        ),
    )


def _identity_cli_op(p, e, s, t, seed) -> Op:
    def expect(rows):
        if len(rows) != 1:
            return f"rows {rows}"
        row = rows[0]
        truth = row["ground_truth_equal"]
        if t is not None and truth != (s == t):
            return f"ground truth {truth} for s={s}, t={t}"
        if row["verdict"] != (it.EQUAL if truth else it.DISTINCT):
            return f"row {row}"
        return None

    argv = ["identity", "--p", str(p), "--e", str(e), "--s", str(s), "--seed", str(seed)]
    if t is not None:
        argv += ["--t", str(t)]
    return Op(
        f"identity p={p} e={e} t={'known' if t is not None else 'unknown'}",
        _cli_run(argv),
        _cli_check(expect),
        calls_from=lambda answer: _rows(answer)[0]["probes"],
    )


class CliLab(Workload):
    name = "cli_lab"
    why = (
        "in-process `shiftbreak` command lines: the only workload that runs the "
        "bounds_lab counters and cli, and field_core by full enumeration"
    )

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        self._grids = tempfile.TemporaryDirectory(prefix="grids-", dir=ROOT / ".perfbench")
        self._written: dict[Path, str] = {}

    def _grid(self, i: int, cell) -> Path:
        """The grid file holding one cell; written only when it changes."""
        path = Path(self._grids.name) / f"cell{i}.json"
        text = json.dumps([cell])
        if self._written.get(path) != text:
            path.write_text(text)
            self._written[path] = text
        return path

    # A round is 50 command lines: 39 lab cells, 5 recover, 2 bench and 4
    # identity.  Each run draws ROUNDS rounds of cells, so that its cost does
    # not hang on the values one draw happens to pick.
    ROUNDS = 4

    def setup(self, seed):
        rng = random.Random(f"cli_lab/{seed}")
        ops = []
        for _ in range(1 if self.tiny else self.ROUNDS):
            ops += self._round(rng, len(ops))
        return ops

    def _round(self, rng, first: int) -> list[Op]:
        labs = _lab_cells(rng)
        if self.tiny:
            labs = labs[::5]
        ops = [
            _lab_op(lemma, cell, count, self._grid(first + i, cell))
            for i, (lemma, cell, count) in enumerate(labs)
        ]
        for alg in ALGORITHMS[: 2 if self.tiny else None]:
            ops.append(_recover_op(211, 30, alg, 5, rng.randrange(1000)))
        for p, e in ((1009, 12), (211, 30)):
            algs = ("interpolation", "zero_call_narrow", "randomized")
            ops.append(_bench_op(p, e, algs, 5, rng.randrange(1000)))
        # one equal and one distinct known-t pair, so that every seed probes
        # alike; the two-oracle tests draw t from the CLI's own seed
        for (p, e), equal in (((211, 30), True), ((401, 20), False)):
            s = rng.randrange(p)
            t = s if equal else (s + rng.randrange(1, p)) % p
            ops.append(_identity_cli_op(p, e, s, t, rng.randrange(1000)))
            ops.append(_identity_cli_op(p, e, s, None, rng.randrange(1000)))
        return ops

    def pass_ops(self, ops, rng):
        return [ops]

    def cells(self, ops):
        return [op.label for op in ops]

    def close(self):
        self._grids.cleanup()


WORKLOADS = {
    w.name: w for w in (RecoverSmallSweep, RecoverWideP, IdentityExact, CliLab)
}
