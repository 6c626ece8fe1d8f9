"""The `shiftbreak` experiment runner.

Subcommands:
 - recover:  plant a shift, run a recovery algorithm, report exact call counts
 - identity: run an identity test (known or unknown t)
 - lab:      sweep an exact counter over a parameter grid
 - bench:    compare oracle-call counts across algorithms and grid cells

Reports are emitted as JSON lines, CSV, or an aligned table.  With a fixed
seed every report is byte-reproducible; wall-clock timing is only added on
request (--timing) because it breaks reproducibility.

Each decision is written in one table: `FLAGS` holds every flag's type and
default (a null in the --config file also means the default), `SUBCOMMANDS`
the flags each subcommand takes, and `LEMMAS` the lab lemmas, each with the
cell keys it reads and its count-and-envelope function.  An unknown lemma
or algorithm name is a configuration error before any cell runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import random
import sys
import time

from . import bounds_lab as bl
from . import field_core as fc
from . import identity_test as it
from . import shift_recovery as sr
from .errors import AlgorithmFailure, ConfigError, ResourceLimit, ShiftbreakError
from .oracle import new_oracle


# The cell keys that must hold at least 1: box sizes, exponents, psi's x.
POSITIVE_KEYS = {"H", "nu", "h", "x"}
# The cell keys that may be absent or null: `product_set`'s second shift.
OPTIONAL_KEYS = {"t"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_cell(cell, keys, who):
    """Raise ConfigError unless `cell` holds an integer at every key, and at
    least 1 at each of POSITIVE_KEYS; `shifts` holds [a, b] integer pairs."""
    for key in keys:
        value = cell.get(key)
        if key in OPTIONAL_KEYS and value is None:
            continue
        if key not in cell:
            raise ConfigError(f"{who} needs {key!r} in every cell")
        if key == "shifts":
            ok = isinstance(value, list) and all(
                isinstance(x, list) and len(x) == 2 and all(map(_is_int, x))
                for x in value
            )
        else:
            ok = _is_int(value)
        if not ok:
            raise ConfigError(f"{who} needs integers at {key!r}, not {value!r}")
    for key in keys:
        if key in POSITIVE_KEYS and cell[key] < 1:
            raise ConfigError(f"{who} needs {key} >= 1, not {cell[key]}")


def _run_one_recovery(ctx, params, s, algorithm, seed):
    p, e = ctx.p, params.e
    oracle = new_oracle(ctx, params, s)
    trace = []
    recovered = sr.recover(oracle, algorithm, seed=seed, trace=trace)
    if recovered != s:
        raise AlgorithmFailure(
            f"recovered {recovered} != planted {s} (p={p}, e={e}, {algorithm})"
        )
    return {
        "algorithm": algorithm,
        "p": p,
        "e": e,
        "s": s,
        "recovered": recovered,
        "oracle_calls": oracle.calls,
        "phase_breakdown": [list(r) for r in trace],
    }


def run_recover(args) -> list[dict]:
    p, e = args.p, args.e
    if p is None or e is None:
        raise ConfigError("recover requires --p and --e")
    if args.trials < 1:
        raise ConfigError("recover requires trials >= 1")
    ctx = fc.make_context(p)
    params = fc.make_params(ctx, e)
    rng = random.Random(args.seed)
    rows = []
    for trial in range(args.trials):
        started = time.perf_counter()
        s = args.s if args.s is not None else rng.randrange(p)
        row = _run_one_recovery(ctx, params, s, args.algorithm, args.seed + trial)
        row["trial"] = trial
        if args.timing:
            row["wall_time"] = round(time.perf_counter() - started, 6)
        rows.append(row)
    return rows


def run_identity(args) -> list[dict]:
    p, e = args.p, args.e
    if p is None or e is None:
        raise ConfigError("identity requires --p and --e")
    ctx = fc.make_context(p)
    params = fc.make_params(ctx, e)
    policy = it.HPolicy(mode=args.mode)
    rng = random.Random(args.seed)
    s = args.s if args.s is not None else rng.randrange(p)
    variant = "known_t" if args.t is not None else "unknown_t"
    t = args.t if args.t is not None else rng.randrange(p)
    h = it.choose_h(ctx, params, variant, policy)
    if variant == "known_t":
        oracle = new_oracle(ctx, params, s, forbidden=frozenset({(-t) % p}))
        verdict = it.test_known_t(oracle, t, policy)
        probes = oracle.calls
    else:
        o_s = new_oracle(ctx, params, s)
        o_t = new_oracle(ctx, params, t)
        verdict = it.test_unknown_t(o_s, o_t, policy)
        probes = o_s.calls + o_t.calls
    return [
        {
            "variant": variant,
            "p": p,
            "e": e,
            "verdict": verdict,
            "probes": probes,
            "h": h,
            "mode": args.mode,
            "ground_truth_equal": s == t,
        }
    ]


# Each lemma's exact count and its explicit-constant envelope for one cell,
# the envelope None where the paper's constant is existential.
def _coset_run(c):
    ctx = fc.make_context(c["p"])
    count = bl.longest_coset_run(ctx, fc.make_params(ctx, c["e"]))
    return count, 4.0 * c["e"] ** 0.25


def _hyperbola(c):
    count = bl.hyperbola_count(c["p"], c["u"], c["v"], c["H"])
    return count, c["H"] ** 2 / c["p"] + 4.0 * math.sqrt(c["H"]) + 4.0


def _energy(c):
    count = bl.multiplicative_energy_count(c["p"], c["a"], c["H"])
    return count, c["H"] ** 4 / c["p"] + 4.0 * c["H"] ** 2 * math.log(c["H"] + 2)


def _subgroup_shift(c):
    ctx = fc.make_context(c["p"])
    shifts = [tuple(x) for x in c["shifts"]]
    count = bl.subgroup_shift_intersection(ctx, fc.make_params(ctx, c["e"]), shifts)
    m = len(shifts)
    return count, 4.0 * c["e"] ** ((m + 1) / (2 * m + 1))


def _product_J(c):
    ctx = fc.make_context(c["p"])
    return bl.product_count_J(ctx, c["nu"], c["lam"], c["s"], c["h"]), None


def _product_set(c):
    ctx = fc.make_context(c["p"])
    count = bl.product_set_size(ctx, c["nu"], c["s"], c.get("t"), c["h"])
    return count, float(c["h"] ** c["nu"])


def _psi(c):
    x, y = c["x"], c["y"]
    u = math.log(x) / math.log(y) if y > 1 else 1.0
    return bl.psi_count(x, y), x * u ** (-u) if u > 0 else float(x)


def _smooth_subgroup(c):
    return bl.smooth_subgroup_order(fc.make_context(c["p"]), c["y"]), None


# Each lemma: the cell keys it reads and its count-and-envelope function.
LEMMAS = {
    "coset_run": (("p", "e"), _coset_run),
    "hyperbola": (("p", "u", "v", "H"), _hyperbola),
    "energy": (("p", "a", "H"), _energy),
    "subgroup_shift": (("p", "e", "shifts"), _subgroup_shift),
    "product_J": (("p", "nu", "lam", "s", "h"), _product_J),
    "product_set": (("p", "nu", "s", "h", "t"), _product_set),
    "psi": (("x", "y"), _psi),
    "smooth_subgroup": (("p", "y"), _smooth_subgroup),
}


def _cells(args, required):
    """The cells of the --grid file, else the one cell of whichever of --p
    and --e were given; without --grid each flag in `required` must be."""
    if not args.grid:
        if any(getattr(args, flag) is None for flag in required):
            flags = " and ".join(f"--{flag}" for flag in required)
            raise ConfigError(f"{args.command} requires --grid or {flags}")
        return [{k: v for k in ("p", "e") if (v := getattr(args, k)) is not None}]
    try:
        with open(args.grid) as f:
            grid = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read grid file {args.grid}: {exc}") from exc
    if not isinstance(grid, list) or not all(isinstance(c, dict) for c in grid):
        raise ConfigError("grid file must hold a JSON list of cells (objects)")
    return grid


def run_lab(args) -> list[dict]:
    if not args.lemma:
        raise ConfigError("lab requires --lemma")
    if args.lemma not in LEMMAS:
        raise ConfigError(f"unknown lemma {args.lemma!r}")
    keys, count_of = LEMMAS[args.lemma]
    rows = []
    for cell in _cells(args, ("p",)):
        _check_cell(cell, keys, f"lemma {args.lemma!r}")
        row = {"lemma_id": args.lemma, **cell}
        try:
            count, predicted = count_of(cell)
        except ResourceLimit as exc:
            row["skipped"] = str(exc)
        else:
            row["exact_count"] = count
            row["predicted"] = predicted
            row["ratio"] = (count / predicted) if predicted else None
        rows.append(row)
    return rows


def run_bench(args) -> list[dict]:
    cells = _cells(args, ("p", "e"))
    if args.trials < 1:
        raise ConfigError("bench requires trials >= 1")
    if not args.algorithms:
        raise ConfigError("bench requires at least one name after --algorithms")
    for algorithm in args.algorithms:
        if algorithm not in sr.ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algorithm!r}")
    rows = []
    for cell in cells:
        _check_cell(cell, ("p", "e"), "bench")
        p, e = cell["p"], cell["e"]
        ctx = fc.make_context(p)
        params = fc.make_params(ctx, e)
        for algorithm in args.algorithms:
            rng = random.Random(args.seed ^ (p * 1000003 + e))
            calls = []
            started = time.perf_counter()
            for trial in range(args.trials):
                s = rng.randrange(p)
                row = _run_one_recovery(ctx, params, s, algorithm, args.seed + trial)
                calls.append(row["oracle_calls"])
            out = {
                "p": p,
                "e": e,
                "algorithm": algorithm,
                "trials": args.trials,
                "mean_calls": round(sum(calls) / len(calls), 4),
                "max_calls": max(calls),
                "interpolation_baseline": e + 1,
                "calls_bound": sr.calls_bound(p, params.d),
            }
            if args.timing:
                out["wall_time"] = round(time.perf_counter() - started, 6)
            rows.append(out)
    return rows


def _emit(rows, fmt, out):
    if fmt == "json":
        for row in rows:
            out.write(json.dumps(row) + "\n")
        return
    # every key of every row, in the order of first appearance
    keys = list(dict.fromkeys(k for row in rows for k in row))
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: json.dumps(v) if isinstance(v, (list, dict)) else v for k, v in row.items()}
            )
    elif rows:  # table
        cells = [[str(row.get(k, "")) for k in keys] for row in rows]
        widths = [
            max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)
        ]
        out.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
        for c in cells:
            out.write("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip() + "\n")


# Every flag a subcommand can take, as keyword arguments of `add_argument`;
# `_fill_flags` gives the `default` to a flag left off the command line, so
# this table holds every default and the runners read `args` as it stands.
FLAGS = {
    "p": {"type": int},
    "e": {"type": int},
    "s": {"type": int},
    "t": {"type": int},
    "algorithm": {"default": "zero_call_narrow"},
    "algorithms": {
        "nargs": "*",
        "default": ("interpolation", "zero_call_narrow", "randomized"),
    },
    "seed": {"type": int, "default": 0},
    "trials": {"type": int, "default": 1},
    "output": {"choices": ("json", "csv", "table"), "default": "json"},
    "grid": {},
    "mode": {"choices": it.MODES, "default": it.HPolicy.mode},
    "lemma": {},
    "timing": {"action": "store_true", "default": False},
}

# Each subcommand's runner and exactly the flags it reads.
SUBCOMMANDS = {
    "recover": (
        run_recover,
        ("p", "e", "s", "algorithm", "seed", "trials", "timing", "output"),
    ),
    "identity": (
        run_identity,
        ("p", "e", "s", "t", "mode", "seed", "output"),
    ),
    "lab": (run_lab, ("lemma", "grid", "p", "e", "output")),
    "bench": (
        run_bench,
        ("grid", "p", "e", "algorithms", "trials", "seed", "timing", "output"),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `shiftbreak` parser, built once and shared by every `main` call.

    It must not be changed after it is built: config defaults go into each
    call's own namespace, never into the parser.  Abbreviated flags are off,
    so that `bench --algorithm` is not read as `--algorithms`.
    """
    parser = argparse.ArgumentParser(prog="shiftbreak", allow_abbrev=False)
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in SUBCOMMANDS.items():
        # a flag left off the command line is absent from the namespace, so
        # that `_fill_flags` can tell it from one given at its default value
        sp = sub.add_parser(
            name, allow_abbrev=False, argument_default=argparse.SUPPRESS
        )
        for flag in flags:
            spec = {k: v for k, v in FLAGS[flag].items() if k != "default"}
            sp.add_argument(f"--{flag}", **spec)
    return parser


def _config_value(flag, value):
    """`value` as `--flag` would have parsed it, and null as the flag's
    default; ConfigError if it cannot be."""
    spec = FLAGS[flag]
    if value is None:
        return spec.get("default")
    if spec.get("action") == "store_true":
        ok = isinstance(value, bool)
    elif spec.get("nargs") == "*":
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif spec.get("type") is int:
        ok = _is_int(value)
    else:
        ok = isinstance(value, str) and ("choices" not in spec or value in spec["choices"])
    if not ok:
        raise ConfigError(f"config value {value!r} is not valid for --{flag}")
    return value


def _fill_flags(args, flags):
    """Give each of `flags` left off the command line its value from the
    --config file, else its default: flags given on the command line win.
    A config key that is not one of `flags` is a ConfigError."""
    config = {}
    if args.config:
        try:
            with open(args.config) as f:
                defaults = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(defaults, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        for key, value in defaults.items():
            flag = key.replace("_", "-")
            if flag not in flags:
                raise ConfigError(f"{args.command} takes no config key {key!r}")
            config[flag] = _config_value(flag, value)
    for flag in flags:
        dest = flag.replace("-", "_")
        if not hasattr(args, dest):
            setattr(args, dest, config.get(flag, FLAGS[flag].get("default")))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        runner, flags = SUBCOMMANDS[args.command]
        _fill_flags(args, flags)
        rows = runner(args)
    except ShiftbreakError as exc:
        # each error class carries its exit code and label (errors.py)
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    _emit(rows, args.output, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
