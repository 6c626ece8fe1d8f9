"""The `shiftbreak` experiment runner.

Subcommands:
 - recover:  plant a shift, run a recovery algorithm, report exact call counts
 - identity: run an identity test (known or unknown t)
 - lab:      sweep an exact counter over a parameter grid
 - bench:    compare oracle-call counts across algorithms and grid cells

Reports are emitted as JSON lines, CSV, or an aligned table.  With a fixed
seed every report is byte-reproducible; wall-clock timing is only added on
request (--timing) because it breaks reproducibility.
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
from .errors import (
    AlgorithmFailure,
    ConfigError,
    ShiftbreakError,
    Stalled,
    TooLarge,
    TooSmall,
)
from .oracle import new_oracle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEFECT = 3
EXIT_RESOURCE = 4


# The integer keys each lemma reads from a grid cell (`subgroup_shift`'s
# `shifts` holds [a, b] integer pairs).  `product_set` also reads an optional
# integer `t`.
LEMMA_KEYS = {
    "coset_run": ("p", "e"),
    "hyperbola": ("p", "u", "v", "H"),
    "energy": ("p", "a", "H"),
    "subgroup_shift": ("p", "e", "shifts"),
    "product_J": ("p", "nu", "lam", "s", "h"),
    "product_set": ("p", "nu", "s", "h"),
    "psi": ("x", "y"),
    "smooth_subgroup": ("p", "y"),
}
# The cell keys that must hold at least 1: box sizes, exponents, psi's x.
POSITIVE_KEYS = {"H", "nu", "h", "x"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_cell(cell, keys, who):
    """Raise ConfigError unless `cell` holds an integer at every key."""
    for key in keys:
        if key not in cell:
            raise ConfigError(f"{who} needs {key!r} in every cell")
        value = cell[key]
        if key == "shifts":
            ok = isinstance(value, list) and all(
                isinstance(x, list) and len(x) == 2 and all(map(_is_int, x))
                for x in value
            )
        else:
            ok = _is_int(value)
        if not ok:
            raise ConfigError(f"{who} needs integers at {key!r}, not {value!r}")


def _policy(cls, **kwargs):
    """`cls(**kwargs)`, with an out-of-range value as a ConfigError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _policy_from(args) -> sr.ProbePolicy:
    return _policy(sr.ProbePolicy, window_cap=args.window_cap)


def _run_one_recovery(ctx, params, s, algorithm, seed, policy):
    p, e = ctx.p, params.e
    oracle = new_oracle(ctx, params, s)
    trace = sr.RecoveryTrace()
    recovered = sr.recover(oracle, algorithm, policy, seed, trace)
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
        "phase_breakdown": [list(r) for r in trace.rounds],
    }


def run_recover(args) -> list[dict]:
    p, e = args.p, args.e
    if p is None or e is None:
        raise ConfigError("recover requires --p and --e")
    if args.trials < 1:
        raise ConfigError("recover requires trials >= 1")
    algorithm = args.algorithm or "zero_call_narrow"
    policy = _policy_from(args)
    ctx = fc.make_context(p)
    params = fc.make_params(ctx, e)
    rng = random.Random(args.seed)
    rows = []
    for trial in range(args.trials):
        started = time.perf_counter()
        if args.s is not None:
            s = args.s
        else:
            s = rng.randrange(p)
        seed = (args.seed or 0) + trial
        row = _run_one_recovery(ctx, params, s, algorithm, seed, policy)
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
    mode = args.mode or "exact"
    policy = _policy(
        it.HPolicy,
        mode=mode,
        epsilon=args.epsilon if args.epsilon is not None else 0.05,
        cap=args.window_cap,
    )
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
            "mode": mode,
            "ground_truth_equal": s == t,
        }
    ]


def _lab_row(lemma, cell):
    """Exact count plus the explicit-constant envelope for one grid cell."""
    _check_cell(cell, LEMMA_KEYS.get(lemma, ()), f"lemma {lemma!r}")
    for key in LEMMA_KEYS.get(lemma, ()):
        if key in POSITIVE_KEYS and cell[key] < 1:
            raise ConfigError(f"lemma {lemma!r} needs {key} >= 1, not {cell[key]}")
    count, predicted = _lab_count(lemma, cell)
    row = {"lemma_id": lemma}
    row.update(cell)
    row["exact_count"] = count
    row["predicted"] = predicted
    row["ratio"] = (count / predicted) if predicted else None
    return row


def _lab_count(lemma, cell):
    if lemma == "coset_run":
        ctx = fc.make_context(cell["p"])
        count = bl.longest_coset_run(ctx, fc.make_params(ctx, cell["e"]))
        predicted = 4.0 * cell["e"] ** 0.25
    elif lemma == "hyperbola":
        count = bl.hyperbola_count(cell["p"], cell["u"], cell["v"], cell["H"])
        predicted = cell["H"] ** 2 / cell["p"] + 4.0 * math.sqrt(cell["H"]) + 4.0
    elif lemma == "energy":
        count = bl.multiplicative_energy_count(cell["p"], cell["a"], cell["H"])
        predicted = cell["H"] ** 4 / cell["p"] + 4.0 * cell["H"] ** 2 * math.log(
            cell["H"] + 2
        )
    elif lemma == "subgroup_shift":
        ctx = fc.make_context(cell["p"])
        shifts = [tuple(x) for x in cell["shifts"]]
        count = bl.subgroup_shift_intersection(
            ctx, fc.make_params(ctx, cell["e"]), shifts
        )
        m = len(shifts)
        predicted = 4.0 * cell["e"] ** ((m + 1) / (2 * m + 1))
    elif lemma == "product_J":
        ctx = fc.make_context(cell["p"])
        count = bl.product_count_J(ctx, cell["nu"], cell["lam"], cell["s"], cell["h"])
        predicted = None  # existential constant; ratio reported empirically
    elif lemma == "product_set":
        if cell.get("t") is not None:
            _check_cell(cell, ("t",), f"lemma {lemma!r}")
        ctx = fc.make_context(cell["p"])
        count = bl.product_set_size(
            ctx, cell["nu"], cell["s"], cell.get("t"), cell["h"]
        )
        predicted = float(cell["h"] ** cell["nu"])
    elif lemma == "psi":
        count = bl.psi_count(cell["x"], cell["y"])
        u = math.log(cell["x"]) / math.log(cell["y"]) if cell["y"] > 1 else 1.0
        predicted = cell["x"] * u ** (-u) if u > 0 else float(cell["x"])
    elif lemma == "smooth_subgroup":
        ctx = fc.make_context(cell["p"])
        count = bl.smooth_subgroup_order(ctx, cell["y"])
        predicted = None
    else:
        raise ConfigError(f"unknown lemma {lemma!r}")
    return count, predicted


def run_lab(args) -> list[dict]:
    if not args.lemma:
        raise ConfigError("lab requires --lemma")
    cells = _load_grid(args.grid) if args.grid else _default_lab_grid(args)
    rows = []
    for cell in cells:
        try:
            rows.append(_lab_row(args.lemma, cell))
        except (TooLarge, TooSmall) as exc:
            row = {"lemma_id": args.lemma}
            row.update(cell)
            row["skipped"] = str(exc)
            rows.append(row)
    return rows


def _default_lab_grid(args):
    if args.p is None:
        raise ConfigError("lab requires --grid or inline --p/--e parameters")
    cell = {"p": args.p}
    if args.e is not None:
        cell["e"] = args.e
    return [cell]


def _load_grid(path):
    try:
        with open(path) as f:
            grid = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read grid file {path}: {exc}") from exc
    if not isinstance(grid, list) or not all(isinstance(c, dict) for c in grid):
        raise ConfigError("grid file must hold a JSON list of cells (objects)")
    return grid


def run_bench(args) -> list[dict]:
    cells = _load_grid(args.grid) if args.grid else None
    if cells is None:
        if args.p is None or args.e is None:
            raise ConfigError("bench requires --grid or --p and --e")
        cells = [{"p": args.p, "e": args.e}]
    algorithms = args.algorithms or ["interpolation", "zero_call_narrow", "randomized"]
    if args.trials < 1:
        raise ConfigError("bench requires trials >= 1")
    policy = _policy_from(args)
    rows = []
    for cell in cells:
        _check_cell(cell, ("p", "e"), "bench")
        p, e = cell["p"], cell["e"]
        ctx = fc.make_context(p)
        params = fc.make_params(ctx, e)
        for algorithm in algorithms:
            rng = random.Random((args.seed or 0) ^ (p * 1000003 + e))
            calls = []
            started = time.perf_counter()
            for trial in range(args.trials):
                s = rng.randrange(p)
                row = _run_one_recovery(
                    ctx, params, s, algorithm, (args.seed or 0) + trial, policy
                )
                calls.append(row["oracle_calls"])
            out = {
                "p": p,
                "e": e,
                "algorithm": algorithm,
                "trials": args.trials,
                "mean_calls": round(sum(calls) / len(calls), 4),
                "max_calls": max(calls),
                "interpolation_baseline": e + 1,
            }
            if args.timing:
                out["wall_time"] = round(time.perf_counter() - started, 6)
            rows.append(out)
    return rows


def _emit(rows, fmt, out):
    if fmt == "json":
        for row in rows:
            out.write(json.dumps(row) + "\n")
    elif fmt == "csv":
        keys: list[str] = []
        for row in rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        writer = csv.DictWriter(out, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: json.dumps(v) if isinstance(v, (list, dict)) else v for k, v in row.items()}
            )
    else:  # table
        if not rows:
            return
        keys = []
        for row in rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        cells = [[str(row.get(k, "")) for k in keys] for row in rows]
        widths = [
            max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)
        ]
        out.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
        for c in cells:
            out.write("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip() + "\n")


# Every flag a subcommand can take, as keyword arguments of `add_argument`;
# `_fill_flags` gives the `default` to a flag left off the command line.
FLAGS = {
    "p": {"type": int},
    "e": {"type": int},
    "s": {"type": int},
    "t": {"type": int},
    "algorithm": {},
    "algorithms": {"nargs": "*"},
    "epsilon": {"type": float},
    "window-cap": {"type": int},
    "seed": {"type": int, "default": 0},
    "trials": {"type": int, "default": 1},
    "output": {"choices": ("json", "csv", "table"), "default": "json"},
    "grid": {},
    "mode": {"choices": ("exact", "theoretical")},
    "lemma": {},
    "timing": {"action": "store_true", "default": False},
}

# Each subcommand's runner and exactly the flags it reads.
SUBCOMMANDS = {
    "recover": (
        run_recover,
        ("p", "e", "s", "algorithm", "window-cap", "seed", "trials", "timing",
         "output"),
    ),
    "identity": (
        run_identity,
        ("p", "e", "s", "t", "mode", "epsilon", "window-cap", "seed", "output"),
    ),
    "lab": (run_lab, ("lemma", "grid", "p", "e", "output")),
    "bench": (
        run_bench,
        ("grid", "p", "e", "algorithms", "trials", "seed", "window-cap",
         "timing", "output"),
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
    """`value` as `--flag` would have parsed it; ConfigError if it cannot be."""
    spec = FLAGS[flag]
    kind = spec.get("type", str)
    if value is None and spec.get("default") is None:
        return None
    if spec.get("action") == "store_true":
        ok = isinstance(value, bool)
    elif spec.get("nargs") == "*":
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif kind is float:
        ok = _is_int(value) or isinstance(value, float)
    elif kind is int:
        ok = _is_int(value)
    else:
        ok = isinstance(value, str) and ("choices" not in spec or value in spec["choices"])
    if not ok:
        raise ConfigError(f"config value {value!r} is not valid for --{flag}")
    return float(value) if kind is float else value


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
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        runner, flags = SUBCOMMANDS[args.command]
        _fill_flags(args, flags)
        rows = runner(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AlgorithmFailure as exc:
        print(f"algorithm defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except (TooLarge, TooSmall, Stalled) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ShiftbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(rows, args.output, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
