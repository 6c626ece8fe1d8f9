"""Per-layer tracing for the `--trace 1` run.

`Tracer.install` replaces each traced public function of the seven modules
with a timing wrapper in every place a caller looks it up: the module
attribute, every other module that imported the name (`power_table` lives in
four module namespaces), and the class for `ShiftOracle.query`.  The
wrappers keep a stack of open spans, so a layer's self time is its span time
minus the time of the traced spans it called.

Hot leaf functions are only aggregated; every other call is also kept as a
span record `(op, span, parent, name, start_ns, end_ns)` in memory, up to
MAX_SPANS, and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import collections
import json
import time

from lib import MODULES
from lib import errors as lib_errors

TRACED = {
    "field_core": (
        "make_context",
        "make_params",
        "power_table",
        "build_index_table",
        "subgroup_elements",
        "character_eval",
    ),
    "oracle": ("new_oracle", "ShiftOracle.query"),
    "root_solver": (
        "full_witness_set",
        "all_eth_roots",
        "candidates_from_consecutive_powers",
        "roots_with_index_divisibility",
        "restricted_roots",
    ),
    "shift_recovery": (
        "interpolation_recover",
        "initial_candidates_zero_call",
        "smooth_witnesses",
        "initial_candidates_smooth",
        "collision_stat_r",
        "collision_stat_R",
        "narrow_candidates",
        "recover_from_candidates",
        "recover_zero_call_narrow",
        "recover_smooth_narrow",
        "recover_randomized",
        "recover_large_e",
    ),
    "identity_test": (
        "choose_h",
        "exact_unknown_window",
        "test_known_t",
        "test_unknown_t",
    ),
    "bounds_lab": (
        "longest_coset_run",
        "hyperbola_count",
        "multiplicative_energy_count",
        "subgroup_shift_intersection",
        "product_count_J",
        "product_set_size",
        "char_sum_fraction",
        "char_sum_fraction_complete",
        "char_sum_interval",
        "char_sum_shifted_power",
        "psi_count",
        "smooth_subgroup_order",
    ),
    "cli": ("main",),
}

# Called up to millions of times per run: counted and timed, never stored.
HOT = {
    "field_core.power_table",
    "field_core.subgroup_elements",
    "field_core.character_eval",
    "oracle.ShiftOracle.query",
    "root_solver.roots_with_index_divisibility",
    "root_solver.restricted_roots",
    "shift_recovery.collision_stat_r",
    "shift_recovery.collision_stat_R",
}

MAX_SPANS = 200_000

# Layer metrics besides calls and self time: name -> (unit, better).
EXTRA = {
    "field_core.power_table.builds": ("count", "lower"),
    "field_core.power_table.entries": ("count", "lower"),
    "field_core.build_index_table.builds": ("count", "lower"),
    "root_solver.pigeonhole.yield": ("ratio", "higher"),
    "shift_recovery.narrow.shrink": ("ratio", "lower"),
    "identity_test.exact_unknown_window.builds": ("count", "lower"),
    "bounds_lab.longest_coset_run.builds": ("count", "lower"),
}


def layer_metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run emits: name -> (unit, better)."""
    specs = {}
    for module, names in TRACED.items():
        for fn in names:
            specs[f"{module}.{fn}.calls"] = ("count", "lower")
            specs[f"{module}.{fn}.self_s"] = ("s", "lower")
    specs.update(EXTRA)
    for module in TRACED:
        specs[f"{module}.errors"] = ("count", "lower")
        specs[f"{module}.aborted"] = ("count", "lower")
    specs["trace.ops_per_s"] = ("ops/s", "higher")
    return specs


class Tracer:
    def __init__(self, abort_types: tuple[type[BaseException], ...]):
        self.abort_types = abort_types
        self.calls = collections.Counter()
        self.self_ns = collections.Counter()
        self.counts = collections.Counter()  # builds, errors, aborts, sizes
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.oracle_calls = 0  # summed ShiftOracle.calls of every oracle built
        self._stack: list[list[int]] = []  # [child_ns, span_id] per open span
        self._next_span = 0
        self._op = -1
        self._op_oracles: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module, names in TRACED.items():
            mod = MODULES[module]
            for fn in names:
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    owner = getattr(mod, cls_name)
                    original = vars(owner)[attr]
                    self._replace(owner, attr, self._wrap(module, fn, original))
                    continue
                original = getattr(mod, fn)
                wrapper = self._wrap(module, fn, original)
                for other in MODULES.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._replace(other, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _replace(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, module: str, fn_name: str, fn):
        name = f"{module}.{fn_name}"
        hot = name in HOT
        cache_info = getattr(fn, "cache_info", None)
        post = {
            "field_core.power_table": self._post_power_table,
            "root_solver.roots_with_index_divisibility": self._post_roots,
            "root_solver.candidates_from_consecutive_powers": self._post_pigeonhole,
            "shift_recovery.narrow_candidates": self._post_narrow,
            "oracle.new_oracle": self._post_new_oracle,
        }.get(name)
        stack = self._stack
        calls, self_ns, counts = self.calls, self.self_ns, self.counts
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            frame = [0, self._next_span]
            self._next_span += 1
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._charge(module, exc)
                raise
            finally:
                end = now()
                stack.pop()
                duration = end - start
                self_ns[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append(
                            (self._op, frame[1], parent, name, start, end)
                        )
                    else:
                        self.spans_dropped += 1
            if cache_info and cache_info().misses > misses:
                counts[f"{name}.builds"] += 1
                built = True
            else:
                built = False
            if post:
                post(args, result, built)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _charge(self, module: str, exc: BaseException) -> None:
        """Count a typed error once per module it leaves; an abort only in
        the innermost traced span it lands in."""
        if isinstance(exc, self.abort_types):
            if not getattr(exc, "_perfbench_charged", False):
                exc._perfbench_charged = True
                self.counts[f"{module}.aborted"] += 1
        elif isinstance(exc, lib_errors.ShiftbreakError):
            seen = exc.__dict__.setdefault("_perfbench_modules", set())
            if module not in seen:
                seen.add(module)
                self.counts[f"{module}.errors"] += 1

    def _post_power_table(self, args, result, built) -> None:
        if built:
            self.counts["field_core.power_table.entries"] += len(result)

    def _post_roots(self, args, result, built) -> None:
        self.counts["pigeonhole.roots"] += len(result)

    def _post_pigeonhole(self, args, result, built) -> None:
        self.counts["pigeonhole.candidates"] += len(result)

    def _post_narrow(self, args, result, built) -> None:
        self.counts["narrow.before"] += len(args[1])
        self.counts["narrow.after"] += len(result)

    def _post_new_oracle(self, args, result, built) -> None:
        self._op_oracles.append(result)

    # -- per operation ----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self.oracle_calls += sum(o.calls for o in self._op_oracles)
        self._op_oracles.clear()
        self._op = -1

    # -- results ----------------------------------------------------------

    def metrics(self, ops_per_s: float) -> dict[str, tuple[float, str]]:
        counts = self.counts
        out = {}
        for name, (unit, _) in layer_metric_specs().items():
            if name.endswith(".calls"):
                value = self.calls[name[: -len(".calls")]]
            elif name.endswith(".self_s"):
                value = self.self_ns[name[: -len(".self_s")]] / 1e9
            elif name == "root_solver.pigeonhole.yield":
                roots = counts["pigeonhole.roots"]
                value = counts["pigeonhole.candidates"] / roots if roots else 0.0
            elif name == "shift_recovery.narrow.shrink":
                before = counts["narrow.before"]
                value = counts["narrow.after"] / before if before else 0.0
            elif name == "trace.ops_per_s":
                value = ops_per_s
            else:
                value = counts[name]
            out[name] = (value, unit)
        return out

    def query_calls(self) -> int:
        return self.calls["oracle.ShiftOracle.query"]

    def write_spans(self, path) -> None:
        keys = ("op", "span", "parent", "name", "start_ns", "end_ns")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
