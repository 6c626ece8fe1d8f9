"""Imports the shiftbreak package from the `src/` tree of this checkout.

The benchmark must measure the sources next to it, never an installed copy,
so a checkout without `src/shiftbreak` fails here with ImportError.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "shiftbreak" / "__init__.py").is_file():
    raise ImportError(f"no shiftbreak sources under {SRC}")
sys.path.insert(0, str(SRC))

import shiftbreak  # noqa: E402
from shiftbreak import bounds_lab as bl  # noqa: E402
from shiftbreak import cli  # noqa: E402
from shiftbreak import errors  # noqa: E402
from shiftbreak import field_core as fc  # noqa: E402
from shiftbreak import identity_test as it  # noqa: E402
from shiftbreak import oracle  # noqa: E402
from shiftbreak import root_solver as rs  # noqa: E402
from shiftbreak import shift_recovery as sr  # noqa: E402

if not Path(shiftbreak.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"shiftbreak imported from {shiftbreak.__file__}, not {SRC}")

# The seven modules whose public functions the traced run wraps.
MODULES = {
    "field_core": fc,
    "oracle": oracle,
    "root_solver": rs,
    "shift_recovery": sr,
    "identity_test": it,
    "bounds_lab": bl,
    "cli": cli,
}

# Every lru-cached function, captured before any tracing wrapper replaces a
# module attribute, so that caches can be emptied to start a pass cold.
CACHED = tuple(
    dict.fromkeys(
        obj
        for mod in MODULES.values()
        for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    )
)


def clear_caches() -> None:
    for fn in CACHED:
        fn.cache_clear()
