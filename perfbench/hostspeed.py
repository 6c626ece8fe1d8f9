"""Host-speed correction of the benchmark's times.

The benchmark may run on a shared host whose speed drifts: on the 2-core
2.1 GHz Xeon VM it was defined on, a fixed pure-Python loop took from 1.0x
to 1.6x its fastest time, in stretches of 5-30 s, with nothing else running
in the VM.  A time measured as is follows that drift.  So the runner times a
fixed reference loop, `reference_work`, between stretches of about 100 ms of
operations, and scales every time measured in a stretch by

    NOMINAL_NS / (mean of the reference times just before and just after it)

which gives the time the work would have taken with the reference loop at
its nominal speed.  The reference loop does the kind of work the library
does (modular powers of small integers, dict stores, small comprehensions)
and calls no library code, so a change to the library moves the corrected
times and a change in host speed does not.  Corrected times are in the
units of the raw ones; the runner prints the raw throughput and the host's
measured slowdown beside them.
"""

from __future__ import annotations

import time

REF_ITERATIONS = 1500
# reference_work's fastest time on the 2.1 GHz Xeon VM, Python 3.11
NOMINAL_NS = 2_250_000
# operations timed between two reference timings
SEGMENT_NS = 100_000_000


def reference_work() -> int:
    table = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += pow(i, 65537, 1000003)
        table[i % 97] = acc % 101
        acc ^= len([x for x in range(8) if x & 1])
    return acc


def reference_ns() -> int:
    start = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - start


class HostClock:
    """Reference timings taken one after another; each new one closes a
    stretch of work and yields the factor that corrects its times."""

    def __init__(self):
        self._last = reference_ns()
        self.slowdowns: list[float] = []  # host slowdown of each closed stretch

    def correction(self) -> float:
        ref = reference_ns()
        slowdown = (self._last + ref) / 2 / NOMINAL_NS
        self._last = ref
        self.slowdowns.append(slowdown)
        return 1 / slowdown
