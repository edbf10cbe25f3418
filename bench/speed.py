"""The machine's current speed, from a fixed reference workload.

The machine the benchmark runs on is a share of a host whose speed
changes in phases of tens of seconds to minutes, by up to twofold.  A
run's raw operation times follow the phase, so two runs of the same code
can differ by more than any useful bound.  The reference workload below
is plain Python, uses nothing of the program, and runs right before and
right after every timed operation.  Its time tracks the phase, so an
operation's time over the mean of the two reference times around it is
a measure of the program alone.  Multiplied by ``NOMINAL_MS`` it reads
as milliseconds on a machine where one reference pass takes exactly
``NOMINAL_MS``.
"""

from __future__ import annotations

import gc
import time

# one reference pass on the reference machine in its slow phase, rounded
NOMINAL_MS = 50.0


def _reference_work() -> int:
    # integer arithmetic, then the kind of work the program does most:
    # tuple-keyed dicts of short strings and small lists, and sorts.  It
    # holds under 0.4 MiB at its peak, well below any operation, so that
    # it does not set the process's peak resident memory.
    total = 0
    for i in range(300_000):
        total += i * i % 7
    keys = [(i % 97, str(i % 1013)) for i in range(1_500)]
    for _ in range(20):
        table: dict = {}
        for key in keys:
            table.setdefault(key, []).append(len(table))
        total += len(sorted(table))
    return total


def reference_ms() -> float:
    """Milliseconds of one reference pass, with the collector off so
    that the program's collector settings do not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()
