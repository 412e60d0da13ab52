"""Reference-speed normalisation of client-observed times.

The sandbox host's speed drifts by up to ±20% over seconds to minutes (a
pure CPU loop shows it as clearly as the workloads do), which is more than
the regressions this benchmark has to resolve.  So every timed region is
paired with one run of a small fixed reference kernel timed just before
it, and client-observed times are reported *at reference speed*::

    reported_ms = measured_ms * REF_NOMINAL_MS / local_reference_ms

where the local reference is the median over the five nearest kernel
timings.  On ten 12-second runs of ``asp_ground`` this took the spread of
``answer_p50_ms`` (interquartile range over median) from 16% to 1.5%.

The kernel is object-heavy Python (tuples, dict, set, sort), like the
program.  A change to the program cannot speed it up, so it cannot hide a
regression; what it removes is the part of a time that the host, not the
program, decided.  ``REF_NOMINAL_MS`` is the kernel's time on the 2-core
box at a quiet moment, so reported values read as that box's milliseconds.
"""

from __future__ import annotations

import statistics
import time

#: the kernel's time at reference speed (CPython 3.11, 2.1 GHz Xeon, quiet)
REF_NOMINAL_MS = 1.65


def _kernel() -> int:
    rows = [(f"k{i}", f"v{i % 97}") for i in range(1500)]
    groups: dict = {}
    for key, value in rows:
        groups.setdefault(value, []).append(key)
    kept = {row for row in rows if row[1] != "v3"}
    ordered = sorted(kept, key=lambda row: (row[1], row[0]))
    return len(groups) + len(ordered)


def sample() -> float:
    """Milliseconds one run of the reference kernel takes right now."""
    t0 = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t0) * 1e3


def steady_sample() -> float:
    """Median of three kernel runs, for the ends of a set-up."""
    return statistics.median(sample() for _ in range(3))


def at_reference_speed(ms: list, ref_ms: list) -> list:
    """Scale each time by the host speed around it.  ``ref_ms[i]`` is the
    kernel timing taken just before ``ms[i]``."""
    scaled = []
    for index, value in enumerate(ms):
        near = ref_ms[max(0, index - 2):index + 3]
        scaled.append(value * REF_NOMINAL_MS / statistics.median(near))
    return scaled
