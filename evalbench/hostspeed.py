"""Host speed: a reference loop timed beside the program while it runs.

The benchmark runs on shared hosts.  There, a vCPU's speed flips between a
fast and a slow state (about 1.5x apart) several times a second, and how
much time it spends in the slow state drifts over minutes.  Wall times of
the same code therefore spread by tens of percent from run to run.  To
keep runs comparable, each end-to-end time is rescaled to a reference host
speed::

    rescaled seconds = wall seconds x REFERENCE_S / mean(reference loop seconds)

where the mean is over the reference-loop timings taken during that same
interval.  A background thread of the benchmark's process times
:func:`reference_loop` every ``INTERVAL_S``.  The process is pinned to one
CPU (:func:`pin_to_one_cpu`), so the thread samples the vCPU the program
runs on.  The loop is plain Python that uses nothing from the repository,
so a change to the program cannot move it.  Each sample holds the GIL for
about a millisecond, which slows the program by a few percent on every run
alike.

Measured on a shared 2-vCPU x86-64 host (CPython 3.11): over ten seeds of
``figure_suite``, the median iteration took 10.3 to 20.7 s of wall time
and 11.7 to 14.2 rescaled seconds.  The program still slows slightly more
than the loop in the slow state (wall time grows about as the loop's time
to the power 1.15), so rescaling narrows the spread without removing it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List, Tuple

#: Nominal seconds of one :func:`reference_loop` call: the host speed that
#: rescaled times are expressed in (about the loop's mean on an idle
#: 2-vCPU x86-64 host with CPython 3.11).
REFERENCE_S = 0.0008

#: Seconds between two reference-loop timings.
INTERVAL_S = 0.05

#: A window with fewer timings than this is widened to the nearest ones.
MIN_SAMPLES = 5


def reference_loop(iterations: int = 5_000) -> int:
    """Integer arithmetic and dict stores: a fixed amount of interpreter work."""
    total = 0
    table = {}
    for index in range(iterations):
        total += index * index % 7
        table[index & 1023] = total
    return total


def pin_to_one_cpu() -> None:
    """Run this process on one CPU; forked pool workers get every CPU back."""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, allowed))


class HostSpeed:
    """Reference-loop timings taken by a background thread."""

    def __init__(self) -> None:
        #: (end time, seconds) of each reference-loop call, in time order.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``.

        Uses the timings that ended inside the interval, or the
        ``MIN_SAMPLES`` nearest to its middle when it holds fewer.
        """
        samples = list(self.samples)
        if not samples:
            raise RuntimeError("no reference-loop timings yet")
        window = [seconds for at, seconds in samples if start <= at <= end]
        if len(window) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
            window = [seconds for _, seconds in nearest[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.fmean(window)

    def rescale(self, start: float, end: float) -> float:
        """The wall interval ``[start, end]`` in reference seconds."""
        return (end - start) * self.factor(start, end)
