"""Host-speed calibration of the timings taken on a shared host.

The benchmark runs on a few cores of a shared machine whose speed
changes under it: a fixed piece of pure-Python work takes up to 1.8
times as long in some stretches as in others, and a stretch lasts from a
fraction of a second to tens of seconds.  CPU clocks slow down with the
wall clock, so they do not help, and a fastest-of-repeats filter cannot
remove a slow stretch that covers every repeat of a run.

So the benchmark times a fixed reference kernel between pieces of the
measured work, and scales each timing by ``REFERENCE_S`` over the
kernel's time measured nearest to it.  A time metric then reads in the
seconds of a host on which the kernel takes exactly ``REFERENCE_S``;
the time spent in the kernel itself is left out.  The kernel is
interpreter work of the kind the program does (object construction,
attribute and method calls, dictionary updates, tuples, a sort).  Over
a minute of alternating TPC-C statements and kernel runs on a 2-vCPU
shared host, the statements' time per second of the run spread 44%
(quartiles over median), and their ratio to the kernel's time 3.5%.
Adding lookups scattered over a table larger than the processor's
caches made the kernel follow the program worse (13%), so it has none.

Kept free of any ``repro`` import, like ``stats.py``, so that its tests
check it apart from the program.
"""

from __future__ import annotations

import gc
import threading
import time
from bisect import bisect_left, bisect_right
from statistics import median
from typing import Callable

#: The kernel's time on the host that the scaled timings describe.
REFERENCE_S = 1e-3
#: Least time between two probes taken between pieces of work.
PROBE_PERIOD_S = 0.02
#: Time between two probes taken by a :class:`ProbeThread`.
THREAD_PERIOD_S = 0.025
#: A timing is scaled by the median kernel time of this many probes
#: around it: one probe that a collection or a thread switch slowed
#: moves no timing.
NEAREST = 4

_ROUNDS = 1800


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: str) -> None:
        self.key = key
        self.value = value

    def weight(self, salt: int) -> int:
        return self.key + salt


def kernel() -> int:
    """The reference work: about 1 ms of interpreter time on a fast
    host."""
    table: dict[str, int] = {}
    kept: list[tuple[int, str]] = []
    for i in range(_ROUNDS):
        item = _Item(i, str(i))
        table[item.value] = item.weight(i & 7)
        if i % 3 == 0:
            kept.append((item.key, item.value))
    kept.sort(key=lambda pair: pair[1])
    return len(table) + len(kept)


class Calibrator:
    """Probes of the host's speed, and timings scaled by them.

    ``clock`` must be the clock the scaled timings were read from.  The
    kernel itself is timed on the probing thread's CPU clock: a probe
    taken from a thread of its own may wait for the interpreter lock,
    and that wait says nothing of the host's speed.  A probe occupies
    the CPU time it took, from its start.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 work: Callable[[], object] = kernel,
                 cpu_clock: Callable[[], float] = time.thread_time
                 ) -> None:
        self._clock = clock
        self._work = work
        self._cpu_clock = cpu_clock
        #: Start, end and kernel seconds of each probe, in time order.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []

    def probe(self) -> None:
        """Time the kernel once, with the cyclic collector held off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = self._clock()
            cpu = self._cpu_clock()
            self._work()
            cpu = self._cpu_clock() - cpu
        finally:
            if enabled:
                gc.enable()
        self.record(started, started + cpu)

    def record(self, started: float, ended: float) -> None:
        """Add a probe timed elsewhere (the tests use this)."""
        if self.ends and started < self.ends[-1]:
            raise ValueError("probes must be recorded in time order")
        self.starts.append(started)
        self.ends.append(ended)
        self.kernel_s.append(ended - started)

    def maybe_probe(self) -> None:
        """Probe when ``PROBE_PERIOD_S`` has passed since the last one."""
        if not self.ends or self._clock() - self.ends[-1] >= PROBE_PERIOD_S:
            self.probe()

    def factor(self, when: float) -> float:
        """``REFERENCE_S`` over the median kernel time of the
        ``NEAREST`` probes around ``when``."""
        if not self.kernel_s:
            raise ValueError("no probe was taken")
        count = len(self.kernel_s)
        at = bisect_left(self.starts, when)
        lo = max(0, min(at - NEAREST // 2, count - NEAREST))
        return REFERENCE_S / median(self.kernel_s[lo:lo + NEAREST])

    def scaled(self, start: float, end: float) -> float:
        """The time in ``[start, end)`` outside every probe, in reference
        seconds: each piece between probes is scaled by the factor at its
        middle."""
        total = 0.0
        cursor = start
        index = bisect_right(self.ends, start)
        while index < len(self.starts) and self.starts[index] < end:
            if self.starts[index] > cursor:
                total += self._piece(cursor, self.starts[index])
            cursor = max(cursor, self.ends[index])
            index += 1
        if end > cursor:
            total += self._piece(cursor, end)
        return total

    def _piece(self, start: float, end: float) -> float:
        return (end - start) * self.factor((start + end) / 2)


class ProbeThread:
    """Probes from a thread of its own while other threads do the work.

    The probe holds the interpreter lock for about a millisecond every
    ``THREAD_PERIOD_S``; :meth:`Calibrator.scaled` leaves that time out.
    """

    def __init__(self, calibrator: Calibrator,
                 period: float = THREAD_PERIOD_S) -> None:
        self._calibrator = calibrator
        self._period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-probe", daemon=True)

    def _loop(self) -> None:
        self._calibrator.probe()
        while not self._stop.wait(self._period):
            self._calibrator.probe()
        self._calibrator.probe()

    def __enter__(self) -> "ProbeThread":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()
