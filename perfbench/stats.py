"""The benchmark's own arithmetic: percentiles, windows, repeats, names.

Kept free of any ``repro`` import, like ``tracer.py``, so that their
tests (``test_perfbench.py``) check the harness apart from the program
it measures.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    rank = pct / 100.0 * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    frac = rank - low
    return sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac


def tail_mean(sorted_values: Sequence[float], share: float) -> float:
    """Mean of the slowest ``share`` of already sorted values: the last
    ``ceil(share * count)`` of them."""
    if not sorted_values:
        raise ValueError("tail mean of no values")
    if not 0.0 < share <= 1.0:
        raise ValueError(f"tail share {share} outside (0, 1]")
    count = math.ceil(share * len(sorted_values))
    return math.fsum(sorted_values[-count:]) / count


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly above the ``pct`` rank.

    The rank is computed exactly, so a whole-number rank is never
    floored one short by floating-point error.
    """
    if not count:
        return 0
    rank = Fraction(repr(pct)) * (count - 1) / 100
    return count - 1 - math.floor(rank)


def supports(count: int, pct: float) -> bool:
    """True when ``count`` samples leave at least 10 beyond ``pct``."""
    return samples_beyond(count, pct) >= MIN_BEYOND


def in_window(items: Iterable[T], key: Callable[[T], float],
              lo: float, hi: float) -> list[T]:
    """Items whose ``key`` (a due or completion time) lies in ``[lo, hi)``."""
    return [item for item in items if lo <= key(item) < hi]


def elementwise_min(runs: Sequence[Sequence[float]]) -> list[float]:
    """Per position, the least of several timings of the same work.

    Host slowdowns only ever add time, so the fastest of repeated
    timings of identical work is the steadiest estimate of its cost.
    """
    if not runs:
        return []
    length = len(runs[0])
    if any(len(run) != length for run in runs):
        raise ValueError("repeated runs timed different amounts of work")
    return [min(values) for values in zip(*runs)]


def chunk_durations(start: float, stamps: Sequence[float], size: int,
                    measure: Callable[[float, float], float]
                    = lambda lo, hi: hi - lo) -> list[float]:
    """Durations of consecutive chunks of ``size`` events.

    ``stamps`` are the times at which events finished, in order; the
    first chunk starts at ``start`` and a short last chunk is kept.
    ``measure(lo, hi)`` gives the duration of ``[lo, hi)``.
    """
    if size < 1:
        raise ValueError("chunk size must be at least 1")
    bounds = [start, *stamps[size - 1::size]]
    if len(stamps) % size:
        bounds.append(stamps[-1])
    return [measure(a, b) for a, b in zip(bounds, bounds[1:])]


def valid_name(name: str) -> bool:
    """Metric and workload names: ``[A-Za-z0-9_.-]``, 1-64 characters,
    starting with a letter or digit."""
    return _NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return _UNIT.fullmatch(unit) is not None

