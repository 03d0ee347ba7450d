"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import stats  # noqa: E402
from hostspeed import REFERENCE_S, Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- percentiles and the "ten samples beyond" rule ---------------------------

def test_percentile_interpolates_between_ranks():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_samples_beyond_counts_values_above_the_rank():
    # 1,000 samples: the p99 rank is 989.01, so indices 990..999 lie
    # beyond it; at 902 samples the rank is 891.99 and ten still do.
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(902, 99) == 10
    assert stats.samples_beyond(901, 99) == 9
    assert stats.samples_beyond(101, 90) == 10
    assert stats.samples_beyond(901, 95) == 45
    assert stats.samples_beyond(0, 50) == 0


def test_tail_mean_averages_the_slowest_share():
    values = [float(v) for v in range(1, 101)]
    assert stats.tail_mean(values, 0.05) == pytest.approx(98.0)
    assert stats.tail_mean(values, 1.0) == pytest.approx(50.5)
    # A share that is not a whole number of samples rounds up.
    assert stats.tail_mean([1.0, 2.0, 3.0], 0.05) == 3.0
    assert stats.tail_mean([1.0, 2.0, 3.0], 0.5) == 2.5
    with pytest.raises(ValueError):
        stats.tail_mean([], 0.05)
    with pytest.raises(ValueError):
        stats.tail_mean([1.0], 0.0)


def test_supports_needs_ten_samples_beyond():
    assert stats.supports(1000, 99)
    assert stats.supports(902, 99)
    assert not stats.supports(901, 99)
    assert stats.supports(20, 50)
    assert not stats.supports(19, 50)


# -- window slicing by due time ----------------------------------------------

class _Sample:
    def __init__(self, due: float, end: float) -> None:
        self.start = due
        self.end = end


def test_window_is_half_open_on_the_chosen_key():
    samples = [_Sample(due, due + 5) for due in (0.9, 1.0, 1.5, 2.0, 2.1)]
    by_due = stats.in_window(samples, lambda s: s.start, 1.0, 2.0)
    assert [s.start for s in by_due] == [1.0, 1.5]
    # A request due inside the window counts even when it finished late.
    assert all(s.end >= 2.0 for s in by_due)
    by_end = stats.in_window(samples, lambda s: s.end, 6.0, 7.0)
    assert [s.start for s in by_end] == [1.0, 1.5]


def test_window_over_plain_times():
    assert stats.in_window([0.1, 0.25, 0.5, 0.75], float, 0.25, 0.75) \
        == [0.25, 0.5]


# -- fastest of repeated timings ---------------------------------------------

def test_elementwise_min_keeps_the_fastest_timing_per_position():
    assert stats.elementwise_min([[3, 1, 5], [2, 4, 5], [9, 2, 1]]) \
        == [2, 1, 1]
    assert stats.elementwise_min([]) == []
    with pytest.raises(ValueError):
        stats.elementwise_min([[1, 2], [1]])


def test_chunk_durations_cover_start_to_last_event():
    stamps = [1.0, 2.0, 4.0, 7.0, 11.0]
    assert stats.chunk_durations(0.0, stamps, 2) == [2.0, 5.0, 4.0]
    assert sum(stats.chunk_durations(0.0, stamps, 2)) == 11.0
    assert stats.chunk_durations(0.0, stamps, 5) == [11.0]
    assert stats.chunk_durations(0.0, stamps, 1) == [1.0, 1.0, 2.0, 3.0,
                                                     4.0]
    assert stats.chunk_durations(0.0, [], 3) == []
    with pytest.raises(ValueError):
        stats.chunk_durations(0.0, stamps, 0)


def test_chunk_durations_use_the_given_measure():
    stamps = [1.0, 2.0, 4.0, 7.0, 11.0]
    assert stats.chunk_durations(0.0, stamps, 2,
                                 lambda lo, hi: (lo, hi)) \
        == [(0.0, 2.0), (2.0, 7.0), (7.0, 11.0)]


# -- host-speed scaling ------------------------------------------------------

def _calibrator(probes: list[tuple[float, float]]) -> Calibrator:
    """Probes given as (start, kernel seconds)."""
    calibrator = Calibrator(clock=lambda: 0.0)
    for start, kernel_s in probes:
        calibrator.record(start, start + kernel_s)
    return calibrator


def test_factor_is_reference_over_the_median_of_the_nearest_probes():
    slow = 2 * REFERENCE_S
    calibrator = _calibrator([(0.0, slow), (1.0, slow), (2.0, slow),
                              (3.0, slow), (4.0, REFERENCE_S),
                              (5.0, REFERENCE_S), (6.0, REFERENCE_S),
                              (7.0, REFERENCE_S)])
    assert calibrator.factor(0.5) == pytest.approx(0.5)
    assert calibrator.factor(7.5) == pytest.approx(1.0)
    # Between the regimes: two slow and two fast probes around it.
    assert calibrator.factor(3.5) == pytest.approx(REFERENCE_S / 1.5e-3)


def test_one_disturbed_probe_moves_no_factor():
    calibrator = _calibrator([(0.0, 1e-3), (1.0, 1e-3), (2.0, 50e-3),
                              (3.0, 1e-3), (4.0, 1e-3)])
    assert calibrator.factor(2.5) == pytest.approx(REFERENCE_S / 1e-3)


def test_scaled_leaves_probes_out_and_scales_each_piece():
    # Kernel at twice the reference time throughout: every piece of work
    # counts half.  The probes at [1, 1.002) and [2, 1.002) are excluded.
    kernel_s = 2 * REFERENCE_S
    calibrator = _calibrator([(0.0, kernel_s), (1.0, kernel_s),
                              (2.0, kernel_s), (3.0, kernel_s)])
    assert calibrator.scaled(0.5, 0.9) == pytest.approx(0.2)
    assert calibrator.scaled(0.5, 2.5) \
        == pytest.approx((2.0 - 2 * kernel_s) / 2)
    # An interval that starts inside a probe counts from its end.
    assert calibrator.scaled(1.001, 1.5) \
        == pytest.approx((1.5 - 1.0 - kernel_s) / 2)
    assert calibrator.scaled(1.0005, 1.001) == 0.0


def test_scaled_needs_a_probe():
    with pytest.raises(ValueError):
        Calibrator().scaled(0.0, 1.0)


def test_probes_must_come_in_time_order():
    calibrator = _calibrator([(1.0, 1e-3)])
    with pytest.raises(ValueError):
        calibrator.record(0.5, 0.6)


def test_probe_times_the_work_and_maybe_probe_waits_a_period():
    now = [0.0]

    def work():
        now[0] += 3e-3

    calibrator = Calibrator(clock=lambda: now[0], work=work,
                            cpu_clock=lambda: now[0])
    calibrator.probe()
    assert calibrator.kernel_s == [pytest.approx(3e-3)]
    calibrator.maybe_probe()
    assert len(calibrator.kernel_s) == 1
    now[0] += hostspeed.PROBE_PERIOD_S
    calibrator.maybe_probe()
    assert len(calibrator.kernel_s) == 2


def test_probe_thread_probes_until_stopped():
    calibrator = Calibrator(work=lambda: None)
    with hostspeed.ProbeThread(calibrator, period=0.001):
        pass
    assert len(calibrator.kernel_s) >= 2
    assert calibrator.starts == sorted(calibrator.starts)


# -- self time: span duration minus child coverage ---------------------------

class _FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_children_including_nested_ones():
    clock = _FakeClock()
    tracer = Tracer(clock)
    outer = tracer.open("a")          # a: 0..100
    clock.now = 10
    middle = tracer.open("b")         # b: 10..70
    clock.now = 20
    inner = tracer.open("c")          # c: 20..50 (nested in b)
    clock.now = 50
    tracer.close(inner)
    clock.now = 70
    tracer.close(middle)
    clock.now = 80
    sibling = tracer.open("c")        # c: 80..90 (direct child of a)
    clock.now = 90
    tracer.close(sibling)
    clock.now = 100
    tracer.close(outer)
    spans = tracer.by_span()
    assert spans["a"] == [1, 100, 100 - 60 - 10]
    assert spans["b"] == [1, 60, 60 - 30]
    assert spans["c"] == [2, 40, 40]
    # Self times add up to the outermost span's duration.
    assert sum(entry[2] for entry in spans.values()) == 100
    assert tracer.open_spans() == 0


def test_spans_of_one_transaction_share_its_id():
    clock = _FakeClock()
    tracer = Tracer(clock)

    def statement():
        clock.now += 3

    traced_statement = tracer.wrap("dbapi", statement)

    def body():
        clock.now += 2
        traced_statement()
        traced_statement()

    txn = tracer.wrap_txn("proc.run", "NewOrder", body)
    txn()
    txn()
    traced_statement()                # outside any transaction
    records = tracer.transactions()
    assert [r.txn_id for r in records] == [(0, 0), (0, 1)]
    assert all(r.txn_name == "NewOrder" for r in records)
    assert records[0].self_ns == {"dbapi": 6, "proc.run": 2}
    assert records[0].total_ns == 8
    assert tracer.by_span()["dbapi"] == [5, 15, 15]


def test_out_of_order_close_is_an_error():
    tracer = Tracer(_FakeClock())
    first = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)


# -- metric-name validity -----------------------------------------------------

@pytest.mark.parametrize("name", [
    "setup_s", "committed_per_s", "locks.acquire_us_per_txn",
    "ycsb-threaded", "p99", "a" * 64])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", [
    "", "_leading", ".leading", "-leading", "has space", "slash/name",
    "a" * 65, "ünicode", "colon:name"])
def test_invalid_names(name):
    assert not stats.valid_name(name)


def test_benchmark_json_names_and_units_are_valid():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    entries = spec["end_to_end"] + spec["per_layer"]
    names = [entry["name"] for entry in entries]
    names += [workload["name"] for workload in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(stats.valid_name(name) for name in names)
    assert all(stats.valid_unit(entry["unit"]) for entry in entries)
    assert any(entry["name"] == "setup_s" and entry["unit"] == "s"
               for entry in spec["end_to_end"])
