"""The three workloads, their correctness gates and their metrics.

* ``ycsb-threaded`` — YCSB's default mixture less InsertRecord on
  ``ThreadedExecutor`` (2 workers, open loop): a rated phase at about
  30% of capacity, then a saturated phase.  The driver, parameter
  generation and the per-statement SQL front end dominate it.
* ``tpcc-sim`` — TPC-C's default mixture on ``SimulatedExecutor``: a
  fixed, deterministic amount of multi-statement write work.
* ``ch-sim`` — CH-benCHmark on the same simulator: a transactional
  stream beside an analytic client running five queries in turn, back
  to back.
  Scans, joins and aggregates dominate, with one shared lock per
  scanned row.

Every run returns a :class:`Report`.  A failed gate makes the run
incorrect; the caller then prints no result.
"""

from __future__ import annotations

import gc
import itertools
import time
from statistics import median
from dataclasses import dataclass, field
from typing import Optional

from repro.benchmarks import create_benchmark
from repro.clock import SimClock
from repro.benchmarks.chbenchmark.queries import QUERIES
from repro.core import (RATE_DISABLED, Phase, SimulatedExecutor,
                        ThreadedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.engine import Database

import instrument
from hostspeed import Calibrator, ProbeThread
from instrument import Patches, ProcTimer
from stats import (chunk_durations, elementwise_min, in_window, percentile,
                   supports, tail_mean)
from tracer import Tracer

#: Load comes from one process: two workers, so two connections.
WORKERS = 2
#: Repeats per untraced run, each on a fresh set-up.  ``setup_s`` is
#: the median of their set-up times.  Every time is in the reference
#: seconds of ``hostspeed.py``.  A simulated repeat at one seed does the
#: same work as the others, so each of its time metrics keeps the
#: fastest timing of each piece of work, which drops a timing that an
#: interrupt or a collection slowed.
REPEATS = 3
#: ycsb-threaded makes one more.  Its repeats run distinct transaction
#: streams, because its two workers interleave differently every time
#: and no timing can be matched to a repeat's; pooling them measures
#: four times as many transactions, which steadies the percentiles
#: against the seed's draw of the mixture.
YCSB_REPEATS = 4

YCSB_SCALE = 10                  # 10 x 1,000 rows
#: Left out of YCSB's default mixture.  InsertRecord draws each new key
#: at random from the 1,000,000 keys past the loaded ones, so about one
#: insert in 10,000 repeats an earlier key and the engine rightly
#: rejects it.  How many do depends on how the two workers interleave,
#: so the failure count would differ between runs of the same code.
#: tpcc-sim measures the insert path instead.
YCSB_LEFT_OUT = ("InsertRecord",)
YCSB_RATED_RATE = 1200.0         # requests/s, about 30% of capacity
YCSB_SATURATING_RATE = 10_000.0  # requests/s, about 2.5x capacity
YCSB_RATED_SHARE = 0.15          # of --seconds, per repeat
YCSB_SATURATED_SHARE = 0.3       # of --seconds, per repeat
RATED_EDGE_S = 0.25              # due-time margin cut from both ends
SATURATED_WARMUP_S = 0.5         # completions ignored at the start
#: The saturated rate is the median over windows of this many seconds:
#: a worker stalled on the interpreter lock, or a burst after the stall,
#: moves one window, not the result.
SATURATED_WINDOW_S = 0.25

#: 1 warehouse, 10 districts and 10,000 items for both simulated
#: workloads.  TPC-C keeps 300 customers and orders per district, so the
#: new-order backlog that Delivery scans is large next to its seed-to-
#: seed drift; CH loads a tenth of that, because its analytic queries
#: scan every order line and 1,000 transactions must fit in a repeat.
SIM_POPULATIONS = {
    "tpcc": dict(districts=10, customers_per_district=300, items=10_000,
                 initial_orders=300),
    "chbenchmark": dict(districts=10, customers_per_district=30,
                        items=10_000, initial_orders=30),
}
SIM_RATE = 200.0                 # requests per virtual second
SIM_PERSONALITY = "mysql"
#: Virtual seconds per repetition, per second of --seconds.
SIM_VIRTUAL_PER_SECOND = {"tpcc": 0.8, "chbenchmark": 0.45}
#: Completions per timed chunk of a simulated run.
SIM_CHUNK = 10


@dataclass
class Report:
    """What one run measured and whether its outputs were correct."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Human-readable lines printed before the result.
    notes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.correct = False
            self.errors.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def set_up(benchmark: str, seed: int, calibrator: Calibrator, **kwargs):
    """Create the schema and load the data; returns (db, bench, seconds).

    ``calibrator`` probes the host between the loader's batches, and the
    set-up time is given in its reference seconds.
    """
    calibrator.probe()
    started = time.monotonic()
    database = Database()
    patches = Patches()
    patches.replace(database, "bulk_insert", _probing(calibrator))
    try:
        bench = create_benchmark(benchmark, database, seed=seed, **kwargs)
        bench.load()
    finally:
        patches.undo()
    ended = time.monotonic()
    calibrator.probe()
    return database, bench, calibrator.scaled(started, ended)


def _probing(calibrator: Calibrator):
    def make(original):
        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            calibrator.maybe_probe()
            return result
        return call
    return make


def engine_work(database) -> dict[str, int]:
    """The engine's cumulative work counters."""
    locks = database.lock_manager.stats
    return {
        "committed": database.txn_manager.committed,
        "aborted": database.txn_manager.aborted,
        "rows_read": database.counters.rows_read,
        "lock_acquisitions": locks.acquisitions,
    }


def work_delta(before: dict[str, int], after: dict[str, int]
               ) -> dict[str, int]:
    return {key: after[key] - before[key] for key in before}


def outcome_counts(samples) -> dict[str, int]:
    counts = {"ok": 0, "aborted": 0, "error": 0}
    for sample in samples:
        counts[sample.status] = counts.get(sample.status, 0) + 1
    return counts


def check_accounting(report: Report, label: str, managers, samples,
                     work: dict[str, int]) -> dict[str, int]:
    """Gates shared by every measured phase; returns outcome counts.

    * per workload, the queue invariant ``offered == taken + postponed +
      depth``, and (open loop) one sample per taken request;
    * committed and aborted counts agree between ``Results``, the
      streaming metrics and the engine's transaction manager.  A failed
      statement rolls back, so the engine counts errors as aborts.
    """
    streamed_ok = streamed_failed = 0
    for manager in managers:
        queue = manager.queue.counters()
        report.check(
            queue["offered"] == queue["taken"] + queue["postponed"]
            + queue["depth"], f"{label}: queue invariant broken: {queue}")
        if not manager.closed_loop:
            count = len(manager.results)
            report.check(count == queue["taken"],
                         f"{label}: {count} samples for "
                         f"{queue['taken']} taken requests")
        for entry in manager.results.metrics.txn_counts().values():
            streamed_ok += entry["committed"]
            streamed_failed += entry["aborted"] + entry["errors"]
    counts = outcome_counts(samples)
    report.check(
        counts["ok"] == streamed_ok == work["committed"],
        f"{label}: committed counts disagree: results {counts['ok']}, "
        f"metrics {streamed_ok}, engine {work['committed']}")
    unfinished = counts["aborted"] + counts["error"]
    report.check(
        unfinished == streamed_failed == work["aborted"],
        f"{label}: aborted counts disagree: results {unfinished}, "
        f"metrics {streamed_failed}, engine {work['aborted']}")
    return counts


def report_tail(report: Report, prefix: str, values: list[float],
                what: str) -> None:
    """``<prefix>_p50_ms`` and ``<prefix>_top5_mean_ms`` from seconds.

    The tail is the mean of the slowest 5%, not a percentile: the slow
    tail of each workload mixes transaction types of different cost, and
    a percentile there falls on the boundary between two of them.  On
    ch-sim, over eight seeds, p95 spread by 0.12 and p99 by 0.14, the
    mean of the slowest 5% by 0.04.  p95 and p99 are printed.
    """
    values = sorted(values)
    report.check(supports(len(values), 99.0),
                 f"{what}: {len(values)} samples leave fewer than 10 "
                 "beyond p99")
    if not values:
        return
    p50, p95, p99 = (percentile(values, pct) * 1e3
                     for pct in (50.0, 95.0, 99.0))
    top5 = tail_mean(values, 0.05) * 1e3
    report.metric(f"{prefix}_p50_ms", p50, "ms")
    report.metric(f"{prefix}_top5_mean_ms", top5, "ms")
    report.notes.append(f"{what}: p50 {p50:.4f} ms, p95 {p95:.4f} ms, "
                        f"p99 {p99:.4f} ms, mean of the slowest 5% "
                        f"{top5:.4f} ms over {len(values)} samples")


# ---------------------------------------------------------------------------
# ycsb-threaded
# ---------------------------------------------------------------------------


def _ycsb_manager(bench, seed: int, rate: float, seconds: float,
                  tenant: str):
    # Workers draw from streams salted with the tenant, so naming each
    # phase apart keeps a later phase from replaying an earlier one's
    # transactions.
    weights = {name: weight
               for name, weight in bench.default_weights().items()
               if name not in YCSB_LEFT_OUT}
    config = WorkloadConfiguration(
        benchmark="ycsb", workers=WORKERS, seed=seed, tenant=tenant,
        phases=[Phase(duration=seconds, rate=rate, weights=weights)])
    manager = WorkloadManager(bench, config)
    executor = ThreadedExecutor(bench.database)
    executor.add_workload(manager)
    return manager, executor


def _capture_arrivals(patches: Patches, manager) -> list[list[float]]:
    """Record each tick's time and offered arrivals (once per second)."""
    ticks: list[list[float]] = []

    def make(original):
        def tick(now):
            arrivals = original(now)
            if arrivals is not None:
                ticks.append([now, *arrivals])
            return arrivals
        return tick
    patches.replace(manager, "tick", make)
    return ticks


def _ycsb_phase(report: Report, label: str, database, manager, executor,
                seconds: float, calibrator: Calibrator
                ) -> tuple[list, float]:
    """Run one phase, probing the host from a thread of its own, and
    gate it; returns (samples, wall seconds)."""
    before = engine_work(database)
    with ProbeThread(calibrator):
        started = time.monotonic()
        run = executor.run(timeout=seconds + 30.0)
        wall = time.monotonic() - started
    report.check(bool(run.get("ok")), f"{label}: executor report {run}")
    samples = manager.results.samples()
    work = work_delta(before, engine_work(database))
    counts = check_accounting(report, label, [manager], samples, work)
    live = database.row_count("usertable")
    counters = database.counters
    report.check(
        live == counters.rows_inserted - counters.rows_deleted,
        f"{label}: {live} live rows, but {counters.rows_inserted} "
        f"inserted - {counters.rows_deleted} deleted")
    report.attempted += len(samples)
    report.failed += counts["aborted"] + counts["error"]
    return samples, wall


@dataclass
class _RatedPhase:
    walls: dict[str, list[float]]
    committed: list          # committed samples due inside the window
    offered: int             # arrivals due inside the window


def _ycsb_rated(report: Report, database, bench, seed: int,
                seconds: float, calibrator: Calibrator,
                tenant: str) -> _RatedPhase:
    manager, executor = _ycsb_manager(bench, seed, YCSB_RATED_RATE,
                                      seconds, tenant)
    patches = Patches()
    timer = ProcTimer()
    timer.install(patches, bench)
    ticks = _capture_arrivals(patches, manager)
    try:
        samples, _wall = _ycsb_phase(report, "rated", database, manager,
                                     executor, seconds, calibrator)
    finally:
        patches.undo()
    report.check(bool(ticks), "rated: the pacer never ticked")
    start = ticks[0][0] if ticks else 0.0
    lo, hi = start + RATED_EDGE_S, start + seconds - RATED_EDGE_S
    due = [t for tick in ticks for t in tick[1:]]
    window = in_window(samples, lambda s: s.start, lo, hi)
    return _RatedPhase(
        walls=timer.scaled(calibrator),
        committed=[s for s in window if s.status == "ok"],
        offered=len(in_window(due, float, lo, hi)))


def _ycsb_saturated(report: Report, database, bench, seed: int,
                    seconds: float, calibrator: Calibrator,
                    tracer: Optional[Tracer], tenant: str) -> list[float]:
    """Run a saturated phase; returns its committed-per-second windows,
    each over the window's length in reference seconds."""
    label = "saturated (traced)" if tracer else "saturated"
    manager, executor = _ycsb_manager(bench, seed, YCSB_SATURATING_RATE,
                                      seconds, tenant)
    patches = Patches()
    ticks = _capture_arrivals(patches, manager)
    before = _layer_before(database, [manager])
    counters = None
    if tracer is not None:
        counters = instrument.install_tracing(
            patches, tracer, database=database, bench=bench,
            managers=[manager], executor=executor, simulated=False)
    try:
        samples, wall = _ycsb_phase(report, label, database, manager,
                                    executor, seconds, calibrator)
    finally:
        patches.undo()
    if not ticks:
        report.check(False, f"{label}: the pacer never ticked")
        return []
    start = ticks[0][0]
    done = [s.end for s in samples if s.status == "ok"]
    edges = _window_edges(start + SATURATED_WARMUP_S, start + seconds)
    rates = [len(in_window(done, float, lo, hi)) / calibrator.scaled(lo, hi)
             for lo, hi in edges]
    report.notes.append(
        f"{label} at {YCSB_SATURATING_RATE:g}/s offered: median "
        f"{median(rates):.1f} committed/s over {len(rates)} windows of "
        f"{SATURATED_WINDOW_S:g} s after {SATURATED_WARMUP_S:g} s; queue "
        f"{manager.queue.counters()}")
    if tracer is not None:
        _layer_metrics(report, tracer, counters, database, [manager],
                       before, len(samples), int(wall * 1e9),
                       missing=patches.missing)
    return rates


def _window_edges(lo: float, hi: float) -> list[tuple[float, float]]:
    count = int(round((hi - lo) / SATURATED_WINDOW_S))
    return [(lo + i * SATURATED_WINDOW_S, lo + (i + 1) * SATURATED_WINDOW_S)
            for i in range(count)]


def run_ycsb(seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    if trace:
        calibrator = Calibrator()
        database, bench, _setup = set_up("ycsb", seed, calibrator,
                                         scale_factor=YCSB_SCALE)
        untraced = _ycsb_saturated(report, database, bench, seed,
                                   seconds / 2, calibrator, None,
                                   "saturated")
        traced = _ycsb_saturated(report, database, bench, seed,
                                 seconds / 2, calibrator, Tracer(),
                                 "saturated (traced)")
        if untraced and traced and median(traced) > 0:
            report.metric("trace.overhead_ratio",
                          median(untraced) / median(traced), "ratio")
        return report
    rated_s = seconds * YCSB_RATED_SHARE
    setups, rated, rates = [], [], []
    for index in range(YCSB_REPEATS):
        calibrator = Calibrator()
        database, bench, setup = set_up("ycsb", seed, calibrator,
                                        scale_factor=YCSB_SCALE)
        setups.append(setup)
        rated.append(_ycsb_rated(report, database, bench, seed, rated_s,
                                 calibrator, f"rated-{index}"))
        rates += _ycsb_saturated(report, database, bench, seed,
                                 seconds * YCSB_SATURATED_SHARE, calibrator,
                                 None, f"saturated-{index}")
        del database, bench
        gc.collect()
    report.check(bool(rates), "saturated: no windows measured")
    report.metric("setup_s", median(setups), "s")
    report.metric("committed_per_s", median(rates) if rates else 0.0,
                  "1/s")
    report.notes.append(
        "setup_s: median of " + ", ".join(f"{t:.4f}" for t in setups))
    _rated_notes(report, rated, rated_s)
    report_tail(report, "txn_time",
                [w for phase in rated for run in phase.walls.values()
                 for w in run],
                f"txn time (rated phases of {YCSB_REPEATS} repeats, each "
                "with its own transaction stream, pooled)")
    return report


def _rated_notes(report: Report, rated: list[_RatedPhase],
                 seconds: float) -> None:
    """Requested versus delivered, and response time, pooled."""
    committed = [s for phase in rated for s in phase.committed]
    offered = sum(phase.offered for phase in rated)
    report.check(offered > 0, "rated: nothing was offered in the window")
    response = sorted(s.queue_delay + s.latency for s in committed)
    delay = sorted(s.queue_delay for s in committed)
    report.check(supports(len(response), 99.0),
                 f"rated: {len(response)} responses leave fewer than 10 "
                 "beyond p99")
    if offered and response:
        report.notes.append(
            f"rated phases at {YCSB_RATED_RATE:g}/s, due in "
            f"[{RATED_EDGE_S:g}, {seconds - RATED_EDGE_S:g}) s: "
            f"delivered_ratio {len(committed) / offered:.4f} ratio "
            f"({len(committed)} of {offered}); "
            f"response_p50_ms {percentile(response, 50) * 1e3:.4f} ms, "
            f"response_p99_ms {percentile(response, 99) * 1e3:.4f} ms; "
            f"queue.delay_p50_ms {percentile(delay, 50) * 1e3:.4f} ms, "
            f"queue.delay_p99_ms {percentile(delay, 99) * 1e3:.4f} ms; "
            f"over {len(response)} samples")


# ---------------------------------------------------------------------------
# tpcc-sim and ch-sim
# ---------------------------------------------------------------------------


@dataclass
class _SimRepeat:
    setup: float
    wall: float
    work: dict[str, int]
    walls: list[float]        # Procedure.run times, in execution order
    chunks: list[float]       # time of each chunk of completions


def _sim_repeat(report: Report, benchmark: str, seed: int,
                virtual_s: float, tracer: Optional[Tracer],
                label: str) -> _SimRepeat:
    """One fresh set-up and one simulated experiment."""
    calibrator = Calibrator()
    database, bench, setup = set_up(benchmark, seed, calibrator,
                                    scale_factor=1,
                                    **SIM_POPULATIONS[benchmark])
    clock = SimClock()
    executor = SimulatedExecutor(database, SIM_PERSONALITY, clock=clock)
    managers = []
    patches = Patches()
    for tenant, workers, rate, weights in _sim_streams(benchmark, bench):
        config = WorkloadConfiguration(
            benchmark=benchmark, workers=workers, seed=seed, tenant=tenant,
            phases=[Phase(duration=virtual_s, rate=rate,
                          weights=weights)])
        manager = WorkloadManager(bench, config, clock=clock)
        executor.add_workload(manager)
        managers.append(manager)
        if rate == RATE_DISABLED:
            _rotate(patches, manager, weights)
    timer = ProcTimer()
    counters = None
    stamps: list[float] = []
    layer_before = _layer_before(database, managers)
    if tracer is None:
        timer.install(patches, bench)
        for manager in managers:
            instrument.stamp_completions(patches, manager.results, stamps,
                                         calibrator)
    else:
        counters = instrument.install_tracing(
            patches, tracer, database=database, bench=bench,
            managers=managers, executor=executor, simulated=True)
    before = engine_work(database)
    gc.collect()
    calibrator.probe()
    try:
        started = time.monotonic()
        executor.run()
        ended = time.monotonic()
    finally:
        patches.undo()
    calibrator.probe()
    wall = ended - started
    work = work_delta(before, engine_work(database))
    samples = [s for manager in managers for s in manager.results.samples()]
    counts = check_accounting(report, label, managers, samples, work)
    consistency = bench.check_consistency()
    report.check(all(consistency.values()),
                 f"{label}: TPC-C consistency failed: {consistency}")
    user_aborts = (len(timer.user_aborts) if tracer is None
                   else counters.user_aborts)
    report.attempted += len(samples)
    report.failed += counts["aborted"] + counts["error"] - user_aborts
    work["user_aborts"] = user_aborts
    work["queries"] = sum(1 for s in samples if s.txn_name in _QUERY_NAMES)
    if tracer is not None:
        _layer_metrics(report, tracer, counters, database, managers,
                       layer_before, len(samples), int(wall * 1e9),
                       missing=patches.missing)
    walls = [w for run in timer.scaled(calibrator).values() for w in run]
    return _SimRepeat(setup, wall, work, walls,
                      chunk_durations(started, stamps, SIM_CHUNK,
                                      calibrator.scaled))


_QUERY_NAMES = frozenset(query.txn_name() for query in QUERIES)


def _rotate(patches: Patches, manager, weights: dict[str, float]) -> None:
    """Make ``manager`` run its mixture's transactions in a fixed
    rotation, as a CH-benCHmark analytical stream runs its query
    sequence, instead of drawing each one."""
    names = itertools.cycle(sorted(name for name, weight in weights.items()
                                   if weight > 0))

    def make(_original):
        def sample_txn_name(_rng):
            return next(names)
        return sample_txn_name
    patches.replace(manager, "sample_txn_name", make)


def _sim_streams(benchmark: str, bench):
    """(tenant, workers, rate, weights) of each simulated client stream.

    TPC-C is one open-loop stream of its default mixture.  CH-benCHmark
    runs, as its specification does, a transactional stream (open loop,
    the TPC-C part of the default mixture) beside an analytical client
    that runs the queries back to back (closed loop, the query part of
    the mixture, in a fixed rotation: see :func:`_rotate`).  The analytic
    work of a run is then set by virtual time, not by how many queries a
    10% draw happens to pick, which varied the work by about 12% between
    seeds, nor by which queries a draw picks: the slowest, Q14, takes
    about 40% of the transaction time, and its count among 120 drawn
    queries varied by about 18%.
    """
    if benchmark != "chbenchmark":
        return [("tenant-0", WORKERS, SIM_RATE, {})]
    weights = bench.default_weights()
    transactional = {name: weight for name, weight in weights.items()
                     if name not in _QUERY_NAMES}
    analytic = {name: weight for name, weight in weights.items()
                if name in _QUERY_NAMES}
    return [("transactional", 1, SIM_RATE, transactional),
            ("analytic", 1, RATE_DISABLED, analytic)]


def run_sim(benchmark: str, seed: int, seconds: float,
            trace: bool) -> Report:
    report = Report()
    virtual_s = seconds * SIM_VIRTUAL_PER_SECOND[benchmark]
    if trace:
        runs = [_sim_repeat(report, benchmark, seed, virtual_s, None,
                            "untraced"),
                _sim_repeat(report, benchmark, seed, virtual_s, Tracer(),
                            "traced")]
    else:
        runs = [_sim_repeat(report, benchmark, seed, virtual_s, None,
                            f"repeat {index + 1}")
                for index in range(REPEATS)]
    works = [run.work for run in runs]
    report.notes.append(
        f"work per repeat ({virtual_s:g} virtual s at {SIM_RATE:g}/s, "
        f"seed {seed}): {works[0]}")
    report.check(all(work == works[0] for work in works),
                 f"work differs between repeats at one seed: {works}")
    if not report.correct:
        return report
    if trace:
        untraced, traced = (run.work["committed"] / run.wall
                            for run in runs)
        report.metric("trace.overhead_ratio", untraced / traced, "ratio")
        return report
    setups = [run.setup for run in runs]
    best_wall = sum(elementwise_min([run.chunks for run in runs]))
    report.metric("setup_s", median(setups), "s")
    report.metric("committed_per_s", works[0]["committed"] / best_wall,
                  "1/s")
    report.notes.append(
        "setup_s: median of " + ", ".join(f"{t:.4f}" for t in setups)
        + f"; run walls {', '.join(f'{run.wall:.3f}' for run in runs)} s,"
        f" fastest chunks of {SIM_CHUNK} completions add up to "
        f"{best_wall:.3f} s")
    report_tail(report, "txn_time",
                elementwise_min([run.walls for run in runs]),
                f"txn time (fastest of {REPEATS} repeats per transaction)")
    return report


# ---------------------------------------------------------------------------
# per-layer metrics (traced runs)
# ---------------------------------------------------------------------------


def _attempts(managers) -> int:
    return sum(manager.resilience.stats.snapshot().get("attempts", 0)
               for manager in managers)


def _layer_before(database, managers) -> dict[str, object]:
    return {
        "locks": database.lock_manager.stats.snapshot(),
        "rows_read": database.counters.rows_read,
        "caches": database.cache_stats(),
        "attempts": _attempts(managers),
    }


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 1.0


def _layer_metrics(report: Report, tracer: Tracer, counters, database,
                   managers, before: dict, txns: int, wall_ns: int, *,
                   missing: list[str]) -> None:
    spans = tracer.by_span()
    report.check(tracer.open_spans() == 0, "traced: spans left open")
    report.check(txns > 0, "traced: no transactions ran")
    txns = max(txns, 1)

    def calls(name: str) -> int:
        return spans.get(name, (0, 0, 0))[0]

    def total(name: str) -> int:
        return spans.get(name, (0, 0, 0))[1]

    def self_(name: str) -> int:
        return spans.get(name, (0, 0, 0))[2]

    statements = max(calls(instrument.EXECUTE), 1)
    locks_after = database.lock_manager.stats.snapshot()
    locks = {key: locks_after[key] - before["locks"][key]
             for key in locks_after}
    caches = database.cache_stats()
    attempts = _attempts(managers) - before["attempts"]
    rows_read = database.counters.rows_read - before["rows_read"]
    root, outside = instrument.root_ns(spans)
    root = max(root, 1)
    proc_total = max(total(instrument.PROC), 1)
    proc_self = self_(instrument.PROC) + self_(instrument.RANDOM_STRING)
    us = 1e-3
    metrics = {
        "queue.take_us_per_txn": total(instrument.TAKE) * us / txns,
        "driver.mixture_us_per_txn": self_(instrument.MIXTURE) * us / txns,
        "driver.tick_us": total(instrument.TICK) * us
        / max(calls(instrument.TICK), 1),
        "proc.self_us_per_txn": proc_self * us / txns,
        "proc.self_share": proc_self / proc_total,
        "rand.random_string_share":
            total(instrument.RANDOM_STRING) / root,
        "dbapi.self_us_per_stmt": self_(instrument.DBAPI) * us / statements,
        "frontend.prepare_us_per_stmt":
            total(instrument.PREPARE) * us / statements,
        "frontend.plan_cache_hit_ratio": _hit_ratio(
            before["caches"]["plan_cache"], caches["plan_cache"]),
        "frontend.stmt_cache_hit_ratio": _hit_ratio(
            before["caches"]["stmt_cache"], caches["stmt_cache"]),
        "executor.self_us_per_stmt":
            self_(instrument.EXECUTE) * us / statements,
        "executor.rows_read_per_row_returned":
            rows_read / max(counters.rows_returned, 1),
        "executor.full_scans_per_txn": counters.full_scans / txns,
        "executor.index_lookups_per_txn": counters.index_lookups / txns,
        "locks.acquisitions_per_txn": locks["acquisitions"] / txns,
        "locks.acquire_us_per_txn": total(instrument.ACQUIRE) * us / txns,
        "locks.release_us_per_txn": total(instrument.RELEASE) * us / txns,
        "locks.acquire_share_of_executor":
            total(instrument.ACQUIRE)
            / max(total(instrument.EXECUTE), 1),
        "locks.waits": locks["waits"],
        "locks.wait_share": locks["wait_time"] * 1e9 / (wall_ns * WORKERS),
        "locks.deadlocks": locks["deadlocks"],
        "locks.timeouts": locks["timeouts"],
        "commit.us_per_txn": self_(instrument.COMMIT) * us / txns,
        "resilience.attempts_per_txn": attempts / txns,
        "record.us_per_sample": self_(instrument.RECORD) * us / txns,
        "sim.loop_share": (outside + self_(instrument.STEP)) / root,
        "trace.unattributed_share": outside / root,
    }
    for name, value in metrics.items():
        report.metric(name, value, UNITS[name])
    inside, whole = instrument.span_cost_ns()
    report.notes.append(
        f"traced: {txns} transactions, {statements} statements, "
        f"{int(locks['acquisitions'])} lock acquisitions; one span costs "
        f"{whole:.0f} ns, {inside:.0f} ns of it inside the span; hooks "
        f"missing: {missing or 'none'}")
    for cache in ("plan_cache", "stmt_cache"):
        now, then = caches[cache], before["caches"][cache]
        report.notes.append(
            f"{cache}: {now['size']} of {now['capacity']} entries, "
            f"{now['evictions'] - then['evictions']} evictions")
    for name in sorted(spans):
        count, span_total, span_self = spans[name]
        report.notes.append(
            f"  span {name:<20} calls {count:>9}  total "
            f"{span_total / 1e6:10.2f} ms  self {span_self / 1e6:10.2f} ms"
            f"  ({span_self / root:6.1%} of root)")
    _per_txn_type_notes(report, tracer)


def _per_txn_type_notes(report: Report, tracer: Tracer) -> None:
    """Each transaction type's share of transaction time, and where its
    time went."""
    by_type: dict[str, list] = {}
    grand = 0
    for record in tracer.transactions():
        entry = by_type.setdefault(record.txn_name, [0, 0, {}])
        spent = record.total_ns
        entry[0] += 1
        entry[1] += spent
        grand += spent
        for name, value in record.self_ns.items():
            entry[2][name] = entry[2].get(name, 0) + value
    count = sum(entry[0] for entry in by_type.values()) or 1
    for txn_name, (n, spent, layers) in sorted(
            by_type.items(), key=lambda item: -item[1][1]):
        top = sorted(layers.items(), key=lambda item: -item[1])[:3]
        report.notes.append(
            f"  txn {txn_name:<22} {n / count:6.1%} of txns, "
            f"{spent / max(grand, 1):6.1%} of txn time; top self: "
            + ", ".join(f"{name} {value / max(spent, 1):.0%}"
                        for name, value in top))


UNITS = {
    "queue.take_us_per_txn": "us",
    "driver.mixture_us_per_txn": "us",
    "driver.tick_us": "us",
    "proc.self_us_per_txn": "us",
    "proc.self_share": "ratio",
    "rand.random_string_share": "ratio",
    "dbapi.self_us_per_stmt": "us",
    "frontend.prepare_us_per_stmt": "us",
    "frontend.plan_cache_hit_ratio": "ratio",
    "frontend.stmt_cache_hit_ratio": "ratio",
    "executor.self_us_per_stmt": "us",
    "executor.rows_read_per_row_returned": "ratio",
    "executor.full_scans_per_txn": "count",
    "executor.index_lookups_per_txn": "count",
    "locks.acquisitions_per_txn": "count",
    "locks.acquire_us_per_txn": "us",
    "locks.release_us_per_txn": "us",
    "locks.acquire_share_of_executor": "ratio",
    "locks.waits": "count",
    "locks.wait_share": "ratio",
    "locks.deadlocks": "count",
    "locks.timeouts": "count",
    "commit.us_per_txn": "us",
    "resilience.attempts_per_txn": "count",
    "record.us_per_sample": "us",
    "sim.loop_share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}
