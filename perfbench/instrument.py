"""Hooks installed from outside the program: timers and layer spans.

Nothing here edits the program.  Each hook replaces a method on one
object (or, for the DB-API and sample-buffer classes, on the class) for
the length of one measured phase, and :meth:`Patches.undo` puts the
original back.  Hooks on private executor methods are optional: when a
refactor removes one, its time is counted in ``sim.loop_share`` instead.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.core.procedure import UserAbort
from repro.core.results import SampleBuffer
from repro.engine.dbapi import Connection, Cursor

from tracer import Tracer

#: Span names, one per layer boundary (see README.md for the layer map).
ROOT = "root"
STEP = "executor.step"
TICK = "driver.tick"
TAKE = "queue.take"
MIXTURE = "driver.mixture"
PROC = "proc.run"
RANDOM_STRING = "rand.random_string"
DBAPI = "dbapi"
PREPARE = "frontend.prepare"
EXECUTE = "executor"
ACQUIRE = "locks.acquire"
RELEASE = "locks.release"
COMMIT = "commit"
RECORD = "record"

_CURSOR_CALLS = ("execute", "executemany", "fetchone", "fetchall",
                 "fetchmany")
_RANDOM_STRING_USERS = ("repro.benchmarks.ycsb.procedures",
                        "repro.benchmarks.tpcc.procedures")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []
        #: Optional hook points the program no longer has.
        self.missing: list[str] = []

    def replace(self, owner: object, name: str,
                make: Callable[[Callable], Callable],
                optional: bool = False) -> None:
        original = getattr(owner, name, None)
        if original is None:
            if optional:
                self.missing.append(name)
                return
            raise AttributeError(f"{owner!r} has no {name!r} to hook")
        if name in vars(owner):
            self._undo.append(lambda: setattr(owner, name, original))
        else:
            self._undo.append(lambda: delattr(owner, name))
        setattr(owner, name, make(original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


class _Procedure:
    """A procedure whose ``run`` is replaced; the rest delegates to it."""

    __slots__ = ("_proc", "run")

    def __init__(self, proc, run: Callable) -> None:
        self._proc = proc
        self.run = run

    def __getattr__(self, name: str):
        return getattr(self._proc, name)


def _replace_runs(patches: Patches, bench,
                  make_run: Callable[[object, str], Callable],
                  around: Callable[[Callable], Callable] = lambda f: f
                  ) -> None:
    """Hook ``bench.make_procedure`` so that every procedure it returns
    runs ``make_run(procedure, txn_name)`` instead of its own ``run``."""
    cache: dict[str, _Procedure] = {}

    def make(original):
        def make_procedure(txn_name):
            proc = original(txn_name)
            proxy = cache.get(txn_name)
            if proxy is None or proxy._proc is not proc:
                proxy = cache[txn_name] = _Procedure(
                    proc, make_run(proc, txn_name))
            return proxy
        return around(make_procedure)
    patches.replace(bench, "make_procedure", make)


class ProcTimer:
    """Untraced-run hook: times every ``Procedure.run`` on the running
    thread's CPU clock, and notes when it started on the wall clock.

    The CPU clock leaves out the time a worker waits for the other
    worker to release the interpreter lock, wherever that wait happens
    to fall.  Start times and durations are kept per worker thread, in
    the order that worker ran its transactions: a worker draws its
    transactions
    from its own seeded stream, so its k-th transaction is the same one
    in every repetition at one seed.  Also counts :class:`UserAbort`
    raised by the benchmark's own logic (TPC-C's 1% invalid-item
    NewOrder), which are correct outcomes, not failures.
    """

    def __init__(self) -> None:
        #: worker -> (start times, durations)
        self.by_worker: dict[str, tuple[list[float], list[float]]] = {}
        self.user_aborts: list[int] = []

    def _timings(self, worker: str) -> tuple[list[float], list[float]]:
        timings = self.by_worker.get(worker)
        if timings is None:
            timings = self.by_worker.setdefault(worker, ([], []))
        return timings

    def install(self, patches: Patches, bench) -> None:
        _replace_runs(patches, bench, self._timed)

    def scaled(self, calibrator) -> dict[str, list[float]]:
        """Per worker, each transaction's time in reference seconds."""
        return {worker: [calibrator.scaled(start, start + wall)
                         for start, wall in zip(starts, walls)]
                for worker, (starts, walls) in self.by_worker.items()}

    def _timed(self, proc, _txn_name: str) -> Callable:
        run, clock, busy = proc.run, time.monotonic, time.thread_time

        def timed(conn, rng):
            started = clock()
            busy_from = busy()
            try:
                return run(conn, rng)
            except UserAbort:
                self.user_aborts.append(1)
                raise
            finally:
                elapsed = busy() - busy_from
                starts, walls = self._timings(
                    threading.current_thread().name)
                starts.append(started)
                walls.append(elapsed)
        return timed


def stamp_completions(patches: Patches, results, stamps: list[float],
                      calibrator) -> None:
    """Untraced-run hook: append the time at which each sample is
    recorded to ``stamps``, then let ``calibrator`` probe the host if
    its period has passed."""
    clock = time.monotonic

    def make(original):
        def record(sample):
            original(sample)
            stamps.append(clock())
            calibrator.maybe_probe()
        return record
    patches.replace(results, "record", make)


def pair_cost_ns(rounds: int = 20000) -> float:
    """Mean cost of one ``time.thread_time`` pair plus the list append."""
    walls: list[float] = []
    clock = time.thread_time
    started = time.perf_counter_ns()
    for _ in range(rounds):
        t = clock()
        walls.append(clock() - t)
    return (time.perf_counter_ns() - started) / rounds


def span_cost_ns(rounds: int = 20000) -> tuple[float, float]:
    """(cost recorded inside a span, whole cost of a span) per call.

    The first part inflates every span's own total; the whole cost is
    what tracing adds to the run.
    """
    tracer = Tracer()
    traced = tracer.wrap("calibration", _noop)
    started = time.perf_counter_ns()
    for _ in range(rounds):
        traced()
    whole = time.perf_counter_ns() - started
    started = time.perf_counter_ns()
    for _ in range(rounds):
        _noop()
    whole -= time.perf_counter_ns() - started
    inside = tracer.by_span()["calibration"][1]
    return inside / rounds, whole / rounds


def _noop() -> None:
    return None


class LayerCounters:
    """Counts taken at the span boundaries during a traced phase."""

    def __init__(self) -> None:
        self.rows_returned = 0
        self.full_scans = 0
        self.index_lookups = 0
        self.user_aborts = 0


def install_tracing(patches: Patches, tracer: Tracer, *, database, bench,
                    managers, executor, simulated: bool
                    ) -> LayerCounters:
    """Hook one span around every call at each layer boundary."""
    counters = LayerCounters()
    wrap = tracer.wrap

    # core.executors / clock: the root (the simulated run, or each
    # worker's loop) and the per-request step of either executor.
    if simulated:
        patches.replace(executor, "run", lambda f: wrap(ROOT, f))
        for name in ("_dispatch", "_start", "_complete"):
            patches.replace(executor, name, lambda f: wrap(STEP, f),
                            optional=True)
    else:
        patches.replace(executor, "_worker_loop", lambda f: wrap(ROOT, f),
                        optional=True)
        for name in ("_execute_fast", "_execute"):
            patches.replace(executor, name, lambda f: wrap(STEP, f),
                            optional=True)

    # core.manager / core.requestqueue: the driver.
    for manager in managers:
        patches.replace(manager, "tick", lambda f: wrap(TICK, f))
        for name in ("take_batch", "poll", "next_arrival"):
            patches.replace(manager.queue, name, lambda f: wrap(TAKE, f))
        patches.replace(manager, "sample_txn_name",
                        lambda f: wrap(MIXTURE, f))

    # benchmarks.* / rand: transaction logic, one transaction per run.
    def traced_run(proc, txn_name: str) -> Callable:
        return tracer.wrap_txn(PROC, txn_name,
                               _counting_user_aborts(proc.run, counters))
    _replace_runs(patches, bench, traced_run,
                  around=lambda f: wrap(MIXTURE, f))
    for module_name in _RANDOM_STRING_USERS:
        module = __import__(module_name, fromlist=["random_string"])
        patches.replace(module, "random_string",
                        lambda f: wrap(RANDOM_STRING, f), optional=True)

    # engine.dbapi: the client library.
    for name in _CURSOR_CALLS:
        patches.replace(Cursor, name, lambda f: wrap(DBAPI, f))
    for name in ("commit", "rollback"):
        patches.replace(Connection, name, lambda f: wrap(DBAPI, f))

    # engine.database front end, engine.executor, engine.txn.
    patches.replace(database, "prepare_exec", lambda f: wrap(PREPARE, f))

    def execute_prepared(original):
        def call(txn, prepared, params=()):
            result = original(txn, prepared, params)
            if result.columns:
                counters.rows_returned += len(result.rows)
            return result
        return wrap(EXECUTE, call)
    patches.replace(database, "execute_prepared", execute_prepared)

    def finishing(original):
        def call(txn):
            stats = txn.stats
            counters.full_scans += stats.full_scans
            counters.index_lookups += stats.index_lookups
            return original(txn)
        return wrap(COMMIT, call)
    patches.replace(database, "commit", finishing)
    patches.replace(database, "rollback", finishing)

    # engine.locks.
    lock_manager = database.lock_manager
    for name in ("acquire", "try_acquire"):
        patches.replace(lock_manager, name, lambda f: wrap(ACQUIRE, f))
    patches.replace(lock_manager, "release_all", lambda f: wrap(RELEASE, f))

    # core.results / metrics.stream: sample recording.
    for manager in managers:
        for name in ("record", "record_batch"):
            patches.replace(manager.results, name,
                            lambda f: wrap(RECORD, f))
    patches.replace(SampleBuffer, "flush", lambda f: wrap(RECORD, f))
    return counters


def _counting_user_aborts(run: Callable, counters: LayerCounters
                          ) -> Callable:
    def call(conn, rng):
        try:
            return run(conn, rng)
        except UserAbort:
            counters.user_aborts += 1
            raise
    return call


def root_ns(spans: dict) -> tuple[int, int]:
    """(root time, time outside every span) of the executing threads.

    The root spans are the simulated ``run()`` call, or each threaded
    worker's loop.  Without them (a refactor removed the hook), the
    spans' own coverage stands in and nothing counts as unattributed.
    """
    entry = spans.get(ROOT)
    if entry is not None:
        return entry[1], entry[2]
    return sum(self_ns for _calls, _total, self_ns in spans.values()), 0
