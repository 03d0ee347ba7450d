"""Span accounting for the traced run.

Every traced call opens a span on its thread's stack and closes it on
return.  Spans are timed with the thread's CPU clock by default: with
two workers sharing the interpreter lock, a wall-clock span would also
count the time its thread waited for the other worker to release the
lock, wherever that wait happened to fall.

A span's *self time* is its duration minus the part of it that its
child spans cover; children nest (calls on one thread never overlap),
so subtracting each direct child's full duration also removes the
grandchildren.

Spans are aggregated as they close rather than stored one by one, so a
run with millions of row-lock spans stays small in memory:

* per span name, over the whole run: calls, total and self nanoseconds;
* per transaction: the spans opened inside one ``Procedure.run`` share
  that transaction's id, and its record keeps the self time of each span
  name inside it.  The self times of one transaction add up to its
  duration.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, NamedTuple, Optional

#: Aggregated totals of one span name: [calls, total ns, self ns].
Totals = list


class TxnRecord(NamedTuple):
    """The spans of one transaction, by name: self nanoseconds."""

    txn_id: tuple[int, int]  # (thread index, sequence on that thread)
    txn_name: str
    self_ns: dict[str, int]

    @property
    def total_ns(self) -> int:
        return sum(self.self_ns.values())


class _ThreadState:
    __slots__ = ("index", "stack", "totals", "txn", "records")

    def __init__(self, index: int) -> None:
        self.index = index
        # One frame per open span: [name, start ns, child-covered ns].
        self.stack: list[list] = []
        self.totals: dict[str, Totals] = {}
        # Span self times of the open transaction, or None outside one.
        self.txn: Optional[dict[str, int]] = None
        self.records: list[TxnRecord] = []


class Tracer:
    """Per-thread span stacks, merged into totals when read."""

    def __init__(self, clock: Callable[[], int] = time.thread_time_ns
                 ) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [name, 0, 0]
        self._state().stack.append(frame)
        frame[1] = self._clock()
        return frame

    def close(self, frame: list) -> None:
        end = self._clock()
        state = self._state()
        stack = state.stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name = frame[0]
        duration = end - frame[1]
        self_ns = duration - frame[2]
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = [0, 0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += self_ns
        txn = state.txn
        if txn is not None:
            txn[name] = txn.get(name, 0) + self_ns
        if stack:
            stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with one ``name`` span around every call."""
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            frame = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)
        return traced

    def wrap_txn(self, name: str, txn_name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`; each call is one transaction of type
        ``txn_name`` and owns every span opened inside it."""
        open_, close, state_of = self.open, self.close, self._state

        def traced(*args, **kwargs):
            state = state_of()
            if state.txn is not None:
                raise RuntimeError("transactions do not nest")
            txn: dict[str, int] = {}
            state.txn = txn
            frame = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)
                state.txn = None
                state.records.append(TxnRecord(
                    (state.index, len(state.records)), txn_name, txn))
        return traced

    # -- reading -----------------------------------------------------------

    def _snapshot_states(self) -> list[_ThreadState]:
        with self._lock:
            return list(self._states)

    def by_span(self) -> dict[str, Totals]:
        """``span name -> [calls, total ns, self ns]`` over all threads."""
        out: dict[str, Totals] = {}
        for state in self._snapshot_states():
            for name, (calls, total, self_ns) in state.totals.items():
                entry = out.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_ns
        return out

    def transactions(self) -> list[TxnRecord]:
        return [record for state in self._snapshot_states()
                for record in state.records]

    def open_spans(self) -> int:
        return sum(len(state.stack) for state in self._snapshot_states())
