"""Strict two-phase-locking lock manager with deadlock detection.

Locks are taken on opaque hashable resource ids.  The executor uses two
granularities (Gray et al., 1976): ``("table", name)`` granules and, below
them, ``("row", table, rowid)`` and ``("key", table, key)`` granules.  The
modes are shared (``S``), exclusive (``X``), intention-exclusive (``IX``,
taken on a table before any row or key ``X`` lock in it) and their join
``SIX`` (a table scanned under ``S`` and then written).  ``IS`` is left
out: it conflicts only with a table ``X``, which nothing takes.

One compatibility table decides grants.  A request a transaction's held
mode already :func:`covers` is a no-op; any other request by a holder is
an upgrade to the :func:`join` of the two modes, and upgrades bypass the
queue.  A fresh request queues behind every earlier waiter it is
incompatible with, so a stream of table-``S`` scanners cannot starve a
queued ``IX`` writer.  A waits-for graph is maintained; when a request
would close a cycle the *requester* is chosen as the deadlock victim and
receives :class:`DeadlockError` — the cheapest victim policy and the one
that makes worker retry loops exercise realistic abort paths.

The manager also exposes counters (waits, wait time, deadlocks) that feed
the server-side monitoring component and the DBMS personality contention
model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Union

from ..clock import Clock, RealClock
from ..errors import DeadlockError, LockTimeoutError

SHARED = "S"
EXCLUSIVE = "X"
INTENT_EXCLUSIVE = "IX"
SHARED_INTENT_EXCLUSIVE = "SIX"

_MODES = (SHARED, EXCLUSIVE, INTENT_EXCLUSIVE, SHARED_INTENT_EXCLUSIVE)

#: Pairs of modes two different transactions may hold at once.
_COMPATIBLE = frozenset({
    (SHARED, SHARED),
    (INTENT_EXCLUSIVE, INTENT_EXCLUSIVE),
})

#: ``(held, requested)`` pairs where ``held`` already grants ``requested``.
_COVERS = frozenset(
    {(mode, mode) for mode in _MODES}
    | {(EXCLUSIVE, mode) for mode in _MODES}
    | {(SHARED_INTENT_EXCLUSIVE, SHARED),
       (SHARED_INTENT_EXCLUSIVE, INTENT_EXCLUSIVE)})


def compatible(held: str, requested: str) -> bool:
    """True when two transactions may hold these modes together."""
    return (held, requested) in _COMPATIBLE


def covers(held: str, requested: str) -> bool:
    """True when holding ``held`` already grants ``requested``."""
    return (held, requested) in _COVERS


def join(held: str, requested: str) -> str:
    """The weakest mode that grants both ``held`` and ``requested``."""
    if (held, requested) in _COVERS:
        return held
    if (requested, held) in _COVERS:
        return requested
    # The only incomparable pair is {S, IX}.
    return SHARED_INTENT_EXCLUSIVE


class _LockEntry:
    """State of one resource: current holders and the wait queue."""

    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        self.holders: dict[object, str] = {}  # txn -> mode
        # (txn, mode it waits to hold), in arrival order
        self.waiters: list[tuple[object, str]] = []


@dataclass
class LockStats:
    acquisitions: int = 0
    waits: int = 0
    wait_time: float = 0.0
    deadlocks: int = 0
    timeouts: int = 0

    def snapshot(self) -> dict[str, float]:
        return {
            "acquisitions": self.acquisitions,
            "waits": self.waits,
            "wait_time": self.wait_time,
            "deadlocks": self.deadlocks,
            "timeouts": self.timeouts,
        }


class LockManager:
    """Table/row lock manager shared by every connection of one database."""

    def __init__(self, timeout: float = 5.0,
                 clock: Union[Clock, Callable[[], float], None] = None
                 ) -> None:
        self.timeout = timeout
        # Wait deadlines and wait-time accounting go through an injected
        # monotonic time source so simulated runs stay deterministic; a
        # Clock or a bare callable returning seconds are both accepted.
        if clock is None:
            clock = RealClock()
        self._now: Callable[[], float] = (
            clock.now if isinstance(clock, Clock) else clock)
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._entries: dict[Hashable, _LockEntry] = {}
        self._held: dict[object, set[Hashable]] = {}
        # waits-for edges: waiting txn -> set of txns it waits on
        self._waits_for: dict[object, set[object]] = {}
        self._txn_thread: dict[object, int] = {}
        self.stats = LockStats()

    # -- public API -----------------------------------------------------

    def acquire(self, txn: object, resource: Hashable, mode: str,
                timeout: Optional[float] = None) -> bool:
        """Acquire ``resource`` in ``mode`` for ``txn``; blocks if needed.

        Returns True if the lock was newly acquired or upgraded, False when
        the transaction already held a covering lock.  Raises
        :class:`DeadlockError` when the wait would close a cycle and
        :class:`LockTimeoutError` on timeout.
        """
        with self._condition:
            self._txn_thread[txn] = threading.get_ident()
            entry = self._entries.get(resource)
            if entry is None:
                # Uncontended fast path: nobody holds or awaits it.
                entry = self._entries[resource] = _LockEntry()
                self._grant(entry, txn, resource, mode)
                return True
            held_mode = entry.holders.get(txn)
            if held_mode is not None:
                if (held_mode, mode) in _COVERS:
                    return False
                mode = join(held_mode, mode)
            if self._grantable(entry, txn, mode):
                self._grant(entry, txn, resource, mode)
                return True
            return self._wait(entry, txn, resource, mode,
                              self.timeout if timeout is None else timeout)

    def _wait(self, entry: _LockEntry, txn: object, resource: Hashable,
              mode: str, timeout: float) -> bool:
        """Queue ``txn`` for ``mode`` and block until granted; mutex held."""
        wait_started = self._now()
        deadline = wait_started + timeout
        self.stats.waits += 1
        entry.waiters.append((txn, mode))
        try:
            while True:
                blockers = self._blockers(entry, txn, mode)
                self._waits_for[txn] = blockers
                if self._creates_cycle(txn):
                    self.stats.deadlocks += 1
                    raise DeadlockError(
                        f"deadlock detected acquiring {mode} on {resource!r}")
                if self._would_self_block(txn, blockers):
                    self.stats.deadlocks += 1
                    raise DeadlockError(
                        f"self-wait acquiring {mode} on {resource!r} "
                        "(conflicting transaction on the same thread)")
                remaining = deadline - self._now()
                if remaining <= 0:
                    self.stats.timeouts += 1
                    raise LockTimeoutError(
                        f"timed out acquiring {mode} on {resource!r}")
                self._condition.wait(remaining)
                if self._grantable(entry, txn, mode):
                    self._grant(entry, txn, resource, mode)
                    return True
        finally:
            self._waits_for.pop(txn, None)
            try:
                entry.waiters.remove((txn, mode))
            except ValueError:
                pass
            self.stats.wait_time += self._now() - wait_started
            self._condition.notify_all()

    def try_acquire(self, txn: object, resource: Hashable, mode: str) -> bool:
        """Non-blocking acquire; returns False instead of waiting."""
        with self._condition:
            self._txn_thread[txn] = threading.get_ident()
            entry = self._entries.get(resource)
            if entry is None:
                entry = self._entries[resource] = _LockEntry()
                self._grant(entry, txn, resource, mode)
                return True
            held_mode = entry.holders.get(txn)
            if held_mode is not None:
                if (held_mode, mode) in _COVERS:
                    return True
                mode = join(held_mode, mode)
            if self._grantable(entry, txn, mode):
                self._grant(entry, txn, resource, mode)
                return True
            return False

    def release_all(self, txn: object) -> None:
        """Release every lock held by ``txn`` (strict 2PL release point)."""
        with self._condition:
            for resource in self._held.pop(txn, set()):
                entry = self._entries.get(resource)
                if entry is None:
                    continue
                entry.holders.pop(txn, None)
                if not entry.holders and not entry.waiters:
                    del self._entries[resource]
            self._waits_for.pop(txn, None)
            self._txn_thread.pop(txn, None)
            self._condition.notify_all()

    def held_by(self, txn: object) -> set[Hashable]:
        with self._mutex:
            return set(self._held.get(txn, ()))

    def holds(self, txn: object, resource: Hashable, mode: str) -> bool:
        with self._mutex:
            entry = self._entries.get(resource)
            if entry is None:
                return False
            held = entry.holders.get(txn)
            return held is not None and (held, mode) in _COVERS

    def active_lock_count(self) -> int:
        with self._mutex:
            return sum(len(e.holders) for e in self._entries.values())

    # -- internals --------------------------------------------------------

    def _grantable(self, entry: _LockEntry, txn: object, mode: str) -> bool:
        for holder, held_mode in entry.holders.items():
            if holder is not txn and (held_mode, mode) not in _COMPATIBLE:
                return False
        if txn not in entry.holders:
            # Upgrades bypass the queue; a fresh request waits behind
            # every earlier waiter it conflicts with, so FIFO order
            # keeps shared requests from starving a queued writer.
            for waiter, waiter_mode in entry.waiters:
                if waiter is txn:
                    break
                if (waiter_mode, mode) not in _COMPATIBLE:
                    return False
        return True

    def _grant(self, entry: _LockEntry, txn: object, resource: Hashable,
               mode: str) -> None:
        entry.holders[txn] = mode
        held = self._held.get(txn)
        if held is None:
            self._held[txn] = {resource}
        else:
            held.add(resource)
        self.stats.acquisitions += 1

    def _blockers(self, entry: _LockEntry, txn: object, mode: str) -> set[object]:
        blockers = {
            holder for holder, held_mode in entry.holders.items()
            if holder is not txn and (held_mode, mode) not in _COMPATIBLE
        }
        if txn not in entry.holders:
            for waiter, waiter_mode in entry.waiters:
                if waiter is txn:
                    break
                if (waiter_mode, mode) not in _COMPATIBLE:
                    blockers.add(waiter)
        return blockers

    def _creates_cycle(self, start: object) -> bool:
        """DFS over the waits-for graph looking for a cycle through start."""
        stack = list(self._waits_for.get(start, ()))
        seen: set[object] = set()
        while stack:
            node = stack.pop()
            if node is start:
                return True
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(self._waits_for.get(node, ()))
        return False

    def _would_self_block(self, txn: object, blockers: set[object]) -> bool:
        """True when a blocker runs on this thread: waiting would hang it."""
        me = threading.get_ident()
        for blocker in blockers:
            if self._txn_thread.get(blocker) == me:
                return True
        return False
