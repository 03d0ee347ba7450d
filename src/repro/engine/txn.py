"""Transactions: private workspaces, snapshots, and commit validation.

A transaction buffers all of its writes in a private workspace and applies
them atomically at commit under the database's structural latch.  Two
isolation levels are offered, matching what the OLTP-Bench benchmarks need:

* ``serializable`` — strict two-phase locking.  Readers take shared row
  locks (or one shared table lock for a full scan), writers an
  intention-exclusive table lock and exclusive row/key locks, all held to
  commit/rollback.  Reads see the latest committed version (safe under
  2PL).
* ``snapshot`` — snapshot isolation.  Reads see the database as of the
  transaction's begin timestamp without locking; writes are validated with
  first-committer-wins at commit (:class:`SerializationError` on conflict).
  This is what SIBench exercises: SI permits write skew, 2PL does not.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ProgrammingError, SerializationError
from .storage import READ_LATEST, TableData, Version

SERIALIZABLE = "serializable"
SNAPSHOT = "snapshot"

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"


@dataclass
class WriteOp:
    """A buffered write against one row."""

    kind: str  # insert | update | delete
    values: Optional[tuple]  # None for delete


@dataclass
class TxnStats:
    rows_read: int = 0
    rows_written: int = 0
    rows_inserted: int = 0
    rows_deleted: int = 0
    index_lookups: int = 0
    full_scans: int = 0

    @property
    def write_footprint(self) -> int:
        return self.rows_written + self.rows_inserted + self.rows_deleted


class Transaction:
    """Execution context for one in-flight transaction."""

    _ids = itertools.count(1)

    def __init__(self, isolation: str, snapshot_ts: float) -> None:
        if isolation not in (SERIALIZABLE, SNAPSHOT):
            raise ProgrammingError(f"unknown isolation level {isolation!r}")
        self.txn_id = next(self._ids)
        self.isolation = isolation
        self.snapshot_ts = snapshot_ts
        self.active = True
        # (table name, rowid) -> WriteOp; insertion order preserved so that
        # commit application replays writes deterministically.
        self.workspace: dict[tuple[str, int], WriteOp] = {}
        # table -> rowids this txn inserted (scan overlay)
        self.inserted: dict[str, set[int]] = {}
        self.stats = TxnStats()
        # table -> strongest table-lock mode granted to this txn, so that
        # repeated statements on a table skip the lock manager; the lock
        # manager still decides every grant.
        self.table_locks: dict[str, str] = {}
        # table -> row S locks taken there (drives lock escalation)
        self.row_s_locks: dict[str, int] = {}

    # -- workspace helpers -------------------------------------------------

    def pending_write(self, table: str, rowid: int) -> Optional[WriteOp]:
        return self.workspace.get((table, rowid))

    def buffer_insert(self, table: str, rowid: int, values: tuple) -> None:
        self.workspace[(table, rowid)] = WriteOp(INSERT, values)
        self.inserted.setdefault(table, set()).add(rowid)
        self.stats.rows_inserted += 1

    def buffer_update(self, table: str, rowid: int, values: tuple) -> None:
        existing = self.workspace.get((table, rowid))
        if existing is not None and existing.kind == INSERT:
            existing.values = values
        else:
            self.workspace[(table, rowid)] = WriteOp(UPDATE, values)
        self.stats.rows_written += 1

    def buffer_delete(self, table: str, rowid: int) -> None:
        existing = self.workspace.get((table, rowid))
        if existing is not None and existing.kind == INSERT:
            # Inserting then deleting inside one txn cancels out.
            del self.workspace[(table, rowid)]
            self.inserted.get(table, set()).discard(rowid)
        else:
            self.workspace[(table, rowid)] = WriteOp(DELETE, None)
        self.stats.rows_deleted += 1

    def effective_version(self, table: str, data: TableData,
                          rowid: int) -> Optional[Version]:
        """Row state as seen by this transaction (workspace overlay)."""
        pending = self.workspace.get((table, rowid))
        if pending is not None:
            return Version(self.snapshot_ts, pending.values)
        return data.visible_version(rowid, self.snapshot_ts)

    @property
    def read_only(self) -> bool:
        return not self.workspace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Transaction {self.txn_id} {self.isolation}>"


class TransactionManager:
    """Issues begin/commit timestamps and applies commit workspaces."""

    PRUNE_INTERVAL = 256

    def __init__(self) -> None:
        self._latch = threading.RLock()
        self._commit_counter = itertools.count(1)
        self._last_commit_ts = 0.0
        self._active_snapshots: dict[int, float] = {}
        self._commits_since_prune = 0
        self.committed = 0
        self.aborted = 0

    @property
    def latch(self) -> threading.RLock:
        return self._latch

    def begin(self, isolation: str) -> Transaction:
        with self._latch:
            snapshot_ts = (self._last_commit_ts if isolation == SNAPSHOT
                           else READ_LATEST)
            txn = Transaction(isolation, snapshot_ts)
            if isolation == SNAPSHOT:
                self._active_snapshots[txn.txn_id] = snapshot_ts
            return txn

    def commit(self, txn: Transaction,
               tables: dict[str, TableData]) -> float:
        """Validate and apply ``txn``'s workspace; returns the commit ts.

        Raises :class:`SerializationError` for snapshot-isolation conflicts
        (the workspace is left intact so the caller can roll back cleanly).
        """
        with self._latch:
            if not txn.active:
                raise ProgrammingError("transaction is not active")
            if txn.isolation == SNAPSHOT:
                self._validate_snapshot(txn, tables)
            commit_ts = float(next(self._commit_counter))
            self._last_commit_ts = commit_ts
            for (table_name, rowid), op in txn.workspace.items():
                data = tables[table_name]
                if op.kind == INSERT:
                    data.apply_insert(rowid, op.values, commit_ts)
                elif op.kind == UPDATE:
                    data.apply_update(rowid, op.values, commit_ts)
                else:
                    data.apply_delete(rowid, commit_ts)
            self._finish(txn)
            self.committed += 1
            self._commits_since_prune += 1
            if self._commits_since_prune >= self.PRUNE_INTERVAL:
                self._commits_since_prune = 0
                self._prune(tables)
            return commit_ts

    def rollback(self, txn: Transaction) -> None:
        with self._latch:
            if txn.active:
                txn.workspace.clear()
                txn.inserted.clear()
                self._finish(txn)
                self.aborted += 1

    def _finish(self, txn: Transaction) -> None:
        txn.active = False
        self._active_snapshots.pop(txn.txn_id, None)

    def _validate_snapshot(self, txn: Transaction,
                           tables: dict[str, TableData]) -> None:
        """First-committer-wins: abort if any touched row moved on."""
        for (table_name, rowid), op in txn.workspace.items():
            data = tables[table_name]
            latest = data.latest_version(rowid)
            if op.kind == INSERT:
                # Another committer may have claimed the same primary key.
                if data.schema.primary_key and op.values is not None:
                    key = data.schema.pk_key(op.values)
                    existing = data.pk_lookup_latest(key)
                    if existing is not None and existing != rowid:
                        raise SerializationError(
                            f"concurrent insert of key {key!r} "
                            f"into {table_name!r}")
                continue
            if latest is not None and latest.begin_ts > txn.snapshot_ts:
                raise SerializationError(
                    f"write-write conflict on {table_name!r} row {rowid}")

    def min_active_snapshot(self) -> float:
        with self._latch:
            if not self._active_snapshots:
                return READ_LATEST
            return min(self._active_snapshots.values())

    def _prune(self, tables: dict[str, TableData]) -> None:
        horizon = self.min_active_snapshot()
        for data in tables.values():
            data.prune(horizon)
