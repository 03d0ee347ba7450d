"""Versioned row storage and index maintenance.

Each table stores rows as *version chains*: ``rowid -> [Version, ...]`` with
versions ordered by their creating commit timestamp.  A transaction reading
at snapshot timestamp ``S`` sees the newest version with ``begin_ts <= S``;
strict-2PL readers use ``S = +inf`` (latest committed), which is safe because
they hold shared locks.

Indexes (the primary key and secondary indexes) are maintained as
*conservative supersets*: an index entry maps a key to every rowid that had
that key in any still-retained version.  Scans therefore always re-verify
key predicates against the version actually visible to the reader, and
pruning removes stale entries once no active snapshot can see them.  This
keeps index maintenance simple and correct under both 2PL and snapshot
isolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from ..errors import IntegrityError
from .catalog import IndexDef, TableSchema, key_getter

#: Snapshot timestamp meaning "read the latest committed version".
READ_LATEST = float("inf")


@dataclass(frozen=True)
class Version:
    """One committed version of a row; ``values is None`` is a tombstone."""

    begin_ts: float
    values: Optional[tuple]

    @property
    def is_tombstone(self) -> bool:
        return self.values is None


class TableData:
    """Row storage plus indexes for a single table."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._versions: dict[int, list[Version]] = {}
        self._rowid_counter = itertools.count(1)
        # index name -> {key tuple -> set of rowids}; the primary key uses
        # the reserved name "__pk__" when the table declares one.
        self._indexes: dict[str, dict[tuple, set[int]]] = {}
        self._index_defs: dict[str, IndexDef] = {}
        # index name -> (row values -> that index's key tuple)
        self._index_keys: dict[str, Callable[[tuple], tuple]] = {}
        self._multiversion_rows: set[int] = set()
        if schema.primary_key:
            self._index_defs["__pk__"] = IndexDef(
                "__pk__", schema.name, schema.primary_key, unique=True)
            self._index_keys["__pk__"] = key_getter(schema.pk_positions)
            self._indexes["__pk__"] = {}
        for index in schema.indexes.values():
            self.add_index(index)

    # -- index management --------------------------------------------------

    def add_index(self, index: IndexDef) -> None:
        """Register a new index and backfill it from retained versions."""
        self._index_defs[index.name] = index
        index_key = key_getter(
            tuple(self.schema.position(c) for c in index.columns))
        self._index_keys[index.name] = index_key
        entries: dict[tuple, set[int]] = {}
        for rowid, chain in self._versions.items():
            for version in chain:
                if version.values is not None:
                    entries.setdefault(index_key(version.values),
                                       set()).add(rowid)
        self._indexes[index.name] = entries

    def index_defs(self) -> list[IndexDef]:
        return list(self._index_defs.values())

    # -- reads ---------------------------------------------------------------

    def visible_version(self, rowid: int, snapshot_ts: float) -> Optional[Version]:
        """Newest version of ``rowid`` visible at ``snapshot_ts``."""
        chain = self._versions.get(rowid)
        if not chain:
            return None
        for version in reversed(chain):
            if version.begin_ts <= snapshot_ts:
                return version
        return None

    def latest_version(self, rowid: int) -> Optional[Version]:
        chain = self._versions.get(rowid)
        return chain[-1] if chain else None

    def latest_live(self, rowids: Iterable[int]) -> list[tuple[int, tuple]]:
        """``(rowid, values)`` for each of ``rowids`` live at its latest
        committed version, in ``rowids`` order.

        The batched read of a latest-committed reader with no pending
        writes on this table: ``visible_version(rowid, READ_LATEST)`` is
        always the chain's last version.
        """
        live = []
        append = live.append
        chain_of = self._versions.get
        for rowid in rowids:
            chain = chain_of(rowid)
            if chain:
                values = chain[-1].values
                if values is not None:
                    append((rowid, values))
        return live

    def all_rowids(self) -> Iterator[int]:
        return iter(list(self._versions.keys()))

    def index_lookup(self, index_name: str, key: tuple) -> set[int]:
        """Candidate rowids for an equality key (conservative superset)."""
        entries = self._indexes.get(index_name)
        if entries is None:
            return set()
        return set(entries.get(key, ()))

    def find_index(self, columns: Iterable[str]) -> Optional[IndexDef]:
        """An index whose column list is a prefix-match of ``columns``.

        Used by the planner: returns the index covering the largest number
        of the given equality columns (all index columns must be present).
        """
        wanted = set(columns)
        best: Optional[IndexDef] = None
        for index in self._index_defs.values():
            if all(c in wanted for c in index.columns):
                if best is None or len(index.columns) > len(best.columns):
                    best = index
        return best

    def pk_lookup_latest(self, key: tuple) -> Optional[int]:
        """Rowid whose *latest committed* version is live with this PK."""
        for rowid in self.index_lookup("__pk__", key):
            version = self.latest_version(rowid)
            if (version is not None and not version.is_tombstone
                    and self.schema.pk_key(version.values) == key):
                return rowid
        return None

    def count_live(self) -> int:
        """Number of rows live in the latest committed state."""
        count = 0
        for rowid in self._versions:
            version = self.latest_version(rowid)
            if version is not None and not version.is_tombstone:
                count += 1
        return count

    # -- writes (called while holding the database latch) -------------------

    def new_rowid(self) -> int:
        return next(self._rowid_counter)

    def apply_insert(self, rowid: int, values: tuple, commit_ts: float) -> None:
        if self.schema.primary_key:
            key = self.schema.pk_key(values)
            existing = self.pk_lookup_latest(key)
            if existing is not None and existing != rowid:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in {self.schema.name!r}")
        self._append_version(rowid, Version(commit_ts, values))

    def apply_update(self, rowid: int, values: tuple, commit_ts: float) -> None:
        self._append_version(rowid, Version(commit_ts, values))

    def apply_delete(self, rowid: int, commit_ts: float) -> None:
        self._append_version(rowid, Version(commit_ts, None))

    def _append_version(self, rowid: int, version: Version) -> None:
        chain = self._versions.setdefault(rowid, [])
        chain.append(version)
        if len(chain) > 1:
            self._multiversion_rows.add(rowid)
        values = version.values
        if values is not None:
            indexes = self._indexes
            for name, index_key in self._index_keys.items():
                indexes[name].setdefault(index_key(values), set()).add(rowid)

    # -- garbage collection --------------------------------------------------

    def prune(self, min_active_snapshot: float) -> int:
        """Drop versions no active snapshot can see; clean index entries.

        Returns the number of versions discarded.  A version may be dropped
        when a newer version also satisfies ``begin_ts <= min_active_snapshot``
        (the newer one shadows it for every current and future reader).
        """
        dropped = 0
        finished: list[int] = []
        for rowid in list(self._multiversion_rows):
            chain = self._versions.get(rowid)
            if not chain or len(chain) == 1:
                finished.append(rowid)
                continue
            # Find the newest version visible at the oldest snapshot.
            keep_from = 0
            for i, version in enumerate(chain):
                if version.begin_ts <= min_active_snapshot:
                    keep_from = i
            removed, kept = chain[:keep_from], chain[keep_from:]
            if removed:
                self._versions[rowid] = kept
                dropped += len(removed)
                self._clean_index_entries(rowid, removed, kept)
            if len(kept) == 1:
                if kept[0].is_tombstone:
                    # Row fully dead: remove storage and any index entries.
                    self._clean_index_entries(rowid, kept, [])
                    del self._versions[rowid]
                finished.append(rowid)
        for rowid in finished:
            self._multiversion_rows.discard(rowid)
        return dropped

    def _clean_index_entries(self, rowid: int, removed: list[Version],
                             kept: list[Version]) -> None:
        for name, index_key in self._index_keys.items():
            kept_keys = {
                index_key(v.values) for v in kept if v.values is not None
            }
            entries = self._indexes[name]
            for version in removed:
                if version.values is None:
                    continue
                key = index_key(version.values)
                if key in kept_keys:
                    continue
                bucket = entries.get(key)
                if bucket is not None:
                    bucket.discard(rowid)
                    if not bucket:
                        del entries[key]

    # -- stats ----------------------------------------------------------------

    def version_count(self) -> int:
        return sum(len(chain) for chain in self._versions.values())
