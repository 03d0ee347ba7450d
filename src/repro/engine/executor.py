"""Statement execution: scans, joins, aggregation, and DML.

The executor is a straightforward iterator pipeline:

* single-table access paths choose between an equality-index lookup, an
  integer primary-key range unroll, and a full scan; the choice is made
  before any storage read, so a scan knows its path when it locks;
* joins are nested loops, with equality join predicates pushed down so the
  inner side can use its indexes per outer row;
* aggregation/grouping, DISTINCT, ORDER BY, and LIMIT/OFFSET are applied to
  the materialised row set.

Serializable transactions lock at two granularities (see
:mod:`repro.engine.locks`):

* a shared full scan takes one table ``S`` lock and no row locks, which
  also keeps inserts, updates and deletes out of the scanned table until
  commit, so the scan's predicate sees no phantoms;
* other shared scans take row ``S`` locks; once a transaction holds
  ``ESCALATION_THRESHOLD`` of them on one table, later scans of it take
  the table ``S`` lock instead;
* every write (INSERT, UPDATE, DELETE, ``FOR UPDATE``) takes table ``IX``
  before its row and primary-key ``X`` locks.

Snapshot transactions read without locks and validate writes at commit;
their ``FOR UPDATE`` still takes ``IX`` and row ``X`` locks.  There are no
next-key locks, so a predicate served by an index probe or a PK range
read, and not escalated, can still see phantoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, TYPE_CHECKING

from ..errors import IntegrityError, ProgrammingError
from .catalog import TableSchema
from .expr import AGGREGATES, RowContext, evaluate, is_true
from .locks import EXCLUSIVE, INTENT_EXCLUSIVE, SHARED, covers, join
from .plan import (CompiledAggregation, CompiledDelete, CompiledInsert,
                   CompiledSelect, CompiledSource, CompiledUpdate, LazyAggs)
from .sqlparser import ast
from .txn import SERIALIZABLE, Transaction

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database

#: Row ``S`` locks a transaction takes on one table before its shared
#: scans of that table take the table ``S`` lock instead.
ESCALATION_THRESHOLD = 1000

#: A scan's access path: ``(index name, keys to probe)``, or ``None`` for
#: a full scan.
_Access = Optional[tuple[str, Sequence[tuple]]]


@dataclass
class Result:
    """Outcome of one statement execution."""

    rows: list[tuple] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    rowcount: int = -1


@dataclass
class _Source:
    """One table in the FROM clause with its pushed-down predicates."""

    binding: str
    table_name: str
    schema: TableSchema
    predicates: list[ast.Expr] = field(default_factory=list)
    join_kind: str = "inner"


class Executor:
    """Executes parsed statements against a database on behalf of a txn."""

    def __init__(self, db: "Database") -> None:
        self.db = db

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def execute(self, txn: Transaction, stmt: ast.Statement,
                params: Sequence[object]) -> Result:
        if isinstance(stmt, ast.Select):
            return self._execute_select(txn, stmt, params)
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(txn, stmt, params)
        if isinstance(stmt, ast.Update):
            return self._execute_update(txn, stmt, params)
        if isinstance(stmt, ast.Delete):
            return self._execute_delete(txn, stmt, params)
        raise ProgrammingError(f"executor cannot handle {type(stmt).__name__}")

    def execute_plan(self, txn: Transaction, plan,
                     params: Sequence[object]) -> Result:
        """Run a :mod:`repro.engine.plan` compiled plan.

        Same observable semantics as :meth:`execute` on the statement
        the plan was compiled from — row values/order, errors, locking,
        and stats counters all match the interpreted path.
        """
        if isinstance(plan, CompiledSelect):
            return self._select_plan(txn, plan, params)
        if isinstance(plan, CompiledInsert):
            return self._insert_plan(txn, plan, params)
        if isinstance(plan, CompiledUpdate):
            return self._update_plan(txn, plan, params)
        if isinstance(plan, CompiledDelete):
            return self._delete_plan(txn, plan, params)
        raise ProgrammingError(
            f"executor cannot handle plan {type(plan).__name__}")

    # ------------------------------------------------------------------
    # compiled-plan runtime
    # ------------------------------------------------------------------

    def _select_plan(self, txn: Transaction, plan: CompiledSelect,
                     params: Sequence[object]) -> Result:
        if plan.scalar:
            row = plan.project_fn((), params)
            return Result([row], list(plan.columns), rowcount=1)
        lock_mode = EXCLUSIVE if plan.for_update else SHARED
        take_locks = (txn.isolation == SERIALIZABLE
                      or lock_mode == EXCLUSIVE)
        sources = plan.sources
        n_sources = len(sources)
        rows: list[Optional[tuple]] = [None] * n_sources
        contexts: list[tuple] = []

        plan_scan = self._plan_scan

        def recurse(level: int) -> None:
            if level == n_sources:
                contexts.append(tuple(rows))
                return
            source = sources[level]
            slot = source.slot
            matched = plan_scan(txn, source, rows, params, lock_mode,
                                take_locks, count_db_reads=True)
            for _rowid, values in matched:
                rows[slot] = values
                recurse(level + 1)
            if source.join_kind == "left" and not matched:
                rows[slot] = None
                recurse(level + 1)
            rows[slot] = None

        recurse(0)

        if plan.aggregation is not None:
            out = self._aggregate_plan(plan.aggregation, contexts, params)
        else:
            project = plan.project_fn
            out = [project(ctx, params) for ctx in contexts]
            if plan.order_keys:
                keyed = [
                    ([_SortKey(key.value(ctx, row, params), key.descending)
                      for key in plan.order_keys], row)
                    for ctx, row in zip(contexts, out)]
                keyed.sort(key=lambda pair: pair[0])
                out = [row for _, row in keyed]
        if plan.distinct:
            out = _distinct(out)
        out = _apply_plan_limit(out, plan, params)
        return Result(out, list(plan.columns), rowcount=len(out))

    def _plan_scan(self, txn: Transaction, source: CompiledSource,
                   rows: list, params: Sequence[object], lock_mode: str,
                   take_locks: bool, count_db_reads: bool
                   ) -> list[tuple[int, tuple]]:
        """Compiled scan: batched visibility read, closure filtering.

        The access path is decided first, outside the latch, so the
        scan can take its table lock before it reads.  A shared scan
        under a table ``S`` lock needs no row locks and no re-read.
        Otherwise each qualifying row is locked and then re-read, so
        2PL semantics hold.  Candidate gathering and all visibility
        checks happen under a single latch acquisition (the interpreter
        re-enters the latch per row).  Locks are never acquired while
        holding the latch.
        """
        table = source.table
        data = self.db.table_data(table)
        slot = source.slot
        row_filter = source.filter
        latch = self.db.latch
        effective = txn.effective_version
        access = self._plan_access(txn, source, rows, params)
        lock_rows = take_locks and self._lock_table_for_scan(
            txn, table, lock_mode, full_scan=access is None)
        with latch:
            candidates = _read_candidates(data, access)
            inserted = txn.inserted.get(table)
            if inserted:
                candidates |= inserted
            visible = []
            append = visible.append
            for rowid in candidates:
                version = effective(table, data, rowid)
                if version is not None and not version.is_tombstone:
                    append((rowid, version.values))
        out: list[tuple[int, tuple]] = []
        emit = out.append
        if not lock_rows:
            if row_filter is None:
                out = visible
            else:
                for rowid, values in visible:
                    rows[slot] = values
                    if row_filter(rows, params):
                        emit((rowid, values))
        else:
            acquire = self.db.lock_manager.acquire
            new_locks = 0
            for rowid, values in visible:
                if row_filter is not None:
                    rows[slot] = values
                    if not row_filter(rows, params):
                        continue
                if acquire(txn, ("row", table, rowid), lock_mode):
                    new_locks += 1
                # Re-read after a potential wait: the row may have changed.
                with latch:
                    version = effective(table, data, rowid)
                if version is None or version.is_tombstone:
                    continue
                # Only re-filter when the wait actually replaced the
                # version: same tuple object means the predicate's
                # inputs are unchanged, so its verdict is too.
                if version.values is not values:
                    values = version.values
                    if row_filter is not None:
                        rows[slot] = values
                        if not row_filter(rows, params):
                            continue
                emit((rowid, values))
            if lock_mode == SHARED:
                self._count_row_locks(txn, table, new_locks)
        txn.stats.rows_read += len(out)
        if count_db_reads:
            self.db.counters.rows_read += len(out)
        return out

    def _plan_access(self, txn: Transaction, source: CompiledSource,
                     rows: list, params: Sequence[object]) -> _Access:
        """Access-path cascade: index probe, PK range unroll, full scan.

        Key closures are pure, so this runs outside the latch.
        """
        probe = source.index_probe
        if probe is not None:
            try:
                key = probe.key_fn(rows, params)
            except ProgrammingError:
                # Matches the interpreter: an unevaluable probe key
                # falls through to the next access path.
                key = None
            if key is not None:
                txn.stats.index_lookups += 1
                return probe.index_name, (key,)
        if source.pk_range is not None:
            keys = source.pk_range.resolve(rows, params,
                                           self.MAX_RANGE_UNROLL)
            if keys is not None:
                txn.stats.index_lookups += 1
                return "__pk__", [(k,) for k in keys]
        txn.stats.full_scans += 1
        return None

    # ------------------------------------------------------------------
    # table locks
    # ------------------------------------------------------------------

    def _lock_table(self, txn: Transaction, table: str, mode: str) -> None:
        """Hold ``mode`` (or stronger) on ``table``'s table granule."""
        held = txn.table_locks.get(table)
        if held is not None and covers(held, mode):
            return
        self.db.lock_manager.acquire(txn, ("table", table), mode)
        txn.table_locks[table] = mode if held is None else join(held, mode)

    def _lock_table_for_scan(self, txn: Transaction, table: str,
                             lock_mode: str, full_scan: bool) -> bool:
        """Take the table lock a locking scan needs before it reads.

        Row ``X`` locks need table ``IX``.  A shared full scan, or any
        shared scan once the transaction holds ``ESCALATION_THRESHOLD``
        row ``S`` locks on the table, takes table ``S`` instead of row
        locks.  Returns True when the scan must still lock each row.
        """
        if lock_mode == EXCLUSIVE:
            self._lock_table(txn, table, INTENT_EXCLUSIVE)
            return True
        held = txn.table_locks.get(table)
        if held is not None and covers(held, SHARED):
            return False
        if full_scan or (txn.row_s_locks.get(table, 0)
                         >= ESCALATION_THRESHOLD):
            self._lock_table(txn, table, SHARED)
            return False
        return True

    @staticmethod
    def _count_row_locks(txn: Transaction, table: str, new_locks: int) -> None:
        if new_locks:
            counts = txn.row_s_locks
            counts[table] = counts.get(table, 0) + new_locks

    def _aggregate_plan(self, agg: CompiledAggregation, contexts: list,
                        params: Sequence[object]) -> list[tuple]:
        groups: dict[tuple, list] = {}
        if agg.group_fn is not None:
            group_fn = agg.group_fn
            for ctx in contexts:
                groups.setdefault(group_fn(ctx, params), []).append(ctx)
        else:
            groups[()] = contexts  # single global group (may be empty)
        out_rows: list[tuple] = []
        order_keys: list[list] = []
        for group in groups.values():
            rows0 = group[0] if group else None
            aggs = LazyAggs(agg.aggs, group, params)
            if agg.having_fn is not None and not is_true(
                    agg.having_fn(aggs, rows0, params)):
                continue
            row = tuple(fn(aggs, rows0, params) for fn in agg.item_fns)
            out_rows.append(row)
            if agg.order_keys:
                order_keys.append([
                    _SortKey(key.agg_value(aggs, rows0, row, params),
                             key.descending)
                    for key in agg.order_keys])
        if agg.order_keys:
            paired = sorted(zip(order_keys, out_rows),
                            key=lambda pair: pair[0])
            out_rows = [row for _, row in paired]
        return out_rows

    def _insert_plan(self, txn: Transaction, plan: CompiledInsert,
                     params: Sequence[object]) -> Result:
        schema = plan.schema
        data = self.db.table_data(plan.table)
        n_columns = len(schema.columns)
        serializable = txn.isolation == SERIALIZABLE
        if serializable:
            self._lock_table(txn, plan.table, INTENT_EXCLUSIVE)
        inserted = 0
        for row_fns in plan.row_fns:
            values: list[object] = [None] * n_columns
            for position, fn in zip(plan.positions, row_fns):
                values[position] = fn((), params)
            for position, default in plan.defaults:
                values[position] = default
            for final in plan.finalizers:
                value = final.coerce(values[final.position])
                if value is None and final.not_null:
                    raise IntegrityError(
                        f"column {final.name!r} of {plan.table!r} "
                        "is NOT NULL")
                values[final.position] = value
            row = tuple(values)
            if schema.primary_key:
                key = schema.pk_key(row)
                if any(v is None for v in key):
                    raise IntegrityError(
                        f"NULL in primary key of {plan.table!r}")
                if serializable:
                    self.db.lock_manager.acquire(
                        txn, ("key", plan.table, key), EXCLUSIVE)
                if self._visible_pk_exists(txn, plan.table, data, key):
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in {plan.table!r}")
            with self.db.latch:
                rowid = data.new_rowid()
            if serializable:
                self.db.lock_manager.acquire(
                    txn, ("row", plan.table, rowid), EXCLUSIVE)
            txn.buffer_insert(plan.table, rowid, row)
            self.db.counters.rows_inserted += 1
            inserted += 1
        return Result(rowcount=inserted)

    def _update_plan(self, txn: Transaction, plan: CompiledUpdate,
                     params: Sequence[object]) -> Result:
        schema = plan.schema
        data = self.db.table_data(plan.table)
        rows: list[Optional[tuple]] = [None]
        # Matches are materialised first (Halloween problem), as interpreted.
        matches = self._plan_scan(
            txn, plan.source, rows, params, EXCLUSIVE,
            take_locks=(txn.isolation == SERIALIZABLE),
            count_db_reads=False)
        updated = 0
        for rowid, old_values in matches:
            rows[0] = old_values
            new_values = list(old_values)
            for assignment in plan.assignments:
                final = assignment.finalizer
                value = final.coerce(assignment.value_fn(rows, params))
                if value is None and final.not_null:
                    raise IntegrityError(
                        f"column {final.name!r} of {plan.table!r} "
                        "is NOT NULL")
                new_values[final.position] = value
            new_row = tuple(new_values)
            if schema.primary_key:
                old_key = schema.pk_key(old_values)
                new_key = schema.pk_key(new_row)
                if new_key != old_key:
                    if txn.isolation == SERIALIZABLE:
                        self.db.lock_manager.acquire(
                            txn, ("key", plan.table, new_key), EXCLUSIVE)
                    if self._visible_pk_exists(txn, plan.table, data,
                                               new_key):
                        raise IntegrityError(
                            f"duplicate primary key {new_key!r} "
                            f"in {plan.table!r}")
            txn.buffer_update(plan.table, rowid, new_row)
            self.db.counters.rows_updated += 1
            updated += 1
        return Result(rowcount=updated)

    def _delete_plan(self, txn: Transaction, plan: CompiledDelete,
                     params: Sequence[object]) -> Result:
        rows: list[Optional[tuple]] = [None]
        deleted = 0
        for rowid, _values in self._plan_scan(
                txn, plan.source, rows, params, EXCLUSIVE,
                take_locks=(txn.isolation == SERIALIZABLE),
                count_db_reads=False):
            txn.buffer_delete(plan.table, rowid)
            self.db.counters.rows_deleted += 1
            deleted += 1
        return Result(rowcount=deleted)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _execute_select(self, txn: Transaction, stmt: ast.Select,
                        params: Sequence[object]) -> Result:
        if stmt.table is None:
            ctx = RowContext({})
            row = tuple(evaluate(item.expr, ctx, params) for item in stmt.items)
            columns = [self._item_name(item, i) for i, item in
                       enumerate(stmt.items)]
            return Result([row], columns, rowcount=1)

        sources = self._build_sources(stmt, params)
        lock_mode = EXCLUSIVE if stmt.for_update else SHARED
        contexts = list(self._join_rows(txn, sources, params, lock_mode))

        is_grouped = bool(stmt.group_by) or any(
            self._contains_aggregate(item.expr)
            for item in stmt.items if not item.star)
        if is_grouped:
            rows, columns = self._aggregate(stmt, sources, contexts, params)
        else:
            rows, columns = self._project(stmt, sources, contexts, params)
            if stmt.order_by:
                rows = self._order_rows(stmt, sources, contexts, rows,
                                        columns, params)
        if stmt.distinct:
            rows = _distinct(rows)
        rows = _apply_limit(rows, stmt, params)
        return Result(rows, columns, rowcount=len(rows))

    def _build_sources(self, stmt: ast.Select,
                       params: Sequence[object]) -> list[_Source]:
        refs = [(stmt.table, "inner")]
        refs.extend((join.table, join.kind) for join in stmt.joins)
        sources: list[_Source] = []
        seen: set[str] = set()
        for table_ref, kind in refs:
            schema = self.db.catalog.get(table_ref.name)
            binding = table_ref.binding
            if binding in seen:
                raise ProgrammingError(f"duplicate table binding {binding!r}")
            seen.add(binding)
            sources.append(_Source(binding, table_ref.name, schema,
                                   join_kind=kind))
        # Distribute WHERE and JOIN-ON conjuncts to the earliest source at
        # which every referenced binding is available.
        conjuncts: list[ast.Expr] = []
        if stmt.where is not None:
            conjuncts.extend(_split_conjuncts(stmt.where))
        for join in stmt.joins:
            if join.condition is not None:
                conjuncts.extend(_split_conjuncts(join.condition))
        available: list[set[str]] = []
        running: set[str] = set()
        for source in sources:
            running = running | {source.binding}
            available.append(set(running))
        for conjunct in conjuncts:
            needed = self._bindings_of(conjunct, sources)
            placed = False
            for i, names in enumerate(available):
                if needed <= names:
                    sources[i].predicates.append(conjunct)
                    placed = True
                    break
            if not placed:
                raise ProgrammingError(
                    f"predicate references unknown bindings: {needed}")
        return sources

    def _bindings_of(self, expr: ast.Expr,
                     sources: list[_Source]) -> set[str]:
        by_binding = {s.binding: s.schema for s in sources}
        names: set[str] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.ColumnRef):
                if node.table is not None:
                    names.add(node.table)
                else:
                    owners = [b for b, schema in by_binding.items()
                              if schema.has_column(node.column)]
                    if not owners:
                        raise ProgrammingError(
                            f"unknown column {node.column!r}")
                    if len(owners) > 1:
                        raise ProgrammingError(
                            f"ambiguous column {node.column!r}")
                    names.add(owners[0])
        return names

    def _join_rows(self, txn: Transaction, sources: list[_Source],
                   params: Sequence[object],
                   lock_mode: str) -> Iterator[RowContext]:
        """Nested-loop join producing a RowContext per qualifying row."""

        def recurse(level: int,
                    bindings: dict[str, tuple[TableSchema, Optional[tuple]]]
                    ) -> Iterator[RowContext]:
            if level == len(sources):
                yield RowContext(dict(bindings))
                return
            source = sources[level]
            outer_ctx = RowContext(dict(bindings))
            matched = False
            for values in self._scan(txn, source, outer_ctx, params,
                                     lock_mode):
                matched = True
                bindings[source.binding] = (source.schema, values)
                yield from recurse(level + 1, bindings)
            if source.join_kind == "left" and not matched:
                bindings[source.binding] = (source.schema, None)
                yield from recurse(level + 1, bindings)
            bindings.pop(source.binding, None)

        yield from recurse(0, {})

    def _scan(self, txn: Transaction, source: _Source, outer_ctx: RowContext,
              params: Sequence[object], lock_mode: str) -> Iterator[tuple]:
        """Scan one table, using an index when equality predicates allow."""
        table = source.table_name
        data = self.db.table_data(table)
        access = self._access_path(txn, source, outer_ctx, params)
        take_locks = (txn.isolation == SERIALIZABLE
                      or lock_mode == EXCLUSIVE)
        lock_rows = take_locks and self._lock_table_for_scan(
            txn, table, lock_mode, full_scan=access is None)
        with self.db.latch:
            candidates = _read_candidates(data, access)
        candidates |= txn.inserted.get(table, set())

        for rowid in candidates:
            with self.db.latch:
                version = txn.effective_version(table, data, rowid)
            if version is None or version.is_tombstone:
                continue
            if not self._row_matches(source, outer_ctx, version.values, params):
                continue
            if lock_rows:
                if (self.db.lock_manager.acquire(
                        txn, ("row", table, rowid), lock_mode)
                        and lock_mode == SHARED):
                    self._count_row_locks(txn, table, 1)
                # Re-read after a potential wait: the row may have changed.
                with self.db.latch:
                    version = txn.effective_version(table, data, rowid)
                if version is None or version.is_tombstone:
                    continue
                if not self._row_matches(source, outer_ctx, version.values,
                                         params):
                    continue
            txn.stats.rows_read += 1
            self.db.counters.rows_read += 1
            yield version.values

    def _row_matches(self, source: _Source, outer_ctx: RowContext,
                     values: tuple, params: Sequence[object]) -> bool:
        if not source.predicates:
            return True
        bindings = dict(outer_ctx.bindings)
        bindings[source.binding] = (source.schema, values)
        ctx = RowContext(bindings)
        return all(is_true(evaluate(p, ctx, params))
                   for p in source.predicates)

    def _access_path(self, txn: Transaction, source: _Source,
                     outer_ctx: RowContext,
                     params: Sequence[object]) -> _Access:
        """Access path for a scan: index, integer PK range, or full."""
        index, key = self._choose_access_path(source, outer_ctx, params)
        if index is not None:
            txn.stats.index_lookups += 1
            return index, (key,)
        keys = self._integer_pk_range(source, outer_ctx, params)
        if keys is not None:
            txn.stats.index_lookups += 1
            return "__pk__", [(k,) for k in keys]
        txn.stats.full_scans += 1
        return None

    #: Widest integer PK range unrolled into point lookups.
    MAX_RANGE_UNROLL = 2048

    def _integer_pk_range(self, source: _Source, outer_ctx: RowContext,
                          params: Sequence[object]) -> Optional[range]:
        """Unroll ``pk >= lo AND pk < hi`` into point lookups.

        Applies when the table has a single-column primary key and the
        predicates bound it to a small integer interval — the hash-indexed
        answer to YCSB-style range scans.
        """
        schema = source.schema
        if len(schema.primary_key) != 1:
            return None
        pk_col = schema.primary_key[0]
        lo: Optional[int] = None
        hi: Optional[int] = None  # exclusive
        for predicate in source.predicates:
            bound = self._pk_bound(predicate, source, pk_col, outer_ctx,
                                   params)
            if bound is None:
                continue
            kind, value = bound
            if kind == "lo":
                lo = value if lo is None else max(lo, value)
            elif kind == "hi":
                hi = value if hi is None else min(hi, value)
            else:  # between: (lo, hi) inclusive pair
                b_lo, b_hi = value
                lo = b_lo if lo is None else max(lo, b_lo)
                hi = b_hi + 1 if hi is None else min(hi, b_hi + 1)
        if lo is None or hi is None:
            return None
        if hi - lo > self.MAX_RANGE_UNROLL or hi <= lo:
            return None if hi > lo else range(0)
        return range(lo, hi)

    def _pk_bound(self, predicate: ast.Expr, source: _Source, pk_col: str,
                  outer_ctx: RowContext, params: Sequence[object]
                  ) -> Optional[tuple[str, object]]:
        def is_pk_ref(expr: ast.Expr) -> bool:
            return (isinstance(expr, ast.ColumnRef)
                    and expr.column == pk_col
                    and expr.table in (None, source.binding))

        def const_value(expr: ast.Expr) -> Optional[int]:
            if self._references_binding(expr, source.binding, source.schema):
                return None
            try:
                value = evaluate(expr, outer_ctx, params)
            except ProgrammingError:
                return None
            if isinstance(value, bool) or not isinstance(value, int):
                return None
            return value

        if isinstance(predicate, ast.Between) and not predicate.negated \
                and is_pk_ref(predicate.value):
            low = const_value(predicate.low)
            high = const_value(predicate.high)
            if low is not None and high is not None:
                return "between", (low, high)
            return None
        if not isinstance(predicate, ast.BinaryOp):
            return None
        op = predicate.op
        if op not in (">", ">=", "<", "<="):
            return None
        left, right = predicate.left, predicate.right
        if is_pk_ref(left):
            value = const_value(right)
            if value is None:
                return None
            if op == ">=":
                return "lo", value
            if op == ">":
                return "lo", value + 1
            if op == "<":
                return "hi", value
            return "hi", value + 1  # <=
        if is_pk_ref(right):
            value = const_value(left)
            if value is None:
                return None
            # value OP pk  ->  flip the comparison.
            if op == "<=":
                return "lo", value
            if op == "<":
                return "lo", value + 1
            if op == ">":
                return "hi", value
            return "hi", value + 1  # >=
        return None

    def _choose_access_path(self, source: _Source, outer_ctx: RowContext,
                            params: Sequence[object]
                            ) -> tuple[Optional[str], Optional[tuple]]:
        """Pick an index for the source's equality predicates, if any.

        An equality predicate ``col = expr`` is usable when ``expr`` can be
        evaluated without the source's own row (literals, parameters, or
        columns of already-bound outer tables).
        """
        equalities: dict[str, ast.Expr] = {}
        for predicate in source.predicates:
            pair = self._equality_pair(predicate, source)
            if pair is not None:
                column, value_expr = pair
                equalities.setdefault(column, value_expr)
        if not equalities:
            return None, None
        data = self.db.table_data(source.table_name)
        index = data.find_index(equalities.keys())
        if index is None:
            return None, None
        try:
            key = tuple(evaluate(equalities[c], outer_ctx, params)
                        for c in index.columns)
        except ProgrammingError:
            # References a binding not yet available (self-reference edge
            # cases); fall back to a full scan.
            return None, None
        index_name = "__pk__" if index.name == "__pk__" else index.name
        return index_name, key

    def _equality_pair(self, predicate: ast.Expr, source: _Source
                       ) -> Optional[tuple[str, ast.Expr]]:
        if not (isinstance(predicate, ast.BinaryOp) and predicate.op == "="):
            return None
        for own, other in ((predicate.left, predicate.right),
                           (predicate.right, predicate.left)):
            if (isinstance(own, ast.ColumnRef)
                    and (own.table is None or own.table == source.binding)
                    and source.schema.has_column(own.column)
                    and not self._references_binding(other, source.binding,
                                                     source.schema)):
                return own.column, other
        return None

    def _references_binding(self, expr: ast.Expr, binding: str,
                            schema: TableSchema) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.ColumnRef):
                if node.table == binding:
                    return True
                if node.table is None and schema.has_column(node.column):
                    return True
        return False

    # -- projection / aggregation ----------------------------------------

    def _expand_items(self, stmt: ast.Select,
                      sources: list[_Source]) -> list[tuple[ast.Expr, str]]:
        expanded: list[tuple[ast.Expr, str]] = []
        for i, item in enumerate(stmt.items):
            if item.star:
                targets = ([s for s in sources
                            if s.binding == item.star_table]
                           if item.star_table else sources)
                if item.star_table and not targets:
                    raise ProgrammingError(
                        f"unknown binding {item.star_table!r} in select list")
                for source in targets:
                    for column in source.schema.column_names:
                        expanded.append(
                            (ast.ColumnRef(source.binding, column), column))
            else:
                expanded.append((item.expr, self._item_name(item, i)))
        return expanded

    @staticmethod
    def _item_name(item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.column
        if isinstance(item.expr, ast.FuncCall):
            return item.expr.name
        return f"col{index}"

    def _project(self, stmt: ast.Select, sources: list[_Source],
                 contexts: list[RowContext], params: Sequence[object]
                 ) -> tuple[list[tuple], list[str]]:
        items = self._expand_items(stmt, sources)
        columns = [name for _, name in items]
        rows = [
            tuple(evaluate(expr, ctx, params) for expr, _ in items)
            for ctx in contexts
        ]
        return rows, columns

    def _order_rows(self, stmt: ast.Select, sources: list[_Source],
                    contexts: list[RowContext], rows: list[tuple],
                    columns: list[str], params: Sequence[object]
                    ) -> list[tuple]:
        """Sort projected rows by ORDER BY keys evaluated per context."""
        keyed = []
        for ctx, row in zip(contexts, rows):
            keys = []
            for order in stmt.order_by:
                value = self._order_key(order.expr, ctx, row, columns, params)
                keys.append(_SortKey(value, order.descending))
            keyed.append((keys, row))
        keyed.sort(key=lambda pair: pair[0])
        return [row for _, row in keyed]

    def _order_key(self, expr: ast.Expr, ctx: Optional[RowContext],
                   row: tuple, columns: list[str],
                   params: Sequence[object]) -> object:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(row):
                raise ProgrammingError(
                    f"ORDER BY position {expr.value} out of range")
            return row[position]
        if (isinstance(expr, ast.ColumnRef) and expr.table is None
                and expr.column in columns):
            return row[columns.index(expr.column)]
        if ctx is None:
            raise ProgrammingError(
                "ORDER BY in aggregate queries must reference output columns")
        return evaluate(expr, ctx, params)

    def _contains_aggregate(self, expr: ast.Expr) -> bool:
        return any(isinstance(node, ast.FuncCall) and node.name in AGGREGATES
                   for node in ast.walk(expr))

    def _aggregate(self, stmt: ast.Select, sources: list[_Source],
                   contexts: list[RowContext], params: Sequence[object]
                   ) -> tuple[list[tuple], list[str]]:
        items = self._expand_items(stmt, sources)
        columns = [name for _, name in items]

        groups: dict[tuple, list[RowContext]] = {}
        if stmt.group_by:
            for ctx in contexts:
                key = tuple(evaluate(expr, ctx, params)
                            for expr in stmt.group_by)
                groups.setdefault(key, []).append(ctx)
        else:
            groups[()] = contexts  # single global group (may be empty)

        rows: list[tuple] = []
        order_keys: list[list] = []
        for group_contexts in groups.values():
            if stmt.having is not None:
                accepted = self._eval_aggregated(
                    stmt.having, group_contexts, params)
                if not is_true(accepted):
                    continue
            row = tuple(self._eval_aggregated(expr, group_contexts, params)
                        for expr, _ in items)
            rows.append(row)
            if stmt.order_by:
                keys = []
                for order in stmt.order_by:
                    try:
                        value = self._order_key(order.expr, None, row,
                                                columns, params)
                    except ProgrammingError:
                        value = self._eval_aggregated(
                            order.expr, group_contexts, params)
                    keys.append(_SortKey(value, order.descending))
                order_keys.append(keys)
        if stmt.order_by:
            paired = sorted(zip(order_keys, rows), key=lambda pair: pair[0])
            rows = [row for _, row in paired]
        return rows, columns

    def _eval_aggregated(self, expr: ast.Expr, contexts: list[RowContext],
                         params: Sequence[object]) -> object:
        """Evaluate an expression that may contain aggregate calls."""
        if isinstance(expr, ast.FuncCall) and expr.name in AGGREGATES:
            return self._compute_aggregate(expr, contexts, params)
        if isinstance(expr, ast.BinaryOp):
            left = self._eval_aggregated(expr.left, contexts, params)
            right = self._eval_aggregated(expr.right, contexts, params)
            return evaluate(ast.BinaryOp(expr.op, ast.Literal(left),
                                         ast.Literal(right)), None, params)
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval_aggregated(expr.operand, contexts, params)
            return evaluate(ast.UnaryOp(expr.op, ast.Literal(operand)),
                            None, params)
        if self._contains_aggregate(expr):
            raise ProgrammingError(
                "aggregates may only appear at the top level or inside "
                "arithmetic expressions")
        if contexts:
            return evaluate(expr, contexts[0], params)
        return evaluate(expr, None, params)

    def _compute_aggregate(self, call: ast.FuncCall,
                           contexts: list[RowContext],
                           params: Sequence[object]) -> object:
        if call.star:
            if call.name != "count":
                raise ProgrammingError(f"{call.name}(*) is not valid")
            return len(contexts)
        if len(call.args) != 1:
            raise ProgrammingError(
                f"aggregate {call.name} expects exactly one argument")
        values = [evaluate(call.args[0], ctx, params) for ctx in contexts]
        values = [v for v in values if v is not None]
        if call.distinct:
            values = list(dict.fromkeys(values))
        if call.name == "count":
            return len(values)
        if not values:
            return None
        if call.name == "sum":
            return sum(values)
        if call.name == "avg":
            return sum(values) / len(values)
        if call.name == "min":
            return min(values)
        if call.name == "max":
            return max(values)
        raise ProgrammingError(f"unknown aggregate {call.name!r}")

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _execute_insert(self, txn: Transaction, stmt: ast.Insert,
                        params: Sequence[object]) -> Result:
        schema = self.db.catalog.get(stmt.table)
        data = self.db.table_data(stmt.table)
        columns = stmt.columns or schema.column_names
        positions = [schema.position(c) for c in columns]
        serializable = txn.isolation == SERIALIZABLE
        if serializable:
            self._lock_table(txn, stmt.table, INTENT_EXCLUSIVE)
        inserted = 0
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(columns):
                raise ProgrammingError(
                    f"INSERT into {stmt.table!r} expects {len(columns)} "
                    f"values, got {len(row_exprs)}")
            values: list[object] = [None] * len(schema.columns)
            provided = set()
            for position, expr in zip(positions, row_exprs):
                values[position] = evaluate(expr, None, params)
                provided.add(position)
            for i, column in enumerate(schema.columns):
                if i not in provided and column.has_default:
                    values[i] = column.default
                values[i] = column.sql_type.coerce(values[i])
                if values[i] is None and column.not_null:
                    raise IntegrityError(
                        f"column {column.name!r} of {stmt.table!r} "
                        "is NOT NULL")
            row = tuple(values)
            if schema.primary_key:
                key = schema.pk_key(row)
                if any(v is None for v in key):
                    raise IntegrityError(
                        f"NULL in primary key of {stmt.table!r}")
                if serializable:
                    # Key-range surrogate lock: serialises concurrent
                    # inserts/lookups of the same key.
                    self.db.lock_manager.acquire(
                        txn, ("key", stmt.table, key), EXCLUSIVE)
                if self._visible_pk_exists(txn, stmt.table, data, key):
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in {stmt.table!r}")
            with self.db.latch:
                rowid = data.new_rowid()
            if serializable:
                self.db.lock_manager.acquire(
                    txn, ("row", stmt.table, rowid), EXCLUSIVE)
            txn.buffer_insert(stmt.table, rowid, row)
            self.db.counters.rows_inserted += 1
            inserted += 1
        return Result(rowcount=inserted)

    def _visible_pk_exists(self, txn: Transaction, table: str,
                           data, key: tuple) -> bool:
        schema = data.schema
        with self.db.latch:
            candidates = data.index_lookup("__pk__", key)
            candidates |= txn.inserted.get(table, set())
            for rowid in candidates:
                version = txn.effective_version(table, data, rowid)
                if (version is not None and not version.is_tombstone
                        and schema.pk_key(version.values) == key):
                    return True
        return False

    def _execute_update(self, txn: Transaction, stmt: ast.Update,
                        params: Sequence[object]) -> Result:
        schema = self.db.catalog.get(stmt.table)
        data = self.db.table_data(stmt.table)
        source = _Source(stmt.table, stmt.table, schema)
        if stmt.where is not None:
            source.predicates.extend(_split_conjuncts(stmt.where))
        assignments = [(schema.position(a.column),
                        schema.columns[schema.position(a.column)], a.value)
                       for a in stmt.assignments]
        updated = 0
        # Materialise matches first: buffered writes must not feed back
        # into the ongoing scan (Halloween problem).
        matches = list(self._scan_for_write(txn, source, params))
        for rowid, old_values in matches:
            bindings = {source.binding: (schema, old_values)}
            ctx = RowContext(bindings)
            new_values = list(old_values)
            for position, column, value_expr in assignments:
                value = column.sql_type.coerce(
                    evaluate(value_expr, ctx, params))
                if value is None and column.not_null:
                    raise IntegrityError(
                        f"column {column.name!r} of {stmt.table!r} "
                        "is NOT NULL")
                new_values[position] = value
            new_row = tuple(new_values)
            if schema.primary_key:
                old_key = schema.pk_key(old_values)
                new_key = schema.pk_key(new_row)
                if new_key != old_key:
                    if txn.isolation == SERIALIZABLE:
                        self.db.lock_manager.acquire(
                            txn, ("key", stmt.table, new_key), EXCLUSIVE)
                    if self._visible_pk_exists(txn, stmt.table, data, new_key):
                        raise IntegrityError(
                            f"duplicate primary key {new_key!r} "
                            f"in {stmt.table!r}")
            txn.buffer_update(stmt.table, rowid, new_row)
            self.db.counters.rows_updated += 1
            updated += 1
        return Result(rowcount=updated)

    def _execute_delete(self, txn: Transaction, stmt: ast.Delete,
                        params: Sequence[object]) -> Result:
        schema = self.db.catalog.get(stmt.table)
        source = _Source(stmt.table, stmt.table, schema)
        if stmt.where is not None:
            source.predicates.extend(_split_conjuncts(stmt.where))
        deleted = 0
        for rowid, _values in list(self._scan_for_write(txn, source, params)):
            txn.buffer_delete(stmt.table, rowid)
            self.db.counters.rows_deleted += 1
            deleted += 1
        return Result(rowcount=deleted)

    def _scan_for_write(self, txn: Transaction, source: _Source,
                        params: Sequence[object]
                        ) -> Iterator[tuple[int, tuple]]:
        """Scan yielding (rowid, values) with exclusive locks taken."""
        table = source.table_name
        data = self.db.table_data(table)
        outer_ctx = RowContext({})
        access = self._access_path(txn, source, outer_ctx, params)
        # Snapshot transactions write optimistically: conflicts surface at
        # commit via first-committer-wins validation, so no X locks here.
        take_locks = txn.isolation == SERIALIZABLE
        if take_locks:
            self._lock_table(txn, table, INTENT_EXCLUSIVE)
        with self.db.latch:
            candidates = _read_candidates(data, access)
        candidates |= txn.inserted.get(table, set())
        for rowid in candidates:
            with self.db.latch:
                version = txn.effective_version(table, data, rowid)
            if version is None or version.is_tombstone:
                continue
            if not self._row_matches(source, outer_ctx, version.values, params):
                continue
            if take_locks:
                self.db.lock_manager.acquire(
                    txn, ("row", table, rowid), EXCLUSIVE)
                with self.db.latch:
                    version = txn.effective_version(table, data, rowid)
                if version is None or version.is_tombstone:
                    continue
                if not self._row_matches(source, outer_ctx, version.values,
                                         params):
                    continue
            txn.stats.rows_read += 1
            yield rowid, version.values


class _SortKey:
    """Orderable wrapper handling NULLs (sorted last) and DESC."""

    __slots__ = ("value", "descending")

    def __init__(self, value: object, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return False  # NULLs last in ascending order
        if b is None:
            return True
        if isinstance(a, bool):
            a = int(a)
        if isinstance(b, bool):
            b = int(b)
        if isinstance(a, str) != isinstance(b, str):
            a, b = str(a), str(b)
        if self.descending:
            return b < a  # type: ignore[operator]
        return a < b  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


def _read_candidates(data, access: _Access) -> set[int]:
    """Rowids ``access`` yields, as a fresh set; the caller holds the latch."""
    if access is None:
        return set(data.all_rowids())
    index_name, keys = access
    if len(keys) == 1:
        return data.index_lookup(index_name, keys[0])
    candidates: set[int] = set()
    for key in keys:
        candidates |= data.index_lookup(index_name, key)
    return candidates


def _split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _distinct(rows: list[tuple]) -> list[tuple]:
    seen: set = set()
    unique: list[tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            unique.append(row)
    return unique


def _apply_plan_limit(rows: list[tuple], plan: CompiledSelect,
                      params: Sequence[object]) -> list[tuple]:
    offset = 0
    if plan.offset_fn is not None:
        offset = int(plan.offset_fn((), params))
        if offset < 0:
            raise ProgrammingError("OFFSET must be non-negative")
    if plan.limit_fn is not None:
        limit = int(plan.limit_fn((), params))
        if limit < 0:
            raise ProgrammingError("LIMIT must be non-negative")
        return rows[offset:offset + limit]
    if offset:
        return rows[offset:]
    return rows


def _apply_limit(rows: list[tuple], stmt: ast.Select,
                 params: Sequence[object]) -> list[tuple]:
    offset = 0
    if stmt.offset is not None:
        offset = int(evaluate(stmt.offset, None, params))
        if offset < 0:
            raise ProgrammingError("OFFSET must be non-negative")
    if stmt.limit is not None:
        limit = int(evaluate(stmt.limit, None, params))
        if limit < 0:
            raise ProgrammingError("LIMIT must be non-negative")
        return rows[offset:offset + limit]
    if offset:
        return rows[offset:]
    return rows
