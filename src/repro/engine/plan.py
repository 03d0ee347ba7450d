"""Compile-once query plans for the embedded engine's hot path.

The interpreted :class:`~repro.engine.executor.Executor` re-derives
sources, access paths, and projections on every call, and
``expr.evaluate`` walks the AST with ``isinstance`` dispatch plus
per-row column-name resolution.  This module pays that analysis cost
once per ``(sql, catalog_version)``:

* every ``ColumnRef`` is resolved at compile time to a fixed
  ``(source slot, tuple index)`` pair;
* predicates, projections, order keys, and aggregate arguments are
  compiled into nested Python closures with the exact three-valued
  semantics of the interpreter (shared via ``expr.apply_binary`` /
  ``apply_unary`` / ``apply_scalar_func``);
* each source's access path — equality-index probe (narrowed by an
  integer range on a wider index where one exists), integer-PK range
  unroll, or full scan — is chosen once, with the same runtime
  fallback cascade the interpreter uses when a probe key cannot be
  evaluated.

A compiled closure takes ``(rows, params)`` where ``rows`` is an
indexable sequence of per-slot row tuples (``None`` for a missed LEFT
JOIN side) and returns a plain value; NULL is ``None`` throughout.

Semantic errors (unknown/ambiguous columns, unknown tables, bad
aggregate usage) surface here at *prepare* time as
:class:`ProgrammingError` with the same messages the interpreter
raises mid-scan.  Statement shapes the compiler does not understand
raise :class:`Unsupported`, which callers treat as "run interpreted".

The module also hosts the generic :class:`LruCache` (statement cache)
and :class:`PlanCache` (plans keyed by ``(sql, catalog_version)``,
invalidated wholesale on DDL) with hit/miss/evict/invalidation
counters surfaced through the monitoring stack.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from ..errors import ProgrammingError
from .catalog import Catalog, ColumnDef, IndexDef, TableSchema
from .expr import (AGGREGATES, _SCALAR_FUNCS, _compare_bool, _kleene_and,
                   _stringify, apply_binary, apply_scalar_func, apply_unary,
                   evaluate, like_match, like_regex)
from .sqlparser import ast
from .types import INTEGER

#: A compiled expression: ``fn(rows, params) -> value``.
ExprFn = Callable[[Sequence[Optional[tuple]], Sequence[object]], object]

#: A compiled aggregate-context expression:
#: ``fn(agg_values, first_rows, params) -> value``.
AggFn = Callable[["LazyAggs", Optional[Sequence[Optional[tuple]]],
                  Sequence[object]], object]


class Unsupported(Exception):
    """Statement shape the plan compiler cannot handle; run interpreted.

    Deliberately *not* a DatabaseError subclass: it must never escape
    to callers — :meth:`Database.prepare_exec` catches it and falls
    back to the tree-walking executor.
    """


class Scope:
    """Compile-time column resolution over the plan's source slots.

    Mirrors :class:`repro.engine.expr.RowContext` resolution — same
    lookup rules, same error messages — but resolves once, to a fixed
    ``(slot, position)`` pair, instead of per row.
    """

    __slots__ = ("slots",)

    def __init__(self, slots: Sequence[tuple[str, TableSchema]]) -> None:
        self.slots = list(slots)

    def resolve(self, table: Optional[str], column: str) -> tuple[int, int]:
        if table is not None:
            for slot, (binding, schema) in enumerate(self.slots):
                if binding == table:
                    return slot, schema.position(column)
            raise ProgrammingError(f"unknown table binding {table!r}")
        owners = [
            (slot, schema.position(column))
            for slot, (_binding, schema) in enumerate(self.slots)
            if schema.has_column(column)
        ]
        if not owners:
            raise ProgrammingError(f"unknown column {column!r}")
        if len(owners) > 1:
            raise ProgrammingError(f"ambiguous column {column!r}")
        return owners[0]


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


_DIRECT_CMP = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def tuple_fn(fns: Sequence[ExprFn]) -> ExprFn:
    """Fuse closures into one ``(rows, params) -> tuple`` builder.

    Small arities are unrolled so the per-row cost is plain calls with
    no generator object; this sits on every projection, index-probe
    key, and GROUP BY key evaluation.
    """
    if len(fns) == 1:
        f0, = fns
        return lambda rows, params: (f0(rows, params),)
    if len(fns) == 2:
        f0, f1 = fns
        return lambda rows, params: (f0(rows, params), f1(rows, params))
    if len(fns) == 3:
        f0, f1, f2 = fns
        return lambda rows, params: (
            f0(rows, params), f1(rows, params), f2(rows, params))
    if len(fns) == 4:
        f0, f1, f2, f3 = fns
        return lambda rows, params: (
            f0(rows, params), f1(rows, params), f2(rows, params),
            f3(rows, params))
    frozen = tuple(fns)
    return lambda rows, params: tuple(f(rows, params) for f in frozen)


def compile_expr(expr: ast.Expr, scope: Scope) -> ExprFn:
    """Compile ``expr`` into a closure with ``evaluate``'s semantics."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda rows, params: value
    if isinstance(expr, ast.Param):
        index = expr.index
        def param_fn(rows, params):
            try:
                return params[index]
            except IndexError:
                raise ProgrammingError(
                    f"statement expects at least {index + 1} parameters, "
                    f"got {len(params)}") from None
        return param_fn
    if isinstance(expr, ast.ColumnRef):
        slot, position = scope.resolve(expr.table, expr.column)
        def column_fn(rows, params):
            values = rows[slot]
            return values[position] if values is not None else None
        return column_fn
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        left = compile_expr(expr.left, scope)
        right = compile_expr(expr.right, scope)
        if op in _DIRECT_CMP:
            # Same-type int/str operands compare identically under
            # ``compare_values`` (``_comparable`` is the identity and
            # both sides take the same branch), so the native operator
            # is safe; everything else keeps the full coercion chain.
            # bool is excluded because ``type(x) is int`` rejects it.
            direct = _DIRECT_CMP[op]
            def cmp_fn(rows, params):
                lv = left(rows, params)
                rv = right(rows, params)
                if lv is None or rv is None:
                    return None
                kind = type(lv)
                if kind is type(rv) and (kind is int or kind is str):
                    return direct(lv, rv)
                return _compare_bool(lv, rv, op)
            return cmp_fn
        # AND/OR stay eager over both operands, exactly like the
        # interpreter (errors and NULLs from either side are observed).
        return lambda rows, params: apply_binary(
            op, left(rows, params), right(rows, params))
    if isinstance(expr, ast.UnaryOp):
        op = expr.op
        operand = compile_expr(expr.operand, scope)
        return lambda rows, params: apply_unary(op, operand(rows, params))
    if isinstance(expr, ast.Between):
        value_fn = compile_expr(expr.value, scope)
        low_fn = compile_expr(expr.low, scope)
        high_fn = compile_expr(expr.high, scope)
        negated = expr.negated
        def between_fn(rows, params):
            value = value_fn(rows, params)
            result = _kleene_and(
                _compare_bool(value, low_fn(rows, params), ">="),
                _compare_bool(value, high_fn(rows, params), "<="))
            if result is None or not negated:
                return result
            return not result
        return between_fn
    if isinstance(expr, ast.InList):
        value_fn = compile_expr(expr.value, scope)
        option_fns = tuple(compile_expr(o, scope) for o in expr.options)
        negated = expr.negated
        def in_fn(rows, params):
            value = value_fn(rows, params)
            if value is None:
                return None
            saw_null = False
            for option_fn in option_fns:
                result = _compare_bool(value, option_fn(rows, params), "=")
                if result is True:
                    return not negated
                if result is None:
                    saw_null = True
            if saw_null:
                return None
            return negated
        return in_fn
    if isinstance(expr, ast.Like):
        value_fn = compile_expr(expr.value, scope)
        negated = expr.negated
        if (isinstance(expr.pattern, ast.Literal)
                and expr.pattern.value is not None):
            fullmatch = like_regex(_stringify(expr.pattern.value)).fullmatch
            def like_const_fn(rows, params):
                value = value_fn(rows, params)
                if value is None:
                    return None
                return (fullmatch(_stringify(value)) is not None) != negated
            return like_const_fn
        pattern_fn = compile_expr(expr.pattern, scope)
        def like_fn(rows, params):
            value = value_fn(rows, params)
            pattern = pattern_fn(rows, params)
            if value is None or pattern is None:
                return None
            return like_match(_stringify(value),
                              _stringify(pattern)) != negated
        return like_fn
    if isinstance(expr, ast.IsNull):
        value_fn = compile_expr(expr.value, scope)
        negated = expr.negated
        return lambda rows, params: (value_fn(rows, params) is None) != negated
    if isinstance(expr, ast.FuncCall):
        name = expr.name
        if name in AGGREGATES:
            raise ProgrammingError(
                f"aggregate {name!r} used outside aggregation context")
        if name not in _SCALAR_FUNCS:
            raise ProgrammingError(f"unknown function {name!r}")
        arg_fns = tuple(compile_expr(arg, scope) for arg in expr.args)
        return lambda rows, params: apply_scalar_func(
            name, [fn(rows, params) for fn in arg_fns])
    if isinstance(expr, ast.CaseExpr):
        branch_fns = tuple(
            (compile_expr(cond, scope), compile_expr(val, scope))
            for cond, val in expr.branches)
        default_fn = (compile_expr(expr.default, scope)
                      if expr.default is not None else None)
        def case_fn(rows, params):
            for cond_fn, val_fn in branch_fns:
                if cond_fn(rows, params) is True:
                    return val_fn(rows, params)
            if default_fn is not None:
                return default_fn(rows, params)
            return None
        return case_fn
    raise ProgrammingError(f"cannot evaluate expression node {expr!r}")


def _compile_conjunction(predicates: Sequence[ast.Expr],
                         scope: Scope) -> Optional[ExprFn]:
    """Compile residual predicates into one ``is_true``-folded test."""
    if not predicates:
        return None
    fns = tuple(compile_expr(p, scope) for p in predicates)
    if len(fns) == 1:
        single = fns[0]
        return lambda rows, params: single(rows, params) is True
    def conjunction_fn(rows, params):
        # Matches all(is_true(evaluate(p)) ...): stop at the first
        # non-TRUE conjunct.
        for fn in fns:
            if fn(rows, params) is not True:
                return False
        return True
    return conjunction_fn


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexProbe:
    """Equality probe: evaluate the fused key closure, look up the index.

    ``narrow``, when set, is a range on the next column of a wider
    index, probed with this key as the prefix.  It reads only the rows
    in range instead of every row under the key.  Its candidates are a
    subset of this probe's that still holds every row the filter
    accepts, so the statement returns and locks the same rows.
    """

    index_name: str
    key_fn: ExprFn  # (rows, params) -> key tuple
    narrow: Optional[PkRangeProbe] = None


@dataclass(frozen=True)
class PkRangeProbe:
    """Integer range on an index's last column, unrolled into point lookups.

    On its own it serves an integer single-column primary key.  As an
    :class:`IndexProbe`'s ``narrow`` it serves a wider index, whose
    columns are the probe's plus this one, and every lookup key starts
    with the probe's key.  The column has INTEGER affinity, so every
    stored value is an int and the unrolled keys miss no row.
    ``bound_fns`` mirror the interpreter's ``_pk_bound``: each returns
    ``("lo", v)``, ``("hi", v)``, ``("between", (lo, hi))``, or ``None``
    when its operand is non-integer or not evaluable yet.
    """

    index_name: str
    bound_fns: tuple[Callable[..., Optional[tuple[str, object]]], ...]

    def resolve(self, rows: Sequence[Optional[tuple]],
                params: Sequence[object], max_unroll: int,
                prefix: tuple = ()) -> Optional[list[tuple]]:
        """``prefix + (v,)`` per ``v`` in range; None if unusable."""
        lo: Optional[int] = None
        hi: Optional[int] = None  # exclusive
        for bound_fn in self.bound_fns:
            bound = bound_fn(rows, params)
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
        if lo is None or hi is None or hi - lo > max_unroll:
            return None
        return [prefix + (value,) for value in range(lo, hi)]


def _compile_const(expr: ast.Expr, prefix_scope: Scope) -> Optional[ExprFn]:
    """Compile an expression evaluable before this source's row binds.

    Returns None when the expression references bindings not yet in
    scope — the interpreter's runtime ``ProgrammingError`` → give-up
    path, decided here once at compile time.
    """
    try:
        return compile_expr(expr, prefix_scope)
    except ProgrammingError:
        return None


def _compile_int_const(expr: ast.Expr,
                       prefix_scope: Scope) -> Optional[Callable]:
    """``_pk_bound.const_value``: evaluate, reject non-int, swallow errors."""
    fn = _compile_const(expr, prefix_scope)
    if fn is None:
        return None
    def const_fn(rows, params):
        try:
            value = fn(rows, params)
        except ProgrammingError:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            return None
        return value
    return const_fn


def _references_binding(expr: ast.Expr, binding: str,
                        schema: TableSchema) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.ColumnRef):
            if node.table == binding:
                return True
            if node.table is None and schema.has_column(node.column):
                return True
    return False


def _equality_pair(predicate: ast.Expr, binding: str, schema: TableSchema
                   ) -> Optional[tuple[str, ast.Expr]]:
    if not (isinstance(predicate, ast.BinaryOp) and predicate.op == "="):
        return None
    for own, other in ((predicate.left, predicate.right),
                       (predicate.right, predicate.left)):
        if (isinstance(own, ast.ColumnRef)
                and (own.table is None or own.table == binding)
                and schema.has_column(own.column)
                and not _references_binding(other, binding, schema)):
            return own.column, other
    return None


def _index_defs(schema: TableSchema) -> list[IndexDef]:
    """The index set TableData maintains: synthetic ``__pk__`` first."""
    defs: list[IndexDef] = []
    if schema.primary_key:
        defs.append(IndexDef("__pk__", schema.name, schema.primary_key,
                             unique=True))
    defs.extend(schema.indexes.values())
    return defs


def _find_index(schema: TableSchema,
                columns: Iterable[str]) -> Optional[IndexDef]:
    wanted = set(columns)
    best: Optional[IndexDef] = None
    for index in _index_defs(schema):
        if all(c in wanted for c in index.columns):
            if best is None or len(index.columns) > len(best.columns):
                best = index
    return best


def _compile_index_probe(predicates: Sequence[ast.Expr], binding: str,
                         schema: TableSchema,
                         prefix_scope: Scope) -> Optional[IndexProbe]:
    equalities: dict[str, ast.Expr] = {}
    for predicate in predicates:
        pair = _equality_pair(predicate, binding, schema)
        if pair is not None:
            equalities.setdefault(pair[0], pair[1])
    if not equalities:
        return None
    index = _find_index(schema, equalities.keys())
    if index is None:
        return None
    key_fns = []
    for column in index.columns:
        key_fn = _compile_const(equalities[column], prefix_scope)
        if key_fn is None:
            return None
        key_fns.append(key_fn)
    # A unique key reads at most one row: nothing to narrow.
    narrow = None if index.unique else _compile_narrow(
        predicates, binding, schema, index, prefix_scope)
    return IndexProbe(index.name, tuple_fn(key_fns), narrow)


def _compile_narrow(predicates: Sequence[ast.Expr], binding: str,
                    schema: TableSchema, probed: IndexDef,
                    prefix_scope: Scope) -> Optional[PkRangeProbe]:
    """A range on an index whose columns are ``probed``'s plus one."""
    for index in _index_defs(schema):
        if tuple(index.columns[:-1]) != tuple(probed.columns):
            continue
        bound_fns = _compile_range_bounds(predicates, binding, schema,
                                          index.columns[-1], prefix_scope)
        if bound_fns is not None:
            return PkRangeProbe(index.name, bound_fns)
    return None


def _integer_affinity(schema: TableSchema, column: str) -> bool:
    """True when every stored value of ``column`` is an int (or NULL)."""
    return (schema.columns[schema.position(column)].sql_type.affinity
            == INTEGER)


def _compile_pk_bound(predicate: ast.Expr, binding: str, schema: TableSchema,
                      column: str, prefix_scope: Scope
                      ) -> Optional[tuple[str, Callable]]:
    """One predicate's contribution to ``column``'s range, pre-classified.

    Returns ``(kind, bound_fn)`` where ``kind`` records the static
    capability ("lo", "hi", "between") used to decide whether a range
    probe is worth emitting at all, and ``bound_fn(rows, params)``
    performs the interpreter's runtime evaluation and checks.
    """
    def is_column_ref(expr: ast.Expr) -> bool:
        return (isinstance(expr, ast.ColumnRef)
                and expr.column == column
                and expr.table in (None, binding))

    def usable_const(expr: ast.Expr) -> Optional[Callable]:
        if _references_binding(expr, binding, schema):
            return None
        return _compile_int_const(expr, prefix_scope)

    if isinstance(predicate, ast.Between) and not predicate.negated \
            and is_column_ref(predicate.value):
        low_fn = usable_const(predicate.low)
        high_fn = usable_const(predicate.high)
        if low_fn is None or high_fn is None:
            return None
        def between_bound(rows, params):
            low = low_fn(rows, params)
            high = high_fn(rows, params)
            if low is None or high is None:
                return None
            return "between", (low, high)
        return "between", between_bound
    if not isinstance(predicate, ast.BinaryOp):
        return None
    op = predicate.op
    if op not in (">", ">=", "<", "<="):
        return None
    left, right = predicate.left, predicate.right
    if is_column_ref(left):
        value_fn = usable_const(right)
        direction = {"<": ("hi", 0), "<=": ("hi", 1),
                     ">": ("lo", 1), ">=": ("lo", 0)}[op]
    elif is_column_ref(right):
        value_fn = usable_const(left)
        # value OP column -> flip the comparison.
        direction = {"<": ("lo", 1), "<=": ("lo", 0),
                     ">": ("hi", 0), ">=": ("hi", 1)}[op]
    else:
        return None
    if value_fn is None:
        return None
    kind, delta = direction
    def comparison_bound(rows, params):
        value = value_fn(rows, params)
        if value is None:
            return None
        return kind, value + delta
    return kind, comparison_bound


def _compile_range_bounds(predicates: Sequence[ast.Expr], binding: str,
                          schema: TableSchema, column: str,
                          prefix_scope: Scope
                          ) -> Optional[tuple[Callable, ...]]:
    """``column``'s bound closures, or None when no range can unroll.

    The column must have INTEGER affinity: unrolling ``a >= 1`` into the
    keys 1, 2, ... would miss a stored 1.5.
    """
    if not _integer_affinity(schema, column):
        return None
    kinds: set[str] = set()
    bound_fns = []
    for predicate in predicates:
        compiled = _compile_pk_bound(predicate, binding, schema, column,
                                     prefix_scope)
        if compiled is None:
            continue
        kind, bound_fn = compiled
        kinds.add(kind)
        bound_fns.append(bound_fn)
    # A range needs both ends; a probe that can never produce them
    # would just be a slower full scan.
    if "between" not in kinds and not {"lo", "hi"} <= kinds:
        return None
    return tuple(bound_fns)


def _compile_pk_range(predicates: Sequence[ast.Expr], binding: str,
                      schema: TableSchema,
                      prefix_scope: Scope) -> Optional[PkRangeProbe]:
    if len(schema.primary_key) != 1:
        return None
    bound_fns = _compile_range_bounds(predicates, binding, schema,
                                      schema.primary_key[0], prefix_scope)
    if bound_fns is None:
        return None
    return PkRangeProbe("__pk__", bound_fns)


# ---------------------------------------------------------------------------
# Compiled plan nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledSource:
    """One FROM-clause table: slot, access-path cascade, residual filter."""

    slot: int
    binding: str
    table: str
    schema: TableSchema
    join_kind: str
    index_probe: Optional[IndexProbe]
    pk_range: Optional[PkRangeProbe]
    #: Residual filter over (rows, params) -> bool; None accepts all.
    #: Always re-checks every predicate — index candidates are
    #: conservative supersets.
    filter: Optional[ExprFn]


@dataclass(frozen=True)
class OrderKey:
    """One ORDER BY key: output position, row closure, or aggregate fn."""

    descending: bool
    position: Optional[int] = None
    fn: Optional[ExprFn] = None
    agg_fn: Optional[AggFn] = None
    error: Optional[str] = None

    def value(self, rows: Sequence[Optional[tuple]], row: tuple,
              params: Sequence[object]) -> object:
        if self.error is not None:
            raise ProgrammingError(self.error)
        if self.position is not None:
            return row[self.position]
        return self.fn(rows, params)

    def agg_value(self, aggs: "LazyAggs",
                  rows0: Optional[Sequence[Optional[tuple]]], row: tuple,
                  params: Sequence[object]) -> object:
        if self.position is not None:
            return row[self.position]
        return self.agg_fn(aggs, rows0, params)


@dataclass(frozen=True)
class CompiledAggregate:
    """One unique aggregate call within a grouped SELECT."""

    name: str
    star: bool
    distinct: bool
    arg_fn: Optional[ExprFn]

    def compute(self, contexts: Sequence[Sequence[Optional[tuple]]],
                params: Sequence[object]) -> object:
        if self.star:
            return len(contexts)
        values = [self.arg_fn(rows, params) for rows in contexts]
        values = [v for v in values if v is not None]
        if self.distinct:
            values = list(dict.fromkeys(values))
        if self.name == "count":
            return len(values)
        if not values:
            return None
        if self.name == "sum":
            return sum(values)
        if self.name == "avg":
            return sum(values) / len(values)
        if self.name == "min":
            return min(values)
        return max(values)  # compile_statement validated the name


class LazyAggs:
    """Per-group aggregate values, computed on demand and memoised.

    HAVING runs before the select items, so aggregates it rejects are
    never computed — same laziness as the interpreter, minus its
    recomputation per reference.
    """

    __slots__ = ("_aggs", "_contexts", "_params", "_cache")

    def __init__(self, aggs: Sequence[CompiledAggregate],
                 contexts: Sequence[Sequence[Optional[tuple]]],
                 params: Sequence[object]) -> None:
        self._aggs = aggs
        self._contexts = contexts
        self._params = params
        self._cache: dict[int, object] = {}

    def __getitem__(self, index: int) -> object:
        try:
            return self._cache[index]
        except KeyError:
            value = self._aggs[index].compute(self._contexts, self._params)
            self._cache[index] = value
            return value


@dataclass(frozen=True)
class CompiledAggregation:
    """Grouping/aggregation section of a compiled SELECT."""

    group_fn: Optional[ExprFn]  # fused (rows, params) -> group-key tuple
    aggs: tuple[CompiledAggregate, ...]
    item_fns: tuple[AggFn, ...]
    having_fn: Optional[AggFn]
    order_keys: tuple[OrderKey, ...]


@dataclass(frozen=True)
class CompiledSelect:
    scalar: bool
    sources: tuple[CompiledSource, ...]
    for_update: bool
    columns: list[str]
    project_fn: Optional[ExprFn]  # fused (rows, params) -> output tuple
    aggregation: Optional[CompiledAggregation]
    order_keys: tuple[OrderKey, ...]
    distinct: bool
    limit_fn: Optional[ExprFn]
    offset_fn: Optional[ExprFn]


@dataclass(frozen=True)
class ColumnFinalizer:
    """Post-evaluation column handling shared by INSERT and UPDATE."""

    position: int
    name: str
    coerce: Callable[[object], object]
    not_null: bool


@dataclass(frozen=True)
class CompiledInsert:
    table: str
    schema: TableSchema
    positions: tuple[int, ...]
    row_fns: tuple[tuple[ExprFn, ...], ...]
    defaults: tuple[tuple[int, object], ...]
    finalizers: tuple[ColumnFinalizer, ...]


@dataclass(frozen=True)
class CompiledAssignment:
    finalizer: ColumnFinalizer
    value_fn: ExprFn


@dataclass(frozen=True)
class CompiledUpdate:
    table: str
    schema: TableSchema
    source: CompiledSource
    assignments: tuple[CompiledAssignment, ...]


@dataclass(frozen=True)
class CompiledDelete:
    table: str
    schema: TableSchema
    source: CompiledSource


CompiledPlan = (CompiledSelect, CompiledInsert, CompiledUpdate, CompiledDelete)


# ---------------------------------------------------------------------------
# Statement compilation
# ---------------------------------------------------------------------------


def compile_statement(stmt: ast.Statement, catalog: Catalog):
    """Compile a DML/query statement, or raise :class:`Unsupported`.

    Semantic errors (unknown tables/columns, bad aggregates, arity
    mismatches) raise :class:`ProgrammingError` — the same type and
    message the interpreter produces at execute time, surfaced at
    prepare time instead.
    """
    if isinstance(stmt, ast.Select):
        return _compile_select(stmt, catalog)
    if isinstance(stmt, ast.Insert):
        return _compile_insert(stmt, catalog)
    if isinstance(stmt, ast.Update):
        return _compile_update(stmt, catalog)
    if isinstance(stmt, ast.Delete):
        return _compile_delete(stmt, catalog)
    raise Unsupported(f"cannot compile {type(stmt).__name__}")


def _item_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.column
    if isinstance(item.expr, ast.FuncCall):
        return item.expr.name
    return f"col{index}"


def _expand_items(stmt: ast.Select,
                  pairs: Sequence[tuple[str, TableSchema]]
                  ) -> list[tuple[ast.Expr, str]]:
    expanded: list[tuple[ast.Expr, str]] = []
    for i, item in enumerate(stmt.items):
        if item.star:
            targets = ([(b, s) for b, s in pairs if b == item.star_table]
                       if item.star_table else list(pairs))
            if item.star_table and not targets:
                raise ProgrammingError(
                    f"unknown binding {item.star_table!r} in select list")
            for binding, schema in targets:
                for column in schema.column_names:
                    expanded.append((ast.ColumnRef(binding, column), column))
        else:
            expanded.append((item.expr, _item_name(item, i)))
    return expanded


def _contains_aggregate(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.FuncCall) and node.name in AGGREGATES
               for node in ast.walk(expr))


def _split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _build_sources(stmt: ast.Select, catalog: Catalog
                   ) -> tuple[list[tuple[str, TableSchema, str, str]],
                              list[list[ast.Expr]]]:
    """Source list plus per-source predicate placement, as interpreted."""
    refs = [(stmt.table, "inner")]
    refs.extend((join.table, join.kind) for join in stmt.joins)
    pairs: list[tuple[str, TableSchema, str, str]] = []
    seen: set[str] = set()
    for table_ref, kind in refs:
        schema = catalog.get(table_ref.name)
        binding = table_ref.binding
        if binding in seen:
            raise ProgrammingError(f"duplicate table binding {binding!r}")
        seen.add(binding)
        pairs.append((binding, schema, table_ref.name, kind))

    conjuncts: list[ast.Expr] = []
    if stmt.where is not None:
        conjuncts.extend(_split_conjuncts(stmt.where))
    for join in stmt.joins:
        if join.condition is not None:
            conjuncts.extend(_split_conjuncts(join.condition))

    slot_of = {binding: i for i, (binding, _s, _t, _k) in enumerate(pairs)}
    placed: list[list[ast.Expr]] = [[] for _ in pairs]
    for conjunct in conjuncts:
        needed = _bindings_of(conjunct, pairs)
        slots = [slot_of[name] for name in needed if name in slot_of]
        if len(slots) != len(needed):
            raise ProgrammingError(
                f"predicate references unknown bindings: {needed}")
        placed[max(slots, default=0)].append(conjunct)
    return pairs, placed


def _bindings_of(expr: ast.Expr,
                 pairs: Sequence[tuple[str, TableSchema, str, str]]
                 ) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.ColumnRef):
            if node.table is not None:
                names.add(node.table)
            else:
                owners = [binding for binding, schema, _t, _k in pairs
                          if schema.has_column(node.column)]
                if not owners:
                    raise ProgrammingError(f"unknown column {node.column!r}")
                if len(owners) > 1:
                    raise ProgrammingError(f"ambiguous column {node.column!r}")
                names.add(owners[0])
    return names


def _compile_source(slot: int, binding: str, schema: TableSchema,
                    table_name: str, join_kind: str,
                    predicates: Sequence[ast.Expr], prefix_scope: Scope,
                    full_scope: Scope) -> CompiledSource:
    index_probe = _compile_index_probe(predicates, binding, schema,
                                       prefix_scope)
    pk_range = _compile_pk_range(predicates, binding, schema, prefix_scope)
    return CompiledSource(
        slot=slot, binding=binding, table=table_name, schema=schema,
        join_kind=join_kind, index_probe=index_probe, pk_range=pk_range,
        filter=_compile_conjunction(predicates, full_scope))


def _compile_order_key(order: ast.OrderItem, scope: Scope,
                       columns: Sequence[str]) -> OrderKey:
    expr = order.expr
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        position = expr.value - 1
        if 0 <= position < len(columns):
            return OrderKey(order.descending, position=position)
        return OrderKey(order.descending, error=(
            f"ORDER BY position {expr.value} out of range"))
    if (isinstance(expr, ast.ColumnRef) and expr.table is None
            and expr.column in columns):
        return OrderKey(order.descending, position=columns.index(expr.column))
    return OrderKey(order.descending, fn=compile_expr(expr, scope))


def _compile_select(stmt: ast.Select, catalog: Catalog) -> CompiledSelect:
    empty_scope = Scope([])
    if stmt.table is None:
        # Scalar SELECT: the interpreter projects one row and ignores
        # WHERE/ORDER BY/LIMIT entirely; mirror that (including never
        # compiling, hence never erroring on, the ignored clauses).
        project_fn = tuple_fn([compile_expr(item.expr, empty_scope)
                               for item in stmt.items])
        columns = [_item_name(item, i) for i, item in enumerate(stmt.items)]
        return CompiledSelect(
            scalar=True, sources=(), for_update=False, columns=columns,
            project_fn=project_fn, aggregation=None, order_keys=(),
            distinct=False, limit_fn=None, offset_fn=None)

    limit_fn = (compile_expr(stmt.limit, empty_scope)
                if stmt.limit is not None else None)
    offset_fn = (compile_expr(stmt.offset, empty_scope)
                 if stmt.offset is not None else None)

    pairs, placed = _build_sources(stmt, catalog)
    scope_slots = [(binding, schema) for binding, schema, _t, _k in pairs]
    full_scope = Scope(scope_slots)
    sources = tuple(
        _compile_source(slot, binding, schema, table_name, kind,
                        placed[slot], Scope(scope_slots[:slot]), full_scope)
        for slot, (binding, schema, table_name, kind) in enumerate(pairs))

    items = _expand_items(stmt, [(b, s) for b, s, _t, _k in pairs])
    columns = [name for _, name in items]
    is_grouped = bool(stmt.group_by) or any(
        _contains_aggregate(item.expr) for item in stmt.items if not item.star)

    if is_grouped:
        aggregation = _compile_aggregation(stmt, items, columns, full_scope)
        project_fn = None
        order_keys: tuple[OrderKey, ...] = ()
    else:
        aggregation = None
        project_fn = tuple_fn([compile_expr(expr, full_scope)
                               for expr, _ in items])
        order_keys = tuple(_compile_order_key(order, full_scope, columns)
                           for order in stmt.order_by)
    return CompiledSelect(
        scalar=False, sources=sources, for_update=stmt.for_update,
        columns=columns, project_fn=project_fn, aggregation=aggregation,
        order_keys=order_keys, distinct=stmt.distinct, limit_fn=limit_fn,
        offset_fn=offset_fn)


def _compile_aggregation(stmt: ast.Select,
                         items: Sequence[tuple[ast.Expr, str]],
                         columns: Sequence[str],
                         scope: Scope) -> CompiledAggregation:
    registry: dict[ast.Expr, int] = {}
    aggs: list[CompiledAggregate] = []

    def register(call: ast.FuncCall) -> int:
        index = registry.get(call)
        if index is not None:
            return index
        if call.star:
            if call.name != "count":
                raise ProgrammingError(f"{call.name}(*) is not valid")
            arg_fn = None
        else:
            if len(call.args) != 1:
                raise ProgrammingError(
                    f"aggregate {call.name} expects exactly one argument")
            arg_fn = compile_expr(call.args[0], scope)
        index = len(aggs)
        registry[call] = index
        aggs.append(CompiledAggregate(call.name, call.star, call.distinct,
                                      arg_fn))
        return index

    item_fns = tuple(_compile_aggregated(expr, scope, register)
                     for expr, _ in items)
    group_fn = (tuple_fn([compile_expr(expr, scope)
                          for expr in stmt.group_by])
                if stmt.group_by else None)
    having_fn = (_compile_aggregated(stmt.having, scope, register)
                 if stmt.having is not None else None)
    order_keys = tuple(
        _compile_agg_order_key(order, scope, columns, register)
        for order in stmt.order_by)
    return CompiledAggregation(
        group_fn=group_fn, aggs=tuple(aggs), item_fns=item_fns,
        having_fn=having_fn, order_keys=order_keys)


def _compile_agg_order_key(order: ast.OrderItem, scope: Scope,
                           columns: Sequence[str],
                           register: Callable[[ast.FuncCall], int]
                           ) -> OrderKey:
    expr = order.expr
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        position = expr.value - 1
        if 0 <= position < len(columns):
            return OrderKey(order.descending, position=position)
    if (isinstance(expr, ast.ColumnRef) and expr.table is None
            and expr.column in columns):
        return OrderKey(order.descending, position=columns.index(expr.column))
    # Everything else sorts by the aggregate-context value, including
    # out-of-range positions (the interpreter's caught-error path makes
    # them constant keys in aggregate queries).
    return OrderKey(order.descending,
                    agg_fn=_compile_aggregated(expr, scope, register))


def _compile_aggregated(expr: ast.Expr, scope: Scope,
                        register: Callable[[ast.FuncCall], int]) -> AggFn:
    """Compile an expression evaluated once per group."""
    if isinstance(expr, ast.FuncCall) and expr.name in AGGREGATES:
        index = register(expr)
        return lambda aggs, rows0, params: aggs[index]
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        left = _compile_aggregated(expr.left, scope, register)
        right = _compile_aggregated(expr.right, scope, register)
        return lambda aggs, rows0, params: apply_binary(
            op, left(aggs, rows0, params), right(aggs, rows0, params))
    if isinstance(expr, ast.UnaryOp):
        op = expr.op
        operand = _compile_aggregated(expr.operand, scope, register)
        return lambda aggs, rows0, params: apply_unary(
            op, operand(aggs, rows0, params))
    if _contains_aggregate(expr):
        raise ProgrammingError(
            "aggregates may only appear at the top level or inside "
            "arithmetic expressions")
    fn = compile_expr(expr, scope)
    # Bare expressions over an *empty* group: the interpreter evaluates
    # against the empty context, where outcomes depend on evaluation
    # order (a CASE may never touch its column refs).  Empty groups are
    # cold — at most the single global group — so defer to the
    # interpreter there for exact behaviour.
    def leaf_fn(aggs, rows0, params):
        if rows0 is None:
            return evaluate(expr, None, params)
        return fn(rows0, params)
    return leaf_fn


def _column_finalizer(position: int, column: ColumnDef) -> ColumnFinalizer:
    return ColumnFinalizer(position=position, name=column.name,
                           coerce=column.sql_type.coerce,
                           not_null=column.not_null)


def _compile_insert(stmt: ast.Insert, catalog: Catalog) -> CompiledInsert:
    schema = catalog.get(stmt.table)
    columns = stmt.columns or schema.column_names
    positions = tuple(schema.position(c) for c in columns)
    scope = Scope([])
    row_fns = []
    for row_exprs in stmt.rows:
        if len(row_exprs) != len(columns):
            raise ProgrammingError(
                f"INSERT into {stmt.table!r} expects {len(columns)} "
                f"values, got {len(row_exprs)}")
        row_fns.append(tuple(compile_expr(expr, scope)
                             for expr in row_exprs))
    provided = set(positions)
    defaults = tuple(
        (i, column.default) for i, column in enumerate(schema.columns)
        if i not in provided and column.has_default)
    finalizers = tuple(_column_finalizer(i, column)
                       for i, column in enumerate(schema.columns))
    return CompiledInsert(
        table=stmt.table, schema=schema, positions=positions,
        row_fns=tuple(row_fns), defaults=defaults, finalizers=finalizers)


def _compile_write_source(table: str, schema: TableSchema,
                          where: Optional[ast.Expr]) -> CompiledSource:
    predicates = _split_conjuncts(where) if where is not None else []
    scope = Scope([(table, schema)])
    return _compile_source(0, table, schema, table, "inner", predicates,
                           Scope([]), scope)


def _compile_update(stmt: ast.Update, catalog: Catalog) -> CompiledUpdate:
    schema = catalog.get(stmt.table)
    source = _compile_write_source(stmt.table, schema, stmt.where)
    scope = Scope([(stmt.table, schema)])
    assignments = tuple(
        CompiledAssignment(
            finalizer=_column_finalizer(schema.position(a.column),
                                        schema.columns[
                                            schema.position(a.column)]),
            value_fn=compile_expr(a.value, scope))
        for a in stmt.assignments)
    return CompiledUpdate(table=stmt.table, schema=schema, source=source,
                          assignments=assignments)


def _compile_delete(stmt: ast.Delete, catalog: Catalog) -> CompiledDelete:
    schema = catalog.get(stmt.table)
    source = _compile_write_source(stmt.table, schema, stmt.where)
    return CompiledDelete(table=stmt.table, schema=schema, source=source)


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------


class LruCache:
    """Thread-safe LRU mapping with hit/miss/eviction counters.

    Used for the statement (parse) cache and subclassed by
    :class:`PlanCache`.  ``lookup`` preserves identity: repeated hits
    return the same cached object, which the facade tests rely on.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(1, int(capacity))
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: Hashable) -> tuple[bool, object]:
        """Return ``(hit, value)``; ``value`` is None on a miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            if key in self._entries:
                self._entries[key] = value
                self._entries.move_to_end(key)
                return
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class PlanCache(LruCache):
    """Compiled plans keyed by ``(sql, catalog_version)``.

    The version key already makes stale plans unreachable after DDL;
    ``invalidate_all`` additionally drops them eagerly so the cache
    does not carry dead weight, counting the dropped entries.
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity)
        self.invalidations = 0

    def invalidate_all(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
        return dropped

    def snapshot(self) -> dict[str, int]:
        snap = super().snapshot()
        with self._lock:
            snap["invalidations"] = self.invalidations
        return snap
