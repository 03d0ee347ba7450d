"""Expression evaluation with SQL three-valued logic.

The evaluator works over a :class:`RowContext` that maps table bindings
(alias or table name) to ``(schema, row values)`` pairs.  ``None`` results
represent SQL NULL / UNKNOWN and propagate through comparisons; AND/OR
follow Kleene logic.
"""

from __future__ import annotations

import functools
import re
from typing import Optional, Sequence

from ..errors import DataError, ProgrammingError
from .catalog import TableSchema
from .sqlparser import ast
from .types import compare_values


class RowContext:
    """Column-name resolution over the rows currently in scope."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: dict[str, tuple[TableSchema, Optional[tuple]]]):
        self.bindings = bindings

    def resolve(self, table: Optional[str], column: str) -> object:
        if table is not None:
            try:
                schema, values = self.bindings[table]
            except KeyError:
                raise ProgrammingError(f"unknown table binding {table!r}") from None
            if values is None:
                return None
            return values[schema.position(column)]
        matches = [
            (schema, values) for schema, values in self.bindings.values()
            if schema.has_column(column)
        ]
        if not matches:
            raise ProgrammingError(f"unknown column {column!r}")
        if len(matches) > 1:
            raise ProgrammingError(f"ambiguous column {column!r}")
        schema, values = matches[0]
        if values is None:
            return None
        return values[schema.position(column)]


_EMPTY_CONTEXT = RowContext({})

_ARITHMETIC = {"+", "-", "*", "/", "%"}
_COMPARISON = {"=", "<>", "<", "<=", ">", ">="}


def evaluate(expr: ast.Expr, ctx: Optional[RowContext],
             params: Sequence[object] = ()) -> object:
    """Evaluate ``expr`` against ``ctx``; returns a Python value or None."""
    if ctx is None:
        ctx = _EMPTY_CONTEXT
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Param):
        try:
            return params[expr.index]
        except IndexError:
            raise ProgrammingError(
                f"statement expects at least {expr.index + 1} parameters, "
                f"got {len(params)}") from None
    if isinstance(expr, ast.ColumnRef):
        return ctx.resolve(expr.table, expr.column)
    if isinstance(expr, ast.BinaryOp):
        return _eval_binary(expr, ctx, params)
    if isinstance(expr, ast.UnaryOp):
        return _eval_unary(expr, ctx, params)
    if isinstance(expr, ast.Between):
        value = evaluate(expr.value, ctx, params)
        low = evaluate(expr.low, ctx, params)
        high = evaluate(expr.high, ctx, params)
        ge = _compare_bool(value, low, ">=")
        le = _compare_bool(value, high, "<=")
        result = _kleene_and(ge, le)
        return _maybe_negate(result, expr.negated)
    if isinstance(expr, ast.InList):
        return _eval_in(expr, ctx, params)
    if isinstance(expr, ast.Like):
        return _eval_like(expr, ctx, params)
    if isinstance(expr, ast.IsNull):
        value = evaluate(expr.value, ctx, params)
        return (value is None) != expr.negated
    if isinstance(expr, ast.FuncCall):
        return _eval_scalar_func(expr, ctx, params)
    if isinstance(expr, ast.CaseExpr):
        for cond, val in expr.branches:
            if evaluate(cond, ctx, params) is True:
                return evaluate(val, ctx, params)
        if expr.default is not None:
            return evaluate(expr.default, ctx, params)
        return None
    raise ProgrammingError(f"cannot evaluate expression node {expr!r}")


def is_true(value: object) -> bool:
    """SQL WHERE acceptance: only TRUE passes (NULL/UNKNOWN filters out)."""
    return value is True


def _maybe_negate(value: Optional[bool], negated: bool) -> Optional[bool]:
    if value is None or not negated:
        return value
    return not value


def apply_binary(op: str, left: object, right: object) -> object:
    """Apply a binary operator to already-evaluated operands.

    Shared by the tree-walking evaluator and the compiled-plan closures
    (``repro.engine.plan``) so both paths have identical SQL semantics.
    Note AND/OR are *eager* over evaluated operands, matching the
    interpreter (no short-circuit).
    """
    if op == "and":
        return _kleene_and(_as_bool(left), _as_bool(right))
    if op == "or":
        return _kleene_or(_as_bool(left), _as_bool(right))
    if op in _COMPARISON:
        return _compare_bool(left, right, op)
    if op == "||":
        if left is None or right is None:
            return None
        return _stringify(left) + _stringify(right)
    if op in _ARITHMETIC:
        if left is None or right is None:
            return None
        return _arith(op, left, right)
    raise ProgrammingError(f"unknown binary operator {op!r}")


def apply_unary(op: str, value: object) -> object:
    """Apply a unary operator to an already-evaluated operand."""
    if op == "not":
        as_bool = _as_bool(value)
        return None if as_bool is None else (not as_bool)
    if op == "-":
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(f"cannot negate {value!r}")
        return -value
    raise ProgrammingError(f"unknown unary operator {op!r}")


def _eval_binary(expr: ast.BinaryOp, ctx: RowContext,
                 params: Sequence[object]) -> object:
    return apply_binary(expr.op, evaluate(expr.left, ctx, params),
                        evaluate(expr.right, ctx, params))


def _eval_unary(expr: ast.UnaryOp, ctx: RowContext,
                params: Sequence[object]) -> object:
    return apply_unary(expr.op, evaluate(expr.operand, ctx, params))


def _eval_in(expr: ast.InList, ctx: RowContext,
             params: Sequence[object]) -> object:
    value = evaluate(expr.value, ctx, params)
    if value is None:
        return None
    saw_null = False
    for option in expr.options:
        candidate = evaluate(option, ctx, params)
        result = _compare_bool(value, candidate, "=")
        if result is True:
            return not expr.negated
        if result is None:
            saw_null = True
    if saw_null:
        return None
    return expr.negated


def _eval_like(expr: ast.Like, ctx: RowContext,
               params: Sequence[object]) -> object:
    value = evaluate(expr.value, ctx, params)
    pattern = evaluate(expr.pattern, ctx, params)
    if value is None or pattern is None:
        return None
    matched = like_match(_stringify(value), _stringify(pattern))
    return matched != expr.negated


def like_match(text: str, pattern: str) -> bool:
    """SQL LIKE matching with ``%`` and ``_`` wildcards (case-sensitive)."""
    return like_regex(pattern).fullmatch(text) is not None


@functools.lru_cache(maxsize=256)
def like_regex(pattern: str) -> re.Pattern[str]:
    """Compile a LIKE pattern into a regex for ``fullmatch``.

    ``%`` matches any run of characters and ``_`` any one character,
    newlines included (``(?s)``).  Every ``%`` except the last is
    matched by a lookahead, which Python never backtracks into: it
    binds the earliest occurrence of the next literal segment, which
    is always safe because the following ``%`` absorbs anything.  So
    a match costs O(len(text) * len(pattern)) instead of one nested
    backtracking level per ``%``.  Compiled patterns are cached; plans
    with a constant pattern compile it once at prepare time.
    """
    segments = [_like_segment(part) for part in pattern.split("%")]
    if len(segments) == 1:
        return re.compile("(?s)" + segments[0])
    first, *middle, last = segments
    body = [first]
    group = 0
    for segment in middle:
        if segment:
            group += 1
            body.append(f"(?=(.*?{segment}))\\{group}")
    body.append(".*" + last)
    return re.compile("(?s)" + "".join(body))


def _like_segment(text: str) -> str:
    return "".join("." if ch == "_" else re.escape(ch) for ch in text)


_SCALAR_FUNCS = frozenset({
    "abs", "length", "lower", "upper", "substr", "substring", "mod",
    "coalesce", "nullif", "round", "floor", "ceil", "ceiling", "sign",
})

AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})


def is_aggregate_call(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.FuncCall) and expr.name in AGGREGATES


def _eval_scalar_func(expr: ast.FuncCall, ctx: RowContext,
                      params: Sequence[object]) -> object:
    name = expr.name
    if name in AGGREGATES:
        raise ProgrammingError(
            f"aggregate {name!r} used outside aggregation context")
    if name not in _SCALAR_FUNCS:
        raise ProgrammingError(f"unknown function {name!r}")
    return apply_scalar_func(
        name, [evaluate(arg, ctx, params) for arg in expr.args])


def apply_scalar_func(name: str, args: list) -> object:
    """Apply a known scalar function to already-evaluated arguments.

    Shared by the tree-walking evaluator and compiled-plan closures;
    callers have already validated that ``name`` is in
    :data:`_SCALAR_FUNCS`.
    """
    if name == "coalesce":
        for arg in args:
            if arg is not None:
                return arg
        return None
    if name == "nullif":
        _require_args(name, args, 2)
        return None if _compare_bool(args[0], args[1], "=") is True else args[0]
    if any(arg is None for arg in args):
        return None
    if name == "abs":
        _require_args(name, args, 1)
        return abs(args[0])
    if name == "length":
        _require_args(name, args, 1)
        return len(_stringify(args[0]))
    if name == "lower":
        _require_args(name, args, 1)
        return _stringify(args[0]).lower()
    if name == "upper":
        _require_args(name, args, 1)
        return _stringify(args[0]).upper()
    if name in ("substr", "substring"):
        if len(args) not in (2, 3):
            raise ProgrammingError(f"{name} expects 2 or 3 arguments")
        text = _stringify(args[0])
        start = max(int(args[1]) - 1, 0)
        if len(args) == 3:
            return text[start:start + int(args[2])]
        return text[start:]
    if name == "mod":
        _require_args(name, args, 2)
        return _arith("%", args[0], args[1])
    if name == "round":
        if len(args) == 1:
            return round(float(args[0]))
        return round(float(args[0]), int(args[1]))
    if name == "floor":
        _require_args(name, args, 1)
        return int(args[0] // 1)
    if name in ("ceil", "ceiling"):
        _require_args(name, args, 1)
        return int(-((-args[0]) // 1))
    if name == "sign":
        _require_args(name, args, 1)
        return (args[0] > 0) - (args[0] < 0)
    raise ProgrammingError(f"unknown function {name!r}")


def _require_args(name: str, args: list, count: int) -> None:
    if len(args) != count:
        raise ProgrammingError(f"{name} expects {count} arguments")


def _compare_bool(left: object, right: object, op: str) -> Optional[bool]:
    cmp = compare_values(left, right)
    if cmp is None:
        return None
    if op == "=":
        return cmp == 0
    if op == "<>":
        return cmp != 0
    if op == "<":
        return cmp < 0
    if op == "<=":
        return cmp <= 0
    if op == ">":
        return cmp > 0
    if op == ">=":
        return cmp >= 0
    raise ProgrammingError(f"unknown comparison {op!r}")


def _kleene_and(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _kleene_or(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _as_bool(value: object) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise DataError(f"cannot use {value!r} as a boolean")


def _arith(op: str, left: object, right: object) -> object:
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise DataError(f"cannot apply {op!r} to {left!r} and {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise DataError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            # SQL integer division truncates toward zero.
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        return left / right
    if op == "%":
        if right == 0:
            raise DataError("modulo by zero")
        return left - right * int(left / right)
    raise ProgrammingError(f"unknown arithmetic operator {op!r}")


def _stringify(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
