"""Schema catalog: tables, columns, and index definitions."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable

from ..errors import ProgrammingError
from .types import SqlType


@dataclass(frozen=True)
class ColumnDef:
    name: str
    sql_type: SqlType
    not_null: bool = False
    default: object = None
    has_default: bool = False


@dataclass(frozen=True)
class IndexDef:
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


@dataclass
class TableSchema:
    """Columns plus the primary key and secondary indexes of one table."""

    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()
    indexes: dict[str, IndexDef] = field(default_factory=dict)
    foreign_keys: tuple[tuple[tuple[str, ...], str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        self._positions = {col.name: i for i, col in enumerate(self.columns)}
        if len(self._positions) != len(self.columns):
            raise ProgrammingError(f"duplicate column in table {self.name!r}")
        for key_col in self.primary_key:
            if key_col not in self._positions:
                raise ProgrammingError(
                    f"primary key column {key_col!r} not in table {self.name!r}")
        self.pk_positions = tuple(self._positions[c] for c in self.primary_key)
        self._pk_getter = key_getter(self.pk_positions)

    def position(self, column: str) -> int:
        try:
            return self._positions[column]
        except KeyError:
            raise ProgrammingError(
                f"no column {column!r} in table {self.name!r}") from None

    def has_column(self, column: str) -> bool:
        return column in self._positions

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def pk_key(self, row: tuple) -> tuple:
        """Extract the primary-key tuple from a full row tuple."""
        return self._pk_getter(row)


def key_getter(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[p] for p in positions)``, without a generator.

    Built from picklable parts, so a ``TableSchema`` still pickles.
    """
    if len(positions) == 1:
        return partial(_single_key, positions[0])
    if not positions:
        return _empty_key
    return itemgetter(*positions)


def _single_key(position: int, row: tuple) -> tuple:
    return (row[position],)


def _empty_key(row: tuple) -> tuple:
    return ()


class Catalog:
    """All table schemas of one database.

    ``version`` increments on every successful schema change (CREATE
    TABLE, DROP TABLE, CREATE INDEX).  Compiled plans are keyed by
    ``(sql, version)`` so stale plans die naturally after DDL.
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}
        self.version = 0

    def create_table(self, schema: TableSchema) -> None:
        if schema.name in self._tables:
            raise ProgrammingError(f"table {schema.name!r} already exists")
        self._tables[schema.name] = schema
        self.version += 1

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise ProgrammingError(f"no table named {name!r}")
        del self._tables[name]
        self.version += 1

    def get(self, name: str) -> TableSchema:
        try:
            return self._tables[name]
        except KeyError:
            raise ProgrammingError(f"no table named {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def add_index(self, index: IndexDef) -> None:
        schema = self.get(index.table)
        if index.name in schema.indexes:
            raise ProgrammingError(f"index {index.name!r} already exists")
        for column in index.columns:
            schema.position(column)  # validates existence
        schema.indexes[index.name] = index
        self.version += 1
