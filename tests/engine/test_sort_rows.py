"""``executor._sort_rows``: the compiled path's ORDER BY.

A single ORDER BY key whose values are all ``int`` or all ``str`` sorts
the raw values; everything else compares through ``_SortKey``.  The
``_SortKey`` ordering is the reference here, ties included: both sorts
are stable, so rows with equal keys must keep their input order.  For
non-NULL ``int`` and ``str`` keys the key sequence is also checked
against ``sqlite3``'s ``ORDER BY``.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database, connect
from repro.engine.executor import _SortKey, _sort_rows
from repro.engine.plan import OrderKey
from repro.errors import ProgrammingError

ints = st.integers(-5, 5) | st.integers(-2**70, 2**70)
strs = st.text(alphabet="abAB é中", max_size=3)
KINDS = {
    "int": ints,
    "str": strs,
    "bool": st.booleans(),
    "float": st.floats(-3, 3, allow_nan=False).map(lambda f: round(f, 1)),
    "null": st.none(),
    "int_or_null": ints | st.none(),
    "mixed": st.one_of(ints, strs, st.booleans(), st.none(),
                       st.floats(-3, 3, allow_nan=False)),
}


def _reference(rows, key_values, descending):
    """The ``_SortKey`` ordering the compiled path used for every sort."""
    wrapped = [[_SortKey(v, d) for v, d in zip(keys, descending)]
               for keys in key_values]
    order = sorted(range(len(rows)), key=lambda i: wrapped[i])
    return [rows[i] for i in order]


@st.composite
def single_key_columns(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    # Draw from a small pool so duplicate keys are common.
    pool = draw(st.lists(KINDS[kind], min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool), max_size=30))
    return kind, values


@settings(max_examples=300, deadline=None)
@given(column=single_key_columns(), descending=st.booleans())
def test_single_key_matches_sortkey_order(column, descending):
    _kind, values = column
    rows = [(value, i) for i, value in enumerate(values)]
    key_values = [[value] for value in values]
    got = _sort_rows(rows, key_values, (OrderKey(descending),))
    assert got == _reference(rows, key_values, (descending,))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.tuples(st.sampled_from([1, 2, None, "x", 1.5]),
                                 st.integers(0, 3)), max_size=20),
       first_desc=st.booleans(), second_desc=st.booleans())
def test_two_keys_match_sortkey_order(values, first_desc, second_desc):
    rows = [(a, b, i) for i, (a, b) in enumerate(values)]
    key_values = [[a, b] for a, b in values]
    flags = (first_desc, second_desc)
    got = _sort_rows(rows, key_values, tuple(OrderKey(d) for d in flags))
    assert got == _reference(rows, key_values, flags)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["int", "str"]), data=st.data(),
       descending=st.booleans())
def test_int_and_str_keys_order_like_sqlite(kind, data, descending):
    strategy = st.integers(-2**62, 2**62) if kind == "int" else strs
    values = data.draw(st.lists(strategy, max_size=25))
    rows = [(value,) for value in values]
    got = _sort_rows(rows, [[v] for v in values], (OrderKey(descending),))
    lite = sqlite3.connect(":memory:")
    column_type = "INTEGER" if kind == "int" else "TEXT"
    lite.execute(f"CREATE TABLE s (k {column_type})")
    lite.executemany("INSERT INTO s VALUES (?)", rows)
    direction = "DESC" if descending else "ASC"
    expected = lite.execute(f"SELECT k FROM s ORDER BY k {direction}"
                            ).fetchall()
    lite.close()
    assert got == expected


def test_error_keys_still_raise_before_sorting():
    """An ORDER BY position out of range fails even on one row."""
    db = Database()
    conn = connect(db)
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (a INT PRIMARY KEY)")
    cur.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(ProgrammingError, match="out of range"):
        cur.execute("SELECT a FROM t ORDER BY 2")
    conn.close()
