"""Integer range unrolling: the hash-index answer to range scans.

``pk >= lo AND pk < hi`` on a single-column integer primary key is
unrolled into point lookups (``PkRangeProbe`` on the compiled path,
``Executor._integer_pk_range`` in the interpreter).  On the compiled path
an equality probe also narrows to an integer range on a wider index;
``test_range_probe_sqlite.py`` checks that form against ``sqlite3``.
Only INTEGER-affinity columns are unrolled.  These tests
pin the optimisation's correctness against full-scan semantics and verify
it actually engages (via the transaction's index/scan counters).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database, connect

from ..conftest import execute


@pytest.fixture
def table(conn):
    execute(conn, "CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)")
    execute(conn, "INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(50)))
    conn.commit()
    return conn


def scans_used(conn):
    stats = conn.last_txn_stats
    return stats.full_scans, stats.index_lookups


def test_closed_range_uses_index(table):
    cur = execute(table, "SELECT k FROM t WHERE k >= 10 AND k < 15 "
                         "ORDER BY k")
    assert [r[0] for r in cur.fetchall()] == [10, 11, 12, 13, 14]
    table.commit()
    full, index = scans_used(table)
    assert full == 0
    assert index == 1


def test_between_uses_index(table):
    cur = execute(table, "SELECT COUNT(*) FROM t WHERE k BETWEEN 5 AND 9")
    assert cur.fetchone() == (5,)
    table.commit()
    assert scans_used(table)[0] == 0


def test_flipped_operands(table):
    cur = execute(table, "SELECT COUNT(*) FROM t "
                         "WHERE 10 <= k AND 15 > k")
    assert cur.fetchone() == (5,)
    table.commit()
    assert scans_used(table)[0] == 0


def test_strict_bounds(table):
    cur = execute(table, "SELECT k FROM t WHERE k > 47 AND k <= 49 "
                         "ORDER BY k")
    assert [r[0] for r in cur.fetchall()] == [48, 49]
    table.commit()
    assert scans_used(table)[0] == 0


def test_open_ended_range_falls_back_to_scan(table):
    cur = execute(table, "SELECT COUNT(*) FROM t WHERE k >= 45")
    assert cur.fetchone() == (5,)
    table.commit()
    assert scans_used(table)[0] == 1  # no upper bound: full scan


def test_empty_range(table):
    cur = execute(table, "SELECT COUNT(*) FROM t WHERE k >= 30 AND k < 30")
    assert cur.fetchone() == (0,)
    cur = execute(table, "SELECT COUNT(*) FROM t WHERE k >= 40 AND k < 35")
    assert cur.fetchone() == (0,)
    table.commit()


def test_range_with_extra_predicates(table):
    cur = execute(table, "SELECT k FROM t WHERE k >= 10 AND k < 20 "
                         "AND v > 150 ORDER BY k")
    assert [r[0] for r in cur.fetchall()] == [16, 17, 18, 19]
    table.commit()
    assert scans_used(table)[0] == 0


def test_range_with_params(table):
    cur = execute(table, "SELECT COUNT(*) FROM t WHERE k >= ? AND k < ?",
                  (20, 26))
    assert cur.fetchone() == (6,)
    table.commit()
    assert scans_used(table)[0] == 0


def test_huge_range_falls_back(table):
    # Wider than MAX_RANGE_UNROLL: correctness via full scan.
    cur = execute(table, "SELECT COUNT(*) FROM t "
                         "WHERE k >= 0 AND k < 1000000")
    assert cur.fetchone() == (50,)
    table.commit()
    assert scans_used(table)[0] == 1


def test_range_update_and_delete(table):
    cur = execute(table, "UPDATE t SET v = 0 WHERE k >= 5 AND k < 8")
    assert cur.rowcount == 3
    cur = execute(table, "DELETE FROM t WHERE k BETWEEN 40 AND 44")
    assert cur.rowcount == 5
    table.commit()
    cur = execute(table, "SELECT COUNT(*) FROM t")
    assert cur.fetchone() == (45,)


def test_range_sees_own_uncommitted_inserts(table):
    execute(table, "INSERT INTO t VALUES (100, 1000)")
    cur = execute(table, "SELECT COUNT(*) FROM t "
                         "WHERE k >= 99 AND k < 102")
    assert cur.fetchone() == (1,)
    table.rollback()


def test_composite_pk_not_unrolled(conn):
    execute(conn, "CREATE TABLE c (a INT, b INT, PRIMARY KEY (a, b))")
    execute(conn, "INSERT INTO c VALUES (1, 1), (1, 2), (2, 1)")
    conn.commit()
    cur = execute(conn, "SELECT COUNT(*) FROM c WHERE a >= 1 AND a < 3")
    assert cur.fetchone() == (3,)
    conn.commit()
    assert conn.last_txn_stats.full_scans == 1


@given(
    keys=st.sets(st.integers(0, 200), min_size=0, max_size=60),
    lo=st.integers(-10, 210),
    width=st.integers(0, 60),
)
@settings(max_examples=60, deadline=None)
def test_property_range_matches_filter(keys, lo, width):
    db = Database()
    conn = connect(db)
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    for k in keys:
        cur.execute("INSERT INTO t VALUES (?)", (k,))
    conn.commit()
    hi = lo + width
    cur.execute("SELECT k FROM t WHERE k >= ? AND k < ? ORDER BY k",
                (lo, hi))
    got = [r[0] for r in cur.fetchall()]
    assert got == sorted(k for k in keys if lo <= k < hi)
    conn.commit()
