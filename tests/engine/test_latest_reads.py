"""The latest-version read path of serializable scans.

A serializable transaction reads the latest committed version of each
row.  When it has buffered no write on a table, a scan of that table
reads each version chain's last entry directly; once it has written
there, the scan overlays its own workspace.  These tests pin both sides
of that split, and the re-read a scan makes after waiting for a row
lock.
"""

import threading
import time

import pytest

from repro.engine import Database, connect

from ..conftest import execute


@pytest.fixture
def two_tables(db):
    conn = connect(db)
    execute(conn, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    execute(conn, "CREATE TABLE u (id INT PRIMARY KEY, v INT)")
    for table in ("t", "u"):
        execute(conn, f"INSERT INTO {table} VALUES (1, 10), (2, 20), "
                      "(3, 30), (4, 40)")
    conn.commit()
    conn.close()
    return db


def _rows(conn, sql, params=()):
    return sorted(execute(conn, sql, params).fetchall())


def test_written_tables_tracks_every_kind_of_write(two_tables):
    conn = connect(two_tables)
    execute(conn, "SELECT * FROM t")
    assert conn.transaction.written_tables == set()
    execute(conn, "INSERT INTO t VALUES (5, 50)")
    assert conn.transaction.written_tables == {"t"}
    conn.rollback()
    execute(conn, "UPDATE u SET v = 0 WHERE id = 1")
    assert conn.transaction.written_tables == {"u"}
    execute(conn, "DELETE FROM t WHERE id = 2")
    assert conn.transaction.written_tables == {"t", "u"}
    conn.rollback()
    conn.close()


@pytest.mark.parametrize("sql,params", [
    ("SELECT id, v FROM t", ()),
    ("SELECT id, v FROM t WHERE id BETWEEN ? AND ?", (0, 9)),
    ("SELECT id, v FROM t WHERE v >= ?", (0,)),
])
def test_scan_sees_own_writes(two_tables, sql, params):
    conn = connect(two_tables)
    assert _rows(conn, sql, params) == [(1, 10), (2, 20), (3, 30), (4, 40)]
    execute(conn, "INSERT INTO t VALUES (5, 50)")
    execute(conn, "UPDATE t SET v = 21 WHERE id = 2")
    execute(conn, "DELETE FROM t WHERE id = 3")
    assert _rows(conn, sql, params) == [(1, 10), (2, 21), (4, 40), (5, 50)]
    # Point probes see the same overlay.
    assert _rows(conn, "SELECT v FROM t WHERE id = 3") == []
    assert _rows(conn, "SELECT v FROM t WHERE id = 5") == [(50,)]
    conn.rollback()
    conn.close()


def test_untouched_table_reads_latest_committed(two_tables):
    conn = connect(two_tables)
    execute(conn, "UPDATE t SET v = 0 WHERE id = 1")
    # Another transaction commits to u after this one began.
    other = connect(two_tables)
    execute(other, "UPDATE u SET v = 99 WHERE id = 4")
    execute(other, "DELETE FROM u WHERE id = 1")
    execute(other, "INSERT INTO u VALUES (6, 60)")
    other.commit()
    other.close()
    assert conn.transaction.written_tables == {"t"}
    assert _rows(conn, "SELECT id, v FROM u") == [
        (2, 20), (3, 30), (4, 99), (6, 60)]
    assert _rows(conn, "SELECT v FROM u WHERE id = 4") == [(99,)]
    assert _rows(conn, "SELECT v FROM t WHERE id = 1") == [(0,)]
    conn.rollback()
    conn.close()


def _wait_until(predicate, limit=2.0):
    deadline = time.monotonic() + limit
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _read_behind_writer(db, write_sql, read_sql):
    """Read ``read_sql`` while a writer holds the row's X lock.

    The reader blocks on the row ``S`` lock; the writer then commits and
    the reader finishes.  Returns the reader's rows.
    """
    writer = connect(db)
    execute(writer, write_sql)
    result: list = []
    errors: list[BaseException] = []

    def read():
        reader = connect(db)
        try:
            result.extend(execute(reader, read_sql).fetchall())
            assert reader.transaction.written_tables == set()
            reader.commit()
        except BaseException as exc:  # surfaced to the test below
            errors.append(exc)
        finally:
            reader.close()

    waits = db.lock_manager.stats.waits
    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    _wait_until(lambda: db.lock_manager.stats.waits > waits)
    writer.commit()
    writer.close()
    thread.join(2.0)
    assert not thread.is_alive()
    assert not errors, errors
    return sorted(result)


def test_waiting_scan_returns_the_committed_update(two_tables):
    rows = _read_behind_writer(two_tables,
                               "UPDATE t SET v = 99 WHERE id = 2",
                               "SELECT id, v FROM t WHERE id = 2")
    assert rows == [(2, 99)]


def test_waiting_scan_refilters_the_committed_update(two_tables):
    rows = _read_behind_writer(two_tables,
                               "UPDATE t SET v = 99 WHERE id = 2",
                               "SELECT id, v FROM t WHERE id = 2 AND v < 50")
    assert rows == []


def test_waiting_scan_skips_a_committed_delete(two_tables):
    rows = _read_behind_writer(two_tables,
                               "DELETE FROM t WHERE id = 2",
                               "SELECT id, v FROM t WHERE id BETWEEN 1 AND 3")
    assert rows == [(1, 10), (3, 30)]


def test_waiting_update_sees_the_committed_version():
    """An exclusive write-scan re-reads through the same path."""
    db = Database(lock_timeout=5.0)
    conn = connect(db)
    execute(conn, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    execute(conn, "INSERT INTO t VALUES (1, 10)")
    conn.commit()
    writer = connect(db)
    execute(writer, "UPDATE t SET v = v + 1 WHERE id = 1")
    done = threading.Event()

    def bump():
        other = connect(db)
        execute(other, "UPDATE t SET v = v + 1 WHERE id = 1")
        other.commit()
        other.close()
        done.set()

    thread = threading.Thread(target=bump, daemon=True)
    thread.start()
    _wait_until(lambda: db.lock_manager.stats.waits >= 1)
    writer.commit()
    writer.close()
    thread.join(2.0)
    assert done.is_set()
    assert execute(conn, "SELECT v FROM t").fetchall() == [(12,)]
    conn.commit()
    conn.close()
