"""Table-granularity locks: modes, phantoms, escalation, FIFO, deadlocks."""

import threading
import time

import pytest

from repro.engine import Database, connect
from repro.engine.executor import ESCALATION_THRESHOLD
from repro.engine.locks import (EXCLUSIVE, INTENT_EXCLUSIVE, SHARED,
                                SHARED_INTENT_EXCLUSIVE, LockManager,
                                compatible, covers, join)
from repro.errors import DeadlockError

from ..conftest import execute

S, X, IX, SIX = SHARED, EXCLUSIVE, INTENT_EXCLUSIVE, SHARED_INTENT_EXCLUSIVE
MODES = (S, X, IX, SIX)

#: Short enough to keep the suite fast, long enough that a thread that
#: should block is still blocked when the test looks.
SETTLE = 0.2


# -- modes ------------------------------------------------------------------

def test_compatibility_table():
    granted_together = {(a, b) for a in MODES for b in MODES
                        if compatible(a, b)}
    assert granted_together == {(S, S), (IX, IX)}


@pytest.mark.parametrize("held,requested,expected", [
    (S, IX, SIX), (IX, S, SIX),
    (S, S, S), (IX, IX, IX), (SIX, SIX, SIX),
    (SIX, S, SIX), (SIX, IX, SIX), (S, SIX, SIX), (IX, SIX, SIX),
    (S, X, X), (IX, X, X), (SIX, X, X), (X, S, X), (X, IX, X), (X, SIX, X),
])
def test_join(held, requested, expected):
    assert join(held, requested) == expected


def test_covers():
    covered = {(a, b) for a in MODES for b in MODES if covers(a, b)}
    assert covered == {
        (S, S), (IX, IX), (SIX, SIX), (X, X),
        (SIX, S), (SIX, IX),
        (X, S), (X, IX), (X, SIX),
    }


def test_upgrade_to_join_is_held_and_conflicts_accordingly():
    lm = LockManager(timeout=0.5)
    assert lm.acquire("t1", "tbl", S)
    assert lm.acquire("t1", "tbl", IX)  # upgrade to SIX
    assert lm.holds("t1", "tbl", SIX)
    assert lm.acquire("t1", "tbl", S) is False  # covered by SIX
    assert not lm.try_acquire("t2", "tbl", S)
    assert not lm.try_acquire("t2", "tbl", IX)
    lm.release_all("t1")
    assert lm.try_acquire("t2", "tbl", IX)
    assert lm.try_acquire("t3", "tbl", IX)  # IX + IX share


def test_fifo_queued_ix_writer_beats_later_table_s():
    lm = LockManager(timeout=5.0)
    lm.acquire("scanner1", "tbl", S)
    order: list[str] = []

    def take(txn, mode):
        lm.acquire(txn, "tbl", mode)
        order.append(txn)

    writer = threading.Thread(target=take, args=("writer", IX), daemon=True)
    writer.start()
    _wait_until(lambda: lm.stats.waits == 1)
    # S is compatible with the held S, but a fresh request must queue
    # behind the earlier IX waiter it conflicts with.
    assert not lm.try_acquire("scanner2", "tbl", S)
    scanner2 = threading.Thread(target=take, args=("scanner2", S),
                                daemon=True)
    scanner2.start()
    _wait_until(lambda: lm.stats.waits == 2)
    lm.release_all("scanner1")
    writer.join(2.0)
    assert order == ["writer"]
    time.sleep(SETTLE)
    assert order == ["writer"]  # scanner2 still waits on the IX holder
    lm.release_all("writer")
    scanner2.join(2.0)
    assert order == ["writer", "scanner2"]


# -- phantoms ----------------------------------------------------------------

@pytest.fixture
def five(db):
    conn = connect(db)
    execute(conn, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    execute(conn, "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4), "
                  "(5, 5)")
    conn.commit()
    conn.close()
    return db


def _count(conn):
    return execute(conn, "SELECT COUNT(*) FROM t").fetchone()[0]


def _run_blocked(db, sql):
    """Run ``sql`` and commit on another thread; returns (thread, done)."""
    done = threading.Event()
    errors: list[BaseException] = []

    def writer():
        conn = connect(db)
        try:
            execute(conn, sql)
            conn.commit()
            done.set()
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)
        finally:
            conn.close()

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    return thread, done, errors


@pytest.mark.parametrize("sql,after", [
    ("INSERT INTO t VALUES (6, 6)", 6),
    ("UPDATE t SET v = 0 WHERE id = 3", 5),
    ("DELETE FROM t WHERE id = 3", 4),
])
def test_serializable_full_scan_blocks_writers_until_commit(five, sql, after):
    reader = connect(five)
    assert _count(reader) == 5
    thread, done, errors = _run_blocked(five, sql)
    time.sleep(SETTLE)
    assert not done.is_set(), "writer did not wait for the table S lock"
    assert _count(reader) == 5
    assert execute(reader, "SELECT SUM(v) FROM t").fetchone()[0] == 15
    reader.commit()
    thread.join(2.0)
    assert done.is_set(), errors
    check = connect(five)
    assert _count(check) == after
    check.rollback()


@pytest.mark.parametrize("compiled", [True, False])
def test_composite_range_without_equality_probe_blocks_phantoms(compiled):
    """``a = ? AND b = ? AND c BETWEEN ..`` with only an (a, b, c) index.

    No equality probe binds a whole index, so the read stays a full scan
    under table S on both paths, and an insert into its range waits.
    """
    db = Database(use_compiled_plans=compiled)
    conn = connect(db)
    execute(conn, "CREATE TABLE t3 (id INT PRIMARY KEY, a INT, b INT, "
                  "c INT)")
    execute(conn, "CREATE INDEX idx_t3_abc ON t3 (a, b, c)")
    execute(conn, "INSERT INTO t3 VALUES (1, 1, 1, 1), (2, 1, 1, 2), "
                  "(3, 1, 1, 3), (4, 2, 1, 2)")
    conn.commit()
    conn.close()
    sql = "SELECT COUNT(*) FROM t3 WHERE a = 1 AND b = 1 AND c BETWEEN 1 AND 5"
    reader = connect(db)
    assert execute(reader, sql).fetchone()[0] == 3
    assert db.lock_manager.held_by(reader.transaction) == {("table", "t3")}
    thread, done, errors = _run_blocked(db, "INSERT INTO t3 VALUES "
                                            "(5, 1, 1, 4)")
    time.sleep(SETTLE)
    assert not done.is_set(), "writer did not wait for the table S lock"
    assert execute(reader, sql).fetchone()[0] == 3
    reader.commit()
    thread.join(2.0)
    assert done.is_set(), errors


def test_full_scan_reader_waits_for_open_writer(five):
    writer = connect(five)
    execute(writer, "INSERT INTO t VALUES (6, 6)")
    seen: list[int] = []

    def reader():
        conn = connect(five)
        seen.append(_count(conn))
        conn.commit()

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    time.sleep(SETTLE)
    assert seen == []
    writer.commit()
    thread.join(2.0)
    assert seen == [6]


def test_full_scan_takes_no_row_locks(five):
    conn = connect(five)
    _count(conn)
    held = five.lock_manager.held_by(conn.transaction)
    assert held == {("table", "t")}
    conn.commit()


def test_snapshot_scan_takes_no_locks(five):
    conn = connect(five, isolation="snapshot")
    _count(conn)
    assert five.lock_manager.held_by(conn.transaction) == set()
    conn.commit()


def test_writes_take_table_ix_first(five):
    conn = connect(five)
    execute(conn, "UPDATE t SET v = 9 WHERE id = 1")
    txn = conn.transaction
    assert five.lock_manager.holds(txn, ("table", "t"), IX)
    assert txn.table_locks == {"t": IX}
    execute(conn, "SELECT COUNT(*) FROM t")  # IX + S
    assert five.lock_manager.holds(txn, ("table", "t"), SIX)
    assert txn.table_locks == {"t": SIX}
    conn.commit()


# -- escalation --------------------------------------------------------------

@pytest.fixture
def wide():
    db = Database(lock_timeout=5.0)
    conn = connect(db)
    execute(conn, "CREATE TABLE w (id INT PRIMARY KEY, v INT)")
    conn.commit()
    db.bulk_insert("w", [(i, i) for i in range(ESCALATION_THRESHOLD + 10)])
    return db


def test_escalation_takes_table_s_past_threshold(wide):
    reader = connect(wide)
    cur = reader.cursor()
    for i in range(ESCALATION_THRESHOLD):
        cur.execute("SELECT v FROM w WHERE id = ?", (i,))
        cur.fetchall()
    txn = reader.transaction
    assert txn.row_s_locks == {"w": ESCALATION_THRESHOLD}
    assert "w" not in txn.table_locks
    acquisitions = wide.lock_manager.stats.acquisitions
    cur.execute("SELECT v FROM w WHERE id = ?", (ESCALATION_THRESHOLD,))
    assert cur.fetchall() == [(ESCALATION_THRESHOLD,)]
    assert txn.table_locks == {"w": S}
    assert wide.lock_manager.stats.acquisitions == acquisitions + 1
    cur.execute("SELECT v FROM w WHERE id = ?", (ESCALATION_THRESHOLD + 1,))
    assert wide.lock_manager.stats.acquisitions == acquisitions + 1

    # A writer to any row of the table, even one never read, now waits.
    thread, done, errors = _run_blocked(
        wide, f"UPDATE w SET v = 0 WHERE id = {ESCALATION_THRESHOLD + 5}")
    time.sleep(SETTLE)
    assert not done.is_set()
    reader.commit()
    thread.join(2.0)
    assert done.is_set(), errors


def test_below_threshold_no_escalation(wide):
    reader = connect(wide)
    cur = reader.cursor()
    cur.execute("SELECT v FROM w WHERE id >= 0 AND id < 10")
    assert len(cur.fetchall()) == 10
    assert reader.transaction.row_s_locks == {"w": 10}
    assert reader.transaction.table_locks == {}
    # A writer to an unread row proceeds (IX is compatible with no S).
    writer = connect(wide)
    execute(writer, "UPDATE w SET v = 0 WHERE id = 500")
    writer.commit()
    reader.commit()


# -- deadlocks across granules ----------------------------------------------

def _two_txn_race(db, first, second):
    """Run two scripted transactions step by step on two threads."""
    barrier = threading.Barrier(2, timeout=5.0)
    outcomes: dict[str, str] = {}

    def worker(name, steps):
        conn = connect(db)
        try:
            execute(conn, steps[0])
            barrier.wait()
            execute(conn, steps[1])
            conn.commit()
            outcomes[name] = "committed"
        except DeadlockError:
            conn.rollback()
            outcomes[name] = "deadlock"
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(name, steps),
                                daemon=True)
               for name, steps in (("a", first), ("b", second))]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    assert not any(thread.is_alive() for thread in threads), "hang"
    assert time.monotonic() - started < 4.0  # detected, not timed out
    return outcomes


@pytest.fixture
def two_tables():
    db = Database(lock_timeout=30.0)
    conn = connect(db)
    execute(conn, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    execute(conn, "CREATE TABLE u (id INT PRIMARY KEY, v INT)")
    execute(conn, "INSERT INTO t VALUES (1, 1), (2, 2)")
    execute(conn, "INSERT INTO u VALUES (1, 1), (2, 2)")
    conn.commit()
    return db


def test_deadlock_table_s_versus_row_x(two_tables):
    outcomes = _two_txn_race(
        two_tables,
        ("SELECT COUNT(*) FROM t", "UPDATE u SET v = 0 WHERE id = 1"),
        ("UPDATE u SET v = 5 WHERE id = 1", "INSERT INTO t VALUES (3, 3)"))
    assert sorted(outcomes.values()) == ["committed", "deadlock"]


def test_deadlock_on_concurrent_six_upgrades(two_tables):
    outcomes = _two_txn_race(
        two_tables,
        ("SELECT COUNT(*) FROM t", "UPDATE t SET v = 0 WHERE id = 1"),
        ("SELECT COUNT(*) FROM t", "UPDATE t SET v = 5 WHERE id = 2"))
    assert sorted(outcomes.values()) == ["committed", "deadlock"]


def _wait_until(predicate, limit=2.0):
    deadline = time.monotonic() + limit
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)
