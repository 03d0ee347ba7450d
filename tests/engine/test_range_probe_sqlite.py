"""Range probes checked against stdlib ``sqlite3`` on the same data.

An equality probe whose index has a wider sibling — the probe's columns
plus one INTEGER-affinity column bounded by the predicates — narrows to
a range probe (``repro.engine.plan.PkRangeProbe``) on the wider index:
it unrolls the range into point lookups prefixed by the probe's key.
These tests build the same rows in the engine and in ``sqlite3`` — some
committed, some updated or deleted in later commits, some still pending
in the reading transaction — and compare the row multisets a range
query returns, for every bound form (``<``, ``<=``, ``>``, ``>=``,
flipped operands, ``BETWEEN``), empty ranges and ranges wider than
``Executor.MAX_RANGE_UNROLL``.  They also check which index each query
probed, and that it never full-scanned.
"""

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import SNAPSHOT, Database, connect
from repro.engine.executor import Executor

MAX = Executor.MAX_RANGE_UNROLL

SCHEMA = [
    "CREATE TABLE r (id INT PRIMARY KEY, a INT, b INT, c INT, v INT)",
    "CREATE INDEX idx_r_ab ON r (a, b)",
    "CREATE INDEX idx_r_abc ON r (a, b, c)",
]

COLUMNS = "id, a, b, c, v"


def _lower(op, flipped):
    """A lower bound on ``c`` in one of its four spellings."""
    if flipped:
        return "? < c" if op == ">" else "? <= c"
    return f"c {op} ?"


def _upper(op, flipped):
    if flipped:
        return "? > c" if op == "<" else "? >= c"
    return f"c {op} ?"


def _range_sql(form, lower_op, upper_op, flipped):
    prefix = "? = a AND b = ?" if flipped else "a = ? AND b = ?"
    if form == "between":
        where = f"{prefix} AND c BETWEEN ? AND ?"
    else:
        where = (f"{prefix} AND {_lower(lower_op, flipped)} "
                 f"AND {_upper(upper_op, flipped)}")
    return f"SELECT {COLUMNS} FROM r WHERE {where}"


def _width(form, lower_op, upper_op, lo, hi):
    """Keys the probe unrolls: ``hi_exclusive - lo_inclusive``."""
    if form == "between":
        return hi + 1 - lo
    first = lo + 1 if lower_op == ">" else lo
    stop = hi + 1 if upper_op == "<=" else hi
    return stop - first


class Twin:
    """One engine database and one ``sqlite3`` database, written alike."""

    def __init__(self, isolation="serializable"):
        self.db = Database()
        self.conn = connect(self.db, isolation=isolation)
        self.lite = sqlite3.connect(":memory:")
        for ddl in SCHEMA:
            self.conn.cursor().execute(ddl)
            self.lite.execute(ddl)

    def write(self, sql, params=()):
        self.conn.cursor().execute(sql, params)
        self.lite.execute(sql, params)

    def commit(self):
        self.conn.commit()
        self.lite.commit()

    def query(self, sql, params):
        cur = self.conn.cursor()
        stats = self.conn.transaction.stats if self.conn.in_transaction \
            else None
        before = (0, 0) if stats is None else (stats.full_scans,
                                               stats.index_lookups)
        cur.execute(sql, params)
        got = Counter(cur.fetchall())
        stats = self.conn.transaction.stats
        used = (stats.full_scans - before[0],
                stats.index_lookups - before[1])
        expected = Counter(self.lite.execute(sql, params).fetchall())
        return got, expected, used

    def probed_index(self, sql, params):
        """The index the open transaction's plan probes for ``sql``."""
        source = self.db.prepare_exec(sql).plan.sources[0]
        index, _ = Executor(self.db)._plan_access(
            self.conn.transaction, source, [None], params)
        return index

    def close(self):
        self.conn.close()
        self.lite.close()


small = st.integers(0, 2)
c_values = st.one_of(st.integers(-5, 40), st.sampled_from([None, 3000]))
row = st.tuples(small, small, c_values, st.integers(0, 9))
writes = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]),
              st.integers(0, 39), row),
    max_size=12)
bounds = st.one_of(st.integers(-8, 45), st.sampled_from([-3000, 5000]))


def _apply(twin, ops, next_id):
    """Replay ``ops`` on both databases; returns the next free id."""
    for kind, target, (a, b, c, v) in ops:
        if kind == "insert":
            twin.write("INSERT INTO r VALUES (?, ?, ?, ?, ?)",
                       (next_id, a, b, c, v))
            next_id += 1
        elif kind == "update":
            twin.write("UPDATE r SET a = ?, c = ?, v = ? WHERE id = ?",
                       (a, c, v, target))
        else:
            twin.write("DELETE FROM r WHERE id = ?", (target,))
    return next_id


@settings(max_examples=120, deadline=None)
@given(
    loaded=st.lists(row, max_size=40),
    committed_ops=writes,
    own_ops=writes,
    form=st.sampled_from(["range", "between"]),
    lower_op=st.sampled_from([">", ">="]),
    upper_op=st.sampled_from(["<", "<="]),
    flipped=st.booleans(),
    a=small, b=small, lo=bounds, hi=bounds,
)
def test_range_probe_matches_sqlite(loaded, committed_ops, own_ops, form,
                                    lower_op, upper_op, flipped, a, b, lo,
                                    hi):
    twin = Twin()
    try:
        for i, (ra, rb, rc, rv) in enumerate(loaded):
            twin.write("INSERT INTO r VALUES (?, ?, ?, ?, ?)",
                       (i, ra, rb, rc, rv))
        twin.commit()
        next_id = _apply(twin, committed_ops, len(loaded))
        twin.commit()
        _apply(twin, own_ops, next_id)

        sql = _range_sql(form, lower_op, upper_op, flipped)
        params = (a, b, lo, hi)
        unrolled = _width(form, lower_op, upper_op, lo, hi) <= MAX
        # With pending writes of its own, the reader overlays its
        # workspace; once committed, a fresh reader takes the
        # latest-version path.
        for _ in range(2):
            got, expected, used = twin.query(sql, params)
            assert got == expected, (sql, params)
            assert used == (0, 1)
            assert twin.probed_index(sql, params) == (
                "idx_r_abc" if unrolled else "idx_r_ab")
            twin.commit()
    finally:
        twin.close()


def test_snapshot_reader_range_probe_matches_sqlite():
    twin = Twin(isolation=SNAPSHOT)
    try:
        for i in range(30):
            twin.write("INSERT INTO r VALUES (?, ?, ?, ?, ?)",
                       (i, i % 2, 0, i, i))
        twin.commit()
        twin.write("UPDATE r SET c = c + 100 WHERE id < 5")
        twin.write("DELETE FROM r WHERE id = 8")
        sql = _range_sql("between", None, None, False)
        got, expected, used = twin.query(sql, (0, 0, 0, 20))
        assert got == expected
        assert used == (0, 1)
        assert twin.probed_index(sql, (0, 0, 0, 20)) == "idx_r_abc"
    finally:
        twin.close()


def test_equality_probe_narrows_to_wider_index():
    """StockLevel's shape: (w, d) equality index, (w, d, o) range."""
    db = Database()
    conn = connect(db)
    cur = conn.cursor()
    cur.execute("CREATE TABLE ol (w INT, d INT, o INT, n INT, "
                "PRIMARY KEY (w, d, o, n))")
    cur.execute("CREATE INDEX idx_ol_order ON ol (w, d, o)")
    cur.execute("CREATE INDEX idx_ol_district ON ol (w, d)")
    cur.executemany("INSERT INTO ol VALUES (?, ?, ?, ?)",
                    [(1, d, o, n) for d in (1, 2) for o in range(100)
                     for n in range(3)])
    conn.commit()
    plan = db.prepare_exec(
        "SELECT n FROM ol WHERE w = ? AND d = ? AND o < ? AND o >= ?").plan
    source = plan.sources[0]
    assert source.index_probe.index_name == "idx_ol_district"
    assert source.index_probe.narrow.index_name == "idx_ol_order"
    assert source.pk_range is None
    cur.execute("SELECT COUNT(*) FROM ol "
                "WHERE w = ? AND d = ? AND o < ? AND o >= ?", (1, 2, 90, 70))
    assert cur.fetchone() == (60,)
    # Wider than the unroll limit: the equality probe takes over.
    cur.execute("SELECT COUNT(*) FROM ol "
                "WHERE w = ? AND d = ? AND o < ? AND o >= ?",
                (1, 2, MAX + 10, 0))
    assert cur.fetchone() == (300,)
    stats = conn.transaction.stats
    assert (stats.full_scans, stats.index_lookups) == (0, 2)

    def access(params):
        return Executor(db)._plan_access(conn.transaction, source, [None],
                                         params)
    assert access((1, 2, 90, 70)) == (
        "idx_ol_order", [(1, 2, o) for o in range(70, 90)])
    assert access((1, 2, MAX + 10, 0)) == ("idx_ol_district", ((1, 2),))
    conn.commit()
    conn.close()


@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize("sql", [
    "SELECT a FROM t WHERE a >= 1 AND a < 3",
    "SELECT a FROM t WHERE a BETWEEN 1 AND 2",
    "SELECT a FROM t WHERE 1 <= a AND 3 > a",
])
def test_float_key_range_is_not_unrolled(compiled, sql):
    """A FLOAT key holds 1.5 between the integer keys a range unrolls."""
    db = Database(use_compiled_plans=compiled)
    conn = connect(db)
    lite = sqlite3.connect(":memory:")
    for target in (conn.cursor(), lite):
        target.execute("CREATE TABLE t (a FLOAT PRIMARY KEY)")
        target.execute("INSERT INTO t VALUES (1.5), (2.0)")
    conn.commit()
    cur = conn.cursor()
    cur.execute(sql)
    assert sorted(cur.fetchall()) == sorted(lite.execute(sql).fetchall())
    assert sorted(r[0] for r in lite.execute(sql)) == [1.5, 2.0]
    conn.commit()
    assert conn.last_txn_stats.full_scans == 1
    conn.close()
    lite.close()


def test_float_last_column_of_composite_index_is_not_unrolled():
    twin_sql = [
        "CREATE TABLE f (id INT PRIMARY KEY, g INT, x FLOAT)",
        "CREATE INDEX idx_f_g ON f (g)",
        "CREATE INDEX idx_f_gx ON f (g, x)",
        "INSERT INTO f VALUES (1, 7, 1.5), (2, 7, 2.0), (3, 8, 1.5)",
    ]
    db = Database()
    conn = connect(db)
    lite = sqlite3.connect(":memory:")
    for sql in twin_sql:
        conn.cursor().execute(sql)
        lite.execute(sql)
    conn.commit()
    query = "SELECT id FROM f WHERE g = 7 AND x >= 1 AND x < 3"
    source = db.prepare_exec(query).plan.sources[0]
    assert source.index_probe.index_name == "idx_f_g"
    assert source.index_probe.narrow is None
    cur = conn.cursor()
    cur.execute(query)
    assert sorted(cur.fetchall()) == sorted(lite.execute(query).fetchall())
    conn.commit()
    conn.close()
    lite.close()


def _table(db, ddl, rows):
    conn = connect(db)
    cur = conn.cursor()
    for sql in ddl:
        cur.execute(sql)
    cur.executemany(f"INSERT INTO t VALUES ({', '.join('?' * len(rows[0]))})",
                    rows)
    conn.commit()
    return conn


def _access(db, conn, sql, params):
    """The access path ``sql`` takes, planned inside an open transaction."""
    conn.cursor().execute(sql, params)
    source = db.prepare_exec(sql).plan.sources[0]
    access = Executor(db)._plan_access(conn.transaction, source, [None],
                                       params)
    conn.rollback()
    return access


def test_text_prefix_narrows_and_matches_sqlite():
    ddl = ["CREATE TABLE t (id INT PRIMARY KEY, k VARCHAR(8), g INT, c INT)",
           "CREATE INDEX idx_t_kg ON t (k, g)",
           "CREATE INDEX idx_t_kgc ON t (k, g, c)"]
    rows = [(i, ["x", "y", "1"][i % 3], i % 2, i % 7) for i in range(42)]
    db = Database()
    conn = _table(db, ddl, rows)
    lite = sqlite3.connect(":memory:")
    for sql in ddl:
        lite.execute(sql)
    lite.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    sql = "SELECT id FROM t WHERE k = ? AND g = ? AND c BETWEEN ? AND ?"
    for params in [("x", 0, 2, 5), ("1", 1, 0, 6), ("z", 0, 0, 6)]:
        cur = conn.cursor()
        cur.execute(sql, params)
        assert Counter(cur.fetchall()) == Counter(
            lite.execute(sql, params).fetchall()), params
        assert _access(db, conn, sql, params) == (
            "idx_t_kgc", [params[:2] + (c,)
                          for c in range(params[2], params[3] + 1)])
    conn.close()
    lite.close()


@pytest.mark.parametrize("k", [1, "1", 1.0, None])
def test_narrowed_probe_returns_what_the_equality_probe_returns(k):
    """The narrow range keys by the probe's own key, typed as given.

    ``k = '1'`` against a stored 1 misses in both: equality probes look
    up the raw parameter value, on the compiled and interpreted paths.
    """
    ddl = ["CREATE TABLE t (id INT PRIMARY KEY, k INT, c INT)",
           "CREATE INDEX idx_t_k ON t (k)",
           "CREATE INDEX idx_t_kc ON t (k, c)"]
    rows = [(i, i % 2, i) for i in range(20)]
    sql = "SELECT id FROM t WHERE k = ? AND c >= ? AND c < ?"
    params = (k, 3, 9)
    got = {}
    for compiled in (True, False):
        db = Database(use_compiled_plans=compiled)
        conn = _table(db, ddl, rows)
        cur = conn.cursor()
        cur.execute(sql, params)
        got[compiled] = Counter(cur.fetchall())
        if compiled:
            assert _access(db, conn, sql, params)[0] == "idx_t_kc"
        conn.close()
    assert got[True] == got[False]
    if k is None:
        assert not got[True]


def test_unique_probe_is_not_narrowed():
    """``id = ?`` reads one row; 100 lookups on (id, x) would not help."""
    db = Database()
    conn = _table(db, ["CREATE TABLE t (id INT PRIMARY KEY, x INT)",
                       "CREATE INDEX idx_t_idx ON t (id, x)"],
                  [(i, i) for i in range(10)])
    sql = "SELECT id FROM t WHERE id = ? AND x BETWEEN 1 AND 100"
    source = db.prepare_exec(sql).plan.sources[0]
    assert source.index_probe.index_name == "__pk__"
    assert source.index_probe.narrow is None
    assert _access(db, conn, sql, (4,)) == ("__pk__", ((4,),))
    cur = conn.cursor()
    cur.execute(sql, (4,))
    assert cur.fetchall() == [(4,)]
    conn.close()


def test_composite_range_without_equality_index_keeps_pk_range():
    """No probe on (g) alone: the (g, x) range never displaces ``__pk__``."""
    db = Database()
    conn = _table(db, ["CREATE TABLE t (id INT PRIMARY KEY, g INT, x INT)",
                       "CREATE INDEX idx_t_gx ON t (g, x)"],
                  [(i, i % 3, i) for i in range(30)])
    sql = ("SELECT id FROM t WHERE g = ? AND x BETWEEN 0 AND 10000 "
           "AND id BETWEEN 1 AND 5")
    source = db.prepare_exec(sql).plan.sources[0]
    assert source.index_probe is None
    assert _access(db, conn, sql, (1,)) == (
        "__pk__", [(i,) for i in range(1, 6)])
    cur = conn.cursor()
    cur.execute(sql, (1,))
    assert sorted(cur.fetchall()) == [(1,), (4,)]
    conn.close()
