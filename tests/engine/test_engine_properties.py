"""Property-based engine tests: the SQL engine vs. a dict reference model.

Hypothesis drives random CRUD sequences against both the engine and a plain
Python dict; after every committed batch the two must agree exactly.  A
second suite checks LIKE against a regex oracle and against stdlib
``sqlite3`` (an independent implementation), and ORDER BY stability.
"""

import re
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.engine import Database, connect
from repro.engine.expr import like_match
from repro.errors import IntegrityError

KEYS = st.integers(min_value=0, max_value=20)
VALUES = st.integers(min_value=-1000, max_value=1000)


class KvModelMachine(RuleBasedStateMachine):
    """Random inserts/updates/deletes with commit/rollback vs a dict."""

    def __init__(self):
        super().__init__()
        self.db = Database()
        self.conn = connect(self.db)
        cur = self.conn.cursor()
        cur.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)")
        self.conn.commit()
        self.committed: dict[int, int] = {}
        self.pending: dict[int, int] = {}

    @rule(k=KEYS, v=VALUES)
    def insert(self, k, v):
        cur = self.conn.cursor()
        try:
            cur.execute("INSERT INTO kv VALUES (?, ?)", (k, v))
        except IntegrityError:
            assert k in self.pending  # duplicate must already exist
        else:
            assert k not in self.pending
            self.pending[k] = v

    @rule(k=KEYS, v=VALUES)
    def update(self, k, v):
        cur = self.conn.cursor()
        cur.execute("UPDATE kv SET v = ? WHERE k = ?", (v, k))
        assert cur.rowcount == (1 if k in self.pending else 0)
        if k in self.pending:
            self.pending[k] = v

    @rule(k=KEYS)
    def delete(self, k):
        cur = self.conn.cursor()
        cur.execute("DELETE FROM kv WHERE k = ?", (k,))
        assert cur.rowcount == (1 if k in self.pending else 0)
        self.pending.pop(k, None)

    @rule()
    def commit(self):
        self.conn.commit()
        self.committed = dict(self.pending)

    @rule()
    def rollback(self):
        self.conn.rollback()
        self.pending = dict(self.committed)

    @invariant()
    def engine_matches_model(self):
        cur = self.conn.cursor()
        cur.execute("SELECT k, v FROM kv")
        assert dict(cur.fetchall()) == self.pending
        # A second connection must see only committed state.  Snapshot
        # isolation reads without locks: under 2PL a same-thread reader
        # would (correctly) self-deadlock against our pending X locks.
        other = connect(self.db, isolation="snapshot")
        cur = other.cursor()
        cur.execute("SELECT k, v FROM kv")
        assert dict(cur.fetchall()) == self.committed
        other.close()


KvModelMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None)
TestKvModel = KvModelMachine.TestCase


def _like_to_regex(pattern: str) -> str:
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return "^" + "".join(parts) + "$"


@given(text=st.text(alphabet="ab%_c", max_size=12),
       pattern=st.text(alphabet="ab%_c", max_size=8))
@settings(max_examples=300, deadline=None)
def test_like_matches_regex_oracle(text, pattern):
    expected = re.match(_like_to_regex(pattern), text, re.DOTALL) is not None
    assert like_match(text, pattern) is expected


#: ASCII with both wildcards, a newline, and mixed case, so patterns hit
#: literal ``%``/``_`` characters in the text and case sensitivity.
_LIKE_TEXT = st.text(alphabet="abA%_\n ", max_size=16)
_LIKE_PATTERN = st.text(alphabet="abA%_\n ", max_size=10)


@given(text=_LIKE_TEXT, pattern=_LIKE_PATTERN)
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_like_matches_sqlite(sqlite_like, text, pattern):
    expected = sqlite_like.execute("SELECT ? LIKE ?",
                                   (text, pattern)).fetchone()[0]
    assert like_match(text, pattern) is bool(expected)


@pytest.fixture(scope="module")
def sqlite_like():
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like=ON")
    yield conn
    conn.close()


def test_sqlite_oracle_is_case_sensitive(sqlite_like):
    assert sqlite_like.execute("SELECT 'a' LIKE 'A'").fetchone()[0] == 0
    assert sqlite_like.execute("SELECT 'a\nb' LIKE 'a_b'").fetchone()[0] == 1


@given(rows=st.lists(
    st.tuples(st.integers(0, 50), st.integers(-5, 5)),
    min_size=0, max_size=30, unique_by=lambda r: r[0]))
@settings(max_examples=60, deadline=None)
def test_order_by_matches_sorted(rows):
    db = Database()
    conn = connect(db)
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    for k, v in rows:
        cur.execute("INSERT INTO t VALUES (?, ?)", (k, v))
    conn.commit()
    cur.execute("SELECT k, v FROM t ORDER BY v, k")
    assert cur.fetchall() == sorted(rows, key=lambda r: (r[1], r[0]))
    cur.execute("SELECT k FROM t ORDER BY v DESC, k DESC")
    assert [r[0] for r in cur.fetchall()] == [
        r[0] for r in sorted(rows, key=lambda r: (r[1], r[0]),
                             reverse=True)]


@given(values=st.lists(st.integers(-100, 100), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_aggregates_match_python(values):
    db = Database()
    conn = connect(db)
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    for i, v in enumerate(values):
        cur.execute("INSERT INTO t VALUES (?, ?)", (i, v))
    conn.commit()
    cur.execute("SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t")
    count, total, low, high, avg = cur.fetchone()
    assert count == len(values)
    assert total == sum(values)
    assert low == min(values)
    assert high == max(values)
    assert avg == sum(values) / len(values)
