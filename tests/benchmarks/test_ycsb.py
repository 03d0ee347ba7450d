"""YCSB: loader, request distributions, and CRUD procedures."""

import random

import pytest

from repro.benchmarks.ycsb import YcsbBenchmark
from repro.core import (Phase, RATE_DISABLED, ThreadedExecutor,
                        WorkloadConfiguration, WorkloadManager)
from repro.engine import Database, connect

from .conftest import committed, run_mixture


@pytest.fixture(scope="module")
def ycsb():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.5, seed=3)
    bench.load()
    return bench


def test_load_row_count(ycsb):
    assert ycsb.database.row_count("usertable") == 500
    assert ycsb.params["record_count"] == 500


def test_read_record(ycsb):
    conn = connect(ycsb.database)
    ycsb.make_procedure("ReadRecord").run(conn, random.Random(1))
    conn.close()


def test_insert_extends_keyspace(ycsb):
    conn = connect(ycsb.database)
    before = ycsb.database.row_count("usertable")
    ycsb.make_procedure("InsertRecord").run(conn, random.Random(2))
    assert ycsb.database.row_count("usertable") == before + 1
    conn.close()


def test_update_changes_field(ycsb):
    conn = connect(ycsb.database)
    rng = random.Random(4)
    cur = conn.cursor()
    cur.execute("SELECT field1 FROM usertable WHERE ycsb_key = 0")
    before = cur.fetchone()[0]
    conn.commit()
    # Run enough updates that key 0 (zipf-hot) is touched.
    proc = ycsb.make_procedure("UpdateRecord")
    for _ in range(60):
        proc.run(conn, rng)
    cur.execute("SELECT field1 FROM usertable WHERE ycsb_key = 0")
    # No assertion on inequality (field choice random); row must exist.
    assert cur.fetchone() is not None
    conn.commit()
    conn.close()


def test_scan_is_ordered(ycsb):
    conn = connect(ycsb.database)
    cur = conn.cursor()
    cur.execute("SELECT ycsb_key FROM usertable WHERE ycsb_key >= 10 "
                "AND ycsb_key < 20 ORDER BY ycsb_key")
    keys = [r[0] for r in cur.fetchall()]
    assert keys == sorted(keys)
    conn.commit()
    conn.close()


def test_read_modify_write(ycsb):
    conn = connect(ycsb.database)
    ycsb.make_procedure("ReadModifyWriteRecord").run(conn, random.Random(5))
    conn.close()


def test_mixture_run(ycsb):
    outcomes = run_mixture(ycsb, iterations=120)
    assert committed(outcomes) >= 115  # deletes of missing keys are no-ops


def test_zipfian_skews_access():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.2, seed=1)
    bench.load()
    proc = bench.make_procedure("ReadRecord")
    rng = random.Random(9)
    picks = [proc._pick_key(rng) for _ in range(3000)]
    from collections import Counter
    top_share = sum(c for _k, c in Counter(picks).most_common(20)) / 3000
    assert top_share > 0.4  # 10% of keys draw >40% of traffic


def test_uniform_distribution_option():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.2, seed=1,
                          request_distribution="uniform")
    bench.load()
    proc = bench.make_procedure("ReadRecord")
    rng = random.Random(9)
    picks = [proc._pick_key(rng) for _ in range(5000)]
    from collections import Counter
    top_share = sum(c for _k, c in Counter(picks).most_common(20)) / 5000
    assert top_share < 0.25


def test_hotspot_distribution_option():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.2, seed=1,
                          request_distribution="hotspot")
    bench.load()
    proc = bench.make_procedure("ReadRecord")
    rng = random.Random(9)
    picks = [proc._pick_key(rng) for _ in range(2000)]
    hot = sum(1 for p in picks if p < 40)  # hot set: first 20% of 200
    assert hot / 2000 > 0.7


def test_latest_distribution_option():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.2, seed=1,
                          request_distribution="latest")
    bench.load()
    proc = bench.make_procedure("ReadRecord")
    rng = random.Random(9)
    picks = [proc._pick_key(rng) for _ in range(2000)]
    recent = sum(1 for p in picks if p >= 150)
    assert recent / 2000 > 0.5


def test_insert_keys_continue_the_tail_sequence():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.1, seed=3)
    bench.load()
    conn = connect(db)
    proc = bench.make_procedure("InsertRecord")
    for seed in range(3):
        proc.run(conn, random.Random(seed))
    cur = conn.cursor()
    cur.execute("SELECT ycsb_key FROM usertable WHERE ycsb_key >= 100 "
                "ORDER BY ycsb_key")
    assert [row[0] for row in cur.fetchall()] == [100, 101, 102]
    conn.commit()
    conn.close()
    restored = YcsbBenchmark(db, scale_factor=0.1, seed=3)
    restored.derive_params()
    assert next(restored.params["insert_key_counter"]) == 103


def test_threaded_insert_heavy_mix_has_no_failures():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.2, seed=3)
    bench.load()
    loaded = db.row_count("usertable")
    config = WorkloadConfiguration(
        benchmark=bench.name, workers=2, seed=1,
        phases=[Phase(duration=1, rate=RATE_DISABLED,
                      weights={"InsertRecord": 80, "ReadRecord": 20})])
    manager = WorkloadManager(bench, config)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager)
    executor.run(timeout=15)
    results = manager.results
    assert results.count() > 100
    assert results.committed() == results.count()  # no abort, no error
    inserts = db.row_count("usertable") - loaded
    assert inserts > 50
    conn = connect(db)
    cur = conn.cursor()
    cur.execute("SELECT ycsb_key FROM usertable WHERE ycsb_key >= ?",
                (loaded,))
    assert sorted(row[0] for row in cur.fetchall()) == list(
        range(loaded, loaded + inserts))
    conn.commit()
    conn.close()
