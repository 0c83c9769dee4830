"""Buffer pool and replacement policies."""

import pytest

from repro.bufferpool import (
    BufferPool,
    ClockPolicy,
    LRUPolicy,
    OptimalPolicy,
    RandomizedWeightPolicy,
    make_policy,
)
from repro.errors import BufferPoolError


def run_trace(pool: BufferPool, trace):
    for page in trace:
        pool.get(page, lambda p=page: "data-%s" % p)
    return pool.stats


class TestPoolMechanics:
    def test_hit_and_miss_accounting(self):
        pool = BufferPool(2, LRUPolicy())
        run_trace(pool, ["a", "a", "b", "a"])
        assert pool.stats.hits == 2
        assert pool.stats.misses == 2
        assert pool.stats.hit_ratio == 0.5

    def test_loader_only_called_on_miss(self):
        calls = []
        pool = BufferPool(2, LRUPolicy())
        for _ in range(3):
            pool.get("x", lambda: calls.append(1) or "payload")
        assert len(calls) == 1

    def test_eviction_when_full(self):
        pool = BufferPool(2, LRUPolicy())
        run_trace(pool, ["a", "b", "c"])
        assert pool.stats.evictions == 1
        assert len(pool) == 2
        assert "a" not in pool

    def test_capacity_validation(self):
        with pytest.raises(BufferPoolError):
            BufferPool(0, LRUPolicy())

    def test_invalidate(self):
        pool = BufferPool(4, LRUPolicy())
        run_trace(pool, ["a", "b"])
        pool.invalidate("a")
        assert "a" not in pool
        pool.invalidate("zzz")  # no-op

    def test_clear(self):
        pool = BufferPool(4, LRUPolicy())
        run_trace(pool, ["a", "b", "c"])
        pool.clear()
        assert len(pool) == 0


class TestScanReconciliation:
    """Pool accounting must reconcile with scan-level page accounting.

    Regression: a column that was both a pushed predicate and a projected
    output used to be fetched from the pool twice per region (once in the
    predicate loop, once at decode), so pool accesses could not be
    reconciled with ``ScanStats.pages_read``.
    """

    def _loaded_db(self):
        from repro.database import Database
        from repro.workloads.tpcds import flush_tables

        db = Database(bufferpool_pages=64, region_rows=100)
        session = db.connect()
        session.execute("CREATE TABLE R (ID INT, V INT, W INT)")
        session.execute(
            "INSERT INTO R VALUES " + ", ".join(
                "(%d, %d, %d)" % (i, i % 37, i % 11) for i in range(500)
            )
        )
        flush_tables(db)
        return db, session

    def test_pushed_and_projected_column_fetched_once(self):
        db, session = self._loaded_db()
        before = db.bufferpool.stats.accesses
        # V is pushed (V > 5) AND projected: one pool request per region.
        session.execute("SELECT V FROM R WHERE V > 5")
        requests = db.bufferpool.stats.accesses - before
        pages_read = sum(s.stats.pages_read for s in db.last_scans)
        assert requests == pages_read
        regions = len(db.catalog.get_table("R").table.regions)
        assert pages_read == regions  # exactly one page per region for V

    def test_requests_equal_hits_plus_misses_end_to_end(self):
        db, session = self._loaded_db()
        for _ in range(3):
            session.execute("SELECT V, W FROM R WHERE V > 5 AND W < 9")
        stats = db.bufferpool.stats
        assert stats.accesses == stats.hits + stats.misses
        report = db.monreport()["bufferpool"]
        assert report["requests"] == report["hits"] + report["misses"]

    def test_multi_predicate_same_column_single_charge(self):
        db, session = self._loaded_db()
        before = db.bufferpool.stats.accesses
        session.execute("SELECT ID FROM R WHERE V > 5 AND V < 30")
        requests = db.bufferpool.stats.accesses - before
        pages_read = sum(s.stats.pages_read for s in db.last_scans)
        assert requests == pages_read
        regions = len(db.catalog.get_table("R").table.regions)
        # Two distinct columns touched (V pushed twice, ID projected).
        assert pages_read <= 2 * regions


class TestWritesKeepOrDropPages:
    """Pages are dropped only where a region index can come to mean other
    data: DROP and TRUNCATE.  An UPDATE stamps ``xmax`` on the old versions
    and lands the new ones in the tail; a sealed tail gets a fresh index."""

    _QUERY = "SELECT ID, V FROM R WHERE W < 9 ORDER BY ID"

    def test_pages_cached_before_an_update_still_hit_after_it(self):
        db, session = TestScanReconciliation()._loaded_db()
        before = session.query(self._QUERY)
        session.execute("UPDATE R SET V = V + 100 WHERE ID = 7")
        stats = db.bufferpool.stats
        hits, misses = stats.hits, stats.misses
        after = session.query(self._QUERY)
        assert stats.misses == misses and stats.hits > hits  # every page a hit
        expected = [(i, v + 100) if i == 7 else (i, v) for i, v in before]
        assert after == expected
        # The answer equals a read with a cold pool.
        db.bufferpool.clear()
        assert session.query(self._QUERY) == after

    def test_drop_and_truncate_still_drop_the_pages(self):
        db, session = TestScanReconciliation()._loaded_db()
        session.query(self._QUERY)
        assert len(db.bufferpool) > 0
        session.execute("TRUNCATE TABLE R IMMEDIATE")
        assert len(db.bufferpool) == 0
        session.query("SELECT COUNT(*) FROM R")
        session.execute("INSERT INTO R VALUES (1, 2, 3)")
        from repro.workloads.tpcds import flush_tables

        flush_tables(db)
        assert session.query(self._QUERY) == [(1, 2)]  # region 0 again: new pages
        assert len(db.bufferpool) > 0
        session.execute("DROP TABLE R")
        assert len(db.bufferpool) == 0


class TestTempTablesBypassThePool:
    """Pool frames are keyed by table *name*; only the catalog keeps names
    unique.  Sealed session temp tables used to be read through the pool,
    so a second table of the same name was answered from the first one's
    pages."""

    @staticmethod
    def _declare(session, values):
        session.execute("DECLARE GLOBAL TEMPORARY TABLE t (x INTEGER)")
        session.execute(
            "INSERT INTO t VALUES " + ", ".join("(%d)" % v for v in values)
        )

    def test_two_sessions_same_temp_name_stay_private(self):
        from repro.database import Database

        db = Database(region_rows=4)  # 4 rows seal a region
        a, b = db.connect(), db.connect()
        self._declare(a, range(4))
        self._declare(b, range(100, 104))
        assert a.query("SELECT x FROM t") == [(0,), (1,), (2,), (3,)]
        assert b.query("SELECT x FROM t") == [(100,), (101,), (102,), (103,)]
        assert db.bufferpool.stats.accesses == 0

    def test_redeclared_temp_table_reads_its_own_rows(self):
        from repro.database import Database

        db = Database(region_rows=4)
        a = db.connect()
        self._declare(a, range(4))
        assert a.query("SELECT x FROM t") == [(0,), (1,), (2,), (3,)]
        a.execute("DROP TABLE t")
        self._declare(a, range(7, 11))
        assert a.query("SELECT x FROM t") == [(7,), (8,), (9,), (10,)]


class TestLRU:
    def test_evicts_least_recent(self):
        pool = BufferPool(2, LRUPolicy())
        run_trace(pool, ["a", "b", "a", "c"])  # b is LRU
        assert "b" not in pool
        assert "a" in pool and "c" in pool

    def test_sequential_scan_pathology(self):
        # Cyclic scan over N+1 pages with N frames: LRU hits 0%.
        pool = BufferPool(4, LRUPolicy())
        trace = [i % 5 for i in range(50)]
        stats = run_trace(pool, trace)
        assert stats.hits == 0


class TestMRU:
    def test_cyclic_scan_friendly(self):
        pool = BufferPool(4, make_policy("mru"))
        trace = [i % 5 for i in range(50)]
        stats = run_trace(pool, trace)
        assert stats.hit_ratio > 0.5


class TestClock:
    def test_second_chance(self):
        pool = BufferPool(3, ClockPolicy())
        # Load a,b,c; evicting for d clears all bits and evicts a.  A hit on
        # b re-sets its bit, so the next eviction must skip b and take c.
        run_trace(pool, ["a", "b", "c", "d", "b", "e"])
        assert "b" in pool
        assert "c" not in pool

    def test_clock_bounded_memory(self):
        pool = BufferPool(3, ClockPolicy())
        run_trace(pool, [i % 7 for i in range(100)])
        assert len(pool) == 3


class TestRandomizedWeight:
    def test_hot_pages_survive_scan_flood(self):
        # Two hot pages re-referenced between sweeps of 40 cold pages with
        # only 10 frames: the weight policy must keep the hot pair resident
        # most of the time, unlike LRU which evicts them every sweep.
        def workload(policy):
            pool = BufferPool(10, policy)
            hot = ["h1", "h2"]
            hot_hits = [0, 0]
            for sweep in range(30):
                for i, h in enumerate(hot):
                    if h in pool:
                        hot_hits[i] += 1
                    pool.get(h, lambda h=h: h)
                for c in range(40):
                    page = "cold-%d-%d" % (sweep % 2, c)
                    pool.get(page, lambda p=page: p)
            return sum(hot_hits) / (2 * 30)

        weight_rate = workload(RandomizedWeightPolicy(seed=1))
        lru_rate = workload(LRUPolicy())
        assert weight_rate > lru_rate
        assert weight_rate > 0.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RandomizedWeightPolicy(decay=0.0)
        with pytest.raises(ValueError):
            RandomizedWeightPolicy(sample_size=0)

    def test_deterministic_given_seed(self):
        def final_pages(seed):
            pool = BufferPool(3, RandomizedWeightPolicy(seed=seed))
            run_trace(pool, [i % 7 for i in range(60)])
            return sorted(map(str, pool.resident_pages()))

        assert final_pages(5) == final_pages(5)


class TestOptimal:
    def test_belady_beats_lru_on_cyclic_scan(self):
        trace = [i % 5 for i in range(100)]
        opt_pool = BufferPool(4, OptimalPolicy(trace))
        opt_stats = run_trace(opt_pool, trace)
        lru_pool = BufferPool(4, LRUPolicy())
        lru_stats = run_trace(lru_pool, trace)
        assert opt_stats.hit_ratio > lru_stats.hit_ratio

    def test_opt_is_upper_bound(self):
        import numpy as np

        rng = np.random.default_rng(3)
        trace = list(rng.zipf(1.5, size=500) % 40)
        opt_pool = BufferPool(8, OptimalPolicy(trace))
        opt_ratio = run_trace(opt_pool, trace).hit_ratio
        for name in ("lru", "clock", "random-weight", "mru"):
            pool = BufferPool(8, make_policy(name))
            ratio = run_trace(pool, trace).hit_ratio
            assert ratio <= opt_ratio + 1e-9

    def test_factory(self):
        assert make_policy("lru").name == "lru"
        assert make_policy("opt", reference_string=[1, 2]).name == "opt"
        with pytest.raises(ValueError):
            make_policy("fifo")
