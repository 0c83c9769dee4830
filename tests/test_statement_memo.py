"""The engine's text memo: a read it has seen is recognised, not re-lexed.

``statement_key(sql, db.plan_cache)`` is every front door's first step; the
plan cache remembers the key of each cacheable read text (a bounded LRU,
``plancache.TEXT_CAPACITY``).  These tests pin what it stores, its bound,
its behaviour under threads, and the result-cache hit path around it —
including the session temp table that must not be served a cached answer.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster import Cluster
from repro.cluster.hardware import HardwareSpec
from repro.database import Database, plancache
from repro.database.plancache import TEXT_CAPACITY
from repro.errors import SQLSyntaxError
from repro.serving import ResultCache, ServingGateway, statement_key
from repro.verify import sanitizer
from tests.test_plan_cache import fresh
from tests.test_serving import lexed, served  # noqa: F401 - fixtures


class TestWhatIsRemembered:
    def test_only_reads_are_remembered(self, served, lexed):
        db, gw = served
        session = db.connect("db2")
        texts = [
            "INSERT INTO t VALUES (9, 90)",
            "UPDATE t SET b = b + 1 WHERE a = 9",
            "DELETE FROM t WHERE a = 9",
            "CREATE TABLE u (x INT)",
            "DROP TABLE u",
            "SELECT RAND() FROM t",
        ]
        before = db.plan_cache.report()["texts"]["entries"]
        for _ in range(2):
            for sql in texts:
                gw.execute(sql, session=session)
        assert lexed == texts * 2
        del lexed[:]
        broken = "SELECT 'oops FROM t"
        for _ in range(2):
            with pytest.raises(SQLSyntaxError):
                session.execute(broken)
        # Keyed, then lexed again by the parser to raise: on every arrival.
        assert lexed == [broken] * 4
        assert db.plan_cache.report()["texts"]["entries"] == before == 0


    def test_the_cluster_lexes_through_its_coordinators_memo(self, lexed):
        hw = HardwareSpec(cores=2, ram_gb=8, storage_tb=1)
        cluster = Cluster([hw, hw], shard_factor=2)
        session = cluster.connect()
        statements = [
            "CREATE TABLE f (k INT, v INT) DISTRIBUTE BY HASH (k)",
            "INSERT INTO f VALUES (1, 10), (2, 20), (3, 30), (4, 40)",
            "SELECT k, SUM(v) FROM f GROUP BY k ORDER BY k",
            "SELECT v FROM f WHERE k = 3",
            "UPDATE f SET v = v + 1 WHERE k > 2",
        ]
        for sql in statements:
            session.execute(sql)
        del lexed[:]
        for sql in statements[2:]:
            session.execute(sql)
        # A repeated read is parsed from the remembered key's tokens; a
        # repeated write is lexed again.
        assert lexed == statements[4:]
        assert session.execute("SELECT SUM(v) FROM f").scalar() == 104
        assert cluster.coordinator.plan_cache.report()["texts"]["entries"] == 3


class TestResultCacheHit:
    def test_a_session_temp_table_is_not_served_the_catalog_answer(self, served):
        """A hit must be the answer the text has *in this session*: a temp
        table declared under a name the entry resolved — a table, a view,
        or a table inside a view — makes it another statement here, whether
        the temp table or the entry came first."""
        db, gw = served
        db.execute("CREATE VIEW v AS SELECT a FROM t")
        other = db.connect("db2")

        def through_both(session, sql):
            return gw.execute(sql, session=session).rows, session.execute(sql).rows

        # Declared first, then another session stores the entry.
        early = db.connect("db2")
        early.execute("DECLARE GLOBAL TEMPORARY TABLE t (a INT)")
        early.execute("INSERT INTO t VALUES (7)")
        for sql in ("SELECT COUNT(*) FROM t", "SELECT MAX(a) FROM v"):
            stored = gw.execute(sql, session=other).rows
            assert through_both(early, sql) == (early.execute(sql).rows,) * 2
            assert gw.execute(sql, session=other).rows == stored  # still a hit
        assert through_both(early, "SELECT MAX(a) FROM v") == ([(7,)], [(7,)])
        # Stored first, then declared: a temp table named like a view
        # touches no base table, so no commit drops the entry.
        late = db.connect("db2")
        assert gw.execute("SELECT COUNT(*) FROM v", session=other).scalar() == 3
        late.execute("DECLARE GLOBAL TEMPORARY TABLE v (a INT)")
        assert gw.execute("SELECT COUNT(*) FROM v", session=other).scalar() == 3
        assert through_both(late, "SELECT COUNT(*) FROM v") == ([(0,)], [(0,)])
        assert gw.execute("SELECT COUNT(*) FROM v", session=other).scalar() == 3
        assert gw.result_cache.stats.hits == 4


class TestTextMemo:
    def test_capacity_covers_the_result_cache(self):
        # A text whose answer the result cache can hold is also recognised.
        db = Database("memo-cap")
        assert TEXT_CAPACITY >= ResultCache(db).capacity
        assert TEXT_CAPACITY >= ServingGateway(db).result_cache.capacity
        assert db.monreport()["plan_cache"]["texts"] == {
            "hits": 0, "misses": 0, "entries": 0, "evictions": 0,
            "capacity": TEXT_CAPACITY,
        }

    def test_bounded_lru_keeps_the_hot_text(self, monkeypatch, lexed):
        monkeypatch.setattr(plancache, "TEXT_CAPACITY", 4)
        memo = plancache.PlanCache("memo-lru")
        hot = "SELECT hot FROM t"
        statement_key(hot, memo)
        for i in range(12):
            statement_key("SELECT c%d FROM t" % i, memo)
            assert statement_key(hot, memo).bypass is None  # touched: kept
            assert len(memo._texts) <= 4
        texts = memo.report()["texts"]
        assert (texts["entries"], texts["evictions"], texts["capacity"]) == (4, 9, 4)
        assert (texts["hits"], texts["misses"]) == (12, 13)
        assert lexed.count(hot) == 1
        del lexed[:]
        statement_key("SELECT c0 FROM t", memo)  # long evicted: lexed again
        statement_key("SELECT c11 FROM t", memo)  # still held
        assert lexed == ["SELECT c0 FROM t"]
        memo.clear()
        assert memo.report()["texts"]["entries"] == 0

    def test_eight_threads_through_one_gateway(self, monkeypatch):
        """Eight threads run one set of texts through one gateway, more
        texts than the memo holds, under a short switch interval: every
        answer equals a plan made with no cache in sight, the memo never
        holds more than its capacity, and the lockset sanitizer reports
        nothing (CI also runs this under ``REPRO_SANITIZE=1``)."""
        monkeypatch.setattr(plancache, "TEXT_CAPACITY", 4)
        enabled = sanitizer.ENABLED
        sanitizer.enable()
        interval = sys.getswitchinterval()
        try:
            db = Database("memo-threads")
            db.execute("CREATE TABLE t (a INT, b INT)")
            db.execute(
                "INSERT INTO t VALUES "
                + ", ".join("(%d, %d)" % (i, i % 7) for i in range(50))
            )
            gw = ServingGateway(db)
            texts = [
                "SELECT COUNT(*) FROM t",
                "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b",
                "SELECT MAX(a) FROM t WHERE b = 2",
                "select max(a) from t where b = 2 -- a spelling variant",
            ] + ["SELECT b FROM t WHERE a = %d" % i for i in range(0, 48, 8)]
            session = db.connect("db2")
            expected = {sql: fresh(db, session, sql).rows for sql in texts}
            wrong, errors, peak = [], [], []

            def client(n):
                own = db.connect("db2")
                try:
                    for i in range(40):
                        sql = texts[(n * 3 + i) % len(texts)]
                        got = gw.execute(sql, session=own).rows
                        if got != expected[sql]:
                            wrong.append((sql, got))
                        peak.append(len(db.plan_cache._texts))
                except Exception as exc:  # lint-ok: broad-except (asserted empty after join)
                    errors.append(exc)

            sys.setswitchinterval(1e-5)
            threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == [] and wrong == []
            assert max(peak) <= 4
            report = db.monreport()
            texts_report = report["plan_cache"]["texts"]
            assert texts_report["entries"] <= texts_report["capacity"] == 4
            assert texts_report["evictions"] > 0 and texts_report["hits"] > 0
            cache = report["serving"]["result_cache"]
            assert cache["hits"] + cache["misses"] == 8 * 40
            assert sanitizer.report() == []
            gw.close()
        finally:
            sys.setswitchinterval(interval)
            if not enabled:
                sanitizer.disable()
