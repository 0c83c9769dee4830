"""The engine's plan cache: a cached execution == a fresh plan's.

Three layers.  Named regressions, one per hazard the design has to hold
(a literal that decides the plan's shape, name resolution that moves under
a cached plan, a transaction reading its own writes through one).  A
property over every statement of the four benchmark pools: perturb its
literals — keeping and changing their types — and require the cache-warm
answer *and dtypes* to equal the cache-cold ones.  And the accounting and
observability a cached execution owes: scan statistics registered like a
fresh one's, EXPLAIN saying where the plan came from, every bypass counted
under a name.
"""

from __future__ import annotations

import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.database.result import result_from_batch
from repro.errors import ReproError
from repro.federation import add_nickname, make_connector
from repro.sql import lexer
from repro.sql.parser import parse_statement
from repro.sql.planner import SelectPlanner
from repro.types.datatypes import INTEGER, varchar_type
from repro.verify import sanitizer
from repro.workloads import BDINSIGHT_QUERIES, TPCDS_QUERIES, tpcds
from repro.workloads.customer import CustomerWorkload


def outcome(run, *args):
    """``(rows, dtypes, columns)`` of a SELECT, or the error it raises
    (whatever it is: some literal/column pairings die in numpy or decimal,
    and must die the same way cached and fresh)."""
    try:
        result = run(*args)
    except Exception as exc:  # lint-ok: broad-except (the comparison wants every failure, typed)
        return "error", type(exc).__name__, str(exc)
    return result.rows, [str(d) for d in result.dtypes], result.columns


def fresh(db, session, sql, snapshot=None):
    """The oracle: plan *sql* now, with no cache anywhere near it, and run
    that plan — ``SelectPlanner(...).plan(node)`` called directly."""
    planner = SelectPlanner(
        db, session.dialect, page_source=db.page_source, session=session
    )
    planned = planner.plan(parse_statement(sql))
    batch = planned.bind(snapshot if snapshot is not None else db.txn.snapshot()).run()
    return result_from_batch(batch, planned.names, planned.keys, planned.dtypes)


def _typed_database(tail: bool = False):
    db = Database("typed", region_rows=4)
    session = db.connect("db2")
    session.execute(
        "CREATE TABLE t (i INT, b BIGINT, d DECIMAL(7,2), c CHAR(4),"
        " v VARCHAR(8), dt DATE)"
    )
    session.execute(
        "INSERT INTO t VALUES"
        " (1, 10, 1.50, 'ab', 'abc', DATE '2016-01-01'),"
        " (2, 20, 9.90, 'abcd', 'xab', DATE '2016-02-01'),"
        " (3, 3000000000, 9.95, 'ab  ', 'ab', DATE '2016-03-01'),"
        " (4, 40, 0.05, 'cd', '', DATE '2016-04-01'),"
        " (5, 50, 2.50, 'ab', 'abab', DATE '2016-05-01'),"
        " (NULL, NULL, NULL, NULL, NULL, NULL)"
    )
    tpcds.flush_tables(session)  # sealed regions of 4 and 2 rows
    if tail:
        session.execute(
            "INSERT INTO t VALUES (6, 60, 6.25, 'ef', 'tail', DATE '2016-06-01')"
        )
    return db, session


@pytest.fixture()
def typed():
    return _typed_database()


_TYPED = []


def _typed():
    """One shared read-only copy of the typed table (hypothesis tests
    cannot take function-scoped fixtures)."""
    if not _TYPED:
        _TYPED.extend(_typed_database(tail=True))
    return _TYPED


def check_sequence(db, session, statements):
    """Run *statements* in order through the cache, each against the
    fresh-plan oracle; returns the cached answers' rows."""
    rows = []
    for sql in statements:
        cached = outcome(session.execute, sql)
        assert cached == outcome(fresh, db, session, sql), sql
        rows.append(cached[0])
    return rows


# -- one named regression per hazard ---------------------------------------------


class TestLiteralHazards:
    def test_integer_column_against_2_then_2_point_5(self, typed):
        db, session = typed
        stats = db.plan_cache.stats
        rows = check_sequence(db, session, [
            "SELECT i FROM t WHERE i = 2",
            "SELECT i FROM t WHERE i = 2.5",  # DECIMAL(2,1): another type, another plan
            "SELECT i FROM t WHERE i = 3",
        ])
        assert rows == [[(2,)], [], [(3,)]]
        assert (stats.hits, stats.misses) == (1, 2)

    def test_a_late_constant_that_stops_being_exact_replans(self, typed):
        db, session = typed
        stats = db.plan_cache.stats
        rows = check_sequence(db, session, [
            "SELECT i FROM t WHERE i <= 2.0 ORDER BY i",  # exact in INT: pushed, bound late
            "SELECT i FROM t WHERE i <= 3.0 ORDER BY i",  # same plan, another value
            "SELECT i FROM t WHERE i <= 2.5 ORDER BY i",  # not an INT: this plan does not fit
            "SELECT i FROM t WHERE i <= 4.0 ORDER BY i",
        ])
        assert rows == [[(1,), (2,)], [(1,), (2,), (3,)], [(1,), (2,)], [(1,), (2,), (3,), (4,)]]
        assert stats.bypass_reasons["literal-shape"] == 1
        assert (stats.hits, stats.misses) == (2, 1)

    def test_planning_the_inexact_constant_first_pins_it(self, typed):
        db, session = typed
        rows = check_sequence(db, session, [
            "SELECT i FROM t WHERE i < 2.5 ORDER BY i",
            "SELECT i FROM t WHERE i < 3.0 ORDER BY i",
            "SELECT i FROM t WHERE i < 2.5 ORDER BY i",
        ])
        assert rows == [[(1,), (2,)], [(1,), (2,)], [(1,), (2,)]]
        assert db.plan_cache.stats.bypass_reasons["literal-shape"] == 0
        assert db.plan_cache.stats.hits == 1  # only the repeated value

    def test_decimal_scale_change(self, typed):
        db, session = typed
        rows = check_sequence(db, session, [
            "SELECT i FROM t WHERE d < 9.9 ORDER BY i",
            "SELECT i FROM t WHERE d < 9.95 ORDER BY i",
            "SELECT i FROM t WHERE d < 9.951 ORDER BY i",  # finer than the column
            "SELECT i FROM t WHERE d < 9.950 ORDER BY i",
        ])
        assert rows == [
            [(1,), (4,), (5,)], [(1,), (2,), (4,), (5,)],
            [(1,), (2,), (3,), (4,), (5,)], [(1,), (2,), (4,), (5,)],
        ]

    def test_integer_to_bigint_magnitude(self, typed):
        db, session = typed
        rows = check_sequence(db, session, [
            "SELECT i FROM t WHERE b > 45",
            "SELECT i FROM t WHERE b > 2999999999",
            "SELECT i FROM t WHERE i < 2999999999 AND i > 4",
            "SELECT b + 1 FROM t WHERE i = 1",
            "SELECT b + 3000000000 FROM t WHERE i = 1",
        ])
        assert rows == [[(3,), (5,)], [(3,)], [(5,)], [(11,)], [(3000000010,)]]

    def test_string_length_and_char_padding(self, typed):
        db, session = typed
        rows = check_sequence(db, session, [
            "SELECT i FROM t WHERE c = 'ab' ORDER BY i",
            "SELECT i FROM t WHERE c = 'cd' ORDER BY i",
            "SELECT i FROM t WHERE c = 'ab  ' ORDER BY i",
            "SELECT i FROM t WHERE c = 'abcd' ORDER BY i",
            "SELECT i, 'x' || v FROM t WHERE v = 'ab'",
            "SELECT i, 'yz' || v FROM t WHERE v = ''",
        ])
        # (CHAR columns store padded; this engine does not pad the literal.)
        assert rows[:4] == [[], [], [(1,), (3,), (5,)], [(2,)]]
        assert rows[4:] == [[(3, "xab")], [(4, "yz")]]

    def test_a_number_against_a_string_column_is_not_a_scan_constant(self, typed):
        # ``char_col = 1`` used to push the *integer* into the scan of the
        # string column and die in numpy (TypeError) — cached or not.  It
        # compares in the number's domain, row by row, like any dialect's
        # implicit cast.
        db, session = typed
        session.execute("CREATE TABLE codes (code VARCHAR(4), n INT)")
        session.execute("INSERT INTO codes VALUES ('1', 10), ('2', 20), ('03', 30)")
        rows = check_sequence(db, session, [
            "SELECT n FROM codes WHERE code = 1",
            "SELECT n FROM codes WHERE code = 3",
            "SELECT n FROM codes WHERE code IN (1, 2) ORDER BY n",
            "SELECT n FROM codes WHERE code BETWEEN 2 AND 3 ORDER BY n",
        ])
        assert rows == [[(10,)], [(30,)], [(10,), (20,)], [(20,), (30,)]]
        tpcds.flush_tables(session)
        assert session.execute("SELECT n FROM codes WHERE code = 2").rows == [(20,)]

    def test_fetch_first_5_then_10(self, typed):
        db, session = typed
        rows = check_sequence(db, session, [
            "SELECT i FROM t ORDER BY i FETCH FIRST 2 ROWS ONLY",
            "SELECT i FROM t ORDER BY i FETCH FIRST 4 ROWS ONLY",
            "SELECT i FROM t ORDER BY i FETCH FIRST 2 ROWS ONLY",
        ])
        assert [len(r) for r in rows] == [2, 4, 2]
        assert db.plan_cache.report()["entries"] == 2  # pinned by value

    def test_order_by_1_then_2(self, typed):
        db, session = typed
        rows = check_sequence(db, session, [
            "SELECT i, -i FROM t WHERE i > 0 ORDER BY 1",
            "SELECT i, -i FROM t WHERE i > 0 ORDER BY 2",
            "SELECT i, COUNT(*) FROM t WHERE i > 3 GROUP BY 1 ORDER BY 1",
            "SELECT i, COUNT(*) FROM t WHERE i > 2 GROUP BY 1 ORDER BY 2, 1",
        ])
        assert rows[0][0] == (1, -1) and rows[1][0] == (5, -5)
        assert rows[2:] == [[(4, 1), (5, 1)], [(3, 1), (4, 1), (5, 1)]]

    def test_like_prefix_then_suffix(self, typed):
        db, session = typed
        rows = check_sequence(db, session, [
            "SELECT i FROM t WHERE v LIKE 'ab%' ORDER BY i",
            "SELECT i FROM t WHERE v LIKE '%ab' ORDER BY i",
            "SELECT i FROM t WHERE v LIKE 'ab_' ORDER BY i",
        ])
        assert rows == [[(1,), (3,), (5,)], [(2,), (3,), (5,)], [(1,)]]

    def test_in_list_values_and_arity(self, typed):
        db, session = typed
        rows = check_sequence(db, session, [
            "SELECT i FROM t WHERE i IN (1, 2) ORDER BY i",
            "SELECT i FROM t WHERE i IN (2, 3) ORDER BY i",
            "SELECT i FROM t WHERE i IN (1, 2, 3) ORDER BY i",
            "SELECT i FROM t WHERE i + 0 IN (4, 5) ORDER BY i",
            "SELECT i FROM t WHERE i + 0 IN (1, 5) ORDER BY i",
            "SELECT i FROM t WHERE i IN (1, 2.5) ORDER BY i",
        ])
        assert rows == [
            [(1,), (2,)], [(2,), (3,)], [(1,), (2,), (3,)],
            [(4,), (5,)], [(1,), (5,)], [(1,)],
        ]

    def test_date_literals_bind_late(self, typed):
        db, session = typed
        rows = check_sequence(db, session, [
            "SELECT i FROM t WHERE dt = DATE '2016-01-01'",
            "SELECT i FROM t WHERE dt = DATE '2016-03-01'",
            "SELECT i FROM t WHERE dt BETWEEN DATE '2016-02-01' AND DATE '2016-04-01' ORDER BY i",
            "SELECT i FROM t WHERE dt BETWEEN DATE '2016-04-01' AND DATE '2016-05-01' ORDER BY i",
            "SELECT i FROM t WHERE dt = DATE '2016-13-01'",  # no such month: an error both ways
        ])
        assert rows[:4] == [[(1,)], [(3,)], [(2,), (3,), (4,)], [(4,), (5,)]]
        assert rows[4] == "error"
        assert db.plan_cache.stats.hits == 2

    def test_oracle_empty_string_is_null_after_set_dialect(self, typed):
        db, session = typed
        sql = "SELECT i FROM t WHERE v = '' OR i = 1 ORDER BY i"
        assert check_sequence(db, session, [sql]) == [[(1,), (4,)]]
        session.set_dialect("oracle")
        # '' is NULL to Oracle: ``v = NULL`` matches nothing.  The db2 plan
        # must not serve this session now.
        assert check_sequence(db, session, [sql, sql]) == [[(1,)], [(1,)]]
        session.set_dialect("db2")
        assert check_sequence(db, session, [sql]) == [[(1,), (4,)]]
        assert db.plan_cache.report()["entries"] == 2

    def test_temp_table_declared_after_the_fill(self, typed):
        db, session = typed
        db.execute("CREATE TABLE u (x INT)")
        db.execute("INSERT INTO u VALUES (1), (2)")
        sql = "SELECT COUNT(*) FROM u"
        other = db.connect("db2")
        assert session.execute(sql).scalar() == other.execute(sql).scalar() == 2
        session.execute("DECLARE GLOBAL TEMPORARY TABLE u (x INT)")
        session.execute("INSERT INTO u VALUES (7), (8), (9)")
        # The declaring session now means its temp table; the other still
        # means the catalog's, through the same cached plan.
        assert session.execute(sql).scalar() == 3
        assert other.execute(sql).scalar() == 2
        assert db.plan_cache.stats.bypass_reasons["temp-table"] == 1
        session.execute("DROP TABLE u")  # the temp table goes first
        assert session.execute(sql).scalar() == 2

    def test_a_transaction_reads_its_own_writes_through_a_cached_plan(self, typed):
        db, session = typed
        sql = "SELECT COUNT(*) FROM t WHERE i > 0"
        assert session.execute(sql).scalar() == 5
        table = db.catalog.get_table("T").table
        seen = []

        def insert_then_count(database, sess, args):
            # Rows stamped by the CALL's own transaction: visible to its
            # snapshot and to nobody else's until it commits.
            database._stmt_txn().insert(table, [(6, None, None, None, None, None)] * 2)
            seen.append(sess.execute(sql).scalar())
            seen.append(database.connect().execute_script(sql)[0].scalar())  # fresh plan, same txn
            outsider = threading.Thread(
                target=lambda: seen.append(database.connect().execute(sql).scalar())
            )
            outsider.start()
            outsider.join(timeout=30)
            return sess.execute(sql)

        db.register_procedure("BUMP", insert_then_count)
        hits = db.plan_cache.stats.hits
        assert session.execute("CALL BUMP()").scalar() == 7
        assert seen == [7, 7, 5]
        assert db.plan_cache.stats.hits == hits + 3  # the outsider's too
        assert session.execute(sql).scalar() == 7

    def test_two_sessions_on_one_template_under_the_sanitizer(self):
        sanitizer.enable()
        try:
            db = Database("shared", region_rows=64)
            setup = db.connect("db2")
            setup.execute("CREATE TABLE k (a INT, b INT)")
            setup.execute(
                "INSERT INTO k VALUES "
                + ", ".join("(%d, %d)" % (i, i * i) for i in range(200))
            )
            tpcds.flush_tables(setup)
            wrong = []

            def client(offset):
                session = db.connect("db2")
                for i in range(offset, 200, 2):
                    got = session.execute(
                        "SELECT b, 'k%d' FROM k WHERE a = %d" % (i % 10, i)
                    ).rows
                    if got != [(i * i, "k%d" % (i % 10))]:
                        wrong.append((i, got))

            threads = [threading.Thread(target=client, args=(n,)) for n in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == []
            assert sanitizer.report() == []
            report = db.plan_cache.report()
            assert report["entries"] == 1 and report["hits"] >= 198
        finally:
            sanitizer.disable()


# -- invalidation is per object ---------------------------------------------------


class TestInvalidation:
    def test_ddl_on_another_table_and_dml_keep_the_plan(self, typed):
        db, session = typed
        sql = "SELECT COUNT(*) FROM t"
        assert session.execute(sql).scalar() == 6
        for n in range(3):
            session.execute("CREATE TABLE stg_%d (k INT)" % n)
            session.execute("INSERT INTO t (i) VALUES (%d)" % (100 + n))
            session.execute("DROP TABLE stg_%d" % n)
            assert session.execute(sql).scalar() == 7 + n
        stats = db.plan_cache.stats
        assert (stats.misses, stats.hits, stats.invalidations) == (1, 3, 0)

    def test_drop_and_recreate_with_another_schema(self, typed):
        db, session = typed
        sql = "SELECT * FROM t WHERE i = 1"
        assert len(session.execute(sql).columns) == 6
        session.execute("DROP TABLE t")
        with pytest.raises(ReproError):
            session.execute(sql)
        session.execute("CREATE TABLE t (i VARCHAR(3), z INT)")
        session.execute("INSERT INTO t VALUES ('1', 9), ('2', 8)")
        got = session.execute(sql)
        assert (got.columns, got.rows) == (["I", "Z"], [("1", 9)])
        assert outcome(session.execute, sql) == outcome(fresh, db, session, sql)
        assert db.plan_cache.stats.invalidations == 1

    def test_view_redefinition_and_its_recorded_dialect(self, typed):
        db, session = typed
        session.execute("CREATE VIEW w AS SELECT i, v FROM t WHERE v = ''")
        sql = "SELECT i FROM w"
        assert session.execute(sql).rows == session.execute(sql).rows == [(4,)]
        oracle = db.connect("oracle")
        oracle.execute("CREATE OR REPLACE VIEW w AS SELECT i, v FROM t WHERE v = ''")
        # Same text, now compiled the Oracle way ('' is NULL) for everyone.
        assert session.execute(sql).rows == []
        session.execute("CREATE OR REPLACE VIEW w AS SELECT i + 10 AS i, v FROM t WHERE i = 2")
        assert session.execute(sql).rows == [(12,)]
        assert db.plan_cache.stats.invalidations == 2
        assert outcome(session.execute, sql) == outcome(fresh, db, session, sql)

    def test_alias_retarget(self, typed):
        db, session = typed
        db.execute("CREATE TABLE u (i INT)")
        db.execute("INSERT INTO u VALUES (42)")
        session.execute("CREATE ALIAS a FOR t")
        sql = "SELECT MAX(i) FROM a"
        assert session.execute(sql).scalar() == session.execute(sql).scalar() == 5
        db.catalog.drop("A")
        session.execute("CREATE ALIAS a FOR u")
        assert session.execute(sql).scalar() == 42

    def test_reopen_starts_from_an_empty_cache(self):
        from repro.durability.manager import DurabilityManager
        from repro.storage.filesystem import ClusterFileSystem

        db = Database("DUR", durability=DurabilityManager(ClusterFileSystem(), path="db"))
        session = db.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        sql = "SELECT COUNT(*) FROM t"
        assert session.execute(sql).scalar() == 2
        db.reopen(clean=True)
        assert db.plan_cache.report()["entries"] == 0
        session = db.connect()
        assert session.execute(sql).scalar() == session.execute(sql).scalar() == 2


# -- what may not be cached says why ------------------------------------------------


class TestBypassReasons:
    def test_every_reason_is_named_and_counted(self, typed):
        db, session = typed
        reasons = db.plan_cache.stats.bypass_reasons
        before = dict(reasons)

        def counted():
            return {k: v - before[k] for k, v in reasons.items() if v != before[k]}

        subqueries = [
            "SELECT i FROM t WHERE i = (SELECT MIN(i) FROM t)",
            "SELECT i FROM t WHERE i IN (SELECT i FROM t WHERE i > 4)",
            "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM t WHERE i = 5)",
        ]
        for sql in subqueries * 2:
            assert outcome(session.execute, sql) == outcome(fresh, db, session, sql)
        assert counted() == {"plan-time-subquery": 6}
        assert session.execute("VALUES (1, 2)").rows == [(1, 2)]
        session.execute("SELECT RAND() FROM t")
        with pytest.raises(ReproError):
            session.execute("SELECT 'oops FROM t")
        db.execute_ast(parse_statement("SELECT COUNT(*) FROM t"))
        session.execute("DECLARE GLOBAL TEMPORARY TABLE tmp (x INT)")
        session.execute("SELECT COUNT(*) FROM tmp")
        store = make_connector("legacy", "oracle", None)
        store.create_table("r", [("c", varchar_type(4)), ("n", INTEGER)], rows=[("a", 1)])
        add_nickname(db, "remote_r", store, "r")
        for _ in range(2):
            assert session.execute("SELECT n FROM remote_r").rows == [(1,)]
        assert store.fetch_count == 2  # fetched per execution, never cached
        assert counted() == {
            "plan-time-subquery": 6, "values": 1, "volatile": 1, "lex-error": 1,
            "ast-entry": 1, "temp-table": 1, "nickname": 2, "not-a-read": 1,
        }
        assert db.plan_cache.stats.bypass == sum(reasons.values())
        assert db.plan_cache.report()["entries"] == 0

    def test_a_subquery_plan_reads_under_the_statement_snapshot(self, typed):
        db, session = typed
        snapshot = db.txn.snapshot()
        session.execute("INSERT INTO t (i) VALUES (99)")
        node = parse_statement("SELECT i FROM t WHERE i = (SELECT MAX(i) FROM t)")
        assert db.execute_ast(node, session, snapshot=snapshot).rows == [(5,)]
        assert db.execute_ast(node, session).rows == [(99,)]


# -- accounting and observability -----------------------------------------------------


class TestAccounting:
    def test_a_cached_execution_registers_its_scans_like_a_fresh_one(self, typed):
        db, session = typed
        seen = []
        for value in (2, 5, 2):
            session.execute("SELECT i FROM t WHERE i = %d" % value)
            scans = db.last_scans
            seen.append((len(scans), db.last_query_bytes(), scans[0].stats.rows_matched))
            db.last_scans = []
        assert seen[0] == seen[2]  # hit == the miss it repeats, to the byte
        assert all(n == 1 and matched == 1 for n, _bytes, matched in seen)
        assert seen[0][1][0] > 0
        session.execute("SELECT COUNT(*) FROM t a, t b WHERE a.i = b.i AND a.i > 3")
        session.execute("SELECT COUNT(*) FROM t a, t b WHERE a.i = b.i AND a.i > 1")
        assert len(db.last_scans) == 2
        assert len({id(scan) for scan in db.last_scans}) == 2

    def test_explain_says_where_the_plan_came_from(self, typed):
        db, session = typed
        sql = "SELECT i FROM t WHERE i = %d"
        first = session.execute("EXPLAIN " + sql % 1).rows[0][0]
        assert first.endswith("[plan=fresh (miss)]")
        assert session.execute(sql % 2).rows == [(2,)]  # the plan EXPLAIN stored
        assert db.plan_cache.stats.hits == 1
        lines = [r[0] for r in session.execute("EXPLAIN ANALYZE " + sql % 3).rows]
        assert lines[0].endswith("[plan=cached]")
        assert any("TableScanOp" in l and "[scanned=" in l for l in lines)
        volatile = session.execute("EXPLAIN SELECT RAND() FROM t").rows[0][0]
        assert volatile.endswith("[plan=fresh (volatile)]")
        sub = session.execute(
            "EXPLAIN SELECT i FROM t WHERE i = (SELECT MAX(i) FROM t)"
        ).rows[0][0]
        assert sub.endswith("[plan=fresh (plan-time-subquery)]")
        node = parse_statement("EXPLAIN SELECT i FROM t")
        node.text = None  # what an AST built elsewhere looks like
        assert db.execute_ast(node, session).rows[0][0].endswith("[plan=fresh (ast-entry)]")

    def test_a_cte_runs_at_run_time_once_however_often_it_is_named(self, typed):
        db, session = typed
        sql = (
            "WITH big AS (SELECT i FROM t WHERE i > %d)"
            " SELECT COUNT(*) FROM big x, big y WHERE x.i = y.i"
        )
        assert check_sequence(db, session, [sql % 1, sql % 3, sql % 1]) == [
            [(4,)], [(2,)], [(4,)],
        ]
        assert db.plan_cache.stats.hits == 2
        assert len(db.last_scans) == 1  # one scan under one CteOp, two references
        lines = [r[0] for r in session.execute("EXPLAIN ANALYZE " + sql % 2).rows]
        assert sum("CteOp BIG" in line for line in lines) == 2
        assert db.last_scans[0].stats.rows_scanned == 6  # ... and it ran once

    def test_a_full_cache_holds_exactly_its_capacity(self, typed):
        # (boundary mutant in PlanCache.store: evicting at ``>=`` keeps one
        # plan fewer than the capacity says.)
        db, session = typed
        cache = db.plan_cache
        cache.capacity = 2
        session.execute("SELECT i FROM t")
        session.execute("SELECT b FROM t")
        assert (cache.report()["entries"], cache.stats.evictions) == (2, 0)
        session.execute("SELECT d FROM t")  # the least recently used goes
        assert (cache.report()["entries"], cache.stats.evictions) == (2, 1)
        session.execute("SELECT b FROM t")
        assert cache.stats.hits == 1 and cache.report()["templates"] == 2

    def test_store_and_report_run_under_the_cache_lock(self, typed):
        # (drop-lock mutants in PlanCache.store and .report: single-threaded
        # suites never contend, so pin the discipline itself.)
        from collections import OrderedDict

        from tests.test_mutation_gaps import _RecordingLock

        db, session = typed
        cache = db.plan_cache
        recorder = _RecordingLock(cache._lock)
        held = []

        class Plans(OrderedDict):
            def __setitem__(self, key, value):
                held.append(recorder.held)
                super().__setitem__(key, value)

        cache._lock, cache._plans = recorder, Plans(cache._plans)
        session.execute("SELECT b FROM t WHERE i = 1")
        assert held == [True]
        taken = recorder.acquisitions
        assert cache.report()["entries"] == len(cache._plans)
        assert recorder.acquisitions == taken + 1

    def test_monreport_plan_cache_section(self, typed):
        db, session = typed
        for value in (1, 2, 3):
            session.execute("SELECT i FROM t WHERE i = %d" % value)
        report = db.monreport()["plan_cache"]
        assert {k: report[k] for k in (
            "entries", "templates", "hits", "misses", "evictions", "invalidations",
            "spared",
        )} == {
            "entries": 1, "templates": 1, "hits": 2, "misses": 1,
            "evictions": 0, "invalidations": 0, "spared": 0,
        }
        assert report["bypass_reasons"]["not-a-read"] == 2  # the fixture's DDL + INSERT
        assert report["bypass"] == sum(report["bypass_reasons"].values())

    def test_a_cached_plan_holds_nothing_of_an_execution(self, typed):
        db, session = typed
        sanitizer.check_shared_plan(
            db._planner(session).plan(parse_statement("SELECT i FROM t WHERE i = 1"))
        )
        session.execute("SELECT i FROM t WHERE i = 1")
        (cached,) = db.plan_cache._plans.values()
        sanitizer.check_shared_plan(cached)
        bound = cached.bind(db.txn.snapshot(), lexer.tokenize("SELECT i FROM t WHERE i = 1"))
        for leak in (bound, bound.scans[0].stats, bound.scans[0]._capture):
            cached.op.leak = leak
            with pytest.raises(sanitizer.SharedPlanError):
                sanitizer.check_shared_plan(cached)
        del cached.op.leak

    def test_a_late_literal_cannot_be_read_outside_an_execution(self, typed):
        db, session = typed
        session.execute("SELECT i + 7 FROM t")
        (cached,) = db.plan_cache._plans.values()
        with pytest.raises(ReproError, match="late-bound literal"):
            cached.run()  # unbound: the 7 has no value of its own


# -- property: cache-warm == cache-cold over the benchmark pools -------------------


def _pool_database():
    workload = CustomerWorkload(
        n_accounts=120, n_instruments=30, n_trades=900, seed=5, scale=1 / 1000
    )
    data = tpcds.generate(scale=0.03, seed=5)
    db = Database("pools")
    session = db.connect()
    for ddl in workload.base_ddl() + tpcds.DDL:
        session.execute(ddl)
    for name, rows in {**workload.base_rows(), **data.tables()}.items():
        tpcds.bulk_insert(session, name, rows)
    tpcds.flush_tables(session)
    session.execute(
        "INSERT INTO trades VALUES (10000001, 3, 4, DATE '2016-06-01', 5, 1.5000, 0.25)"
    )  # a tail next to the sealed regions
    return db, session, workload


#: The reads of the four e2e workloads (``benchmarks/e2e/workloads.py``):
#: dashboards, the customer long tail and stream, the serving lookups and
#: the cluster workload's scatter selects.
SERVE_LOOKUPS = (
    "SELECT balance FROM accounts WHERE acct_id = 17",
    "SELECT COUNT(*) FROM trades WHERE acct_id = 17",
    "SELECT qty, market_value FROM positions WHERE acct_id = 17",
)
CLUSTER_SCATTER = (
    "SELECT ss_sold_date_sk, ss_item_sk, ss_customer_sk, ss_sales_price"
    " FROM store_sales WHERE ss_sales_price > 96"
    " ORDER BY 4 DESC, 1, 2, 3 FETCH FIRST 10 ROWS ONLY",
    "SELECT ss_customer_sk, ss_quantity, ss_net_profit FROM store_sales"
    " WHERE ss_sold_date_sk = 700 AND ss_quantity >= 10 ORDER BY 1, 2, 3",
    "SELECT DISTINCT ss_store_sk FROM store_sales"
    " WHERE ss_sold_date_sk >= 670 ORDER BY 1",
    "SELECT ss_item_sk, ss_quantity, ss_net_profit FROM store_sales"
    " WHERE ss_net_profit > 44 AND ss_sold_date_sk >= 500"
    " ORDER BY 3 DESC, 1, 2 FETCH FIRST 20 ROWS ONLY",
)


def benchmark_pool(workload) -> list[str]:
    reads = [sql for _name, sql in TPCDS_QUERIES + BDINSIGHT_QUERIES]
    reads += workload.long_tail_pool(35) + workload.short_selects()
    reads += workload.heavy_selects()
    reads += [s.sql for s in workload.statements() if s.kind in ("SELECT", "WITH")]
    reads += SERVE_LOOKUPS + CLUSTER_SCATTER
    return list(dict.fromkeys(reads))


def _spelling(token) -> str:
    if token.kind == lexer.NUMBER:
        return token.value
    return "'%s'" % token.value.replace("'", "''")


@st.composite
def perturbed(draw, sql: str):
    """*sql* with some literals respelt: same type (another value), another
    type (a fraction, a float, a wider integer, a longer string), or — for
    the strings that are dates — another date."""
    tokens = lexer.tokenize(sql)
    out, position = [], 0
    for token in tokens[:-1]:
        if token.kind not in (lexer.NUMBER, lexer.STRING):
            continue
        old = _spelling(token)
        out.append(sql[position:token.offset])
        position = token.offset + len(old)
        how = draw(st.sampled_from(["keep", "keep", "value", "value", "type"]))
        digit = draw(st.integers(0, 9))
        if how == "keep":
            new = old
        elif token.kind == lexer.NUMBER:
            if how == "type":
                new = draw(st.sampled_from(
                    [old + ".5", old + "e0", old + "0000000000", "0" + old, old + ".00"]
                ))
            elif old.isdigit():
                new = str(int(old) + digit)
            else:
                new = old[:-1] + str(digit)
        elif re.fullmatch(r"\d{4}-\d{2}-\d{2}", token.value):
            new = "'%s-%02d-%02d'" % (token.value[:4], 1 + digit, 1 + 2 * digit)
        elif how == "type" or not token.value:
            new = "'%s%d'" % (token.value.replace("'", "''"), digit)
        else:
            new = "'%s%s'" % (token.value[:-1].replace("'", "''"), "abx%_"[digit % 5])
        out.append(new)
    out.append(sql[position:])
    return "".join(out)


#: One statement shape each, with ``{}`` where a literal goes: every place
#: a literal can sit (pushed and residual predicates, arithmetic, function
#: arguments, CASE arms, select list, grouped and ungrouped, row limits).
LITERAL_TEMPLATES = (
    "SELECT i FROM t WHERE {col} = {} ORDER BY i",
    "SELECT i FROM t WHERE {col} < {} ORDER BY i",
    "SELECT i FROM t WHERE {col} >= {} AND i <> {} ORDER BY i",
    "SELECT i FROM t WHERE {col} BETWEEN {} AND {} ORDER BY i",
    "SELECT i FROM t WHERE {col} NOT BETWEEN {} AND {} ORDER BY i",
    "SELECT i FROM t WHERE {col} IN ({}, {}) ORDER BY i",
    "SELECT i FROM t WHERE {col} + 0 IN ({}, {}, {}) ORDER BY i",
    "SELECT i FROM t WHERE {col} = {} OR {col} = {} ORDER BY i",
    "SELECT i FROM t WHERE NOT ({col} > {}) ORDER BY i",
    "SELECT i, {} FROM t WHERE i + {} > {col} ORDER BY i",
    "SELECT i * {}, {col} FROM t WHERE {col} IS NOT NULL ORDER BY 1",
    "SELECT CASE WHEN {col} > {} THEN {} ELSE {} END FROM t ORDER BY i",
    "SELECT COALESCE({col}, {}) FROM t ORDER BY i",
    "SELECT NULLIF({col}, {}) FROM t ORDER BY i",
    "SELECT COUNT(*), MAX({col}) FROM t WHERE {col} <= {}",
    "SELECT {col}, COUNT(*) FROM t WHERE i > {} GROUP BY {col} HAVING COUNT(*) >= {} ORDER BY 1",
    "SELECT SUM(CASE WHEN {col} = {} THEN 1 ELSE 0 END) FROM t WHERE i < {}",
    "SELECT i FROM t WHERE v LIKE {} ORDER BY i",
    "SELECT SUBSTR(v, {}, {}) FROM t WHERE v <> {} ORDER BY i",
    "SELECT v || {} FROM t WHERE LENGTH(v) > {} ORDER BY i",
    "SELECT i FROM t WHERE i > {} ORDER BY i FETCH FIRST {} ROWS ONLY",
    "SELECT i, b FROM t WHERE i > {} ORDER BY {}",
    "SELECT a.i FROM t a, t b WHERE a.i = b.i AND b.{col} > {} ORDER BY 1",
    "SELECT a.i FROM t a LEFT JOIN t b ON a.i = b.i AND b.{col} = {} WHERE a.i < {} ORDER BY 1",
    "WITH w AS (SELECT i, {col} AS x FROM t WHERE i > {}) SELECT COUNT(*) FROM w WHERE x < {}",
    "SELECT i FROM t WHERE {col} = {} UNION SELECT i FROM t WHERE i = {} ORDER BY 1",
)
COLUMNS = ("i", "b", "d", "c", "v", "dt")
LITERALS = (
    "0", "1", "2", "3", "5", "7", "2147483647", "2147483648", "3000000000",
    "1.5", "2.0", "2.5", "2.50", "9.9", "9.95", "9.950", "9.951", "0.05", "1.005",
    "1e0", "2.5e0", "-1", "-2.5",
    "'ab'", "'ab  '", "'abcd'", "''", "'x'", "'2'", "'2.5'", "'ab%'", "'%ab'", "'a_'",
    "'2016-02-01'", "DATE '2016-02-01'", "DATE '2016-04-01'", "NULL",
)


@st.composite
def literal_sequences(draw):
    """One template, a column, and several fillings of its literals."""
    template = draw(st.sampled_from(LITERAL_TEMPLATES))
    template = template.replace("{col}", draw(st.sampled_from(COLUMNS)))
    count = template.count("{}")
    fillings = draw(st.lists(
        st.lists(st.sampled_from(LITERALS), min_size=count, max_size=count),
        min_size=2, max_size=5,
    ))
    return [template.format(*filling) for filling in fillings]


_POOLS = {}


def pools():
    if not _POOLS:
        db, session, workload = _pool_database()
        _POOLS.update(db=db, session=session, reads=benchmark_pool(workload))
    return _POOLS["db"], _POOLS["session"], _POOLS["reads"]


class TestWarmEqualsCold:
    @settings(max_examples=150, deadline=None)
    @given(statements=literal_sequences(), dialect=st.sampled_from(["db2", "oracle", "netezza"]))
    def test_literal_matrix_on_one_template(self, statements, dialect):
        """Literals of every type against columns of every type, several
        fillings of one template in a row through one warm cache: each
        answer (or error) equals the fresh plan's."""
        db, session = _typed()
        session.set_dialect(dialect)
        db.plan_cache.clear()
        for sql in statements + statements[:1]:
            assert outcome(session.execute, sql) == outcome(fresh, db, session, sql), sql

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_perturbed_pool_statements(self, data):
        """For a statement of the pools: run it, then perturbed spellings of
        it, through one warm cache; every answer (rows, dtypes, names — or
        error) equals what the same text gives on an empty cache."""
        db, session, reads = pools()
        sql = data.draw(st.sampled_from(reads))
        variants = [sql] + [data.draw(perturbed(sql)) for _ in range(3)]
        db.plan_cache.clear()
        warm = [outcome(session.execute, text) for text in variants + variants]
        for text, got in zip(variants + variants, warm):
            db.plan_cache.clear()
            assert got == outcome(session.execute, text), text

    def test_every_pool_statement_warm_equals_fresh(self):
        """The deterministic slice: every statement of the pools, twice
        through the cache, against the fresh-plan oracle."""
        db, session, reads = pools()
        db.plan_cache.clear()
        for sql in reads + reads:
            assert outcome(session.execute, sql) == outcome(fresh, db, session, sql), sql
        report = db.plan_cache.report()
        assert report["hits"] >= len(reads)
        assert not any(
            count for reason, count in report["bypass_reasons"].items()
            if reason != "not-a-read"
        )
