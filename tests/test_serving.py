"""Serving-layer tests: normalization, caches, admission, arrivals, sizer.

Covers the serving subsystem's correctness contracts: cache keys never
merge distinct statements, cached answers are byte-identical to uncached
execution and die on invalidating commits, admission control sheds
deterministically with SQLSTATE 57014, the open-loop generator is a pure
function of its seed, and the WLM Job sentinel regression stays fixed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.hardware import HardwareSpec
from repro.cluster.wlm import Job, WorkloadManager
from repro.database import Database
from repro.database.plancache import PLAN_BYPASS_REASONS
from repro.monitor.metrics import CacheStats
from repro.errors import AdmissionError, SQLSyntaxError, UnknownObjectError
from repro.serving import (
    SHED_SQLSTATE,
    AdmissionSimulator,
    ResultCache,
    ServiceClass,
    ServingGateway,
    ServingPoolProfile,
    cache_service_profile,
    normalize,
    open_loop_arrivals,
    parameterize,
    recommend,
    run_open_loop,
    statement_key,
    stream_orders,
)
from repro.serving.sizer import erlang_c
from repro.sql.parser import parse_statement
from repro.util.rng import derive_rng
from repro.workloads.streams import PoolMeasurement, run_multistream

# -- SQL normalization ---------------------------------------------------------


class TestNormalize:
    def test_whitespace_case_and_comments_fold(self):
        a = normalize("select  Balance\nFROM accounts WHERE acct_id = 5 -- x")
        b = normalize("SELECT balance FROM ACCOUNTS /* c */ WHERE ACCT_ID=5")
        assert a == b == "SELECT BALANCE FROM ACCOUNTS WHERE ACCT_ID = 5"

    def test_distinct_literals_never_merge(self):
        base = "SELECT a FROM t WHERE x = %s"
        assert normalize(base % "5") != normalize(base % "6")
        assert normalize(base % "5") != normalize(base % "5.0")
        assert normalize("SELECT a FROM t WHERE c = 'x'") != normalize(
            "SELECT a FROM t WHERE c = 'X'"
        )

    def test_distinct_predicates_never_merge(self):
        assert normalize("SELECT a FROM t WHERE x > 5") != normalize(
            "SELECT a FROM t WHERE x >= 5"
        )
        assert normalize("SELECT a FROM t") != normalize(
            "SELECT a FROM t2"
        )

    def test_quoted_identifiers_stay_case_significant(self):
        assert normalize('SELECT "x" FROM t') != normalize('SELECT "X" FROM t')
        assert normalize('SELECT "X" FROM t') != normalize("SELECT X FROM t")

    def test_string_escapes_roundtrip(self):
        assert normalize("SELECT 'it''s' FROM t") == "SELECT 'it''s' FROM T"

    def test_escaped_quotes_keep_distinct_statements_distinct(self):
        # 'it''s' is ONE string containing a quote — the lexer must not
        # resynchronize mid-literal and fold the tail of one statement
        # into another's normal form.
        assert normalize("SELECT 'it''s' FROM t") != normalize(
            "SELECT 'it' FROM t"
        )
        assert normalize("SELECT 'it''s' FROM t") != normalize(
            "SELECT 'its' FROM t"
        )
        # An escaped quote adjoining the closing quote.
        assert normalize("SELECT 'x''' FROM t") != normalize(
            "SELECT 'x' FROM t"
        )
        key_a = statement_key("SELECT 'a''--' FROM t")
        key_b = statement_key("SELECT 'a' FROM t")
        assert key_a.bypass is None and key_b.bypass is None
        assert key_a != key_b
        # Parameterization extracts the *unescaped* value, still one
        # parameter per literal.
        _, params = parameterize("SELECT 'it''s' FROM t")
        assert params == ("it's",)

    def test_quoted_identifiers_containing_keywords_never_merge(self):
        # "FROM" as a quoted identifier is data, not syntax: folding it
        # with the keyword would merge structurally different statements.
        assert normalize('SELECT "FROM" FROM t') != normalize(
            "SELECT FROM FROM t"
        )
        assert normalize('SELECT "SELECT" FROM t') != normalize(
            'SELECT "select" FROM t'
        )
        key_a = statement_key('SELECT "WHERE" FROM t')
        key_b = statement_key('SELECT "where" FROM t')
        assert key_a.bypass is None and key_b.bypass is None
        assert key_a != key_b

    def test_unterminated_block_comment_gets_no_cache_key(self):
        # An unterminated /* swallows the rest of the text; two distinct
        # statements would normalize identically if the lexer guessed.
        # They must be uncacheable instead of sharing a key.
        assert statement_key("SELECT a FROM t /* oops").bypass == "lex-error"
        assert statement_key("SELECT b FROM t /* oops").bypass == "lex-error"
        with pytest.raises(SQLSyntaxError):
            normalize("SELECT a FROM t /* oops")
        # Same for an unterminated string literal.
        assert statement_key("SELECT 'abc FROM t").bypass == "lex-error"

    def test_parameterize_extracts_literals_in_order(self):
        template, params = parameterize(
            "SELECT a FROM t WHERE x = 5 AND c = 'abc' AND y < 2.5"
        )
        assert template == "SELECT A FROM T WHERE X = ? AND C = ? AND Y < ?"
        assert params == ("5", "abc", "2.5")

    def test_statement_key_accepts_only_pure_reads(self):
        for sql in (
            "SELECT 1 FROM t",
            "WITH x AS (SELECT 1 FROM t) SELECT * FROM x",
            "VALUES (1, 2)",
        ):
            assert statement_key(sql).bypass is None, sql
        for sql in (
            "INSERT INTO t VALUES (1)",
            "UPDATE t SET a = 1",
            "DELETE FROM t",
            "DROP TABLE t",
            "CALL p(1)",
            "",
            "   ",
            "???",
        ):
            assert statement_key(sql).bypass == "not-a-read", sql

    def test_statement_key_rejects_volatile_expressions(self):
        for sql in (
            "SELECT RAND() FROM t",
            "SELECT seq.NEXTVAL FROM dual",
            "SELECT CURRENT DATE FROM t",
            "SELECT CURRENT_TIMESTAMP FROM t",
            "SELECT NEXT VALUE FOR s FROM t",
            "SELECT NOW() FROM t",  # folded to a constant while planning:
            "SELECT a FROM t WHERE d < TODAY",  # a cached plan would freeze it
        ):
            assert statement_key(sql).bypass == "volatile", sql

    def test_key_is_shared_across_formatting_variants(self):
        k1 = statement_key("select a from t where x=5")
        k2 = statement_key("SELECT  a\nFROM t WHERE x = 5")
        assert k1 == k2
        assert k1.template == "SELECT A FROM T WHERE X = ?"


# -- engine version clock ------------------------------------------------------


class TestVersionClock:
    def test_commits_bump_touched_table_versions(self):
        db = Database("vc")
        db.execute("CREATE TABLE t (a INT)")
        token = db.versions_token(["T"])
        assert db.versions_valid(token)
        db.execute("INSERT INTO t VALUES (1)")
        assert not db.versions_valid(token)
        assert db.versions_valid(db.versions_token(["T"]))

    def test_unrelated_commits_leave_token_valid(self):
        db = Database("vc2")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE u (a INT)")
        token = db.versions_token(["T"])
        db.execute("INSERT INTO u VALUES (1)")
        assert db.versions_valid(token)

    def test_failed_statement_does_not_bump(self):
        db = Database("vc3")
        db.execute("CREATE TABLE t (a INT NOT NULL)")
        token = db.versions_token(["T"])
        with pytest.raises(Exception):
            db.execute("INSERT INTO t VALUES (NULL)")
        assert db.versions_valid(token)

    def test_commit_listener_receives_touched_tables(self):
        db = Database("vc4")
        seen = []
        db.add_commit_listener(seen.append)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert frozenset({"T"}) in seen
        db.remove_commit_listener(seen.append)
        db.execute("INSERT INTO t VALUES (2)")
        assert len([s for s in seen if s == frozenset({"T"})]) == 2

    def test_snapshot_horizon_is_stable_between_commits(self):
        db = Database("vc5")
        db.execute("CREATE TABLE t (a INT)")
        h1 = db.txn.snapshot().horizon
        h2 = db.txn.snapshot().horizon
        assert h1 == h2
        db.execute("INSERT INTO t VALUES (1)")
        assert db.txn.snapshot().horizon != h1


# -- result cache --------------------------------------------------------------


@pytest.fixture()
def served():
    db = Database("served")
    db.execute("CREATE TABLE t (a INT, b INT)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
    gateway = ServingGateway(db)
    yield db, gateway
    gateway.close()


class TestResultCache:
    def test_hit_returns_byte_identical_rows(self, served):
        db, gw = served
        sql = "SELECT a, b FROM t ORDER BY a"
        first = gw.execute(sql)
        second = gw.execute("select A, B from T order by A")
        assert second.rows == first.rows
        assert second.columns == first.columns
        assert gw.result_cache.stats.hits == 1
        assert gw.result_cache.stats.misses == 1

    def test_hit_result_is_a_fresh_wrapper(self, served):
        db, gw = served
        sql = "SELECT a FROM t ORDER BY a"
        first = gw.execute(sql)
        first.rows.append(("poison",))
        second = gw.execute(sql)
        assert ("poison",) not in second.rows
        second.rows.append(("poison",))  # a hit's rows are its caller's too
        third = gw.execute(sql)
        assert third.rows == [(1,), (2,), (3,)] and third.rows is not second.rows
        assert (third.columns, third.dtypes, third.rowcount, third.message) == (
            ["A"], first.dtypes, 3, ""
        )
        assert third.tables == frozenset({"T"}) and gw.result_cache.stats.hits == 2

    def test_a_commit_racing_the_fill_publishes_nothing(self, served):
        """The clock is read before the snapshot is pinned: a commit that
        lands while a miss executes leaves its entry born stale, and a
        stale entry is never stored.  (boolean@src/repro/serving/cache.py
        :177:15 survived: ``and`` -> ``or`` stored it anyway.)"""
        db, gw = served
        run = db.execute

        def racing(sql, *args, **kwargs):
            result = run(sql, *args, **kwargs)
            if sql.startswith("SELECT"):
                run("INSERT INTO t VALUES (8, 80)")  # commits mid-fill
            return result

        cache, sql = gw.result_cache, "SELECT COUNT(*) FROM t"
        db.execute = racing
        assert cache.fetch(sql).result.scalar() == 3
        del db.execute
        assert (cache.stats.misses, cache.stats.stores, cache.report()["entries"]) == (1, 0, 0)
        assert cache.fetch(sql).result.scalar() == 4
        assert (cache.stats.misses, cache.stats.stores, cache.stats.stale_drops) == (2, 1, 0)

    def test_commit_to_read_table_invalidates(self, served):
        db, gw = served
        sql = "SELECT COUNT(*) FROM t"
        assert gw.execute(sql).scalar() == 3
        db.execute("INSERT INTO t VALUES (4, 40)")
        assert gw.execute(sql).scalar() == 4
        assert gw.result_cache.stats.invalidations >= 1

    def test_dropping_one_entry_keeps_its_table_tracking_the_rest(self):
        # boolean@cache.py:94 survived (`if not not keys: del by_table[t]`):
        # evicting one of two entries that read T forgot the other, so the
        # next commit to T left it to be found stale at fetch time.
        db = Database("tracked")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE u (x INT)")
        gateway = ServingGateway(db, result_capacity=2)
        try:
            cache = gateway.result_cache
            gateway.execute("SELECT COUNT(*) FROM t")
            gateway.execute("SELECT MAX(a) FROM t")
            gateway.execute("SELECT COUNT(*) FROM u")  # evicts the oldest T entry
            assert cache.stats.evictions == 1
            assert {t: len(keys) for t, keys in cache._by_table.items()} == {"T": 1, "U": 1}
            db.execute("INSERT INTO t VALUES (1)")
            assert cache.stats.invalidations == 1 and cache.report()["entries"] == 1
            assert set(cache._by_table) == {"U"}  # an emptied table is forgotten
        finally:
            gateway.close()

    def test_commit_to_other_table_keeps_entry(self, served):
        db, gw = served
        db.execute("CREATE TABLE u (x INT)")
        sql = "SELECT COUNT(*) FROM t"
        gw.execute(sql)
        db.execute("INSERT INTO u VALUES (1)")
        gw.execute(sql)
        assert gw.result_cache.stats.hits == 1

    def test_view_reads_track_base_table(self, served):
        db, gw = served
        db.execute("CREATE VIEW v AS SELECT a, b FROM t WHERE b > 10")
        sql = "SELECT COUNT(*) FROM v"
        assert gw.execute(sql).scalar() == 2
        gw.execute(sql)
        assert gw.result_cache.stats.hits == 1
        db.execute("INSERT INTO t VALUES (5, 50)")
        assert gw.execute(sql).scalar() == 3

    def test_update_and_delete_invalidate(self, served):
        db, gw = served
        sql = "SELECT SUM(b) FROM t"
        assert gw.execute(sql).scalar() == 60
        db.execute("UPDATE t SET b = b + 1 WHERE a = 1")
        assert gw.execute(sql).scalar() == 61
        db.execute("DELETE FROM t WHERE a = 2")
        assert gw.execute(sql).scalar() == 41

    def test_writes_bypass_the_cache(self, served):
        db, gw = served
        result = gw.execute("INSERT INTO t VALUES (9, 90)")
        assert result.rowcount == 1
        assert gw.result_cache.stats.bypass >= 1
        assert gw.execute("SELECT COUNT(*) FROM t").scalar() == 4

    def test_volatile_queries_bypass(self, served):
        db, gw = served
        gw.execute("SELECT RAND() FROM t")
        gw.execute("SELECT RAND() FROM t")
        assert gw.result_cache.stats.hits == 0

    def test_temp_table_reads_are_uncacheable(self, served):
        db, gw = served
        session = db.connect("db2")
        session.execute("DECLARE GLOBAL TEMPORARY TABLE tmp (x INT)")
        sql = "SELECT COUNT(*) FROM tmp"
        first = gw.execute(sql, session=session)
        assert first.tables is None  # session-local data: not tracked
        session.execute("INSERT INTO tmp VALUES (1)")  # no commit hook sees this
        assert gw.execute(sql, session=session).scalar() == 1
        assert gw.result_cache.stats.stores == 0
        assert db.plan_cache.stats.bypass_reasons["temp-table"] == 2
        # The temp table has no schema-qualified name to be cached under.
        with pytest.raises(UnknownObjectError):
            gw.execute("SELECT COUNT(*) FROM session.tmp", session=session)

    def test_dependencies_resolve_through_views(self, served):
        db, gw = served
        db.execute("CREATE VIEW v2 AS SELECT a FROM t")
        assert gw.execute("SELECT * FROM v2").tables == frozenset({"T"})
        db.execute("CREATE TABLE u (a INT)")
        joined = gw.execute("SELECT COUNT(*) FROM v2, u WHERE v2.a = u.a")
        assert joined.tables == frozenset({"T", "U"})
        # ... and the plan cache hands the same set back on a hit.
        gw.result_cache.clear()
        assert gw.execute("SELECT * FROM v2").tables == frozenset({"T"})
        assert db.plan_cache.stats.hits == 1

    def test_unknown_table_is_uncacheable(self, served):
        db, gw = served
        for _ in range(2):
            with pytest.raises(UnknownObjectError):
                gw.execute("SELECT * FROM nope")
        assert gw.result_cache.stats.stores == 0
        assert db.plan_cache.report()["entries"] == 0

    def test_cte_shadowing_catalog_name_resolves_by_scope(self, served):
        """The planner's own scoping decides what a name means, so a CTE
        named like a catalog table is tracked exactly, not given up on: the
        body reads the table, the outer reference reads the CTE."""
        db, gw = served
        sql = "WITH t AS (SELECT a + 100 AS a FROM t) SELECT MAX(a) FROM t"
        first = gw.execute(sql)
        assert first.scalar() == 103 and first.tables == frozenset({"T"})
        assert gw.execute(sql).scalar() == 103
        assert gw.result_cache.stats.hits == 1
        db.execute("INSERT INTO t VALUES (4, 40)")
        assert gw.execute(sql).scalar() == 104

    def test_drop_table_invalidates(self, served):
        db, gw = served
        db.execute("CREATE TABLE g (x INT)")
        db.execute("INSERT INTO g VALUES (1)")
        sql = "SELECT COUNT(*) FROM g"
        assert gw.execute(sql).scalar() == 1
        db.execute("DROP TABLE g")
        db.execute("CREATE TABLE g (x INT)")
        assert gw.execute(sql).scalar() == 0

    def test_capacity_eviction_is_lru(self):
        db = Database("lru")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        cache = ResultCache(db, capacity=2)
        for i in range(3):
            cache.fetch("SELECT a FROM t WHERE a < %d" % (10 + i))
        assert cache.stats.evictions == 1
        # Oldest entry evicted; newest two still hit.
        assert cache.fetch("SELECT a FROM t WHERE a < 12").hit
        assert not cache.fetch("SELECT a FROM t WHERE a < 10").hit


@pytest.fixture()
def accounts():
    """A gateway over 40 accounts (every 4th branch NULL) plus ``other``."""
    db = Database("accounts", region_rows=16)
    db.execute("CREATE TABLE acct (id INT, bal INT, branch VARCHAR(2))")
    db.execute("CREATE TABLE other (x INT)")
    db.execute("INSERT INTO acct VALUES " + ", ".join(
        "(%d, %d, %s)" % (i, 10 * i, "NULL" if i % 4 == 0 else "'b%d'" % (i % 2))
        for i in range(40)
    ))
    gateway = ServingGateway(db)
    yield db, gateway
    gateway.close()


def _lookup(acct_id):
    return "SELECT bal FROM acct WHERE id = %d" % acct_id


class TestInvalidationByDelta:
    def test_a_point_write_spares_the_other_lookups(self, accounts):
        db, gw = accounts
        cache = gw.result_cache
        for i in range(5):
            gw.execute(_lookup(i))
        db.execute("UPDATE acct SET bal = bal + 1 WHERE id = 2")
        assert [cache.fetch(_lookup(i)).hit for i in range(5)] == [True, True, False, True, True]
        assert (cache.stats.invalidations, cache.stats.spared) == (1, 4)
        assert gw.execute(_lookup(2)).scalar() == 21
        for report in (cache.report(), db.monreport()["serving"]["result_cache"]):
            assert (report["invalidations"], report["spared"]) == (1, 4)

    def test_a_spared_entry_is_current_without_being_restamped(self, accounts):
        db, gw = accounts
        cache = gw.result_cache
        gw.execute(_lookup(1))
        (entry,) = cache._entries.values()
        stamped = entry.token
        db.execute("UPDATE acct SET bal = 0 WHERE id = 3")
        assert entry.token is stamped  # the commit touched no entry ...
        assert not db.versions_valid(stamped)
        assert cache._checked["ACCT"] == db.versions_token(["ACCT"])[1]["ACCT"]
        assert cache.fetch(_lookup(1)).hit  # ... the table is checked through it
        assert db.versions_valid(entry.token)  # and the hit brought it up to date
        assert cache.stats.stale_drops == 0

    def test_a_missed_commit_drops_every_entry_on_the_table(self, accounts):
        db, gw = accounts
        cache = gw.result_cache
        gw.execute(_lookup(1))
        gw.execute(_lookup(2))
        db.remove_commit_listener(cache.on_commit)
        db.execute("UPDATE acct SET bal = 0 WHERE id = 1")  # unseen by the cache
        db.add_commit_listener(cache.on_commit)
        db.execute("UPDATE acct SET bal = 0 WHERE id = 9")  # would spare both
        assert cache.stats.invalidations == 2 and cache.stats.spared == 0
        assert gw.execute(_lookup(1)).scalar() == 0

    def test_an_unseen_commit_never_validates_an_entry(self, accounts):
        db, gw = accounts
        cache = gw.result_cache
        gw.execute(_lookup(1))
        db.remove_commit_listener(cache.on_commit)
        db.execute("UPDATE acct SET bal = 0 WHERE id = 1")
        fetched = cache.fetch(_lookup(1))
        assert not fetched.hit and fetched.result.scalar() == 0
        assert cache.stats.stale_drops == 1

    def test_an_unknown_delta_drops_every_entry_on_the_table(self, accounts):
        db, gw = accounts
        cache = gw.result_cache
        gw.execute(_lookup(1))
        gw.execute("SELECT COUNT(*) FROM other")
        db.execute("TRUNCATE TABLE acct")
        assert cache.stats.invalidations == 1 and cache.report()["entries"] == 1
        gw.execute(_lookup(1))
        db.execute("BEGIN INSERT INTO other VALUES (1); END")
        assert cache.report()["entries"] == 0  # a block: anything may have changed

    def test_the_hook_checks_only_the_entries_a_delta_can_reach(self, accounts, monkeypatch):
        db, gw = accounts
        for i in range(30):
            gw.execute(_lookup(i))
        unindexed = [
            "SELECT COUNT(*) FROM acct WHERE bal > 100",
            "SELECT COUNT(*) FROM acct WHERE id = 1 OR id = 2",
        ]
        for sql in unindexed:
            gw.execute(sql)
        cache = gw.result_cache
        checked = []
        candidates = cache._candidates
        monkeypatch.setattr(
            cache, "_candidates",
            lambda table, delta: checked.append(candidates(table, delta)) or checked[-1],
        )
        db.execute("UPDATE acct SET branch = 'b7' WHERE id = 5")
        # Lookup 5 (filed under id = 5) and the two unindexed entries.
        (found,) = checked
        assert {text for _, text in found} == {
            statement_key(sql).text for sql in (_lookup(5), *unindexed)
        }
        # Lookup 5 and the OR (no pushed conjunct: TRUE) go; bal 50 fails bal > 100.
        assert gw.result_cache.stats.invalidations == 2
        assert not gw.result_cache.fetch(_lookup(5)).hit

    def test_an_update_matching_nothing_spares_everything(self, accounts):
        db, gw = accounts
        gw.execute("SELECT COUNT(*) FROM acct")  # no pushed predicate: TRUE
        db.execute("UPDATE acct SET bal = 0 WHERE id = 999")
        assert gw.result_cache.fetch("SELECT COUNT(*) FROM acct").hit

    def test_listeners_see_versions_and_physical_deltas(self, accounts):
        from repro.database.database import TouchedTables

        db, _ = accounts
        seen = []
        db.add_commit_listener(seen.append)
        db.execute("UPDATE acct SET bal = 7, branch = NULL WHERE id = 3")
        (touched,) = seen
        assert isinstance(touched, TouchedTables) and touched == frozenset({"ACCT"})
        assert touched.versions == {"ACCT": db.versions_token(["ACCT"])[1]["ACCT"]}
        delta = touched.deltas["ACCT"]
        assert delta.n == 2 and delta.column("NOPE") is None
        assert delta.column("ID").values.tolist() == [3, 3]
        assert delta.column("BAL").values.tolist() == [30, 7]
        assert delta.column("BRANCH").null_mask().tolist() == [False, True]
        db.execute("DELETE FROM acct WHERE id = 3")
        db.execute("INSERT INTO acct VALUES (99, 1, 'b1')")
        assert [t.deltas["ACCT"].column("ID").values.tolist() for t in seen[1:]] == [[3], [99]]
        db.execute("CREATE TABLE t2 (a INT)")
        assert seen[-1].deltas == {}  # DDL: no rows known

    def test_no_delta_is_built_without_a_listener(self, monkeypatch):
        from repro.database import database as database_module

        def refuse(*args, **kwargs):
            raise AssertionError("a delta was built with no listener attached")

        monkeypatch.setattr(database_module, "TableDelta", refuse)
        db = Database("quiet")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("UPDATE t SET a = 3 WHERE a = 1")
        db.execute("DELETE FROM t WHERE a = 2")
        assert db.execute("SELECT a FROM t").rows == [(3,)]

    def test_dropping_one_column_of_the_index_keeps_the_others(self, accounts):
        # (boolean mutant in ResultCache._drop: forgetting a table's whole
        # index once one of its columns emptied left the entries filed under
        # its other columns out of every later candidate set — spared.)
        db, gw = accounts
        cache = gw.result_cache
        by_branch = "SELECT COUNT(*) FROM acct WHERE branch = 'b1'"
        gw.execute(_lookup(2))
        gw.execute(by_branch)
        db.execute("UPDATE acct SET bal = 0 WHERE id = 2")  # drops the id = 2 entry
        assert set(cache._by_value["ACCT"]) == {"BRANCH"}
        db.execute("UPDATE acct SET bal = 0 WHERE id = 3")  # id 3 is in branch b1
        fetched = cache.fetch(by_branch)
        assert not fetched.hit and fetched.result.scalar() == 20

    def test_a_table_no_commit_has_stamped_is_cached(self, accounts):
        # (constant mutant in ResultCache._produce: a table absent from the
        # clock must read as version 0, or its entries are born stale.)
        from repro.storage.table import TableSchema
        from repro.types.datatypes import INTEGER

        db, gw = accounts
        db.catalog.create_table(TableSchema("QUIET", (("A", INTEGER),)))
        assert "QUIET" not in db.versions_token(None)[1]
        gw.execute("SELECT COUNT(*) FROM quiet")
        assert gw.result_cache.fetch("SELECT COUNT(*) FROM quiet").hit

    def test_fill_hook_and_clear_touch_the_entries_under_the_cache_lock(self, accounts):
        # (drop-lock mutants in fetch, _produce, on_commit and clear: a
        # single-threaded suite never contends, so pin the discipline.)
        from collections import OrderedDict

        from tests.test_mutation_gaps import _RecordingLock

        db, gw = accounts
        cache = gw.result_cache
        recorder = _RecordingLock(cache._lock)
        held = []

        class Entries(OrderedDict):
            def get(self, key, default=None):
                held.append(("get", recorder.held))
                return super().get(key, default)

            def __setitem__(self, key, value):
                held.append(("set", recorder.held))
                super().__setitem__(key, value)

            def pop(self, key, *default):
                held.append(("pop", recorder.held))
                return super().pop(key, *default)

            def clear(self):
                held.append(("clear", recorder.held))
                super().clear()

            def __len__(self):
                held.append(("len", recorder.held))
                return super().__len__()

        cache._lock, cache._entries = recorder, Entries()
        gw.execute(_lookup(1))  # miss: looked up, then stored
        db.execute("UPDATE acct SET bal = 0 WHERE id = 1")  # the hook drops it
        db.execute("BEGIN INSERT INTO other VALUES (1); END")  # ... drops all
        cache.report()
        cache.clear()
        assert {what for what, _ in held} == {"get", "set", "pop", "len", "clear"}
        assert all(was_held for _, was_held in held), held

    def test_clear_forgets_the_index(self, accounts):
        db, gw = accounts
        cache = gw.result_cache
        gw.execute(_lookup(1))
        gw.execute("SELECT COUNT(*) FROM acct WHERE bal > 5")
        assert cache._by_value and cache._unindexed and cache._checked
        cache.clear()
        assert not (cache._by_value or cache._unindexed or cache._checked or cache._by_table)
        gw.execute(_lookup(1))
        db.execute("UPDATE acct SET bal = 0 WHERE id = 2")
        assert cache.fetch(_lookup(1)).hit


class TestPlanCache:
    def test_statement_ast_reused_across_invalidation(self, served):
        """(Named for the AST cache this one replaced: what is reused across
        the invalidation now is the statement's whole plan.)"""
        db, gw = served
        sql = "SELECT a FROM t WHERE b = 20"
        gw.execute(sql)
        # A write invalidates the cached *result* but not the plan: the
        # re-execution binds the cached plan to a new snapshot.
        db.execute("INSERT INTO t VALUES (7, 20)")
        assert sorted(gw.execute(sql).rows) == [(2,), (7,)]
        assert db.plan_cache.stats.hits == 1
        assert db.plan_cache.stats.stores == 1

    def test_view_definition_parsed_once(self, served, monkeypatch):
        import repro.sql.parser as parser_module

        db, gw = served
        db.execute("CREATE VIEW v AS SELECT a FROM t")
        parsed = []
        parse = parser_module.parse_statement

        def counting(text, tokens=None):
            parsed.append(text)
            return parse(text, tokens)

        monkeypatch.setattr(parser_module, "parse_statement", counting)
        assert db.execute("SELECT * FROM v WHERE a = 1").rows == [(1,)]
        assert db.execute("SELECT * FROM v WHERE a = 2").rows == [(2,)]
        # The second statement executed the first one's plan: neither it
        # nor the view's definition was parsed again.
        assert parsed.count("SELECT a FROM t") == 1

    def test_plan_templates_group_literal_variants(self, served):
        db, gw = served
        for i in range(4):
            gw.execute("SELECT a FROM t WHERE b = %d" % i)
        report = db.plan_cache.report()
        assert (report["templates"], report["entries"]) == (1, 1)
        assert (report["misses"], report["hits"]) == (1, 3)

    def test_detach_restores_plain_parsing(self, served):
        db, gw = served
        gw.close()
        assert db.serving is None
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3
        assert db.monreport()["serving"] == {"enabled": False}
        gw2 = ServingGateway(db)  # re-attachable; fixture closes again
        assert db.serving is gw2
        gw2.close()


# -- one tokenizer pass per statement -------------------------------------------


@pytest.fixture()
def lexed(monkeypatch):
    """Texts handed to ``lexer.tokenize``, whoever calls it."""
    from repro.sql import lexer
    from repro.sql import parser as parser_module

    texts = []

    def counting(text):
        texts.append(text)
        return lexer_tokenize(text)

    lexer_tokenize = lexer.tokenize
    monkeypatch.setattr(lexer, "tokenize", counting)  # normalize looks it up here
    monkeypatch.setattr(parser_module, "tokenize", counting)
    return texts


class TestLexOnce:
    """An engine lexes a read text once: its text memo (in
    ``db.plan_cache``) recognises every later arrival.  Writes, DDL,
    volatile and unlexable texts are not remembered and lex every time."""

    def test_gateway_hit_and_miss_lex_once(self, served, lexed):
        db, gw = served
        misses = db.plan_cache.text_stats.misses  # the fixture's DDL + INSERT
        sql = "SELECT a, b FROM t WHERE a > 1 ORDER BY a"
        first = gw.execute(sql)
        assert lexed == [sql]  # miss: the key's tokens went to the parser
        del lexed[:]
        assert gw.execute(sql).rows == first.rows
        assert lexed == [] and gw.result_cache.stats.hits == 1  # recognised
        # A spelling variant is a new text: lexed once, then it hits the
        # result cache just the same.
        variant = "select a, b from t\nwhere a > 1 order by a -- again"
        assert gw.execute(variant).rows == first.rows
        assert gw.execute(variant).rows == first.rows
        assert lexed == [variant] and gw.result_cache.stats.hits == 3
        texts = db.plan_cache.report()["texts"]
        assert (texts["hits"], texts["misses"] - misses, texts["entries"]) == (2, 2, 2)

    def test_uncacheable_statement_through_the_gateway(self, served, lexed):
        db, gw = served
        sql = "INSERT INTO t VALUES (9, 90)"
        before = db.plan_cache.stats.bypass_reasons["not-a-read"]
        gw.execute(sql)
        # ResultCache.fetch classifies the text and hands the engine its
        # key: neither the engine nor the parser lexes it again.
        assert lexed == [sql]
        assert db.plan_cache.stats.bypass_reasons["not-a-read"] == before + 1

    def test_session_execute_lexes_once(self, served, lexed):
        db, gw = served
        session = db.connect("db2")
        statements = [
            "SELECT COUNT(*) FROM t",  # cacheable: key, then plan-cache miss
            "SELECT COUNT(*) FROM t",  # recognised: neither lexed nor parsed
            "UPDATE t SET b = b + 1 WHERE a = 1",  # not a read
            "SELECT RAND() FROM t",  # volatile
        ]
        for sql in statements:
            session.execute(sql)
        assert lexed == statements[:1] + statements[2:]
        gw.close()
        del lexed[:]
        for sql in statements:  # the memo is the engine's, not the gateway's
            session.execute(sql)
        assert lexed == statements[2:]

    def test_lex_errors_surface_from_the_parser_unchanged(self, served, lexed):
        db, gw = served
        with pytest.raises(SQLSyntaxError, match="unterminated string literal") as caught:
            gw.execute("SELECT 'oops\nFROM t")
        assert (caught.value.line, caught.value.column) == (2, 7)
        assert gw.result_cache.stats.bypass_reasons["lex-error"] == 1

    def test_cluster_coordinator_lexes_once_and_shards_never(self, lexed):
        hw = HardwareSpec(cores=2, ram_gb=8, storage_tb=1)
        cluster = Cluster([hw, hw], shard_factor=2)
        statements = [
            "CREATE TABLE f (k INT, v INT) DISTRIBUTE BY HASH (k)",
            "INSERT INTO f VALUES (1, 10), (2, 20), (3, 30), (4, 40)",
            "SELECT k, SUM(v) FROM f GROUP BY k ORDER BY k",
            "SELECT v FROM f WHERE k = 3",
            "UPDATE f SET v = v + 1 WHERE k > 2",
        ]
        session = cluster.connect()
        for sql in statements:
            session.execute(sql)
        assert session.execute("SELECT SUM(v) FROM f").scalar() == 102
        assert lexed == statements + ["SELECT SUM(v) FROM f"]

    def test_create_view_captures_multiline_text_exactly(self, served):
        db, gw = served
        definition = "SELECT a,\n       b -- the measure\n  FROM t\n WHERE b > 10"
        db.execute("CREATE VIEW v (x, y) AS\n  %s  ;" % definition)
        assert db.catalog.resolve("V").text == definition
        assert gw.execute("SELECT COUNT(*) FROM v").scalar() == 2
        node = parse_statement("CREATE VIEW w AS (SELECT 1 FROM t) -- done")
        assert node.select_text == "(SELECT 1 FROM t) -- done"


def _forget_setup(db):
    """Zero the plan cache's counters (the fixture's DDL and INSERT went
    through ``db.execute`` and were counted as ``not-a-read``)."""
    db.plan_cache.stats = CacheStats(dict.fromkeys(PLAN_BYPASS_REASONS, 0))


class TestBypassReasons:
    def test_each_reason_is_counted_apart_and_sums_to_bypass(self, served):
        db, gw = served
        _forget_setup(db)
        gw.execute("INSERT INTO t VALUES (7, 70)")
        gw.execute("DELETE FROM t WHERE a = 7")
        gw.execute("SELECT RAND() FROM t")
        with pytest.raises(SQLSyntaxError):
            gw.execute("SELECT a FROM t /* oops")
        gw.execute("SELECT COUNT(*) FROM t")
        expected = {"not-a-read": 2, "volatile": 1, "lex-error": 1}
        assert gw.result_cache.stats.bypass_reasons == expected
        # The plan cache keeps the DELETE's plan (a miss), not a bypass.
        planned = dict(expected, **{"not-a-read": 1})
        for stats, want in ((gw.result_cache.stats, expected), (db.plan_cache.stats, planned)):
            counted = {k: v for k, v in stats.bypass_reasons.items() if v}
            assert counted == want
            assert stats.bypass == sum(want.values())
        assert db.plan_cache.stats.misses == 2  # the DELETE and the COUNT(*)

    def test_the_result_cache_report_keys(self, served):
        db, gw = served
        for report in (gw.result_cache.report(), db.monreport()["serving"]["result_cache"]):
            assert set(report) == {
                "bypass_reasons", "hits", "misses", "stores", "bypass", "stale_drops",
                "invalidations", "spared", "evictions", "hit_rate", "entries", "capacity",
            }

    def test_reasons_reach_the_gateway_report_and_monreport(self, served):
        db, gw = served
        _forget_setup(db)
        gw.execute("INSERT INTO t VALUES (9, 90)")  # an UPDATE is a plan-cache miss
        for section in (gw.report(), db.monreport()["serving"]):
            assert section["result_cache"]["bypass_reasons"] == {
                "not-a-read": 1, "volatile": 0, "lex-error": 0
            }
            for cache in (section["result_cache"], section["plan_cache"]["statements"]):
                assert cache["bypass"] == 1
                assert cache["bypass_reasons"]["not-a-read"] == 1
                assert sum(cache["bypass_reasons"].values()) == 1


# -- WLM Job sentinel regression (satellite) -----------------------------------


class TestJobSentinelRegression:
    def test_unscheduled_job_reports_none_not_negative(self):
        job = Job(job_id="q", service_seconds=1.0, arrival=5.0)
        assert not job.scheduled
        assert job.queue_wait is None
        assert job.response_time is None

    def test_scheduled_job_reports_real_times(self):
        manager = WorkloadManager(concurrency=1)
        jobs = [
            Job(job_id="a", service_seconds=2.0, arrival=0.0),
            Job(job_id="b", service_seconds=1.0, arrival=0.0),
        ]
        result = manager.schedule(jobs)
        for job in result.jobs:
            assert job.scheduled
            assert job.queue_wait >= 0.0
            assert job.response_time >= job.service_seconds
        assert result.mean_response > 0


# -- open-loop arrivals --------------------------------------------------------


class TestArrivals:
    def test_same_seed_same_trace(self):
        a = open_loop_arrivals(["q1", "q2", "q3"], 5000, 100.0, seed=5)
        b = open_loop_arrivals(["q1", "q2", "q3"], 5000, 100.0, seed=5)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.query_index, b.query_index)
        assert np.array_equal(a.tenant_index, b.tenant_index)

    def test_different_seed_different_trace(self):
        a = open_loop_arrivals(["q1", "q2"], 5000, 100.0, seed=5)
        b = open_loop_arrivals(["q1", "q2"], 5000, 100.0, seed=6)
        assert not np.array_equal(a.times, b.times)

    def test_offered_rate_is_roughly_requested(self):
        batch = open_loop_arrivals(["q"], 200_000, 500.0, seed=1)
        assert batch.offered_qps == pytest.approx(500.0, rel=0.05)

    def test_interarrivals_are_heavy_tailed(self):
        batch = open_loop_arrivals(["q"], 100_000, 100.0, seed=2, sigma=1.2)
        gaps = np.diff(batch.times)
        # Lognormal signature: mean far above median, long right tail.
        assert gaps.mean() > 2.0 * np.median(gaps)
        assert gaps.max() > 20.0 * gaps.mean()

    def test_zipf_mix_concentrates_on_hot_queries(self):
        ids = ["q%d" % i for i in range(20)]
        batch = open_loop_arrivals(ids, 50_000, 100.0, seed=3, zipf_s=1.2)
        counts = np.bincount(batch.query_index, minlength=20)
        assert counts[0] > counts[10] > 0

    def test_tenant_pools_restrict_queries(self):
        ids = ["hot1", "hot2", "heavy1", "heavy2"]
        batch = open_loop_arrivals(
            ids,
            20_000,
            100.0,
            seed=4,
            tenants=("dash", "analyst"),
            tenant_shares=(0.8, 0.2),
            tenant_pools={"dash": [0, 1], "analyst": [2, 3]},
        )
        dash_mask = batch.tenant_index == 0
        assert set(np.unique(batch.query_index[dash_mask])) <= {0, 1}
        assert set(np.unique(batch.query_index[~dash_mask])) <= {2, 3}

    def test_stream_orders_match_legacy_multistream_draws(self):
        """The shared generator must reproduce the exact permutations the
        closed-loop harness drew before the refactor (byte-compatible
        schedules across the PR)."""
        n_queries, n_streams, seed = 7, 4, 11
        rng = derive_rng(seed, "streams")
        legacy = [
            list(rng.permutation(n_queries)) for _ in range(n_streams)
        ]
        assert stream_orders(n_queries, n_streams, seed) == legacy

    def test_run_multistream_unchanged_by_refactor(self):
        measurement = PoolMeasurement(
            query_ids=["a", "b", "c"],
            seconds={"a": 0.5, "b": 1.0, "c": 0.25},
            total=1.75,
        )
        result = run_multistream(measurement, n_streams=3, concurrency=2)
        assert result.jobs and result.makespan > 0
        # Deterministic: same inputs, same schedule.
        again = run_multistream(measurement, n_streams=3, concurrency=2)
        assert again.makespan == result.makespan
        assert again.total_service == result.total_service


# -- admission control ---------------------------------------------------------


def _profile(miss=0.002, hit=0.0001):
    m = PoolMeasurement(
        query_ids=["a", "b"], seconds={"a": miss, "b": 2 * miss}, total=3 * miss
    )
    return ServingPoolProfile(measurement=m, hit_seconds=hit)


class TestAdmission:
    def test_underload_completes_everything(self):
        batch = open_loop_arrivals(["a", "b"], 10_000, 100.0, seed=7)
        classes = {
            "dashboard": ServiceClass("dashboard", concurrency=8, queue_limit=64)
        }
        outcome = run_open_loop(batch, _profile(), classes, cache_enabled=False)
        assert outcome.result.completed == 10_000
        assert outcome.result.shed == 0
        assert outcome.result.p99 >= outcome.result.p50 > 0

    def test_overload_sheds_with_bounded_queue(self):
        batch = open_loop_arrivals(["a", "b"], 20_000, 4000.0, seed=8)
        classes = {
            "dashboard": ServiceClass(
                "dashboard", concurrency=2, queue_limit=8,
                timeout_seconds=0.25,
            )
        }
        outcome = run_open_loop(batch, _profile(), classes, cache_enabled=False)
        result = outcome.result
        assert result.shed > 0
        assert result.completed + result.shed == 20_000
        assert result.shed_rate > 0.3
        # Bounded queue keeps p99 of *completed* work bounded too: nothing
        # can wait longer than the queue ahead of it allows.
        assert result.p99 < 1.0

    def test_timeout_shedding_triggers(self):
        batch = open_loop_arrivals(["a", "b"], 20_000, 4000.0, seed=8)
        classes = {
            "dashboard": ServiceClass(
                "dashboard", concurrency=2, queue_limit=64,
                timeout_seconds=0.01,
            )
        }
        outcome = run_open_loop(batch, _profile(), classes, cache_enabled=False)
        assert outcome.result.shed_timeout > 0

    def test_simulation_is_deterministic(self):
        batch = open_loop_arrivals(["a", "b"], 30_000, 2000.0, seed=9)
        classes = {
            "dashboard": ServiceClass(
                "dashboard", concurrency=4, queue_limit=16,
                timeout_seconds=0.5,
            )
        }
        r1 = run_open_loop(batch, _profile(), classes).result
        r2 = run_open_loop(batch, _profile(), classes).result
        assert r1.completed == r2.completed
        assert r1.shed_queue_full == r2.shed_queue_full
        assert r1.shed_timeout == r2.shed_timeout
        assert np.array_equal(r1.latencies, r2.latencies)

    def test_per_tenant_isolation(self):
        """A saturated tenant cannot shed a lightly loaded one."""
        batch = open_loop_arrivals(
            ["a", "b"],
            20_000,
            2000.0,
            seed=10,
            tenants=("noisy", "quiet"),
            tenant_shares=(0.95, 0.05),
        )
        classes = {
            "noisy": ServiceClass("noisy", concurrency=1, queue_limit=2),
            "quiet": ServiceClass("quiet", concurrency=4, queue_limit=64),
        }
        outcome = run_open_loop(batch, _profile(), classes, cache_enabled=False)
        tenants = outcome.result.tenants
        assert tenants["noisy"].shed_rate > 0.5
        assert tenants["quiet"].shed == 0

    def test_cache_model_raises_hit_rate_and_throughput(self):
        batch = open_loop_arrivals(
            ["a", "b"], 50_000, 4000.0, seed=11, zipf_s=1.1
        )
        classes = {
            "dashboard": ServiceClass(
                "dashboard", concurrency=2, queue_limit=8,
                timeout_seconds=0.25,
            )
        }
        on = run_open_loop(batch, _profile(), classes, cache_enabled=True)
        off = run_open_loop(batch, _profile(), classes, cache_enabled=False)
        assert on.hit_rate > 0.99
        assert off.hit_rate == 0.0
        assert on.result.qph > 2.0 * off.result.qph

    def test_invalidation_period_lowers_hit_rate(self):
        batch = open_loop_arrivals(["a", "b"], 20_000, 100.0, seed=12)
        service_always, rate_always = cache_service_profile(
            batch, _profile(), invalidation_period=None
        )
        service_churn, rate_churn = cache_service_profile(
            batch, _profile(), invalidation_period=1.0
        )
        assert rate_churn < rate_always
        assert service_churn.sum() > service_always.sum()

    def test_live_admission_sheds_with_sqlstate(self, served):
        db, gw = served
        gw.close()
        classes = {"t1": ServiceClass("t1", concurrency=1)}
        gateway = ServingGateway(db, classes=classes)
        try:
            gateway.admission.acquire("t1")  # hold the only slot
            with pytest.raises(AdmissionError) as excinfo:
                gateway.execute("SELECT COUNT(*) FROM t", tenant="t1")
            assert excinfo.value.sqlstate == SHED_SQLSTATE == "57014"
            gateway.admission.release("t1", completed=False)
            assert gateway.execute("SELECT COUNT(*) FROM t").scalar() == 3
        finally:
            gateway.close()

    def test_unknown_tenant_rejected(self, served):
        db, gw = served
        with pytest.raises(AdmissionError):
            gw.execute("SELECT 1 FROM t", tenant="nope")


# -- capacity sizer ------------------------------------------------------------


class TestSizer:
    HW = HardwareSpec(cores=16, ram_gb=64, storage_tb=4.0)

    def _measurement(self):
        return PoolMeasurement(
            query_ids=["a", "b"],
            seconds={"a": 0.002, "b": 0.006},
            total=0.008,
        )

    def test_erlang_c_bounds_and_monotonicity(self):
        assert erlang_c(4, 0.0) == 0.0
        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(4, 5.0) == 1.0
        assert 0.0 < erlang_c(4, 2.0) < 1.0
        assert erlang_c(8, 2.0) < erlang_c(4, 2.0)

    def test_more_load_needs_more_nodes(self):
        m = self._measurement()
        low = recommend(100.0, m, self.HW)
        high = recommend(20_000.0, m, self.HW)
        assert high.required_slots > low.required_slots
        assert high.nodes >= low.nodes
        assert high.shards >= high.nodes  # paper II.E: shards >= servers

    def test_cache_hits_shrink_the_fleet(self):
        m = self._measurement()
        cold = recommend(20_000.0, m, self.HW, hit_rate=0.0)
        warm = recommend(
            20_000.0, m, self.HW, hit_rate=0.95, hit_seconds=0.0001
        )
        assert warm.required_slots < cold.required_slots
        assert warm.service_seconds < cold.service_seconds

    def test_utilization_stays_under_target(self):
        rec = recommend(
            5000.0, self._measurement(), self.HW, target_utilization=0.7
        )
        assert rec.utilization <= 0.7 + 1e-9
        assert rec.wait_probability <= 0.20

    def test_mix_weights_shift_the_mean(self):
        m = self._measurement()
        heavy = recommend(1000.0, m, self.HW, weights={"b": 1.0})
        light = recommend(1000.0, m, self.HW, weights={"a": 1.0})
        assert heavy.service_seconds > light.service_seconds

    def test_input_validation(self):
        m = self._measurement()
        with pytest.raises(ValueError):
            recommend(0.0, m, self.HW)
        with pytest.raises(ValueError):
            recommend(10.0, m, self.HW, hit_rate=1.5)
        with pytest.raises(ValueError):
            recommend(10.0, m, self.HW, target_utilization=1.0)

    def test_cluster_sizes_against_its_own_hardware(self):
        from repro.cluster.autoconfig import wlm_concurrency
        from repro.cluster.mpp import Cluster

        cluster = Cluster([self.HW] * 2, durable=False)
        rec = cluster.serving_recommendation(1000.0, self._measurement())
        assert rec.slots_per_node == wlm_concurrency(self.HW)
        assert rec == recommend(1000.0, self._measurement(), self.HW)


# -- monreport surface ---------------------------------------------------------


class TestServingMonreport:
    def test_database_report_includes_serving_section(self, served):
        db, gw = served
        gw.execute("SELECT COUNT(*) FROM t")
        gw.execute("SELECT COUNT(*) FROM t")
        report = db.monreport()["serving"]
        assert report["enabled"]
        assert report["result_cache"]["hits"] == 1
        assert report["result_cache"]["hit_rate"] == 0.5
        assert report["plan_cache"]["statements"]["entries"] == 1
        assert report["plan_cache"]["statements"] == db.monreport()["plan_cache"]
        assert report["admission"]["dashboard"]["completed"] == 2

    def test_report_disabled_without_gateway(self):
        db = Database("plain")
        assert db.monreport()["serving"] == {"enabled": False}

    def test_open_loop_outcome_lands_in_report(self, served):
        db, gw = served
        batch = open_loop_arrivals(["a", "b"], 10_000, 200.0, seed=13)
        gw.open_loop(batch, _profile(), classes={
            "dashboard": ServiceClass("dashboard", concurrency=8, queue_limit=64)
        })
        section = db.monreport()["serving"]["last_open_loop"]
        assert section["sessions"] == 10_000
        assert section["qph"] > 0
        assert "p99_seconds" in section and "shed_rate" in section
        assert section["cache_hit_rate"] > 0.9


# -- engine integration: correctness with the cache in front -------------------


class TestGatewayDifferential:
    def test_cached_equals_uncached_through_write_mix(self):
        """Interleave reads and writes; every gateway answer must equal a
        cache-free engine fed the same statements."""
        db = Database("gdiff")
        oracle = Database("gdiff-oracle")
        for system in (db, oracle):
            system.execute("CREATE TABLE t (a INT, b INT)")
            system.execute(
                "INSERT INTO t VALUES (1, 1), (2, 4), (3, 9), (4, 16)"
            )
        gateway = ServingGateway(db)
        rng = derive_rng(21, "serving-gdiff")
        queries = [
            "SELECT COUNT(*) FROM t",
            "SELECT SUM(b) FROM t",
            "SELECT a, b FROM t ORDER BY a",
            "SELECT MAX(b) FROM t WHERE a > 1",
        ]
        try:
            for i in range(60):
                if rng.random() < 0.25:
                    statement = "INSERT INTO t VALUES (%d, %d)" % (
                        100 + i,
                        int(rng.integers(0, 50)),
                    )
                    db.execute(statement)
                    oracle.execute(statement)
                sql = queries[int(rng.integers(0, len(queries)))]
                assert gateway.execute(sql).rows == oracle.execute(sql).rows
            assert gateway.result_cache.stats.hits > 0
            assert gateway.result_cache.stats.invalidations > 0
        finally:
            gateway.close()
