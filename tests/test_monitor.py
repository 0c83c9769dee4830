"""The observability layer: tracer spans, metrics, EXPLAIN ANALYZE, MONREPORT.

The paper sells dashDB Local as "simple to manage" because DB2's monitoring
is built in; the analogue here is the :mod:`repro.monitor` package.  These
tests pin the span-tree semantics, the metric types, the zero-overhead
no-op default, the EXPLAIN ANALYZE output shape, and the monreport payloads
for a single node and for an MPP cluster.
"""

import re
import threading

import pytest

from repro.cluster import Cluster, HardwareSpec
from repro.database import Database
from repro.monitor import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
)
from repro.util.timer import SimClock


# --------------------------------------------------------------------------
# Tracer
# --------------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_into_a_tree(self):
        tracer = Tracer()
        with tracer.span("statement") as root:
            with tracer.span("parse"):
                pass
            with tracer.span("execute"):
                with tracer.span("operator"):
                    pass
        assert [s.name for s in tracer.roots] == ["statement"]
        assert [c.name for c in root.children] == ["parse", "execute"]
        assert [c.name for c in root.children[1].children] == ["operator"]
        assert root.depth == 0
        assert root.children[1].children[0].depth == 2

    def test_finish_order_is_innermost_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.finished]
        assert names == ["inner", "outer"]
        assert tracer.find("inner")[0].order < tracer.find("outer")[0].order

    def test_elapsed_time_measured(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            sum(range(1000))
        assert span.wall_elapsed > 0.0

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        (root,) = tracer.roots
        assert [s.name for s in root.walk()] == ["a", "b", "c", "d"]

    def test_annotate_and_attrs(self):
        tracer = Tracer()
        with tracer.span("q", sql="SELECT 1") as span:
            span.annotate(rows=3)
        assert span.attrs == {"sql": "SELECT 1", "rows": 3}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (span,) = tracer.find("boom")
        assert span.attrs.get("error") is True

    def test_record_attaches_finished_children(self):
        tracer = Tracer()
        with tracer.span("execute") as parent:
            pass
        child = tracer.record("operator:Scan", 0.25, parent=parent, rows=10)
        assert child in parent.children
        assert child.wall_elapsed == 0.25
        assert child.depth == parent.depth + 1

    def test_sim_clock_awareness(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("scatter") as span:
            clock.advance(2.5)
        assert span.sim_elapsed == pytest.approx(2.5)

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.roots == [] and tracer.finished == []

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer()
        errors = []

        def worker(name):
            try:
                for _ in range(50):
                    with tracer.span(name):
                        with tracer.span(name + ".inner"):
                            pass
            # lint-ok: broad-except (collects any worker failure to assert after join)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=("t%d" % i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(tracer.roots) == 4 * 50
        for root in tracer.roots:
            assert [c.name for c in root.children] == [root.name + ".inner"]


class TestNullTracer:
    def test_disabled_and_stateless(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", sql="SELECT 1"):
            pass
        NULL_TRACER.record("op", 1.0)
        assert NULL_TRACER.find("anything") == []
        assert list(NULL_TRACER.roots) == []
        assert list(NULL_TRACER.finished) == []

    def test_span_is_one_shared_object(self):
        # Zero allocation per call: every span() returns the same no-op.
        a = NULL_TRACER.span("a")
        b = NULL_TRACER.span("b", attr=1)
        assert a is b
        assert a.annotate(x=1) is a

    def test_database_defaults_to_null_tracer(self):
        db = Database()
        assert isinstance(db.tracer, NullTracer)
        assert db.tracer is NULL_TRACER


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


class TestMetrics:
    def test_counter_semantics(self):
        reg = MetricsRegistry()
        c = reg.counter("reads")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_semantics(self):
        reg = MetricsRegistry()
        g = reg.gauge("live_nodes")
        g.set(3)
        g.add(-1)
        assert g.value == 2.0

    def test_histogram_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in (4.0, 1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(10.0)
        assert h.min == 1.0 and h.max == 4.0
        assert h.mean == pytest.approx(2.5)
        assert h.percentile(0.0) == 1.0
        assert h.percentile(1.0) == 4.0
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_histogram_reservoir_bounded_but_totals_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("big")
        for i in range(2000):
            h.observe(float(i))
        assert h.count == 2000
        assert len(h.samples) == h.reservoir_size
        assert h.max == 1999.0

    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_is_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(4.0)
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1 and snap["h"]["mean"] == 4.0
        assert reg.names() == ["c", "g", "h"]

    def test_concurrent_increments_are_lossless(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


# --------------------------------------------------------------------------
# Statement lifecycle: spans, EXPLAIN ANALYZE, history, monreport
# --------------------------------------------------------------------------


@pytest.fixture()
def traced_db():
    db = Database(tracer=Tracer())
    session = db.connect()
    session.execute("CREATE TABLE T (ID INT, V INT, TAG VARCHAR(4))")
    session.execute(
        "INSERT INTO T VALUES " + ", ".join(
            "(%d, %d, 'g%d')" % (i, i * 10, i % 3) for i in range(1, 21)
        )
    )
    return db, session


class TestStatementSpans:
    def test_select_produces_lifecycle_spans(self, traced_db):
        db, session = traced_db
        db.tracer.reset()
        session.execute("SELECT V FROM T WHERE ID > 5")
        (statement,) = db.tracer.find("statement")
        phases = [c.name for c in statement.children]
        assert phases[:2] == ["plan", "execute"]
        assert db.tracer.find("parse")  # root span from execute(sql)
        execute = statement.children[1]
        operator_names = [s.name for s in execute.walk() if s is not execute]
        assert any(n.startswith("operator:") for n in operator_names)
        scan = [s for s in execute.walk() if s.name == "operator:TableScanOp"]
        assert scan and scan[0].attrs["rows"] == 15

    def test_untraced_database_records_nothing(self):
        db = Database()
        session = db.connect()
        session.execute("CREATE TABLE X (A INT)")
        session.execute("INSERT INTO X VALUES (1)")
        session.execute("SELECT * FROM X")
        assert db.tracer.find("statement") == []


class TestExplainAnalyze:
    _LINE = re.compile(
        r"^\s*\w+Op.* rows=\d+ batches=\d+ time=\d+\.\d{3}ms"
    )

    def test_annotated_plan_shape(self, traced_db):
        _, session = traced_db
        result = session.execute(
            "EXPLAIN ANALYZE SELECT TAG, COUNT(*) FROM T WHERE ID > 5 GROUP BY TAG"
        )
        assert result.columns == ["PLAN"]
        lines = [row[0] for row in result.rows]
        assert all(self._LINE.match(line) for line in lines)
        assert any("GroupByOp" in line for line in lines)
        scan_lines = [l for l in lines if "TableScanOp" in l]
        assert len(scan_lines) == 1
        assert "WHERE ID >" in scan_lines[0]
        assert re.search(r"rows=15\b", scan_lines[0])
        # Children are indented under parents.
        assert lines[0].startswith("ProjectOp") or not lines[0].startswith(" ")
        assert scan_lines[0].startswith("  ")

    def test_join_line_names_the_probe_path_and_monreport_counts_it(self, traced_db):
        db, session = traced_db
        session.execute("CREATE TABLE D (ID INT, NAME VARCHAR(4))")
        session.execute("INSERT INTO D VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        fk = "SELECT D.NAME, T.V FROM T, D WHERE T.ID = D.ID"
        by_tag = "SELECT D.NAME, T.V FROM T, D WHERE T.TAG = D.NAME"
        for sql, path in ((fk, "direct"), (by_tag, "sorted")):
            lines = [r[0] for r in session.execute("EXPLAIN ANALYZE " + sql).rows]
            (join_line,) = [l for l in lines if "HashJoinOp" in l]
            assert "[path=%s]" % path in join_line, join_line
            assert not any("path=" in l for l in lines if "HashJoinOp" not in l)
        session.execute(fk)
        metrics = db.monreport()["metrics"]
        assert metrics["engine.join.direct"] == 2
        assert metrics["engine.join.sorted"] == 1
        (join_span,) = [
            s for s in db.tracer.find("statement")[-1].walk()
            if s.name == "operator:HashJoinOp"
        ]
        assert join_span.attrs["stats"].path == "direct"

    def test_group_line_names_the_key_coding_and_monreport_counts_it(self):
        """The e2e ``analytics`` shapes group on dictionary codes once the
        tables are flushed; a later change that silently re-materialises
        string keys fails here, not in a benchmark."""
        from repro.workloads.tpcds import flush_tables

        db = Database(tracer=Tracer())
        session = db.connect()
        session.execute("CREATE TABLE FACT (ID INT, ACCT INT, INST INT, VENUE VARCHAR(6), PRICE DECIMAL(8,2))")
        session.execute("CREATE TABLE ACCT (ACCT INT, BRANCH VARCHAR(8))")
        session.execute("CREATE TABLE INST (INST INT, CLASS VARCHAR(8))")
        session.execute("INSERT INTO ACCT VALUES " + ", ".join(
            "(%d, 'br%d')" % (i, i % 4) for i in range(12)))
        session.execute("INSERT INTO INST VALUES " + ", ".join(
            "(%d, 'cl%d')" % (i, i % 3) for i in range(8)))
        session.execute("INSERT INTO FACT VALUES " + ", ".join(
            "(%d, %d, %d, 'v%d', %d.25)" % (i, i % 12, i % 8, i % 5, i % 90)
            for i in range(400)))
        shapes = {
            "one FK join": "SELECT I.CLASS, COUNT(*) FROM FACT F, INST I"
                           " WHERE F.INST = I.INST GROUP BY I.CLASS",
            "two FK joins": "SELECT A.BRANCH, I.CLASS, SUM(F.PRICE) FROM FACT F, ACCT A, INST I"
                            " WHERE F.ACCT = A.ACCT AND F.INST = I.INST GROUP BY A.BRANCH, I.CLASS",
            "literal CASE": "SELECT CASE WHEN PRICE < 20 THEN 'budget' WHEN PRICE < 70 THEN 'core'"
                            " ELSE 'premium' END AS BAND, COUNT(*) FROM FACT GROUP BY 1",
            "fact string": "SELECT VENUE, COUNT(*) FROM FACT GROUP BY VENUE",
        }

        def group_line(sql):
            lines = [r[0] for r in session.execute("EXPLAIN ANALYZE " + sql).rows]
            (line,) = [l for l in lines if "GroupByOp" in l]
            assert not any("keys=" in l for l in lines if "GroupByOp" not in l)
            return line

        # Unsealed: the tail hands out plain vectors, and says so.
        line = group_line(shapes["fact string"])
        assert line.endswith("[keys=rows plain-input]"), line
        flush_tables(db)
        for name, sql in shapes.items():
            assert group_line(sql).endswith("[keys=dictionary]"), (name, group_line(sql))
        # An int key beside a string key: one coded by rows, one not.
        line = group_line("SELECT ACCT, VENUE, COUNT(*) FROM FACT GROUP BY ACCT, VENUE")
        assert line.endswith("[keys=mixed plain-input]"), line
        # More dictionary than rows after a selective filter.
        line = group_line("SELECT VENUE, COUNT(*) FROM FACT WHERE ID < 3 GROUP BY VENUE")
        assert line.endswith("[keys=rows dictionary-larger-than-span]"), line
        assert "keys=" not in group_line("SELECT COUNT(*) FROM FACT")  # no keys
        metrics = db.monreport()["metrics"]
        assert metrics["engine.group.keys_dictionary"] == 4
        assert metrics["engine.group.keys_rows"] == 3
        session.execute(shapes["two FK joins"])
        (group_span,) = [
            s for s in db.tracer.find("statement")[-1].walk()
            if s.name == "operator:GroupByOp"
        ]
        assert group_span.attrs["stats"].key_coding == "dictionary"
        assert group_span.attrs["stats"].key_reasons == ()

    def test_works_without_a_tracer(self):
        db = Database()
        session = db.connect()
        session.execute("CREATE TABLE Y (A INT)")
        session.execute("INSERT INTO Y VALUES (1), (2)")
        result = session.execute("EXPLAIN ANALYZE SELECT * FROM Y")
        lines = [row[0] for row in result.rows]
        assert any("rows=2" in line for line in lines)

    def test_plain_explain_has_no_timings(self, traced_db):
        _, session = traced_db
        result = session.execute("EXPLAIN SELECT * FROM T")
        lines = [row[0] for row in result.rows]
        assert not any("time=" in line for line in lines)
        assert any("TableScanOp" in line for line in lines)


class TestQueryHistory:
    def test_history_records_each_statement(self, traced_db):
        _, session = traced_db
        session.execute("SELECT * FROM T WHERE ID <= 3")
        history = session.query_history()
        assert [h.statement for h in history] == [
            "CreateTable", "Insert", "Select",
        ]
        select = history[-1]
        assert select.rowcount == 3
        assert select.sql == "SELECT * FROM T WHERE ID <= 3"
        assert select.wall_seconds > 0.0
        assert history[0].index < history[-1].index

    def test_history_ring_is_bounded(self):
        from repro.database.session import HISTORY_LIMIT

        db = Database()
        session = db.connect()
        for i in range(HISTORY_LIMIT + 10):
            session.execute("VALUES (%d)" % i)
        history = session.query_history()
        assert len(history) == HISTORY_LIMIT
        assert history[-1].statement == "ValuesStatement"

    def test_sim_seconds_recorded_with_clock(self):
        clock = SimClock()
        db = Database(clock=clock)
        session = db.connect()
        session.execute("VALUES (1)")
        assert session.query_history()[-1].sim_seconds is not None


class TestMonreport:
    def test_single_node_keys(self, traced_db):
        db, session = traced_db
        session.execute("SELECT * FROM T")
        report = db.monreport()
        assert sorted(report) == [
            "bufferpool", "database", "durability", "metrics", "parallel",
            "plan_cache", "serving", "statements", "storage", "tables",
            "tracing_enabled", "txn",
        ]
        assert report["parallel"]["parallelism"] >= 1
        assert report["tracing_enabled"] is True
        assert report["txn"]["active"] == 0
        assert report["txn"]["committed"] >= 1
        assert report["statements"] >= 3
        assert report["tables"]["T"]["rows"] == 20
        pool = report["bufferpool"]
        assert pool["requests"] == pool["hits"] + pool["misses"]

    def test_traced_pool_feeds_metrics(self, traced_db):
        db, session = traced_db
        from repro.workloads.tpcds import flush_tables

        flush_tables(db)
        session.execute("SELECT * FROM T WHERE V > 100")
        report = db.monreport()
        metrics = report["metrics"]
        assert metrics["bufferpool.hits"] + metrics["bufferpool.misses"] > 0
        assert metrics["bufferpool.hits"] == report["bufferpool"]["hits"]
        assert metrics["bufferpool.misses"] == report["bufferpool"]["misses"]


class TestPlanCacheOnTheBenchmarkPools:
    """Every statement of the four e2e workloads either executes a cached
    plan, plans one that gets cached, or is not a read at all: a SELECT of
    those pools that goes around the plan cache (a literal that stopped
    fitting, a plan-time subquery somebody added to a dashboard) would
    silently put planning back on the serving path, so it fails here.
    Only the cluster's coordinator bypasses by design: its global statement
    reads the gathered partials (``relations``)."""

    @staticmethod
    def _bypasses(db) -> dict:
        reasons = db.monreport()["plan_cache"]["bypass_reasons"]
        return {reason: n for reason, n in reasons.items() if n}

    @staticmethod
    def _workload(**sizes):
        from repro.workloads import tpcds
        from repro.workloads.customer import CustomerWorkload

        workload = CustomerWorkload(seed=31, **sizes)
        db = Database()
        session = db.connect()
        for ddl in workload.base_ddl():
            session.execute(ddl)
        for name, rows in workload.base_rows().items():
            tpcds.bulk_insert(session, name, rows)
        tpcds.flush_tables(session)
        return workload, db, session

    def test_etl_stream_hits_its_eighteen_templates_despite_the_ddl(self):
        # The full ``etl`` stream: 361 DDL statements on staging tables
        # between the lookups.  DDL stamps are per name, so none of them
        # costs a lookup its plan: one miss per template, hits after.
        workload, db, session = self._workload(
            scale=1 / 200, n_accounts=2000, n_instruments=200, n_trades=10_000
        )
        statements = workload.statements()
        setup = self._bypasses(db)["not-a-read"]  # the base DDL
        for statement in statements:
            session.execute(statement.sql)
        reads = sum(s.kind in ("SELECT", "WITH", "EXPLAIN") for s in statements)
        # UPDATE and DELETE are planned once per template too: the UPDATE's
        # six literal signatures (sign and digits of the amount) + DELETE.
        writes = sum(s.kind in ("UPDATE", "DELETE") for s in statements)
        report = db.monreport()["plan_cache"]
        assert sum(s.kind in ("CREATE", "DROP") for s in statements) > 300
        assert report["hits"] + report["misses"] == reads + writes
        assert report["misses"] == report["templates"] == report["entries"] <= 18 + 7
        assert report["hit_rate"] >= 0.9
        assert report["invalidations"] == report["evictions"] == 0
        # (EXPLAIN is no read to the key, and asks the cache for its SELECT.)
        assert self._bypasses(db) == {
            "not-a-read": setup + len(statements) - reads - writes + 1
        }

    def test_dashboards_long_tail_and_serving_lookups_never_bypass(self):
        from repro.serving import ServingGateway
        from repro.workloads import BDINSIGHT_QUERIES, TPCDS_QUERIES, tpcds

        workload, db, session = self._workload(
            n_accounts=150, n_instruments=30, n_trades=1200
        )
        data = tpcds.generate(scale=0.03, seed=31)
        for ddl in tpcds.DDL:
            session.execute(ddl)
        for name, rows in data.tables().items():
            tpcds.bulk_insert(session, name, rows)
        setup = self._bypasses(db)
        dashboards = [sql for _name, sql in TPCDS_QUERIES + BDINSIGHT_QUERIES]
        for sql in dashboards + workload.long_tail_pool(35) + workload.long_tail_pool(35):
            session.execute(sql)  # ``analytics``: Session.execute
        gateway = ServingGateway(db)
        lookups = (
            "SELECT balance FROM accounts WHERE acct_id = %d",
            "SELECT COUNT(*) FROM trades WHERE acct_id = %d",
            "SELECT qty, market_value FROM positions WHERE acct_id = %d",
        )
        for acct in range(40):  # ``serve``: the gateway, with its writes
            for template in lookups:
                gateway.execute(template % acct, session=session)
            gateway.execute(dashboards[acct % len(dashboards)], session=session)
        gateway.execute(
            "UPDATE accounts SET balance = balance + 1 WHERE acct_id = 3", session=session
        )
        gateway.close()
        after = self._bypasses(db)
        assert set(after) == {"not-a-read"}
        assert after["not-a-read"] == setup["not-a-read"]  # the UPDATE is planned too
        report = db.monreport()["plan_cache"]
        assert report["misses"] == report["templates"] <= 40
        assert report["hits"] > 4 * report["misses"]

    def test_cluster_shards_hit_their_fragment_plans(self, cluster):
        # Each shard caches its fragment's plan: the second statement of a
        # template binds it.  An INSERT ... SELECT's fragment is no read to
        # its key (``not-a-read``).
        cluster, session = cluster
        engines = [shard.engine for shard in cluster.shards.values()]
        for engine in engines:
            engine.plan_cache.clear()

        def counts(db):
            stats = db.plan_cache.stats
            return stats.hits, stats.misses, dict(stats.bypass_reasons)

        before = {id(db): counts(db) for db in engines + [cluster.coordinator]}
        for sql in (
            "SELECT AMT, COUNT(*) FROM F GROUP BY AMT",
            "SELECT AMT, COUNT(*) FROM F GROUP BY AMT",
            "SELECT ID FROM F WHERE AMT > 5 ORDER BY 1",
            "SELECT ID FROM F WHERE AMT > 7 ORDER BY 1",
            "INSERT INTO F SELECT ID + 1000, AMT FROM F WHERE ID = 1",
            "DELETE FROM F WHERE ID > 1000",
        ):
            session.execute(sql)

        def delta(db):
            (h0, m0, r0), (h1, m1, r1) = before[id(db)], counts(db)
            return h1 - h0, m1 - m0, {r: n - r0[r] for r, n in r1.items() if n != r0[r]}

        for engine in engines:
            # hits: the repeat of each SELECT template; misses: the two
            # SELECT templates and the DELETE
            assert delta(engine) == (2, 3, {"not-a-read": 1})
        assert delta(cluster.coordinator) == (0, 0, {"relations": 5})
        assert cluster.total_rows("F") == 40


class TestLandingOnTheBenchmarkLoads:
    """Which loop converted a load is on the report.  A generator or schema
    change that sends the benchmark's base rows back through the per-value
    cast fails here — not as a slower ``setup_s``."""

    def _loaded(self, tables, ddl):
        db = Database()
        session = db.connect()
        for statement in ddl:
            session.execute(statement)
        from repro.workloads import tpcds

        for name, rows in tables.items():
            tpcds.bulk_insert(session, name, rows)
        return db, session, sum(len(rows) * len(rows[0]) for rows in tables.values())

    def test_customer_and_tpcds_base_rows_land_typed(self):
        from repro.workloads import tpcds
        from repro.workloads.customer import CustomerWorkload

        workload = CustomerWorkload(seed=31, n_accounts=300, n_instruments=40, n_trades=3000)
        data = tpcds.generate(scale=0.05, seed=31)
        # The one column of either generator that is not its type's natural
        # class: ITEM.I_CURRENT_PRICE, a float into a DECIMAL(7,2).
        assert {type(r[3]) for r in data.item} == {float}
        for tables, ddl, cast in (
            (workload.base_rows(), workload.base_ddl(), 0),
            (data.tables(), tpcds.DDL, len(data.item)),
        ):
            db, _, values = self._loaded(tables, ddl)
            landing = db.monreport()["storage"]
            assert landing["landing.values_cast"] == cast
            assert landing["landing.values_typed"] == values - cast > 0
            assert landing["landing.batches"] == len(tables)

    def test_the_cast_path_and_sql_inserts_are_counted_too(self):
        db = Database()
        session = db.connect()
        session.execute("CREATE TABLE l (a INT, b CHAR(3), c DATE)")
        session.execute("INSERT INTO l VALUES (1, 'x', DATE '2016-01-01'), (2, 'y', NULL)")
        landing = db.monreport()["storage"]
        assert landing == {
            "landing.values_typed": 4, "landing.values_cast": 2, "landing.batches": 1,
        }  # CHAR pads value by value
        table = db.catalog.get_table("L").table
        table.insert_rows([("3", "z", "2016-01-02")])  # text into INT and DATE
        landing = db.monreport()["storage"]
        assert landing["landing.values_cast"] == 5 and landing["landing.batches"] == 2
        session.execute("DROP TABLE l")
        assert db.monreport()["storage"]["landing.batches"] == 0  # existing tables only


class TestSelectionFormOnTheBenchmarkPools:
    """The form a scan's selection took is on its profile.  A ``serve``
    point lookup that went back to decoding its region, or an ``analytics``
    dashboard whose dense scan paid for row ids, fails here — not as a
    slower benchmark three PRs later."""

    LOOKUPS = (
        "SELECT balance FROM accounts WHERE acct_id = %d",
        "SELECT COUNT(*) FROM trades WHERE acct_id = %d",
        "SELECT qty, market_value FROM positions WHERE acct_id = %d",
    )

    @pytest.fixture(scope="class")
    def loaded(self):
        from repro.workloads import tpcds
        from repro.workloads.customer import CustomerWorkload

        workload = CustomerWorkload(seed=31, n_accounts=600, n_instruments=40, n_trades=6000)
        db = Database(tracer=Tracer())
        session = db.connect()
        data = tpcds.generate(scale=0.05, seed=31)
        for ddl in workload.base_ddl() + tpcds.DDL:
            session.execute(ddl)
        for name, rows in {**workload.base_rows(), **data.tables()}.items():
            tpcds.bulk_insert(session, name, rows)
        tpcds.flush_tables(session)
        return db, session

    @staticmethod
    def _scan_lines(session, sql):
        lines = [r[0] for r in session.execute("EXPLAIN ANALYZE " + sql).rows]
        return [line for line in lines if "TableScanOp" in line]

    def test_serve_lookups_select_by_position_and_decode_what_they_return(self, loaded):
        db, session = loaded
        before = dict(db.monreport()["metrics"])
        regions = positional = decoded = 0
        for acct in range(0, 600, 7):
            for template in self.LOOKUPS:
                session.execute(template % acct)
                (scan,) = db.last_scans
                stats = scan.stats
                assert stats.regions_scanned == stats.regions_positional == 1, template
                assert stats.rows_decoded <= 16 * stats.rows_matched, (template, stats)
                assert stats.rows_decoded < stats.rows_scanned // 16
                regions += stats.regions_scanned
                positional += stats.regions_positional
                decoded += stats.rows_decoded
        for template in self.LOOKUPS:
            (line,) = self._scan_lines(session, template % 3)
            assert "[select=positions 1/1]" in line, line
            regions, positional = regions + 1, positional + 1
            decoded += db.last_scans[0].stats.rows_decoded
        after = db.monreport()["metrics"]
        totals = {
            name: after[name] - before.get(name, 0)
            for name in ("engine.scan.regions", "engine.scan.regions_positional",
                         "engine.scan.rows_decoded")
        }
        assert totals == {
            "engine.scan.regions": regions,
            "engine.scan.regions_positional": positional,
            "engine.scan.rows_decoded": decoded,
        }

    def test_analytics_dashboards_keep_dense_selections_as_masks(self, loaded):
        from repro.workloads import BDINSIGHT_QUERIES, TPCDS_QUERIES

        db, session = loaded
        masks = positions = 0
        for name, sql in TPCDS_QUERIES + BDINSIGHT_QUERIES:
            lines = self._scan_lines(session, sql)
            assert len(lines) == len(db.last_scans)
            for line, scan in zip(lines, db.last_scans):
                stats = scan.stats
                assert stats.regions_scanned == 1  # so the scan's form is its region's
                form = re.search(r"\[select=(mask|positions 1/1)\]", line)
                assert form, line
                if not scan.pushed or 16 * stats.rows_matched >= stats.rows_scanned:
                    # nothing to count on, or a dense answer: a mask, and
                    # every needed column unpacked once over the region
                    assert form.group(1) == "mask", (name, line)
                    assert stats.rows_decoded % stats.rows_scanned == 0
                masks += form.group(1) == "mask"
                positions += form.group(1) != "mask"
        assert masks > 30 and 0 < positions < masks / 4, (masks, positions)


# --------------------------------------------------------------------------
# MPP cluster observability
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster():
    hw = HardwareSpec(cores=2, ram_gb=16, storage_tb=1)
    cluster = Cluster([hw, hw])
    session = cluster.connect()
    session.execute("CREATE TABLE F (ID INT, AMT INT) DISTRIBUTE BY HASH (ID)")
    session.execute(
        "INSERT INTO F VALUES " + ", ".join(
            "(%d, %d)" % (i, i * 2) for i in range(1, 41)
        )
    )
    return cluster, session


class TestClusterObservability:
    def test_monreport_keys(self, cluster):
        cl, session = cluster
        session.execute("SELECT COUNT(*) FROM F")
        report = cl.monreport()
        assert sorted(report) == [
            "bufferpool", "cluster", "coordinator", "durability",
            "gather_fallbacks", "last_query", "parallel", "plan_cache", "tables",
        ]
        assert report["gather_fallbacks"] == {}  # nothing fell back yet
        assert report["parallel"]["parallelism"] == cl.parallelism
        assert report["cluster"]["shards"] == cl.n_shards
        assert report["cluster"]["live_nodes"] == 2
        assert report["tables"]["F"] == 40
        last = report["last_query"]
        assert sorted(last) == [
            "columns_pulled", "columns_total", "elapsed_by_node",
            "elapsed_by_shard", "fallback_reason", "gather_seconds", "mode",
            "parallelism", "plans", "rows_gathered", "shards_touched",
            "skew_ratio", "worker_busy",
        ]
        assert sum(last["plans"].values()) == cl.n_shards
        assert last["mode"] == "two-phase"
        assert last["shards_touched"] == cl.n_shards
        assert last["rows_gathered"] >= 1
        assert len(last["elapsed_by_shard"]) == cl.n_shards
        assert last["skew_ratio"] >= 1.0
        assert last["gather_seconds"] > 0.0

    def test_per_node_and_per_shard_timings_reconcile(self, cluster):
        cl, session = cluster
        session.execute("SELECT * FROM F WHERE AMT > 10")
        last = cl.last_stats
        assert last.mode == "scatter"
        per_node_sum = sum(last.elapsed_by_node.values())
        per_shard_sum = sum(last.elapsed_by_shard.values())
        assert per_node_sum == pytest.approx(per_shard_sum)

    def test_cluster_explain_analyze(self, cluster):
        _, session = cluster
        result = session.execute(
            "EXPLAIN ANALYZE SELECT COUNT(*), SUM(AMT) FROM F"
        )
        assert result.columns == ["PLAN"]
        lines = [row[0] for row in result.rows]
        assert lines[0].startswith("MPP two-phase:")
        assert "skew=" in lines[0] and "rows_gathered=" in lines[0]
        assert any(re.match(r"^  shard \d+ \(node\d+\): ", l) for l in lines)
        assert "  coordinator plan:" in lines
        assert any("__MPP_GATHER" in l and "rows=" in l for l in lines)

    def test_monreport_sums_the_shard_plan_caches(self, cluster):
        cl, session = cluster
        for amt in (3, 4, 5):
            session.execute("SELECT COUNT(*) FROM F WHERE AMT > %d" % amt)
        assert cl.last_stats.plans == {"cached": cl.n_shards}
        report = cl.monreport()["plan_cache"]
        per_shard = report["per_shard"]
        assert sorted(per_shard) == sorted(cl.shards)
        for name in ("hits", "misses"):
            assert report[name] == sum(shard[name] for shard in per_shard.values())
        assert all(shard["hits"] >= 2 for shard in per_shard.values())
        assert report["bypass_reasons"] == {
            reason: sum(shard["bypass_reasons"][reason] for shard in per_shard.values())
            for reason in report["bypass_reasons"]
        }
        assert report["hit_rate"] == report["hits"] / (report["hits"] + report["misses"])
        engine = cl.shards[0].engine
        assert per_shard[0]["hits"] == engine.monreport()["plan_cache"]["hits"]

    def test_cluster_explain_analyze_names_the_shards_plan_origin(self, cluster):
        cl, session = cluster
        n = cl.n_shards
        sql = "EXPLAIN ANALYZE SELECT AMT, SUM(ID) FROM F WHERE ID > %d GROUP BY AMT"
        assert session.execute(sql % 900).rows[0][0].endswith(
            "plans=fresh (miss) %d/%d" % (n, n)
        )
        assert session.execute(sql % 901).rows[0][0].endswith(
            "plans=cached %d/%d" % (n, n)
        )
        # RAND() is never stored: the shards say why they planned
        head = session.execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM F WHERE AMT > RAND()"
        ).rows[0][0]
        assert head.endswith("plans=fresh (volatile) %d/%d" % (n, n))
        head = session.execute(
            "EXPLAIN ANALYZE SELECT ID, MEDIAN(AMT) FROM F GROUP BY ID"
        ).rows[0][0]  # a fallback pulls F's two columns from every shard
        assert " plans=" in head and head.endswith("reason=unsplittable-aggregate: MEDIAN")

    def test_plain_explain_still_coordinator_only(self, cluster):
        _, session = cluster
        result = session.execute("EXPLAIN SELECT COUNT(*) FROM F")
        assert result.columns == ["PLAN"]
        lines = [row[0] for row in result.rows]
        assert not any(l.startswith("MPP") for l in lines)


# --------------------------------------------------------------------------
# Spark stage metrics
# --------------------------------------------------------------------------


class TestSparkStageMetrics:
    def test_stage_records_cover_the_lineage(self):
        from repro.spark import SparkContext

        sc = SparkContext(default_parallelism=4)
        (
            sc.parallelize(range(100))
            .map(lambda x: (x % 5, x))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        metrics = sc.scheduler.last_metrics
        kinds = [s["kind"] for s in metrics.stage_metrics]
        assert kinds == ["source", "narrow", "shuffle"]
        shuffle = metrics.stage_metrics[-1]
        assert shuffle["op"] == "reduce_by_key"
        assert shuffle["records"] == 100
        assert sum(s["tasks"] for s in metrics.stage_metrics) == metrics.tasks

    def test_job_span_under_tracer(self):
        from repro.spark import SparkContext

        tracer = Tracer()
        sc = SparkContext(default_parallelism=2, tracer=tracer)
        sc.parallelize(range(10)).map(lambda x: x + 1).collect()
        jobs = tracer.find("spark.job")
        assert jobs and jobs[-1].children
