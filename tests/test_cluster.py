"""MPP cluster: sharding, distributed SQL, HA (Fig. 9), elasticity."""

import datetime
import re

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    HardwareSpec,
    fail_node,
    reinstate_node,
    scale_in,
    scale_out,
)
from repro.cluster.autoconfig import shards_for_cluster
from repro.cluster.shard import hash_value_to_shard
from repro.database import Database
from repro.errors import (
    BindError,
    ClusterError,
    NoSurvivorsError,
    SQLError,
    UnknownObjectError,
)
from repro.sql.parser import parse_statement
from repro.storage import ColumnVector
from repro.util.timer import SimClock

HW = HardwareSpec(cores=8, ram_gb=64, storage_tb=1.0)


def make_cluster(n_nodes=4, clock=None, rows=200):
    cluster = Cluster([HW] * n_nodes, clock=clock)
    s = cluster.connect("db2")
    s.execute(
        "CREATE TABLE sales (id INT, region VARCHAR(10), amt DECIMAL(10,2))"
        " DISTRIBUTE BY HASH (id)"
    )
    if rows:
        values = ", ".join(
            "(%d, '%s', %d.25)" % (i, ["east", "west"][i % 2], i) for i in range(rows)
        )
        s.execute("INSERT INTO sales VALUES " + values)
    return cluster, s


class TestShardPlacement:
    def test_shard_count_rule(self):
        # Paper: several factors more shards than servers, at most total cores.
        assert shards_for_cluster(4, 8) == 24
        assert shards_for_cluster(4, 4) == 16  # capped by cumulative cores
        assert shards_for_cluster(2, 1) == 2

    def test_initial_balance(self):
        cluster, _ = make_cluster(rows=0)
        assert cluster.n_shards == 24
        assert set(cluster.shard_counts().values()) == {6}
        assert cluster.is_balanced()

    def test_hash_partitioning_is_deterministic(self):
        assert hash_value_to_shard(42, 24) == hash_value_to_shard(42, 24)
        assert hash_value_to_shard(None, 24) == 0

    def test_rows_spread_across_shards(self):
        cluster, _ = make_cluster()
        populated = sum(
            1 for shard in cluster.shards.values() if shard.n_rows("SALES") > 0
        )
        assert populated > cluster.n_shards // 2
        assert cluster.total_rows("sales") == 200

    def test_replicated_table_on_every_shard(self):
        cluster, s = make_cluster(rows=0)
        s.execute("CREATE TABLE dim (k INT, v VARCHAR(5)) DISTRIBUTE BY REPLICATION")
        s.execute("INSERT INTO dim VALUES (1,'a'), (2,'b')")
        assert all(
            shard.n_rows("DIM") == 2 for shard in cluster.shards.values()
        )


class TestDistributedQueries:
    @pytest.fixture(scope="class")
    def cs(self):
        return make_cluster()

    def test_count(self, cs):
        _, s = cs
        assert s.execute("SELECT COUNT(*) FROM sales").scalar() == 200

    def test_two_phase_aggregates(self, cs):
        cluster, s = cs
        rows = s.execute(
            "SELECT region, COUNT(*), SUM(amt), AVG(amt), MIN(id), MAX(id)"
            " FROM sales GROUP BY region ORDER BY region"
        ).rows
        assert cluster.last_stats.mode == "two-phase"
        east = rows[0]
        assert east[0] == "east"
        assert east[1] == 100
        assert float(east[2]) == pytest.approx(9925.0)
        assert east[3] == pytest.approx(99.25)
        assert (east[4], east[5]) == (0, 198)

    def test_scatter_filter(self, cs):
        cluster, s = cs
        rows = s.execute("SELECT id FROM sales WHERE id BETWEEN 10 AND 14 ORDER BY id").rows
        assert rows == [(10,), (11,), (12,), (13,), (14,)]
        assert cluster.last_stats.mode == "scatter"

    def test_global_order_and_limit(self, cs):
        _, s = cs
        rows = s.execute("SELECT id FROM sales ORDER BY id DESC FETCH FIRST 3 ROWS ONLY").rows
        assert rows == [(199,), (198,), (197,)]

    def test_median_falls_back_to_gather(self, cs):
        cluster, s = cs
        value = s.execute("SELECT MEDIAN(amt) FROM sales").scalar()
        assert cluster.last_stats.mode == "gather-fallback"
        assert value == pytest.approx(99.75)

    def test_count_distinct_gathers(self, cs):
        """Shards answer their distinct regions; the coordinator counts the union."""
        cluster, s = cs
        assert s.execute("SELECT COUNT(DISTINCT region) FROM sales").scalar() == 2
        assert cluster.last_stats.mode == "two-phase"
        assert cluster.last_stats.rows_gathered <= 2 * cluster.n_shards

    def test_group_without_aggregates_dedups(self, cs):
        _, s = cs
        rows = s.execute("SELECT region FROM sales GROUP BY region ORDER BY region").rows
        assert rows == [("east",), ("west",)]

    def test_distinct(self, cs):
        _, s = cs
        rows = s.execute("SELECT DISTINCT region FROM sales ORDER BY region").rows
        assert rows == [("east",), ("west",)]

    def test_having(self, cs):
        _, s = cs
        rows = s.execute(
            "SELECT region, COUNT(*) c FROM sales GROUP BY region"
            " HAVING COUNT(*) > 150 ORDER BY region"
        ).rows
        assert rows == []

    def test_collocated_join_with_replicated_dim(self, cs):
        cluster, s = cs
        s.execute("CREATE TABLE rdim (region VARCHAR(10), zone VARCHAR(5)) DISTRIBUTE BY REPLICATION")
        s.execute("INSERT INTO rdim VALUES ('east','z1'), ('west','z2')")
        rows = s.execute(
            "SELECT d.zone, SUM(f.amt) FROM sales f JOIN rdim d ON f.region = d.region"
            " GROUP BY d.zone ORDER BY d.zone"
        ).rows
        assert [r[0] for r in rows] == ["z1", "z2"]

    def test_subquery_uses_fallback(self, cs):
        cluster, s = cs
        value = s.execute(
            "SELECT COUNT(*) FROM sales WHERE amt > (SELECT AVG(amt) FROM sales)"
        ).scalar()
        assert cluster.last_stats.mode == "gather-fallback"
        assert value == 100

    def test_unknown_table(self, cs):
        _, s = cs
        with pytest.raises(UnknownObjectError):
            s.execute("SELECT * FROM nothere")

    def test_ordinal_group_key_over_an_expression(self):
        """``GROUP BY 1`` naming a CASE item: the coordinator used to bind
        the CASE over the gathered partials (``BindError: column
        SS_SALES_PRICE not found``).  Both benchmark queries of that shape
        must equal the single-node answer on a 4-shard cluster."""
        from repro.database import Database
        from repro.workloads import tpcds
        from repro.workloads.bdinsight import BDINSIGHT_QUERIES

        data = tpcds.generate(scale=0.05, seed=11)
        cluster = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2)
        assert cluster.n_shards == 4
        single = Database().connect("db2")
        sharded = cluster.connect("db2")
        for system in (single, sharded):
            for ddl in tpcds.DDL:
                system.execute(ddl)
            for name, rows in data.tables().items():
                tpcds.bulk_insert(system, name, rows)
        queries = dict(tpcds.TPCDS_QUERIES + BDINSIGHT_QUERIES)
        for name in ("q11_price_bands", "b07_discount_band"):
            expected = single.execute(queries[name]).rows
            assert len(expected) == 3, name
            assert sharded.execute(queries[name]).rows == expected, name
            assert cluster.last_stats.mode == "two-phase"
        with pytest.raises(BindError, match="position 3 out of range"):
            sharded.execute("SELECT d_year, COUNT(*) FROM date_dim GROUP BY 3")
        with pytest.raises(BindError, match="position 1e0 is not an integer"):
            sharded.execute("SELECT d_year, COUNT(*) FROM date_dim GROUP BY 1e0")


class TestDistributedDml:
    def test_insert_then_update_delete(self):
        cluster, s = make_cluster(rows=50)
        assert s.execute("UPDATE sales SET amt = 0 WHERE id < 10").rowcount == 10
        assert s.execute("SELECT COUNT(*) FROM sales WHERE amt = 0").scalar() == 10
        assert s.execute("DELETE FROM sales WHERE id >= 40").rowcount == 10
        assert s.execute("SELECT COUNT(*) FROM sales").scalar() == 40

    def test_insert_from_select(self):
        cluster, s = make_cluster(rows=20)
        s.execute("CREATE TABLE sales2 (id INT, region VARCHAR(10), amt DECIMAL(10,2)) DISTRIBUTE BY HASH (id)")
        s.execute("INSERT INTO sales2 SELECT * FROM sales WHERE id < 5")
        assert cluster.total_rows("sales2") == 5

    def test_truncate_and_drop(self):
        cluster, s = make_cluster(rows=10)
        s.execute("TRUNCATE TABLE sales")
        assert s.execute("SELECT COUNT(*) FROM sales").scalar() == 0
        s.execute("DROP TABLE sales")
        assert "SALES" not in cluster.tables

    def test_round_robin_distribution(self):
        cluster = Cluster([HW] * 2)
        s = cluster.connect("netezza")
        s.execute("CREATE TABLE rr (a INT) DISTRIBUTE ON RANDOM")
        s.execute("INSERT INTO rr VALUES " + ", ".join("(%d)" % i for i in range(24)))
        counts = [shard.n_rows("RR") for shard in cluster.shards.values()]
        assert max(counts) - min(counts) <= 1


class TestHighAvailability:
    def test_figure9_failover(self):
        """The exact Fig. 9 scenario: 4 servers x 6 shards; server D fails;
        A, B, C now serve 8 shards each and the cluster stays balanced."""
        cluster, s = make_cluster(n_nodes=4)
        assert set(cluster.shard_counts().values()) == {6}
        moves = fail_node(cluster, "node3")
        assert len(moves) == 6
        counts = cluster.shard_counts()
        assert counts == {"node0": 8, "node1": 8, "node2": 8}
        assert cluster.is_balanced()

    def test_queries_survive_failover(self):
        cluster, s = make_cluster()
        before = s.execute("SELECT SUM(amt) FROM sales").scalar()
        fail_node(cluster, "node1")
        after = s.execute("SELECT SUM(amt) FROM sales").scalar()
        assert before == after

    def test_parallelism_and_memory_reduced(self):
        cluster, _ = make_cluster()
        node0 = cluster.node_by_id("node0")
        memory_before = node0.memory_per_shard_bytes
        fail_node(cluster, "node3")
        assert node0.memory_per_shard_bytes < memory_before
        assert len(node0.shard_ids) == 8

    def test_reinstate_rebalances(self):
        cluster, _ = make_cluster()
        fail_node(cluster, "node2")
        reinstate_node(cluster, "node2")
        assert set(cluster.shard_counts().values()) == {6}

    def test_double_failure(self):
        cluster, s = make_cluster()
        fail_node(cluster, "node3")
        fail_node(cluster, "node2")
        assert cluster.is_balanced()
        assert s.execute("SELECT COUNT(*) FROM sales").scalar() == 200

    def test_no_survivors(self):
        cluster, _ = make_cluster(n_nodes=1)
        with pytest.raises(NoSurvivorsError):
            fail_node(cluster, "node0")

    def test_fail_twice_rejected(self):
        cluster, _ = make_cluster()
        fail_node(cluster, "node0")
        with pytest.raises(ClusterError):
            fail_node(cluster, "node0")

    def test_failover_charges_simulated_time(self):
        clock = SimClock()
        cluster, _ = make_cluster(clock=clock, rows=0)
        t0 = clock.now
        fail_node(cluster, "node0")
        assert clock.now > t0


class TestElasticity:
    def test_scale_out_rebalances(self):
        cluster, s = make_cluster()
        scale_out(cluster, HW)
        counts = cluster.shard_counts()
        assert len(counts) == 5
        assert cluster.is_balanced()
        assert s.execute("SELECT COUNT(*) FROM sales").scalar() == 200

    def test_scale_in_preserves_data(self):
        cluster, s = make_cluster()
        scale_in(cluster, "node3")
        assert len(cluster.nodes) == 3
        assert cluster.is_balanced()
        assert s.execute("SELECT COUNT(*) FROM sales").scalar() == 200

    def test_cannot_remove_last_node(self):
        cluster, _ = make_cluster(n_nodes=1, rows=0)
        with pytest.raises(ClusterError):
            scale_in(cluster, "node0")

    def test_full_cycle(self):
        cluster, s = make_cluster()
        node = scale_out(cluster, HW)
        scale_in(cluster, node.node_id)
        assert set(cluster.shard_counts().values()) == {6}
        assert s.execute("SELECT SUM(amt) FROM sales").scalar() is not None


class TestClusterInsertInvalidation:
    """Pinned regression: the coordinator's raw-transaction insert path
    must bump each shard engine's commit-version clock (reproflow's
    write-protocol rule caught this omission — serving caches attached
    to shard engines replayed pre-insert results as valid)."""

    def test_cluster_insert_bumps_shard_engine_version_clocks(self):
        cluster, s = make_cluster(rows=0)
        tokens = {
            sid: shard.engine.versions_token(frozenset({"SALES"}))
            for sid, shard in cluster.shards.items()
        }
        s.execute(
            "INSERT INTO sales VALUES (1, 'east', 1.25), (2, 'west', 2.25)"
        )
        stale = {
            sid for sid, shard in cluster.shards.items()
            if not shard.engine.versions_valid(tokens[sid])
        }
        touched = {
            sid for sid, shard in cluster.shards.items()
            if shard.n_rows("SALES") > 0
        }
        assert touched, "insert reached no shard"
        assert stale == touched

    def test_cluster_insert_fires_shard_commit_listeners(self):
        cluster, s = make_cluster(rows=0)
        events = []
        for sid, shard in cluster.shards.items():
            shard.engine.add_commit_listener(
                lambda tables, sid=sid: events.append((sid, tables))
            )
        s.execute("INSERT INTO sales VALUES (7, 'east', 7.25)")
        assert events, "no shard commit listener fired"
        assert all(tables == frozenset({"SALES"}) for _, tables in events)


# -- columnar gather: every mode against a single node ------------------------

SMALL = HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)  # 2 nodes -> 4 shards

_GATHER_DDL = (
    "CREATE TABLE t (k INT, g VARCHAR(4), v INT, amt DECIMAL(8,2), f DOUBLE,"
    " d DATE, s CHAR(3))"
)

#: (mode, fallback reason, statement) — sort keys are unique, so ORDER BY
#: and FETCH FIRST have one right answer.
_GATHER_QUERIES = [
    ("scatter", "", "SELECT DISTINCT g, s FROM t ORDER BY g, s"),
    ("scatter", "", "SELECT k, v, amt, f, d, s FROM t ORDER BY k DESC FETCH FIRST 5 ROWS ONLY"),
    ("scatter", "", "SELECT k, d FROM t WHERE v IS NULL ORDER BY 1"),
    ("two-phase", "",
     "SELECT g, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(s), MAX(d), SUM(amt), AVG(f)"
     " FROM t GROUP BY g ORDER BY g"),
    ("two-phase", "",
     "SELECT g, AVG(amt) FROM t GROUP BY g HAVING COUNT(*) > 2 AND SUM(v) > 0 ORDER BY g"),
    ("two-phase", "", "SELECT COUNT(*), SUM(v), AVG(v), MIN(d), MAX(s) FROM t"),
    ("gather-fallback", "subquery",
     "SELECT k FROM t WHERE v >= (SELECT AVG(v) FROM t) ORDER BY k"),
    ("gather-fallback", "cte",
     "WITH c AS (SELECT g, v FROM t WHERE k > 3) SELECT g, SUM(v) FROM c GROUP BY g ORDER BY g"),
    ("gather-fallback", "set-op",
     "SELECT k, s FROM t WHERE v IS NULL UNION SELECT k, s FROM t WHERE k < 5 ORDER BY 1"),
    ("gather-fallback", "coordinator-object",
     "SELECT g, v, d FROM tv WHERE k > 2 ORDER BY k"),
    ("two-phase", "", "SELECT COUNT(DISTINCT v) FROM t"),
    ("two-phase", "", "SELECT COUNT(DISTINCT v), SUM(v), AVG(f), COUNT(*), MIN(d) FROM t"),
    ("two-phase", "", "SELECT SUM(DISTINCT v), AVG(DISTINCT v), COUNT(DISTINCT v), MAX(DISTINCT v) FROM t"),
    ("two-phase", "",
     "SELECT g, COUNT(DISTINCT s), SUM(amt), AVG(v) FROM t GROUP BY g"
     " HAVING COUNT(DISTINCT s) > 1 ORDER BY COUNT(DISTINCT s) DESC, g"),
    ("two-phase", "", "SELECT g, COUNT(DISTINCT g), COUNT(*) FROM t GROUP BY g ORDER BY g"),
    ("two-phase", "", "SELECT COUNT(DISTINCT k % 4), SUM(k) FROM t WHERE k > 5"),
    ("gather-fallback", "unsplittable-aggregate: COUNT(DISTINCT)",
     "SELECT COUNT(DISTINCT g), COUNT(DISTINCT v) FROM t"),
    ("gather-fallback", "unsplittable-aggregate: SUM(DISTINCT)",
     "SELECT g, COUNT(DISTINCT v), SUM(DISTINCT k) FROM t GROUP BY g ORDER BY g"),
    ("gather-fallback", "unsplittable-aggregate: MEDIAN", "SELECT MEDIAN(f) FROM t"),
]


def _gather_rows(scenario):
    """``sparse``: keys of two shards only (the others answer 0 rows);
    ``empty``: every shard answers 0 rows; ``null-shard``: v/amt/f/d/s are
    NULL on every row of shard 0 and nowhere else."""
    if scenario == "empty":
        return []
    rows = []
    for k in range(60):
        sid = hash_value_to_shard(k, 4)
        if scenario == "sparse" and sid in (0, 3):
            continue
        if scenario == "null-shard" and sid == 0:
            rows.append((k, "g%d" % (k % 3), None, None, None, None, None))
        else:
            rows.append((k, "g%d" % (k % 3), k * 7 % 11 - 3, "%d.25" % k, k / 7.0,
                         datetime.date(2016, 1, 1) + datetime.timedelta(days=k),
                         "s%d" % (k % 5)))
    return rows


def _sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, (str, datetime.date)):
        return "'%s'" % value
    return repr(value)


def _close(got, want):
    if isinstance(want, float):
        return got == pytest.approx(want, rel=1e-12)
    return type(got) is type(want) and got == want


@pytest.fixture(scope="module", params=["sparse", "empty", "null-shard"])
def gather_pair(request):
    """A 4-shard cluster at scatter DOP 4 and a single node, same data."""
    cluster = Cluster([SMALL] * 2, parallelism=4)
    assert cluster.n_shards == 4
    sessions = [cluster.connect(), Database().connect()]
    rows = _gather_rows(request.param)
    for session in sessions:
        distribute = " DISTRIBUTE BY HASH (k)" if session is sessions[0] else ""
        session.execute(_GATHER_DDL + distribute)
        if rows:
            session.execute("INSERT INTO t VALUES " + ", ".join(
                "(%s)" % ", ".join(map(_sql_literal, row)) for row in rows
            ))
        session.execute("CREATE VIEW tv AS SELECT k, g, v, d FROM t")
        session.execute(
            "CREATE VIEW tv2 AS SELECT tv.k, t.s, tv.v FROM tv JOIN t ON tv.k = t.k"
        )
    if request.param != "empty":
        per_shard = [s.n_rows("T") for s in cluster.shards.values()]
        assert (0 in per_shard) == (request.param == "sparse")
    yield cluster, sessions[0], sessions[1]


class TestColumnarGather:
    @pytest.mark.parametrize("mode,reason,sql", _GATHER_QUERIES)
    def test_every_mode_equals_single_node(self, gather_pair, mode, reason, sql):
        cluster, cs, single = gather_pair
        got, want = cs.execute(sql), single.execute(sql)
        assert cluster.last_stats.mode == mode
        assert cluster.last_stats.fallback_reason == reason
        assert got.columns == want.columns
        assert len(got.rows) == len(want.rows)
        for g_row, w_row in zip(got.rows, want.rows):
            assert all(map(_close, g_row, w_row)), (g_row, w_row)

    @pytest.mark.parametrize("sql", [
        pytest.param("SELECT k, s FROM t", id="scatter"),
        pytest.param(
            "SELECT g, COUNT(DISTINCT s), SUM(amt) FROM t GROUP BY g", id="two-phase"
        ),
        pytest.param(
            "SELECT k, s FROM tv2 WHERE v >= (SELECT MIN(v) FROM t)", id="fallback"
        ),
    ])
    def test_partials_stay_vectors(self, gather_pair, monkeypatch, sql):
        """The coordinator plans over the shard vectors themselves: it never
        seals (compresses) them, no shard answer becomes rows, the client's
        answer becomes rows once, when it is read, and once the read returns
        neither the session nor the engine keeps a gathered table or
        relation."""
        from repro.database import result as result_module
        from repro.storage import table as table_module

        cluster, cs, _ = gather_pair
        calls = {"compress_column": 0, "to_boundary": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(table_module, "compress_column")
        counted(result_module, "to_boundary")  # one call per column of a row build
        session_state = set(vars(cs.inner))
        result = cs.execute(sql)
        assert calls == {"compress_column": 0, "to_boundary": 0}
        assert result.rows is result.rows
        assert calls == {"compress_column": 0, "to_boundary": len(result.columns)}
        assert cs.inner.temp_table_names() == []
        assert set(vars(cs.inner)) == session_state
        assert cluster.coordinator._tls.relations is None
        assert cluster.coordinator.catalog.get_table("T").table.n_rows == 0

    def test_fallback_reason_in_explain_and_monreport(self, gather_pair):
        cluster, cs, _ = gather_pair
        before = dict(cluster.monreport()["gather_fallbacks"])
        plan = cs.execute("EXPLAIN ANALYZE SELECT MEDIAN(v) FROM t").rows
        assert plan[0][0].startswith("MPP gather-fallback:")
        assert plan[0][0].endswith("columns=1/7 reason=unsplittable-aggregate: MEDIAN")
        assert any(re.search(r"VectorSourceOp T rows=\d+", row[0]) for row in plan)
        plan = cs.execute("EXPLAIN ANALYZE SELECT COUNT(DISTINCT g) FROM t").rows
        assert plan[0][0].startswith("MPP two-phase:")
        assert "reason=" not in plan[0][0] and "columns=" not in plan[0][0]
        assert any(
            re.search(r"VectorSourceOp __MPP_GATHER rows=\d+", row[0]) for row in plan
        )
        cs.execute("SELECT 1 FROM t UNION SELECT 2 FROM t")
        report = cluster.monreport()
        assert report["last_query"]["fallback_reason"] == "set-op"
        assert report["last_query"]["columns_pulled"] == 1  # T's row count
        assert report["last_query"]["columns_total"] == 7
        after = report["gather_fallbacks"]
        key = "unsplittable-aggregate: MEDIAN"
        assert after[key] == before.get(key, 0) + 1
        assert after["set-op"] == before.get("set-op", 0) + 1

    #: (fallback reason, statement, columns of T each shard must be asked
    #: for — None: all seven).
    _PRUNED_PULLS = [
        ("set-op", "SELECT k, s FROM t WHERE v IS NULL UNION SELECT k, s FROM t WHERE k < 5",
         ["K", "V", "S"]),
        ("cte", "WITH c AS (SELECT g, v FROM t WHERE k > 3) SELECT g, SUM(v) FROM c GROUP BY g",
         ["K", "G", "V"]),
        ("subquery", "SELECT k FROM t WHERE v >= (SELECT AVG(v) FROM t)", ["K", "V"]),
        ("subquery", "SELECT COUNT(*) FROM (SELECT 1 AS one FROM t) x", ["K"]),
        ("subquery", "SELECT a.k FROM t a JOIN (SELECT k FROM t) b USING (k) WHERE a.f > 1",
         ["K", "F"]),
        # The statement names d only; k, g, v come from the view's text.
        ("coordinator-object", "SELECT d FROM tv", ["K", "G", "V", "D"]),
        # View over view: s from tv2, the rest from tv underneath.
        ("coordinator-object", "SELECT k FROM tv2", ["K", "G", "V", "D", "S"]),
        ("set-op", "SELECT * FROM t WHERE k < 3 UNION SELECT * FROM t WHERE k > 50", None),
        ("subquery", "SELECT x.k FROM (SELECT t.* FROM t) x", None),
        ("subquery", "SELECT t.k FROM t NATURAL JOIN (SELECT k FROM t) b", None),
        ("unsplittable-aggregate: MEDIAN", "SELECT g, MEDIAN(f) FROM t GROUP BY g", ["G", "F"]),
    ]

    @pytest.mark.parametrize("reason,sql,columns", _PRUNED_PULLS)
    def test_fallback_pulls_only_the_columns_the_statement_can_read(
        self, gather_pair, monkeypatch, reason, sql, columns
    ):
        cluster, cs, single = gather_pair
        all_columns = ["K", "G", "V", "AMT", "F", "D", "S"]
        asked = []
        run_on_shards = cluster._run_on_shards

        def recording(select, session, key):
            asked.append([item.expr.parts[-1] for item in select.items])
            return run_on_shards(select, session, key)

        monkeypatch.setattr(cluster, "_run_on_shards", recording)
        got, want = cs.execute(sql), single.execute(sql)
        stats = cluster.last_stats
        assert (stats.mode, stats.fallback_reason) == ("gather-fallback", reason)
        assert asked == [columns or all_columns]  # one pull of T
        assert (stats.columns_pulled, stats.columns_total) == (len(asked[0]), 7)
        assert sorted(got.rows, key=repr) == sorted(want.rows, key=repr)


class TestColumnarGatherContract:
    def test_commit_after_the_pin_stays_invisible(self, monkeypatch):
        """The pinned snapshot still rides the columnar shard call."""
        cluster, s = make_cluster(n_nodes=1, rows=40)
        pin = cluster._pin_snapshots

        def pin_then_commit():
            pinned = pin()
            cluster.shards[0].engine.execute(
                "INSERT INTO sales VALUES (1000, 'late', 1.00)"
            )
            return pinned

        monkeypatch.setattr(cluster, "_pin_snapshots", pin_then_commit)
        assert s.query("SELECT COUNT(*) FROM sales") == [(40,)]  # two-phase
        assert len(s.query("SELECT id FROM sales")) == 41  # scatter: 1 late row visible, 1 not
        monkeypatch.setattr(cluster, "_pin_snapshots", pin)
        assert s.query("SELECT COUNT(*) FROM sales") == [(42,)]

    def test_a_shard_vector_of_another_numpy_dtype_raises(self, monkeypatch):
        """np.concatenate would widen it silently; the gather must not."""
        cluster, s = make_cluster(n_nodes=1, rows=40)
        engine = cluster.shards[1].engine
        execute_ast = engine.execute_ast

        def narrowed(*args, **kwargs):
            result = execute_ast(*args, **kwargs)
            first = result.vectors[0]
            result.vectors[0] = ColumnVector(first.dtype, first.values.astype(np.int32))
            return result

        monkeypatch.setattr(engine, "execute_ast", narrowed)
        with pytest.raises(SQLError, match="int32"):
            s.query("SELECT id FROM sales")

    def test_a_select_answers_with_vectors_and_rows(self):
        """One Result form: a SELECT's answer is its column vectors, and
        its rows are built from them on read; VALUES answers with rows."""
        db = Database()
        db.execute("CREATE TABLE r (x INT)")
        db.execute("INSERT INTO r VALUES (1), (NULL)")
        result = db.execute_ast(parse_statement("SELECT x FROM r"))
        assert result.rowcount == 2
        assert result.vectors[0].to_boundary() == [1, None]
        assert result.rows == [(1,), (None,)]
        values = db.execute_ast(parse_statement("VALUES (1)"))
        assert values.vectors is None and values.rows == [(1,)]
