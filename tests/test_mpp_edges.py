"""MPP edge cases: routing, failure visibility, dialects over the cluster."""

import pytest

from repro.cluster import Cluster, HardwareSpec, fail_node
from repro.errors import (
    DialectError,
    NodeDownError,
    SQLSyntaxError,
    UnknownObjectError,
    UnsupportedFeatureError,
)

HW = HardwareSpec(cores=4, ram_gb=16, storage_tb=1.0)


@pytest.fixture()
def cluster():
    c = Cluster([HW] * 2)
    s = c.connect("db2")
    s.execute("CREATE TABLE f (k INT, v INT) DISTRIBUTE BY HASH (k)")
    s.execute("INSERT INTO f VALUES " + ", ".join("(%d, %d)" % (i, i) for i in range(100)))
    return c


class TestRouting:
    def test_coordinator_statements(self, cluster):
        s = cluster.connect("db2")
        s.execute("CREATE SEQUENCE gseq START WITH 5")
        assert s.execute("VALUES NEXT VALUE FOR gseq").scalar() == 5
        s.execute("CREATE VIEW vf AS SELECT COUNT(*) AS n FROM f")
        # Views live on the coordinator; reading one uses gather fallback.
        assert s.execute("SELECT n FROM vf").scalar() == 100
        assert cluster.last_stats.mode == "gather-fallback"

    def test_explain_over_cluster(self, cluster):
        s = cluster.connect("db2")
        result = s.execute("EXPLAIN SELECT COUNT(*) FROM f")
        assert result.columns == ["PLAN"]

    def test_set_dialect_per_cluster_session(self, cluster):
        s = cluster.connect("db2")
        with pytest.raises(DialectError):
            s.execute("SELECT k FROM f ORDER BY k LIMIT 1")
        s.execute("SET SQL_COMPAT = 'NPS'")
        assert s.execute("SELECT k FROM f ORDER BY k LIMIT 1").rows == [(0,)]

    def test_insert_select_between_cluster_tables(self, cluster):
        s = cluster.connect("db2")
        s.execute("CREATE TABLE f2 (k INT, v INT) DISTRIBUTE BY HASH (k)")
        s.execute("INSERT INTO f2 SELECT k, v * 2 FROM f WHERE k < 10")
        assert cluster.total_rows("f2") == 10
        assert s.execute("SELECT SUM(v) FROM f2").scalar() == 2 * sum(range(10))

    def test_unknown_cluster_table(self, cluster):
        with pytest.raises(UnknownObjectError):
            cluster.connect("db2").execute("INSERT INTO nope VALUES (1)")

    def test_create_table_as_rejected(self, cluster):
        with pytest.raises(UnsupportedFeatureError):
            cluster.connect("db2").execute(
                "CREATE TABLE c AS (SELECT * FROM f) WITH DATA"
            )


class TestExpressionsMatchWhereverTheyAreSpelled:
    """The splitter compares expressions without their literals' token
    positions: the same expression spelled twice is one expression."""

    def test_group_by_an_expression_named_again_in_the_select_list(self, cluster):
        sql = "SELECT v + 1, COUNT(*) FROM f WHERE k < 5 GROUP BY v + 1 ORDER BY 1"
        rows = cluster.connect("db2").execute(sql).rows
        assert cluster.last_stats.mode == "two-phase"
        assert rows == [(k + 1, 1) for k in range(5)]

    def test_distinct_aggregates_of_one_expression_split(self, cluster):
        sql = "SELECT COUNT(DISTINCT v + 1), SUM(DISTINCT v + 1) FROM f"
        assert cluster.connect("db2").execute(sql).rows == [(100, sum(range(1, 101)))]
        assert cluster.last_stats.mode == "two-phase"
        assert cluster.last_stats.fallback_reason == ""

    def test_an_aggregate_over_a_case_splits(self, cluster):
        sql = "SELECT SUM(CASE WHEN v < 10 THEN 1 ELSE 0 END) FROM f"
        assert cluster.connect("db2").execute(sql).rows == [(10,)]
        assert cluster.last_stats.mode == "two-phase"


class TestFailureVisibility:
    def test_query_on_unfailed_cluster_with_down_node_raises(self, cluster):
        # A node marked dead *without* failover: its shards are orphaned and
        # queries must fail loudly rather than silently losing data.
        cluster.node_by_id("node1").alive = False
        with pytest.raises(NodeDownError):
            cluster.connect("db2").execute("SELECT COUNT(*) FROM f")

    def test_failover_restores_service(self, cluster):
        s = cluster.connect("db2")
        before = s.execute("SELECT SUM(v) FROM f").scalar()
        fail_node(cluster, "node1")
        assert s.execute("SELECT SUM(v) FROM f").scalar() == before

    def test_dml_on_down_node_raises(self, cluster):
        cluster.node_by_id("node0").alive = False
        with pytest.raises(NodeDownError):
            cluster.connect("db2").execute("DELETE FROM f WHERE k = 1")


class TestStats:
    def test_stats_modes(self, cluster):
        s = cluster.connect("db2")
        s.execute("SELECT k FROM f WHERE k < 5")
        assert cluster.last_stats.mode == "scatter"
        s.execute("SELECT COUNT(*) FROM f")
        assert cluster.last_stats.mode == "two-phase"
        s.execute("SELECT MEDIAN(v) FROM f")
        assert cluster.last_stats.mode == "gather-fallback"
        s.execute("UPDATE f SET v = v WHERE k = 0")
        assert cluster.last_stats.mode == "dml"

    def test_rows_gathered_accounting(self, cluster):
        s = cluster.connect("db2")
        s.execute("SELECT COUNT(*) FROM f")
        # Two-phase gathers one partial row per shard with data.
        assert 0 < cluster.last_stats.rows_gathered <= cluster.n_shards


class TestStatsPerStatement:
    def test_a_statement_that_fails_to_parse_resets_last_stats(self, cluster):
        s = cluster.connect("db2")
        s.execute("SELECT COUNT(*) FROM f")
        assert cluster.last_stats.mode == "two-phase"
        for text in ("SELEC k FROM f", "SELECT 'open FROM f"):
            with pytest.raises(SQLSyntaxError):
                s.execute(text)
            assert cluster.last_stats.mode == ""
            assert cluster.monreport()["last_query"]["mode"] == ""
