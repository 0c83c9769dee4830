"""Differential testing: random queries, three independent executions.

The columnar engine (compressed scans, software-SIMD, vectorised
operators), the same engine at DOP 4, and the row-store engine (B-trees,
row-at-a-time interpreter) share only the SQL front end; agreeing on hundreds of randomised queries over data with
NULLs, duplicates, and skew is strong evidence against whole classes of
engine bugs (selection masks, null semantics, grouping, join
multiplicity, and gather ordering).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rowdb import RowDatabase
from repro.database import Database
from repro.util.rng import derive_rng
from repro.workloads.tpcds import flush_tables

from tests.test_parallel import _modelled, _runs_by_label

N_ROWS = 3000
_COLUMNS = ["A", "B", "C", "D"]


def _value_pool(rng):
    return {
        "A": lambda: int(rng.integers(0, 50)),
        "B": lambda: int(rng.integers(-1000, 1000)),
        "C": lambda: "v%d" % rng.integers(0, 8),
        "D": lambda: "%d.%02d" % (rng.integers(0, 100), rng.integers(0, 100)),
    }


def _build_rows(seed):
    rng = derive_rng(seed, "diff-rows")
    pool = _value_pool(rng)
    rows = []
    for i in range(N_ROWS):
        row = []
        for column in _COLUMNS:
            if rng.random() < 0.08:
                row.append("NULL")
            elif column == "C":
                row.append("'%s'" % pool[column]())
            else:
                row.append(str(pool[column]()))
        rows.append("(%s)" % ", ".join(row))
    return rows


@pytest.fixture(scope="module")
def engines():
    """Three-way oracle: columnar-serial, columnar-parallel, row engine.

    The parallel engine runs DOP 4 with deliberately small regions, so
    every scan is modelled over several tasks.
    """
    dash = Database().connect("db2")
    par_db = Database(parallelism=4, region_rows=512)
    par = par_db.connect("db2")
    rowdb = RowDatabase()
    ddl = "CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))"
    dim_ddl = "CREATE TABLE dim (c VARCHAR(4) PRIMARY KEY, w INT)"
    rows = _build_rows(1)
    dims = ", ".join("('v%d', %d)" % (i, i * 10) for i in range(8))
    for system in (dash, par, rowdb):
        system.execute(ddl)
        system.execute(dim_ddl)
        for start in range(0, len(rows), 1000):
            system.execute(
                "INSERT INTO t VALUES " + ", ".join(rows[start : start + 1000])
            )
        system.execute("INSERT INTO dim VALUES " + dims)
    flush_tables(dash)
    flush_tables(par_db)
    yield dash, par, rowdb


def _random_predicate(rng, prefix="", no_c=False) -> str:
    kind = int(rng.integers(0, 8))
    if no_c and kind in (2, 5):
        kind = 0
    if kind == 7:
        # A fractional constant against an integer column: pushed lossily
        # once (1.5 -> 15 or 1), now a residual compared as DECIMAL/DOUBLE.
        return "%s%s %s %d.%d%s" % (
            prefix,
            "ab"[int(rng.integers(0, 2))],
            ["=", "<>", "<", "<=", ">", ">="][int(rng.integers(0, 6))],
            int(rng.integers(0, 50)),
            int(rng.integers(0, 10)),
            ["", "e0"][int(rng.integers(0, 2))],
        )
    if kind == 0:
        return "%sa %s %d" % (
            prefix,
            ["=", "<>", "<", "<=", ">", ">="][int(rng.integers(0, 6))],
            int(rng.integers(0, 50)),
        )
    if kind == 1:
        lo = int(rng.integers(-1000, 900))
        return "%sb BETWEEN %d AND %d" % (prefix, lo, lo + int(rng.integers(0, 400)))
    if kind == 2:
        values = ", ".join("'v%d'" % rng.integers(0, 10) for _ in range(3))
        return "%sc IN (%s)" % (prefix, values)
    if kind == 3:
        return "%sd %s %d.%02d" % (
            prefix,
            ["<", ">="][int(rng.integers(0, 2))],
            int(rng.integers(0, 100)),
            int(rng.integers(0, 100)),
        )
    if kind == 4:
        columns = ["a", "b", "d"] if no_c else ["a", "b", "c", "d"]
        return "%s%s IS %sNULL" % (
            prefix,
            columns[int(rng.integers(0, len(columns)))],
            "NOT " if rng.random() < 0.5 else "",
        )
    if kind == 5:
        return "%sc LIKE 'v%d%%'" % (prefix, rng.integers(0, 10))
    return "NOT (%sa = %d)" % (prefix, int(rng.integers(0, 50)))


def _random_query(rng) -> str:
    shape = int(rng.integers(0, 5))
    if shape == 3:
        conjuncts = [
            _random_predicate(rng, prefix="t.", no_c=True)
            for _ in range(int(rng.integers(0, 3)))
        ]
        where = (" WHERE " + " AND ".join(conjuncts)) if conjuncts else ""
        return (
            "SELECT t.c, dim.w, COUNT(*) FROM t JOIN dim ON t.c = dim.c"
            "%s GROUP BY t.c, dim.w ORDER BY 1, 2" % where
        )
    conjuncts = [_random_predicate(rng) for _ in range(int(rng.integers(0, 3)))]
    where = (" WHERE " + " AND ".join(conjuncts)) if conjuncts else ""
    if shape == 0:
        return "SELECT COUNT(*), COUNT(a), COUNT(c) FROM t" + where
    if shape == 1:
        return (
            "SELECT c, COUNT(*), SUM(b), MIN(a), MAX(d), AVG(b)"
            " FROM t%s GROUP BY c ORDER BY 1" % where
        )
    if shape == 2:
        return (
            "SELECT a, b, c, d FROM t%s ORDER BY 1, 2, 3, 4"
            " FETCH FIRST 50 ROWS ONLY" % where
        )
    return "SELECT DISTINCT c FROM t%s ORDER BY 1" % where


def _normalise(rows):
    return sorted(repr(tuple(str(v) for v in row)) for row in rows)


@pytest.mark.parametrize("seed", range(8))
def test_random_queries_agree(engines, seed):
    dash, par, rowdb = engines
    rng = derive_rng(seed, "diff-queries")
    for i in range(25):
        sql = _random_query(rng)
        a = _normalise(dash.execute(sql).rows)
        b = _normalise(rowdb.execute(sql).rows)
        assert a == b, "engines disagree (seed=%d, i=%d): %s" % (seed, i, sql)
        c = _normalise(par.execute(sql).rows)
        assert a == c, "parallel engine diverges (seed=%d, i=%d): %s" % (
            seed,
            i,
            sql,
        )


def test_parallel_engine_really_ran_parallel(engines):
    """Guard against the oracle silently degenerating to three serial runs."""
    _, par, _ = engines
    pool = par.database.pool
    assert pool.is_parallel and pool.parallelism == 4
    assert pool.runs_total > 0
    assert pool.tasks_total > pool.runs_total  # work actually split


@pytest.fixture(scope="module")
def mpp_engines():
    """Single node vs a serial-scatter cluster vs a parallel-scatter one."""
    from repro.cluster import Cluster, HardwareSpec

    dash = Database().connect("db2")
    spec = [HardwareSpec(cores=4, ram_gb=16, storage_tb=1)] * 3
    cluster = Cluster(spec, parallelism=1)
    par_cluster = Cluster(spec, parallelism=4)
    cs = cluster.connect("db2")
    ps = par_cluster.connect("db2")
    ddl = "CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))"
    dim = "CREATE TABLE dim (c VARCHAR(4) PRIMARY KEY, w INT)"
    rows = _build_rows(55)
    dims = ", ".join("('v%d', %d)" % (i, i * 10) for i in range(8))
    dash.execute(ddl)
    dash.execute(dim)
    for clustered in (cs, ps):
        clustered.execute(ddl + " DISTRIBUTE BY HASH (a)")
        clustered.execute(
            dim.replace(" PRIMARY KEY", "") + " DISTRIBUTE BY REPLICATION"
        )
    for start in range(0, len(rows), 1000):
        statement = "INSERT INTO t VALUES " + ", ".join(rows[start : start + 1000])
        dash.execute(statement)
        cs.execute(statement)
        ps.execute(statement)
    dash.execute("INSERT INTO dim VALUES " + dims)
    cs.execute("INSERT INTO dim VALUES " + dims)
    ps.execute("INSERT INTO dim VALUES " + dims)
    flush_tables(dash)
    yield dash, cs, ps


@pytest.mark.parametrize("seed", range(4))
def test_mpp_agrees_with_single_node(mpp_engines, seed):
    """The distributed executor (scatter / two-phase / gather paths) must
    answer exactly like the single-node engine — whether the scatter runs
    shard-at-a-time or concurrently across shards."""
    dash, cs, ps = mpp_engines
    rng = derive_rng(seed, "diff-mpp")
    for i in range(15):
        sql = _random_query(rng)
        a = _normalise(dash.execute(sql).rows)
        b = _normalise(cs.execute(sql).rows)
        assert a == b, "MPP disagrees (seed=%d, i=%d): %s" % (seed, i, sql)
        c = _normalise(ps.execute(sql).rows)
        assert a == c, "parallel MPP diverges (seed=%d, i=%d): %s" % (
            seed,
            i,
            sql,
        )


def test_parallel_cluster_really_scattered_concurrently(mpp_engines):
    _, _, ps = mpp_engines
    cluster = ps.cluster
    assert cluster.parallelism == 4
    assert cluster.pool.is_parallel
    assert cluster.pool.runs_total > 0


#: Statements for the cluster's cached-fragment oracle, in running order:
#: ``(sql, compared with single node by)`` — ``"rows"`` (sorted) or
#: ``"count"`` (a FETCH FIRST with no ORDER BY: which rows is the
#: engine's choice).  Each template comes back with other literals, so a
#: fragment plan cached for the wrong statement answers wrongly.
_FRAGMENT_STATEMENTS = [
    # the rewrite reads literal values: one partial, then two; a statement
    # keyed by its own template would bind (5, 3) to the one-partial plan
    ("SELECT SUM(a + 3) + SUM(a + 3) FROM t", "rows"),
    ("SELECT SUM(a + 1) + SUM(a + 2) FROM t", "rows"),
    ("SELECT SUM(a + 5) + SUM(a + 3) FROM t", "rows"),
    ("SELECT SUM(a + 3) + SUM(a + 3) FROM t", "rows"),
    ("SELECT c, SUM(b + 1) + SUM(b + 2), COUNT(*) FROM t GROUP BY c ORDER BY 1", "rows"),
    ("SELECT c, SUM(b + 3) + SUM(b + 3), COUNT(*) FROM t GROUP BY c ORDER BY 1", "rows"),
    ("SELECT c, SUM(b + 1) + SUM(b + 2), COUNT(*) FROM t GROUP BY c ORDER BY 1", "rows"),
    # GROUP BY / ORDER BY ordinals of different values
    ("SELECT c, a % 3, SUM(b) FROM t GROUP BY 1, 2 ORDER BY 3, 1, 2", "rows"),
    ("SELECT c, a % 4, SUM(b) FROM t GROUP BY 2, 1 ORDER BY 2, 1, 3", "rows"),
    ("SELECT a % 3, c FROM t GROUP BY 1, 2 ORDER BY 1, 2", "rows"),  # scatter
    ("SELECT c, a % 4 FROM t GROUP BY 2, 1 ORDER BY 2, 1", "rows"),
    ("SELECT a, b FROM t WHERE b > 900 ORDER BY 2, 1", "rows"),
    ("SELECT a, b FROM t WHERE b > 950 ORDER BY 1, 2", "rows"),
    # FETCH FIRST n, pushed to the shards: one n under, one over the rows
    ("SELECT a, b FROM t WHERE a < 3 FETCH FIRST 2 ROWS ONLY", "count"),
    ("SELECT a, b FROM t WHERE a < 3 FETCH FIRST 900 ROWS ONLY", "count"),
    ("SELECT a, b FROM t WHERE a < 3 FETCH FIRST 2 ROWS ONLY", "count"),
    ("SELECT a, b FROM t WHERE a < 4 ORDER BY 1, 2 FETCH FIRST 3 ROWS ONLY", "rows"),
    # exact in INT and bound late, then a constant that does not fit
    ("SELECT COUNT(*), SUM(b) FROM t WHERE a <= 2.0", "rows"),
    ("SELECT COUNT(*), SUM(b) FROM t WHERE a <= 2.5", "rows"),
    ("SELECT COUNT(*), SUM(b) FROM t WHERE a <= 7.0", "rows"),
    # volatile: never stored on a shard
    ("SELECT COUNT(*) FROM t WHERE RAND() < 2", "rows"),
    ("SELECT COUNT(*), MIN(b) FROM t WHERE CURRENT_DATE > DATE '2000-01-01'", "rows"),
    # a side table, dropped and created again with other types (below)
    ("SELECT k, x FROM u WHERE k >= 1 ORDER BY 1", "rows"),
    ("SELECT COUNT(*), MAX(x) FROM u WHERE k > 0", "rows"),
]

_FRAGMENT_SHAPES = [
    ("CREATE TABLE u (k INT, x INT)", "INSERT INTO u VALUES (1, 10), (2, 20), (3, 30)"),
    ("CREATE TABLE u (k INT, x VARCHAR(6))", "INSERT INTO u VALUES (1, 'ten'), (2, 'twenty')"),
]


@pytest.mark.parametrize("dop", [1, 4])
def test_cluster_cached_fragment_plans_equal_fresh_ones(dop):
    """Each shard caches its fragment's plan under the fragment's own
    template.  Every statement runs on a cluster through its shards'
    caches, on a twin cluster whose shard caches were just cleared, and on
    a single node: the cached run equals the fresh one exactly (columns,
    rows in order, dtypes, or the error class) and both answer like the
    single node.  The list runs forward, then backward after ``u`` changed
    its column types, so each statement binds a plan that a statement of
    other literals left."""
    from repro.cluster import Cluster, HardwareSpec
    from repro.errors import SQLError

    single = Database().connect("db2")
    hw = HardwareSpec(cores=2, ram_gb=16, storage_tb=1)
    cached_cluster, fresh_cluster = (
        Cluster([hw, hw], parallelism=dop) for _ in range(2)
    )
    cached_session, fresh_session = cached_cluster.connect("db2"), fresh_cluster.connect("db2")
    sessions = (single, cached_session, fresh_session)
    ddl = "CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))"
    single.execute(ddl)
    cached_session.execute(ddl + " DISTRIBUTE BY HASH (a)")
    fresh_session.execute(ddl + " DISTRIBUTE BY HASH (a)")
    rows = "INSERT INTO t VALUES " + ", ".join(_build_rows(61)[:1200])
    for session in sessions:
        session.execute(rows)
        for statement in _FRAGMENT_SHAPES[0]:
            session.execute(statement)

    def outcome(session, sql):
        try:
            result = session.execute(sql)
        except SQLError as exc:
            return type(exc).__name__
        return result.columns, result.rows, [str(d) for d in result.dtypes]

    shards = [shard.engine for shard in cached_cluster.shards.values()]
    origins: dict[str, list] = {}
    for round_, statements in enumerate(
        (_FRAGMENT_STATEMENTS, _FRAGMENT_STATEMENTS[::-1])
    ):
        if round_:
            for session in sessions:
                session.execute("DROP TABLE u")
                for statement in _FRAGMENT_SHAPES[1]:
                    session.execute(statement)
        for sql, by in statements:
            cached = outcome(cached_session, sql)
            origins.setdefault(sql, []).append(dict(cached_cluster.last_stats.plans))
            for shard in fresh_cluster.shards.values():
                shard.engine.plan_cache.clear()
            fresh = outcome(fresh_session, sql)
            assert cached == fresh, "cached fragment plan diverges (DOP %d): %s" % (dop, sql)
            want = outcome(single, sql)
            assert not isinstance(want, str), (sql, want)  # every statement answers
            assert not isinstance(fresh, str), (sql, fresh)
            if by == "count":
                assert len(fresh[1]) == len(want[1]), sql
            else:
                assert _normalise(fresh[1]) == _normalise(want[1]), sql
    n = cached_cluster.n_shards
    miss, hit = {"fresh (miss)": n}, {"cached": n}
    # The SUM pairs share the statement's template, not a fragment's.
    assert origins["SELECT SUM(a + 3) + SUM(a + 3) FROM t"] == [miss, hit, hit, hit]
    assert origins["SELECT SUM(a + 1) + SUM(a + 2) FROM t"][0] == miss
    assert origins["SELECT SUM(a + 5) + SUM(a + 3) FROM t"][0] == hit
    assert origins["SELECT a, b FROM t WHERE b > 950 ORDER BY 1, 2"][0] == hit
    assert origins["SELECT a, b FROM t WHERE a < 3 FETCH FIRST 900 ROWS ONLY"][0] == miss
    assert origins["SELECT COUNT(*), SUM(b) FROM t WHERE a <= 2.5"][0] == {
        "fresh (literal-shape)": n
    }
    for sql in ("SELECT COUNT(*) FROM t WHERE RAND() < 2",
                "SELECT COUNT(*), MIN(b) FROM t WHERE CURRENT_DATE > DATE '2000-01-01'"):
        assert origins[sql] == [{"fresh (volatile)": n}] * 2
    assert origins["SELECT k, x FROM u WHERE k >= 1 ORDER BY 1"] == [miss, miss]
    assert all(engine.plan_cache.stats.invalidations >= 2 for engine in shards)
    assert sum(engine.plan_cache.stats.hits for engine in shards) >= 15 * n


@pytest.fixture(scope="module")
def traced_pair():
    """The same data loaded into a traced and an untraced engine."""
    from repro.monitor import Tracer

    plain = Database().connect("db2")
    traced = Database(tracer=Tracer()).connect("db2")
    ddl = "CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))"
    dim = "CREATE TABLE dim (c VARCHAR(4) PRIMARY KEY, w INT)"
    rows = _build_rows(1)
    dims = ", ".join("('v%d', %d)" % (i, i * 10) for i in range(8))
    for system in (plain, traced):
        system.execute(ddl)
        system.execute(dim)
        for start in range(0, len(rows), 1000):
            system.execute(
                "INSERT INTO t VALUES " + ", ".join(rows[start : start + 1000])
            )
        system.execute("INSERT INTO dim VALUES " + dims)
        flush_tables(system.database)
    return plain, traced


@pytest.mark.parametrize("seed", range(4))
def test_tracing_does_not_change_results(traced_pair, seed):
    """Instrumented plans (EXPLAIN ANALYZE wrappers, span recording) must be
    semantically invisible: identical answers with tracing on and off."""
    plain, traced = traced_pair
    rng = derive_rng(seed, "diff-tracing")
    for i in range(20):
        sql = _random_query(rng)
        a = _normalise(plain.execute(sql).rows)
        b = _normalise(traced.execute(sql).rows)
        assert a == b, "tracing changed results (seed=%d, i=%d): %s" % (seed, i, sql)
    assert traced.database.tracer.find("statement")
    assert not plain.database.tracer.find("statement")


def test_dml_divergence_check(engines):
    """After identical DML on all engines, aggregates still agree."""
    dash, par, rowdb = engines
    statements = [
        "UPDATE t SET b = b + 1 WHERE a = 7",
        "DELETE FROM t WHERE a = 13 AND b < 0",
        "INSERT INTO t VALUES (99, 5, 'zz', 1.25), (99, NULL, NULL, NULL)",
        "UPDATE t SET d = 0.00 WHERE d IS NULL",
    ]
    probe = (
        "SELECT COUNT(*), SUM(b), SUM(d), COUNT(DISTINCT c) FROM t"
    )
    for statement in statements:
        dash.execute(statement)
        par.execute(statement)
        rowdb.execute(statement)
        reference = _normalise(dash.execute(probe).rows)
        assert reference == _normalise(rowdb.execute(probe).rows), statement
        assert reference == _normalise(par.execute(probe).rows), statement


@pytest.fixture(scope="module")
def backend_engines():
    """DOP sweep: a serial engine vs a DOP-4 engine with regions small
    enough that every scan of the corpus is modelled over several tasks."""
    dash = Database().connect("db2")
    par_db = Database(parallelism=4, region_rows=512)
    par = par_db.connect("db2")
    ddl = "CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))"
    dim_ddl = "CREATE TABLE dim (c VARCHAR(4) PRIMARY KEY, w INT)"
    rows = _build_rows(23)
    dims = ", ".join("('v%d', %d)" % (i, i * 10) for i in range(8))
    for system in (dash, par):
        system.execute(ddl)
        system.execute(dim_ddl)
        for start in range(0, len(rows), 1000):
            system.execute(
                "INSERT INTO t VALUES " + ", ".join(rows[start : start + 1000])
            )
        system.execute("INSERT INTO dim VALUES " + dims)
        flush_tables(system.database)
    yield dash, par


@pytest.mark.parametrize("seed", range(4))
def test_backend_sweep_agrees(backend_engines, seed):
    """serial x DOP 4: *byte-identical* answers (same rows in the same
    order) — gather order never depends on which worker finished first."""
    dash, par = backend_engines
    rng = derive_rng(seed, "diff-backends")
    for i in range(20):
        sql = _random_query(rng)
        assert dash.execute(sql).rows == par.execute(sql).rows, (
            "DOP 4 not byte-identical to serial (seed=%d, i=%d): %s"
            % (seed, i, sql)
        )


def test_dop4_engine_really_ran_on_the_pool(backend_engines, monkeypatch):
    """Guard against the sweep silently running serial twice: over a table
    of three morsels the DOP-4 engine must model its scan, its join probe
    and its group-by as pool runs (min(4, tasks) workers, the busiest
    carrying the makespan) and still answer exactly like DOP 1."""
    dash, par = backend_engines
    for system in (dash, par):
        system.execute("CREATE TABLE wide (a INT, b INT, c VARCHAR(4))")
        system.execute("INSERT INTO wide SELECT t.a, t.b, t.c FROM t, dim")  # 24,000 rows
        flush_tables(system.database)
    probes = [
        # group-by straight over a multi-region scan
        ("SELECT a, COUNT(*), SUM(b), AVG(b) FROM wide GROUP BY a",
         ("scan:WIDE", "group-by")),
        # group-by over a join
        ("SELECT wide.a, dim.w, COUNT(*), SUM(wide.b), AVG(wide.b)"
         " FROM wide JOIN dim ON wide.c = dim.c GROUP BY wide.a, dim.w",
         ("scan:WIDE", "join-probe", "group-by")),
    ]
    runs = _runs_by_label(monkeypatch, par.database.pool)
    for sql, labels in probes:
        runs.clear()
        assert dash.execute(sql).rows == par.execute(sql).rows, sql
        assert sorted(runs) == sorted(labels), sql
        for run in runs.values():
            assert run.tasks >= 3
            _modelled(run)
        plan = "\n".join(
            row[0] for row in par.execute("EXPLAIN ANALYZE " + sql).rows
        )
        group_by = next(line for line in plan.splitlines() if "GroupByOp" in line)
        assert "[parallel tasks=3 workers=3 " in group_by, plan


def test_dop4_agrees_after_crash_recovery():
    """Crash recovery replayed at DOP 4: a durable engine loses its buffered
    tail, recovers by WAL replay, and must then answer exactly like a
    serial engine fed the same durable prefix."""
    from repro.durability import DurabilityManager
    from repro.storage.filesystem import ClusterFileSystem

    manager = DurabilityManager(ClusterFileSystem(), path="db", group_commit=1)
    db = Database(
        parallelism=4, region_rows=512, durability=manager
    )
    session = db.connect("db2")
    oracle = Database().connect("db2")
    ddl = "CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))"
    dim_ddl = "CREATE TABLE dim (c VARCHAR(4) PRIMARY KEY, w INT)"
    rows = _build_rows(47)[:1200]
    dims = ", ".join("('v%d', %d)" % (i, i * 10) for i in range(8))
    for system in (session, oracle):
        system.execute(ddl)
        system.execute(dim_ddl)
        for start in range(0, len(rows), 400):
            system.execute(
                "INSERT INTO t VALUES " + ", ".join(rows[start : start + 400])
            )
        system.execute("INSERT INTO dim VALUES " + dims)
    db.checkpoint()
    db.reopen(clean=False)  # crash: group_commit=1, so nothing is lost
    flush_tables(db)
    flush_tables(oracle.database)
    rng = derive_rng(5, "diff-proc-recovery")
    for i in range(12):
        sql = _random_query(rng)
        assert oracle.execute(sql).rows == session.execute(sql).rows, (
            "recovered DOP-4 engine diverges (i=%d): %s" % (i, sql)
        )
    assert db.pool.runs_total > 0


_HTAP_DDL = "CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))"
_HTAP_DIM = "CREATE TABLE dim (c VARCHAR(4) PRIMARY KEY, w INT)"


def _htap_load(session, seed, n_rows):
    rows = _build_rows(seed)[:n_rows]
    dims = ", ".join("('v%d', %d)" % (i, i * 10) for i in range(8))
    session.execute(_HTAP_DDL)
    session.execute(_HTAP_DIM)
    for start in range(0, len(rows), 500):
        session.execute(
            "INSERT INTO t VALUES " + ", ".join(rows[start : start + 500])
        )
    session.execute("INSERT INTO dim VALUES " + dims)


def _writer_rows(n):
    return ["(%d, %d, 'w', 1.00)" % (100000 + i, i) for i in range(n)]


def _trickle(session, statements, errors):
    """Writer-thread body: auto-commit single-row inserts, one per call."""
    try:
        for statement in statements:
            session.execute(statement)
    except BaseException as exc:  # lint-ok: broad-except (re-raised on the main thread after join)
        errors.append(exc)


def test_htap_backend_sweep_snapshot_reads_under_churn():
    """HTAP sweep: pinned-snapshot reads race a trickle writer, per DOP.

    For a serial and a DOP-4 engine: the reader pins one
    MVCC snapshot, records baseline answers for a random query batch, then
    re-runs the same batch twice while an auto-commit writer trickles
    single-row inserts into the scanned table.  Every churn-time answer
    must be *byte-identical* to its baseline (the snapshot cannot see the
    churn, and morsel workers must carry the statement snapshot), the
    two engines must agree with each other, and a fresh snapshot at the
    end must count every committed writer row exactly once.
    """
    import threading

    from repro.sql.parser import parse_statement

    n_writer = 80
    inserts = ["INSERT INTO t VALUES %s" % r for r in _writer_rows(n_writer)]
    per_dop = []
    for dop in (1, 4):
        kwargs = {}
        if dop > 1:
            kwargs = dict(parallelism=dop, region_rows=512)
        db = Database(**kwargs)
        session = db.connect("db2")
        _htap_load(session, seed=61, n_rows=1500)
        flush_tables(db)
        base_count = int(session.execute("SELECT COUNT(*) FROM t").rows[0][0])
        rng = derive_rng(9, "diff-htap")
        queries = [_random_query(rng) for _ in range(6)]

        snap = db.txn.snapshot()

        def pinned(sql, db=db, snap=snap):
            return db.execute_ast(parse_statement(sql), snapshot=snap).rows

        baseline = [pinned(sql) for sql in queries]
        errors: list[BaseException] = []
        writer = threading.Thread(
            target=_trickle, args=(db.connect("db2"), inserts, errors)
        )
        writer.start()
        during = [[pinned(sql) for sql in queries] for _ in range(2)]
        writer.join()
        assert not errors, errors[0]
        for churn_pass in during:
            assert churn_pass == baseline, (
                "pinned snapshot drifted under writer churn (dop=%d)" % dop
            )
        assert pinned("SELECT COUNT(*) FROM t")[0][0] == base_count
        final = int(session.execute("SELECT COUNT(*) FROM t").rows[0][0])
        assert final == base_count + n_writer, (
            "committed trickle rows lost (dop=%d)" % dop
        )
        per_dop.append(baseline)

    assert per_dop[0] == per_dop[1], "DOP 4 disagrees with serial under HTAP"


def test_htap_crash_recovery_matches_serial_oracle():
    """HTAP through a crash: writer churn, then recovery, then the oracle.

    A durable parallel engine takes trickle commits while a pinned
    snapshot keeps reading its frozen state; the engine then crash-restarts
    (losing nothing: ``group_commit=1``) and must answer exactly like a
    serial oracle fed the same base data plus the same committed trickle —
    redo replays the writer's transactions and restamps their versions,
    so no churn-era version metadata leaks into the recovered engine.
    """
    import threading

    from repro.durability import DurabilityManager
    from repro.sql.parser import parse_statement
    from repro.storage.filesystem import ClusterFileSystem

    manager = DurabilityManager(ClusterFileSystem(), path="db", group_commit=1)
    db = Database(
        parallelism=4, region_rows=512, durability=manager
    )
    session = db.connect("db2")
    oracle = Database().connect("db2")
    _htap_load(session, seed=67, n_rows=900)
    _htap_load(oracle, seed=67, n_rows=900)
    db.checkpoint()
    base_count = int(session.execute("SELECT COUNT(*) FROM t").rows[0][0])

    n_writer = 60
    inserts = ["INSERT INTO t VALUES %s" % r for r in _writer_rows(n_writer)]
    snap = db.txn.snapshot()
    count_ast = "SELECT COUNT(*) FROM t"
    errors: list[BaseException] = []
    writer = threading.Thread(
        target=_trickle, args=(db.connect("db2"), inserts, errors)
    )
    writer.start()
    for _ in range(8):
        pinned = int(
            db.execute_ast(parse_statement(count_ast), snapshot=snap).rows[0][0]
        )
        assert pinned == base_count, "pinned count drifted under churn"
    writer.join()
    assert not errors, errors[0]

    for statement in inserts:
        oracle.execute(statement)
    db.reopen(clean=False)
    flush_tables(db)
    flush_tables(oracle.database)
    rng = derive_rng(13, "diff-htap-recovery")
    for i in range(10):
        sql = _random_query(rng)
        reference = _normalise(oracle.execute(sql).rows)
        assert reference == _normalise(session.execute(sql).rows), (
            "recovered HTAP engine diverges (i=%d): %s" % (i, sql)
        )


def test_oracle_agrees_after_crash_recovery():
    """The three-way oracle extended through a crash: a durable cluster
    loses a node mid-workload, the orphaned shards replay their WALs on
    the survivors, and the recovered cluster must still answer exactly
    like the serial, parallel, and row engines."""
    from repro.cluster import ha
    from repro.cluster.hardware import HardwareSpec
    from repro.cluster.mpp import Cluster

    spec = [HardwareSpec(cores=4, ram_gb=16, storage_tb=1)] * 3
    cluster = Cluster(spec, parallelism=1, group_commit=8)
    cs = cluster.connect("db2")
    dash = Database().connect("db2")
    par_db = Database(parallelism=4, region_rows=512)
    par = par_db.connect("db2")
    rowdb = RowDatabase()
    ddl = "CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))"
    dim_ddl = "CREATE TABLE dim (c VARCHAR(4), w INT)"
    rows = _build_rows(31)[:900]
    dims = ", ".join("('v%d', %d)" % (i, i * 10) for i in range(8))
    cs.execute(ddl + " DISTRIBUTE BY HASH (a)")
    cs.execute(dim_ddl + " DISTRIBUTE BY REPLICATION")
    for system in (dash, par, rowdb):
        system.execute(ddl)
        system.execute(dim_ddl)
    for start in range(0, len(rows), 300):
        statement = "INSERT INTO t VALUES " + ", ".join(rows[start : start + 300])
        for system in (dash, par, rowdb, cs):
            system.execute(statement)
    for system in (dash, par, rowdb, cs):
        system.execute("INSERT INTO dim VALUES " + dims)
    # Drain the group-commit buffers so the whole workload is durable,
    # then kill a node: its shards recover by WAL replay on survivors.
    for shard in cluster.shards.values():
        shard.engine.durability.flush()
    ha.fail_node(cluster, "node2")
    assert cluster.last_failover_recoveries, "failover recovered no shard"
    rng = derive_rng(17, "diff-recovery")
    for i in range(12):
        sql = _random_query(rng)
        reference = _normalise(dash.execute(sql).rows)
        assert reference == _normalise(cs.execute(sql).rows), (
            "recovered cluster diverges (i=%d): %s" % (i, sql)
        )
        assert reference == _normalise(par.execute(sql).rows), sql
        assert reference == _normalise(rowdb.execute(sql).rows), sql


def _fresh_plan(db, session, sql):
    """The no-cache oracle: ``SelectPlanner(...).plan(node)`` called
    directly and run under a snapshot taken now; its outcome as ``(columns,
    rows, dtypes)`` or the SQL error it raised."""
    from repro.database.result import result_from_batch
    from repro.errors import SQLError
    from repro.sql.parser import parse_statement
    from repro.sql.planner import SelectPlanner

    try:
        planner = SelectPlanner(
            db, session.dialect, page_source=db.page_source, session=session
        )
        planned = planner.plan(parse_statement(sql))
        batch = planned.bind(db.txn.snapshot()).run()
    except SQLError as exc:
        return type(exc).__name__
    result = result_from_batch(batch, planned.names, planned.keys, planned.dtypes)
    return result.columns, result.rows, [str(d) for d in result.dtypes]


def _through_the_cache(session, sql):
    from repro.errors import SQLError

    try:
        result = session.execute(sql)
    except SQLError as exc:
        return type(exc).__name__
    return result.columns, result.rows, [str(d) for d in result.dtypes]


def test_serving_cache_differential_oracle_under_churn():
    """Cached answers are byte-identical to uncached execution while a
    concurrent MVCC trickle writer commits into the scanned table.

    For 50 random queries the serving gateway (result cache over the
    engine's plan cache) and ``Session.execute`` (the plan cache alone) race
    an auto-commit writer; the reference is a fresh plan of the same text,
    planned and run with no cache in sight.  Each comparison brackets the
    executions with the database's commit clock: when no commit
    landed in the window, the answers must match exactly — row order
    included.  Windows dirtied by the writer are retried; once the writer
    drains, every query gets a guaranteed-quiet comparison.  The run must
    also actually exercise the cache, and does by construction: the reader
    paces the writer, one commit released after each compared query, so
    that commit finds the query's entry cached (an invalidation) and races
    the next comparison; the second quiescent round is all hits.  (A
    free-running writer could drain before the first entry was cached.)
    """
    import threading

    from repro.serving import ServingGateway

    db = Database()
    session = db.connect("db2")
    _htap_load(session, seed=41, n_rows=1200)
    flush_tables(db)
    gateway = ServingGateway(db)
    writer_session = db.connect("db2")
    statements = [
        "INSERT INTO t VALUES %s" % row for row in _writer_rows(120)
    ]
    errors: list = []
    permits = threading.Semaphore(0)

    def paced():
        for statement in statements:
            permits.acquire()
            yield statement

    writer = threading.Thread(
        target=_trickle, args=(writer_session, paced(), errors)
    )
    rng = derive_rng(41, "diff-serving-cache")
    queries = [_random_query(rng) for _ in range(50)]

    def compare(sql):
        """Retry until a commit-free window; then demand exact equality."""
        for _ in range(200):
            epoch = db.write_epoch
            cached = gateway.execute(sql, session=session)
            planned_once = _through_the_cache(session, sql)
            uncached = _fresh_plan(db, session, sql)
            if db.write_epoch != epoch:
                continue  # writer committed mid-window: answers may differ
            assert (cached.columns, cached.rows) == uncached[:2], (
                "result cache diverges: %s" % sql
            )
            assert planned_once == uncached, "plan cache diverges: %s" % sql
            return
        raise AssertionError("no quiet window for: %s" % sql)

    writer.start()
    try:
        for sql in queries:
            compare(sql)
            permits.release()
    finally:
        for _ in statements:  # drain the writer, whatever happened above
            permits.release()
        writer.join(timeout=120)
    assert not writer.is_alive()
    if errors:
        raise errors[0]
    # Quiescent passes: every answer must now be reproducible, and the
    # second round is served from the entries the first one cached.
    for sql in queries * 2:
        compare(sql)
    stats = gateway.result_cache.stats
    assert stats.hits > 0, "oracle never exercised a cache hit"
    assert stats.invalidations > 0, "churn never invalidated an entry"
    assert db.plan_cache.stats.hits > len(queries), "plans were never reused"
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1200 + 120
    gateway.close()


def test_plan_cache_differential_oracle_under_ddl_and_trickle_writes():
    """``Session.execute`` through cached plans == a fresh plan, while DDL
    keeps redefining what the statements' names mean.

    Three threads against one engine.  A trickle writer commits single-row
    inserts into ``t`` (DML: no plan may be invalidated by it, every plan
    must see it through its next snapshot).  A DDL thread alternates the
    schema of a side table ``u`` by DROP + CREATE (two shapes: the column a
    statement selects changes type, another disappears) and redefines the
    view ``vw`` over ``t`` between two definitions.  The reader runs
    statements over ``t``, ``u`` and ``vw`` whose templates repeat with
    different literals, each compared — columns, rows in order, dtypes, or
    the error class while ``u`` is between its DROP and its CREATE — with
    ``SelectPlanner(...).plan(node)`` run directly, in a window no commit
    landed in.  A plan of a dropped table or a replaced view surviving its
    DDL shows up as a wrong answer or a wrong error here.
    """
    import threading

    db = Database()
    session = db.connect("db2")
    _htap_load(session, seed=43, n_rows=900)
    flush_tables(db)
    shapes = [
        ("CREATE TABLE u (k INT, x INT, y VARCHAR(4))",
         "INSERT INTO u VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c')"),
        ("CREATE TABLE u (k INT, x VARCHAR(6))",
         "INSERT INTO u VALUES (1, 'ten'), (2, 'twenty')"),
    ]
    views = [
        "CREATE OR REPLACE VIEW vw AS SELECT a, b FROM t WHERE b < 500",
        "CREATE OR REPLACE VIEW vw AS SELECT a + 1000 AS a, c AS b FROM t WHERE a < 7",
    ]
    for statement in shapes[0] + (views[0],):
        session.execute(statement)
    errors: list = []
    permits = threading.Semaphore(0)
    stop = threading.Event()

    def paced(statements):
        for statement in statements:
            permits.acquire()
            if stop.is_set():
                return
            yield statement

    def ddl_statements():
        for round_ in range(1, 41):
            yield "DROP TABLE u"
            yield from shapes[round_ % 2]
            yield views[round_ % 2]

    writer = threading.Thread(
        target=_trickle,
        args=(db.connect("db2"),
              paced("INSERT INTO t VALUES %s" % row for row in _writer_rows(160)),
              errors),
    )
    ddl = threading.Thread(
        target=_trickle, args=(db.connect("db2"), paced(ddl_statements()), errors)
    )
    rng = derive_rng(43, "diff-plan-cache")

    def reads():
        """One batch: random queries over t, and the DDL-sensitive
        templates with fresh literals."""
        k = int(rng.integers(0, 4))
        yield _random_query(rng)
        yield "SELECT k, x FROM u WHERE k >= %d ORDER BY k" % k
        yield "SELECT COUNT(*), MAX(x) FROM u WHERE k <> %d" % k
        yield "SELECT y FROM u WHERE k = %d" % k  # a column only one shape has
        yield "SELECT a, b FROM vw WHERE a > %d ORDER BY 1, 2 FETCH FIRST 5 ROWS ONLY" % k
        yield "SELECT COUNT(*) FROM vw v, u WHERE u.k = %d" % k
        yield "SELECT COUNT(*) FROM t WHERE a = %d" % (100000 + k)  # the writer's rows

    compared = 0

    def compare(sql):
        for _ in range(200):
            epoch = db.write_epoch
            cached = _through_the_cache(session, sql)
            uncached = _fresh_plan(db, session, sql)
            if db.write_epoch != epoch:
                continue  # a commit landed mid-window: the two may differ
            assert cached == uncached, "plan cache diverges: %s" % sql
            return
        raise AssertionError("no quiet window for: %s" % sql)

    writer.start()
    ddl.start()
    try:
        for _ in range(40):
            for sql in reads():
                compare(sql)
                compared += 1
                permits.release()
                permits.release()
    finally:
        stop.set()
        for _ in range(400):  # wake both threads up, whatever happened above
            permits.release()
        writer.join(timeout=120)
        ddl.join(timeout=120)
    assert not writer.is_alive() and not ddl.is_alive()
    if errors:
        raise errors[0]
    for _ in range(3):  # quiescent: every template again, from its plan
        for sql in reads():
            compare(sql)
    stats = db.plan_cache.stats
    assert compared == 280
    assert stats.invalidations >= 20, "DDL never caught a cached plan"
    assert stats.hits > stats.misses, "templates were not reused"
    assert stats.bypass_reasons["literal-shape"] == 0


# -- string keys stay codes: regions with different dictionaries, tail, churn -----

_STR_FACT = "CREATE TABLE f (id INT, k INT, s VARCHAR(8), g VARCHAR(4), v INT)"
_STR_DIM = "CREATE TABLE d (k INT, name VARCHAR(8), cat VARCHAR(4))"

_STR_QUERIES = [
    "SELECT s, COUNT(*), SUM(v) FROM f GROUP BY s",
    "SELECT g, s, COUNT(*) FROM f GROUP BY g, s",
    "SELECT d.cat, COUNT(*), SUM(f.v) FROM f, d WHERE f.k = d.k GROUP BY d.cat",
    "SELECT d.cat, f.g, COUNT(*) FROM f, d WHERE f.k = d.k GROUP BY d.cat, f.g",
    "SELECT d.name, f.s, MAX(f.v) FROM f JOIN d ON f.k = d.k WHERE f.v < 7 "
    "GROUP BY d.name, f.s",
    "SELECT d.cat, COUNT(f.id), MIN(f.s), MAX(f.s) FROM d LEFT JOIN f ON f.k = d.k "
    "GROUP BY d.cat",
    "SELECT CASE WHEN v < 3 THEN s WHEN v < 6 THEN 'mid' ELSE g END AS x, COUNT(*) "
    "FROM f GROUP BY 1",
    "SELECT UPPER(s), COUNT(*) FROM f GROUP BY UPPER(s)",
    "SELECT CAST(g AS VARCHAR(2)), COUNT(*) FROM f GROUP BY CAST(g AS VARCHAR(2))",
    "SELECT DISTINCT s FROM f",
    "SELECT DISTINCT d.cat, f.g FROM f, d WHERE f.k = d.k",
    "SELECT COUNT(DISTINCT s), MIN(s), MAX(g) FROM f",
    "SELECT s FROM f WHERE v = 2 UNION SELECT name FROM d",
    "SELECT s FROM f INTERSECT SELECT s FROM f WHERE v > 4",
]

_STR_NO_ROW_ORACLE = {
    sql for sql in _STR_QUERIES
    if any(word in sql for word in ("LEFT JOIN", " UNION ", " INTERSECT "))
}

#: Fully ordered (every output column is a sort key), so the sequence itself
#: must agree, NULL placement included.
_STR_ORDERED = [
    "SELECT f.s, d.name, f.id FROM f, d WHERE f.k = d.k AND f.v < 4 "
    "ORDER BY 1, 2 DESC, 3",
    "SELECT g, s, COUNT(*) AS n FROM f GROUP BY g, s ORDER BY 1 DESC, 2",
]


def _string_rows():
    """320 fact rows in five 64-row chunks, one per region at
    ``region_rows=64``: each chunk draws ``s`` from its own value set (so
    the region dictionaries differ and overlap only in 'shared'), chunk 2
    is all NULL in ``s``, and ``g`` is NULL here and there throughout."""
    rng = derive_rng(19, "diff-strings")
    rows = []
    for i in range(320):
        chunk = i // 64
        if chunk == 2:
            s = "NULL"
        else:
            s = "'%s'" % rng.choice(["shared", "", "c%d_a" % chunk, "c%d_b" % chunk])
        g = "NULL" if rng.random() < 0.1 else "'g%d'" % rng.integers(0, 4)
        rows.append("(%d, %d, %s, %s, %d)" % (i, rng.integers(0, 12), s, g, rng.integers(0, 10)))
    return rows


@pytest.fixture(scope="module")
def string_engines():
    """Row store, serial, DOP 4 and a 4-shard cluster over the same rows:
    sealed regions with differing dictionaries, then an unsealed tail."""
    from repro.cluster import Cluster, HardwareSpec

    serial_db = Database(region_rows=64)
    par_db = Database(parallelism=4, region_rows=64)
    cluster = Cluster([HardwareSpec(cores=2, ram_gb=8, storage_tb=1)] * 4)
    systems = {
        "row": RowDatabase(),
        "serial": serial_db.connect("db2"),
        "dop4": par_db.connect("db2"),
        "cluster": cluster.connect("db2"),
    }
    rows = _string_rows()
    dims = ", ".join(
        "(%d, 'n%d', %s)" % (k, k % 5, "NULL" if k == 7 else "'c%d'" % (k % 3))
        for k in range(10)  # fact k = 10, 11 match no dimension row
    )
    for name, system in systems.items():
        distribute = " DISTRIBUTE BY HASH (id)" if name == "cluster" else ""
        system.execute(_STR_FACT + distribute)
        system.execute(
            _STR_DIM + (" DISTRIBUTE BY REPLICATION" if name == "cluster" else "")
        )
        system.execute("INSERT INTO d VALUES " + dims)
        for start in range(0, 320, 64):
            system.execute("INSERT INTO f VALUES " + ", ".join(rows[start : start + 64]))
    flush_tables(serial_db)
    flush_tables(par_db)
    tail = [
        "(%d, %d, %s, 'g9', %d)" % (1000 + i, i % 12, ("'t%d'" % (i % 3), "NULL")[i % 7 == 0], i % 10)
        for i in range(20)
    ]
    for system in systems.values():
        system.execute("INSERT INTO f VALUES " + ", ".join(tail))
    yield systems, serial_db, par_db


def _assert_string_queries_agree(systems, context):
    for sql in _STR_QUERIES:
        # The row store has no outer joins or set operations; there the
        # serial engine is the reference for DOP 4 and the cluster.
        oracle = "serial" if sql in _STR_NO_ROW_ORACLE else "row"
        expected = _normalise(systems[oracle].execute(sql).rows)
        for name in ("serial", "dop4", "cluster"):
            got = _normalise(systems[name].execute(sql).rows)
            assert got == expected, "%s disagrees with %s (%s): %s" % (
                name, oracle, context, sql,
            )
    for sql in _STR_ORDERED:
        expected = systems["serial"].execute(sql).rows
        assert _normalise(expected) == _normalise(systems["row"].execute(sql).rows), sql
        for name in ("dop4", "cluster"):
            assert systems[name].execute(sql).rows == expected, (name, context, sql)


def test_string_keys_agree_across_regions_tail_and_engines(string_engines):
    systems, serial_db, par_db = string_engines
    table = serial_db.catalog.get_table("F").table
    assert len(table.regions) == 5 and table.tail_rows == 20
    dictionaries = [
        set(region.columns["S"].codec.dictionary.tolist()) for region in table.regions
    ]
    assert dictionaries[0] != dictionaries[1] and dictionaries[2] == {""}  # all NULL
    _assert_string_queries_agree(systems, "loaded")
    assert par_db.pool.runs_total > 0


def test_string_keys_agree_while_a_writer_updates_the_string_column(string_engines):
    """Visibility masks cut codes exactly as they cut values: a snapshot
    pinned before the updates keeps its answers; every engine sees each
    committed update, whose new version lands in the unsealed tail."""
    from repro.sql.parser import parse_statement

    systems, serial_db, par_db = string_engines
    pins = [(db, db.txn.snapshot()) for db in (serial_db, par_db)]

    def pinned():
        return [
            _normalise(db.execute_ast(parse_statement(sql), snapshot=snap).rows)
            for db, snap in pins
            for sql in _STR_QUERIES
        ]

    baseline = pinned()
    updates = [
        "UPDATE f SET s = 'w%d' WHERE id = %d" % (i % 2, 13 * i) for i in range(1, 9)
    ] + ["UPDATE f SET s = NULL WHERE v = 9", "UPDATE f SET g = 'gx' WHERE s IS NULL"]
    for statement in updates:
        for system in systems.values():
            system.execute(statement)
        _assert_string_queries_agree(systems, statement)
        assert pinned() == baseline, "pinned snapshot drifted after: %s" % statement


# -- a sparse selection is row ids: the positional scan against every oracle -----


_SCAN_COUNTERS = (
    "regions_scanned", "extents_total", "extents_skipped", "rows_scanned",
    "rows_matched", "pages_read", "bytes_scanned", "raw_bytes_scanned",
)
_SPARSE_ROWS = 2600


def _sparse_rows():
    """Unique shuffled ``id`` (a point lookup hits one row and no synopsis
    can narrow it), NULL-heavy ``a`` / ``c`` / ``d``."""
    rng = derive_rng(23, "diff-sparse-rows")
    ids = rng.permutation(_SPARSE_ROWS)
    rows = []
    for i in ids:
        a = "NULL" if rng.random() < 0.5 else str(int(rng.integers(0, 40)))
        c = "NULL" if rng.random() < 0.5 else "'v%d'" % rng.integers(0, 8)
        d = "NULL" if rng.random() < 0.3 else "%d.%02d" % (rng.integers(0, 90), rng.integers(0, 100))
        rows.append("(%d, %s, %s, %s)" % (i, a, c, d))
    return rows


def _sparse_query(rng) -> str:
    x = int(rng.integers(-5, _SPARSE_ROWS + 5))
    shape = int(rng.integers(0, 7))
    if shape == 0:
        return "SELECT id, a, c, d FROM p WHERE id = %d" % x
    if shape == 1:
        ids = ", ".join(str(int(v)) for v in rng.integers(0, _SPARSE_ROWS, 4))
        return "SELECT id, c FROM p WHERE id IN (%s) AND a IS NOT NULL ORDER BY 1" % ids
    if shape == 2:
        return (
            "SELECT id, a, d FROM p WHERE id BETWEEN %d AND %d AND c = 'v%d' ORDER BY 1"
            % (x, x + 40, rng.integers(0, 9))
        )
    if shape == 3:  # widths around 1/16 of a region: both sides of the switch
        return (
            "SELECT c, COUNT(*), SUM(a) FROM p WHERE id BETWEEN %d AND %d GROUP BY c ORDER BY 1"
            % (x, x + int(rng.integers(100, 260)))
        )
    if shape == 4:
        return "SELECT COUNT(*), COUNT(a), MIN(d) FROM p WHERE id %s %d" % (
            ["<", ">=", "<>"][int(rng.integers(0, 3))], x,
        )
    if shape == 5:
        return "SELECT id, c FROM p WHERE a = %d AND d < 45.00 AND c <> 'v1' ORDER BY 1" % (
            rng.integers(0, 42)
        )
    return "SELECT id FROM p WHERE c = 'v%d' AND a = %d ORDER BY 1" % (
        rng.integers(0, 9), rng.integers(0, 40),
    )


@pytest.fixture(scope="module")
def sparse_engines():
    """Serial, DOP 4, the row store and a 4-shard cluster over one table with
    sealed regions + a tail and committed deletes; plus the answers and the
    snapshot from before the deletes."""
    from repro.cluster import Cluster, HardwareSpec

    dash_db = Database(region_rows=700)
    par_db = Database(parallelism=4, region_rows=512)
    cluster = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2)
    assert len(cluster.shards) == 4
    systems = {
        "dash": dash_db.connect("db2"), "par": par_db.connect("db2"),
        "row": RowDatabase(), "cluster": cluster.connect("db2"),
    }
    ddl = "CREATE TABLE p (id INT, a INT, c VARCHAR(4), d DECIMAL(8,2))"
    rows = _sparse_rows()
    sealed = _SPARSE_ROWS - 150
    for name, system in systems.items():
        system.execute(ddl + (" DISTRIBUTE BY HASH (id)" if name == "cluster" else ""))
        for start in range(0, sealed, 700):
            system.execute("INSERT INTO p VALUES " + ", ".join(rows[start : min(start + 700, sealed)]))
    for db in [dash_db, par_db] + [cluster.shards[sid].engine for sid in sorted(cluster.shards)]:
        flush_tables(db)
    for system in systems.values():
        system.execute("INSERT INTO p VALUES " + ", ".join(rows[sealed:]))  # the tail
    rng = derive_rng(5, "diff-sparse-before")
    before = {}
    for _ in range(20):
        sql = _sparse_query(rng)
        before[sql] = _normalise(systems["row"].execute(sql).rows)
    snapshots = {"dash": dash_db.txn.snapshot(), "par": par_db.txn.snapshot()}
    for system in systems.values():
        system.execute("DELETE FROM p WHERE a IN (3, 17) OR id BETWEEN 900 AND 960")
    yield systems, before, snapshots


def _scan_counters(session):
    return [
        tuple(getattr(scan.stats, name) for name in _SCAN_COUNTERS)
        for scan in session.database.last_scans
    ]


@pytest.mark.parametrize("seed", range(4))
def test_sparse_selections_agree_across_engines_and_forms(sparse_engines, seed, monkeypatch):
    """Point lookups, short ranges and IN lists — the selections a scan
    carries as row ids — against the row store, DOP 4 and a 4-shard
    cluster; and against the same scan forced to carry a mask: same rows
    in the same order, and the same eight accounting counters."""
    from repro.engine import operators

    systems, _, _ = sparse_engines
    rng = derive_rng(seed, "diff-sparse")
    positional = dense = 0
    for i in range(25):
        sql = _sparse_query(rng)
        context = "(seed=%d, i=%d): %s" % (seed, i, sql)
        answers, counters = {}, {}
        for name in ("dash", "par"):
            answers[name] = systems[name].execute(sql).rows
            counters[name] = _scan_counters(systems[name])
        for scan in systems["dash"].database.last_scans:
            positional += scan.stats.regions_positional
            dense += scan.stats.regions_scanned - scan.stats.regions_positional
        expected = _normalise(answers["dash"])
        assert expected == _normalise(systems["row"].execute(sql).rows), "row store " + context
        assert expected == _normalise(answers["par"]), "DOP 4 " + context
        assert expected == _normalise(systems["cluster"].execute(sql).rows), "cluster " + context
        with monkeypatch.context() as patch:
            patch.setattr(operators, "POSITIONS_MAX_DENSITY", 0.0)
            for name in ("dash", "par"):
                session = systems[name]
                session.database.plan_cache.clear()
                assert session.execute(sql).rows == answers[name], "%s forced dense %s" % (name, context)
                assert _scan_counters(session) == counters[name], "%s accounting %s" % (name, context)
                assert not any(s.stats.regions_positional for s in session.database.last_scans)
    assert positional >= 10 and dense >= 10, (positional, dense)


def test_sparse_selections_under_an_older_snapshot(sparse_engines, monkeypatch):
    """Rows a later transaction deleted stay visible to a snapshot from
    before it, whichever form the selection takes."""
    from repro.engine import operators
    from repro.sql.parser import parse_statement

    systems, before, snapshots = sparse_engines
    for sql, expected in before.items():
        for name in ("dash", "par"):
            db = systems[name].database
            got = db.execute_ast(parse_statement(sql), systems[name], snapshot=snapshots[name])
            assert _normalise(got.rows) == expected, "%s: %s" % (name, sql)
            with monkeypatch.context() as patch:
                patch.setattr(operators, "POSITIONS_MAX_DENSITY", 0.0)
                dense = db.execute_ast(parse_statement(sql), systems[name], snapshot=snapshots[name])
            assert dense.rows == got.rows, "%s forced dense: %s" % (name, sql)


# -- invalidation by delta: a cached answer survives what its scans filter out --

_SPARE_ROWS = 200  # ids 0..199 sealed in regions, id 500 in the tail


@pytest.fixture
def spare_gateway():
    """A gateway over ``acct`` (branch NULL on every 7th id, note NULL on
    every 5th) and ``pos``, sealed into small regions plus one tail row."""
    from repro.serving import ServingGateway

    db = Database(region_rows=64)
    session = db.connect("db2")
    session.execute(
        "CREATE TABLE acct (id INT, bal DECIMAL(10,2), branch VARCHAR(4), note INT)"
    )
    session.execute("CREATE TABLE pos (id INT, qty INT)")
    session.execute("INSERT INTO acct VALUES " + ", ".join(
        "(%d, %d.50, %s, %s)" % (
            i, i * 10,
            "NULL" if i % 7 == 0 else "'b%d'" % (i % 3),
            "NULL" if i % 5 == 0 else str(i),
        )
        for i in range(_SPARE_ROWS)
    ))
    session.execute(
        "INSERT INTO pos VALUES " + ", ".join("(%d, %d)" % (i % 50, i) for i in range(100))
    )
    flush_tables(db)
    session.execute("INSERT INTO acct VALUES (500, 1.00, 'b1', 1)")
    gateway = ServingGateway(db)
    yield db, session, gateway
    gateway.close()


def _kept_across(spare_gateway, queries, write):
    """Cache *queries*, commit *write*, and return the queries whose entry
    survived it.  Every answer after the write, kept or refilled, must be
    what an uncached plan of the text answers now, row order included."""
    db, session, gateway = spare_gateway
    cache = gateway.result_cache
    for sql in queries:
        cache.fetch(sql, session)
    session.execute(write)
    kept = set()
    for sql in queries:
        fetched = cache.fetch(sql, session)
        if fetched.hit:
            kept.add(sql)
        result = fetched.result
        assert (result.columns, result.rows) == _fresh_plan(db, session, sql)[:2], sql
    return kept


def _lookup(acct_id):
    return "SELECT bal FROM acct WHERE id = %d" % acct_id


def test_a_write_that_moves_a_row_into_a_cached_predicate_drops_it(spare_gateway):
    queries = [_lookup(3), _lookup(4), _lookup(5)]
    # The old version passes id = 3, the new one id = 4: both go.
    assert _kept_across(spare_gateway, queries, "UPDATE acct SET id = 4 WHERE id = 3") == {
        _lookup(5)
    }
    assert spare_gateway[2].result_cache.stats.spared >= 1


def test_a_write_to_a_non_filter_column_of_a_matching_row_drops_it(spare_gateway):
    by_branch = "SELECT COUNT(*) FROM acct WHERE branch = 'b1'"
    other_branch = "SELECT SUM(bal) FROM acct WHERE branch = 'b2'"
    note = "SELECT note FROM acct WHERE id = 4"
    queries = [_lookup(3), note, by_branch, other_branch]
    # id 4 is in branch b1: the count cannot change, but a row it filters
    # for was written, and only the scan filters are consulted.
    kept = _kept_across(spare_gateway, queries, "UPDATE acct SET note = 99 WHERE id = 4")
    assert kept == {_lookup(3), other_branch}


def test_nulls_in_the_filter_column_fail_every_comparison(spare_gateway):
    queries = {
        "eq": "SELECT COUNT(*) FROM acct WHERE branch = 'b1'",
        "ne": "SELECT COUNT(*) FROM acct WHERE branch <> 'b0'",
        "in": "SELECT COUNT(*) FROM acct WHERE branch IN ('b0', 'b2')",
        "null": "SELECT COUNT(*) FROM acct WHERE branch IS NULL",
        "not-null": "SELECT MAX(id) FROM acct WHERE branch IS NOT NULL",
    }
    # id 7's branch is NULL (old and new): only IS NULL sees it.
    kept = _kept_across(
        spare_gateway, list(queries.values()), "UPDATE acct SET bal = 0 WHERE id = 7"
    )
    assert kept == {queries[k] for k in ("eq", "ne", "in", "not-null")}
    # id 1 goes from 'b1' to NULL: everything but IN ('b0', 'b2') sees a version.
    kept = _kept_across(
        spare_gateway, list(queries.values()), "UPDATE acct SET branch = NULL WHERE id = 1"
    )
    assert kept == {queries["in"]}


def test_a_self_join_keeps_one_filter_per_scan(spare_gateway):
    pair = "SELECT a.bal, b.bal FROM acct a, acct b WHERE a.id = 1 AND b.id = 2"
    assert _kept_across(spare_gateway, [pair], "UPDATE acct SET note = 0 WHERE id = 9") == {pair}
    assert _kept_across(spare_gateway, [pair], "UPDATE acct SET note = 0 WHERE id = 2") == set()
    assert _kept_across(spare_gateway, [pair], "DELETE FROM acct WHERE id = 1") == set()


def test_a_read_through_a_view_is_filtered_by_the_view_scan(spare_gateway):
    db, session, _ = spare_gateway
    session.execute("CREATE VIEW rich AS SELECT id, bal FROM acct WHERE bal > 1500")
    count = "SELECT COUNT(*) FROM rich"
    assert _kept_across(spare_gateway, [count], "UPDATE acct SET note = 1 WHERE id = 11") == {count}
    # 110.50 -> 1600: the new version moves into the view.
    assert _kept_across(spare_gateway, [count], "UPDATE acct SET bal = 1600 WHERE id = 11") == set()


def test_an_in_subquery_over_the_written_table_counts_as_true(spare_gateway):
    nested = "SELECT qty FROM pos WHERE id IN (SELECT id FROM acct WHERE branch = 'b2')"
    direct = "SELECT qty FROM pos WHERE id = 2"
    # id 1 is in branch b1: it fails the subquery's filter, but the plan
    # folded the subquery's answer in, so every write to acct drops it.
    kept = _kept_across(spare_gateway, [nested, direct], "UPDATE acct SET note = 0 WHERE id = 1")
    assert kept == {direct}
    kept = _kept_across(spare_gateway, [nested, direct], "INSERT INTO pos VALUES (7, 7)")
    assert kept == {direct}  # (7, 7) fails id = 2; pos is TRUE for the subquery plan


def test_a_delta_larger_than_the_size_constant_invalidates_as_before(spare_gateway):
    from repro.database.database import DELTA_MAX_ROWS

    queries = [_lookup(3)]
    rows = DELTA_MAX_ROWS // 2 + 1  # an UPDATE writes two versions per row
    big = "UPDATE acct SET note = note WHERE id >= %d" % (_SPARE_ROWS - rows)
    assert _kept_across(spare_gateway, queries, big) == set()
    small = "UPDATE acct SET note = note WHERE id >= %d" % (_SPARE_ROWS - rows + 2)
    assert _kept_across(spare_gateway, queries, small) == set(queries)
    values = ", ".join("(%d, 0, 'b9', 0)" % (1000 + i) for i in range(DELTA_MAX_ROWS + 1))
    assert _kept_across(spare_gateway, queries, "INSERT INTO acct VALUES " + values) == set()
    values = ", ".join("(%d, 0, 'b9', 0)" % (2000 + i) for i in range(DELTA_MAX_ROWS))
    assert _kept_across(spare_gateway, queries, "INSERT INTO acct VALUES " + values) == set(queries)


def _spare_predicates(draw, alias=""):
    k, v, s = (alias + c for c in ("k", "v", "s"))
    small = st.integers(-2, 6)
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return "%s = %d" % (k, draw(small))
    if choice == 1:
        return "%s < %d" % (v, draw(small))
    if choice == 2:
        lo = draw(small)
        return "%s BETWEEN %d AND %d" % (v, lo, lo + draw(st.integers(0, 3)))
    if choice == 3:
        return "%s IN ('a', '%s')" % (s, draw(st.sampled_from("bcd")))
    if choice == 4:
        return "%s IS %sNULL" % (s, draw(st.sampled_from(["", "NOT "])))
    if choice == 5:
        return "%s = %d AND %s <> %d" % (k, draw(small), v, draw(small))
    if choice == 6:
        return "%s >= %d AND %s = '%s'" % (k, draw(small), s, draw(st.sampled_from("abc")))
    if choice == 7:
        return "%s + 1 = %d" % (k, draw(small))  # a residual: the scan filter is TRUE
    if choice == 8:
        return "%s <= %d OR %s IS NULL" % (v, draw(small), v)  # no pushed conjunct
    return "%s = %d" % (v, draw(small))


def _spare_value_st():
    return st.one_of(st.none(), st.integers(-2, 6))


def _spare_value(draw):
    return draw(_spare_value_st())


def _sql_value(value, quote=False):
    if value is None:
        return "NULL"
    return "'%s'" % "abcd"[value % 4] if quote else str(value)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_entry_kept_across_a_random_filtered_commit_equals_a_fresh_execution(data):
    """Property: whatever the cached statements and the commit, an entry
    the commit hook kept answers exactly what an uncached plan answers
    after the commit (and the refilled ones do too)."""
    from repro.serving import ServingGateway

    draw = data.draw
    db = Database(region_rows=16)
    session = db.connect("db2")
    session.execute("CREATE TABLE p (k INT, v INT, s VARCHAR(2))")
    rows = draw(st.lists(
        st.tuples(_spare_value_st(), _spare_value_st(), _spare_value_st()),
        min_size=0, max_size=40,
    ))
    if rows:
        session.execute("INSERT INTO p VALUES " + ", ".join(
            "(%s, %s, %s)" % (_sql_value(k), _sql_value(v), _sql_value(s, quote=True))
            for k, v, s in rows
        ))
    if draw(st.booleans()):
        flush_tables(db)
    gateway = ServingGateway(db)
    shapes = [
        lambda: "SELECT k, v, s FROM p WHERE " + _spare_predicates(draw),
        lambda: "SELECT COUNT(*), SUM(v) FROM p WHERE " + _spare_predicates(draw),
        lambda: "SELECT s, COUNT(*) FROM p WHERE %s GROUP BY s" % _spare_predicates(draw),
        lambda: "SELECT x.k, y.v FROM p x, p y WHERE x.k = y.v AND %s AND %s" % (
            _spare_predicates(draw, "x."), _spare_predicates(draw, "y.")),
        lambda: "SELECT MIN(k) FROM p",
    ]
    queries = [draw(st.sampled_from(shapes))() for _ in range(draw(st.integers(1, 6)))]
    cache = gateway.result_cache
    for sql in queries:
        cache.fetch(sql, session)
    kind = draw(st.sampled_from(["update", "delete", "insert"]))
    if kind == "update":
        column = draw(st.sampled_from(["k", "v", "s"]))
        value = _sql_value(_spare_value(draw), quote=column == "s")
        write = "UPDATE p SET %s = %s WHERE %s" % (column, value, _spare_predicates(draw))
    elif kind == "delete":
        write = "DELETE FROM p WHERE " + _spare_predicates(draw)
    else:
        new = draw(st.lists(
            st.tuples(_spare_value_st(), _spare_value_st(), _spare_value_st()),
            min_size=1, max_size=3,
        ))
        write = "INSERT INTO p VALUES " + ", ".join(
            "(%s, %s, %s)" % (_sql_value(k), _sql_value(v), _sql_value(s, quote=True))
            for k, v, s in new
        )
    session.execute(write)
    for sql in queries:
        fetched = cache.fetch(sql, session)
        fresh = _fresh_plan(db, session, sql)
        assert (fetched.result.columns, fetched.result.rows) == fresh[:2], (
            "%s answer after %r: %s" % ("kept" if fetched.hit else "refilled", write, sql)
        )
    gateway.close()
