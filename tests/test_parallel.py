"""Intra-query parallelism, modelled: pool, morsel model, concurrency.

Four layers of evidence that the DOP never changes an answer:

* unit tests for the scheduling model (``greedy_makespan``), the morsel
  model of one measured pass (``WorkerPool.one_pass``) and the
  deterministic-gather contract of :class:`WorkerPool.map`;
* a property test that GROUP BY at DOP 4 answers the exact Python sums
  (and raises 22003 exactly where a group's exact sum leaves int64);
* end-to-end DOP-equivalence: the same SQL through a serial engine and a
  ``parallelism=4`` engine must match byte-for-byte, and every GROUP BY,
  join probe and multi-region scan over more than one morsel shows its
  modelled run;
* a mixed DDL/DML/SELECT stress with eight concurrent sessions on one
  database (no cross-session leaks, statement counters reconcile) and a
  20x-identical regression for MPP two-phase aggregation.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import SQLError
from repro.engine import (
    AggregateSpec,
    Batch,
    ColumnRef,
    GroupByOp,
    TableScanOp,
    VectorSourceOp,
)
from repro.parallel import (
    MORSEL_ROWS,
    PoolRun,
    TaskSpan,
    WorkerPool,
    default_parallelism,
    greedy_makespan,
)
from repro.parallel.pool import list_schedule
from repro.storage.column import ColumnVector
from repro.types import BIGINT, DOUBLE, INTEGER
from repro.util.rng import derive_rng
from repro.verify import sanitizer
from repro.workloads.tpcds import flush_tables


# -- scheduling model ----------------------------------------------------------


class TestGreedyMakespan:
    def test_one_worker_is_sum(self):
        assert greedy_makespan([3.0, 1.0, 2.0], 1) == pytest.approx(6.0)

    def test_many_workers_is_max(self):
        assert greedy_makespan([3.0, 1.0, 2.0], 3) == pytest.approx(3.0)
        assert greedy_makespan([3.0, 1.0, 2.0], 99) == pytest.approx(3.0)

    def test_empty(self):
        assert greedy_makespan([], 4) == 0.0

    def test_list_scheduling(self):
        # Two workers, tasks [4, 3, 2, 1]: worker A takes 4, worker B takes
        # 3 then 2 (free at 3 < 4), A takes 1 at 4 -> makespan 5.
        assert greedy_makespan([4.0, 3.0, 2.0, 1.0], 2) == pytest.approx(5.0)

    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20
        ),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, durations, workers):
        """max(task) <= makespan <= sum(tasks); more workers never slower."""
        span = greedy_makespan(durations, workers)
        assert span <= sum(durations) + 1e-9
        assert span >= max(durations) - 1e-9
        assert span >= sum(durations) / workers - 1e-9
        wider = greedy_makespan(durations, workers + 1)
        assert wider <= span + 1e-9


class TestPoolRunAccounting:
    def test_makespan_is_max_of_workers_not_sum(self):
        run = PoolRun(
            parallelism=2,
            spans=[TaskSpan(0, 0, 2.0), TaskSpan(1, 1, 2.0)],
        )
        assert run.total_seconds == pytest.approx(4.0)
        assert run.makespan_seconds == pytest.approx(2.0)
        assert run.worker_busy() == {0: 2.0, 1: 2.0}
        assert run.utilisation() == pytest.approx(1.0)


# -- WorkerPool contract -------------------------------------------------------


class TestWorkerPool:
    def test_serial_pool_runs_inline(self):
        pool = WorkerPool(parallelism=1)
        thread_ids = []

        def task(i):
            # lint-ok: lock-discipline (every task runs on the caller's thread — asserted below)
            thread_ids.append(threading.get_ident())
            return i * i

        assert pool.map(task, range(5)) == [0, 1, 4, 9, 16]
        assert set(thread_ids) == {threading.get_ident()}
        assert pool.last_run.worker_busy().keys() == {0}

    def test_gather_preserves_submission_order(self):
        pool = WorkerPool(parallelism=4)
        assert pool.map(lambda i: i, range(8)) == list(range(8))
        assert pool.last_run.tasks == 8

    def test_single_item_stays_inline(self):
        pool = WorkerPool(parallelism=4)
        assert pool.map(lambda x: x + 1, [41]) == [42]
        assert pool.last_run.worker_busy().keys() == {0}

    def test_first_error_in_submission_order(self):
        pool = WorkerPool(parallelism=4)

        def task(i):
            if i == 5:
                raise ValueError("late error")
            if i == 2:
                raise KeyError("early error")
            return i

        with pytest.raises(KeyError, match="early error"):
            pool.map(task, range(8))

    def test_first_failing_task_reraises_and_later_tasks_do_not_run(self):
        pool = WorkerPool(parallelism=4)
        finished = [False] * 6

        def task(i):
            if i in (1, 2):
                raise ZeroDivisionError("task %d" % i)
            finished[i] = True
            return i

        with pytest.raises(ZeroDivisionError, match="task 1"):
            pool.map(task, range(6))
        # Only the task before the failure ran, and the run accounts for it.
        assert finished == [True, False, False, False, False, False]
        assert [span.index for span in pool.last_run.spans] == [0]
        assert pool.runs_total == 1 and pool.tasks_total == 1
        assert pool.map(lambda x: x * x, [5, 6, 7]) == [25, 36, 49]

    def test_spans_land_on_the_list_schedule_workers(self):
        pool = WorkerPool(parallelism=3)
        pool.map(lambda x: sum(range(x)), [40_000, 10, 10, 10, 30_000])
        run = pool.last_run
        workers, loads = list_schedule([s.seconds for s in run.spans], 3)
        assert [s.worker for s in run.spans] == workers
        assert workers[:3] == [0, 1, 2]
        busy = run.worker_busy()
        assert list(busy.values()) == pytest.approx(loads)
        assert max(busy.values()) == pytest.approx(run.makespan_seconds)

    def test_lifetime_accumulators(self):
        pool = WorkerPool(parallelism=2)
        pool.map(lambda x: x, range(4))
        pool.map(lambda x: x, range(3))
        assert pool.runs_total == 2
        assert pool.tasks_total == 7
        assert pool.busy_seconds_total >= pool.makespan_seconds_total >= 0.0

    def test_default_parallelism_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLELISM", raising=False)
        assert default_parallelism() == 1
        assert default_parallelism(cores=6) == 6
        monkeypatch.setenv("REPRO_PARALLELISM", "3")
        assert default_parallelism() == 3
        assert default_parallelism(cores=16) == 3  # env wins
        monkeypatch.setenv("REPRO_PARALLELISM", "zero")
        with pytest.raises(ValueError):
            default_parallelism()


# -- the morsel model of one pass ----------------------------------------------


def _modelled(run, dop=4):
    """``run`` is a modelled run: min(DOP, tasks) workers, and the busiest
    of them carries the makespan."""
    busy = run.worker_busy()
    assert len(busy) == min(dop, run.tasks)
    assert max(busy.values()) == pytest.approx(run.makespan_seconds)


class TestMorselRanges:
    """``WorkerPool.one_pass`` runs its pass once and models it as one task
    per :data:`MORSEL_ROWS` rows, each carrying its row share."""

    def test_covers_exactly_once(self):
        pool = WorkerPool(parallelism=4)
        calls = []
        n = 2 * MORSEL_ROWS + 5
        value, run = pool.one_pass(lambda: calls.append(1) or "done", n, "pass")
        assert value == "done" and calls == [1]
        assert run is pool.last_run and run.label == "pass" and run.tasks == 3
        shares = [span.seconds / run.total_seconds for span in run.spans]
        assert shares == pytest.approx([MORSEL_ROWS / n, MORSEL_ROWS / n, 5 / n])
        assert [span.worker for span in run.spans] == [0, 1, 2]
        assert pool.runs_total == 1 and pool.tasks_total == 3
        _modelled(run)

    def test_empty_and_default(self):
        assert MORSEL_ROWS == 8_192
        wide, serial = WorkerPool(parallelism=4), WorkerPool(parallelism=1)
        for pool, n in ((wide, 0), (wide, 1), (wide, MORSEL_ROWS), (serial, 10 * MORSEL_ROWS)):
            calls = []
            assert pool.one_pass(lambda: calls.append(n) or n, n, "pass") == (n, None)
            assert calls == [n]
        assert wide.runs_total == serial.runs_total == 0

    def test_invalid_size(self):
        # A non-positive row count is a pass with nothing to model.
        pool = WorkerPool(parallelism=4)
        assert pool.one_pass(lambda: 7, -5, "pass") == (7, None)
        assert pool.runs_total == 0

    def test_a_failing_pass_records_nothing(self):
        pool = WorkerPool(parallelism=4)

        def fail():
            raise ZeroDivisionError("pass")

        with pytest.raises(ZeroDivisionError):
            pool.one_pass(fail, 3 * MORSEL_ROWS, "pass")
        assert pool.runs_total == 0 and pool.last_run is None


#: Small values, NULLs, and values near +-2**62 whose group sums can leave
#: int64 (three of one sign in a group always do).
_VALUES = st.lists(
    st.one_of(
        st.none(),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.builds(
            lambda sign, gap: sign * (2**62 - gap),
            st.sampled_from([1, -1]),
            st.integers(min_value=0, max_value=10**6),
        ),
    ),
    min_size=0,
    max_size=60,
)

_AGGREGATE_ALIASES = ("n", "c", "s", "lo", "hi", "avg")

#: What a GROUP BY answers when a group's exact sum leaves int64.
_OVERFLOW = "22003"


@pytest.fixture(scope="module")
def dop4_pool():
    pool = WorkerPool(parallelism=4)
    yield pool


def _group_of(value):
    """Group key of a drawn value: NULL stays NULL, else ``|v| % 3``."""
    return None if value is None else abs(value) % 3


def _grouped(values, pool, keyed=True):
    """GROUP BY ``_group_of(v)`` (or a grand total) on ``pool``: its output
    rows, or :data:`_OVERFLOW`."""
    columns = {"v": ColumnVector.from_boundary(values, BIGINT)}
    keys = []
    if keyed:
        columns["k"] = ColumnVector.from_boundary([_group_of(v) for v in values], BIGINT)
        keys = [("k", ColumnRef("k", BIGINT))]
    arg = [ColumnRef("v", BIGINT)]
    op = GroupByOp(
        VectorSourceOp(Batch.from_columns(columns)),
        keys=keys,
        aggregates=[
            AggregateSpec("COUNT", [], "n"),
            AggregateSpec("COUNT", arg, "c"),
            AggregateSpec("SUM", arg, "s"),
            AggregateSpec("MIN", arg, "lo"),
            AggregateSpec("MAX", arg, "hi"),
            AggregateSpec("AVG", arg, "avg"),
        ],
        pool=pool,
    )
    try:
        batch = op.run()
    except SQLError as exc:
        return exc.sqlstate
    aliases = ("k",) * keyed + _AGGREGATE_ALIASES
    return list(zip(*(batch.columns[a].to_boundary() for a in aliases)))


def _expected_groups(values, keyed=True):
    """The same aggregation in plain Python: NULL group first, then
    ascending keys — the engine's group output order — and AVG as one
    float division of the exact sum; :data:`_OVERFLOW` when a group's
    exact sum leaves int64."""
    groups: dict = {}
    for value in values:
        groups.setdefault(_group_of(value) if keyed else (), []).append(value)
    if not keyed:
        groups.setdefault((), [])
    rows = []
    for key in sorted(groups, key=lambda k: (k is not None, k)):
        live = [v for v in groups[key] if v is not None]
        if not -(2**63) <= sum(live) < 2**63:
            return _OVERFLOW
        rows.append(
            (key,) * keyed
            + (
                len(groups[key]),
                len(live),
                sum(live) if live else None,
                min(live) if live else None,
                max(live) if live else None,
                float(sum(live)) / len(live) if live else None,
            )
        )
    return rows


@given(values=_VALUES, keyed=st.booleans())
@settings(max_examples=120, deadline=None)
def test_group_by_matches_exact_python_sums(values, keyed, dop4_pool):
    """GROUP BY at DOP 4 == the same aggregation in plain Python."""
    assert _grouped(values, dop4_pool, keyed) == _expected_groups(values, keyed)


def test_span_overflow_defers_to_the_whole_group_sum(dop4_pool):
    """Over three morsels, each half's partial sum would leave int64 while
    the group's whole sum does not: the DOP-4 group-by answers the whole
    sum, and 22003 only when the whole sum leaves int64 too."""
    big = 2**62
    pad = [0] * (2 * MORSEL_ROWS)
    n = len(pad) + 4
    assert _grouped([big, big] + pad + [-big, -big], dop4_pool, keyed=False) == [
        (n, n, 0, -big, big, 0.0)
    ]
    run = dop4_pool.last_run
    assert run.label == "group-by" and run.tasks == 3
    _modelled(run)
    assert _grouped([big, big] + pad + [-big, 5], dop4_pool, keyed=False) == [
        (n, n, big + 5, -big, big, float(big + 5) / n)
    ]
    assert _grouped([big, big] + pad + [big, big], dop4_pool, keyed=False) == _OVERFLOW


class TestFloatGating:
    """Order-dependent float aggregates add up in the one DOP-1 pass at any
    DOP: the DOP only models that pass."""

    def test_double_sum_stays_serial(self):
        rng = np.random.default_rng(9)
        n = 2 * MORSEL_ROWS + 200
        g = rng.integers(0, 6, size=n).tolist()
        d = (rng.random(n) * 100.0).tolist()
        columns = {
            "g": ColumnVector.from_boundary(g, INTEGER),
            "d": ColumnVector.from_boundary(d, DOUBLE),
        }

        def group_by(pool):
            return GroupByOp(
                VectorSourceOp(Batch.from_columns(dict(columns))),
                keys=[("kg", ColumnRef("g", INTEGER))],
                aggregates=[
                    AggregateSpec("SUM", [ColumnRef("d", DOUBLE)], "a_sum"),
                    AggregateSpec("AVG", [ColumnRef("d", DOUBLE)], "a_avg"),
                ],
                pool=pool,
            )

        op = group_by(WorkerPool(4, name="edge"))
        batch = op.run()
        assert op.parallel_run.tasks == 3
        _modelled(op.parallel_run)
        serial = group_by(None).run()
        for alias in ("kg", "a_sum", "a_avg"):
            assert (
                batch.columns[alias].to_boundary()
                == serial.columns[alias].to_boundary()
            )


@given(
    values=st.lists(
        st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=40
    ),
    workers=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_pool_map_invariant_to_worker_count(values, workers):
    """The same tasks through pools of any width gather identically."""
    serial = WorkerPool(parallelism=1)
    wide = WorkerPool(parallelism=workers)
    fn = lambda v: v * 3 + 1  # noqa: E731
    assert serial.map(fn, values) == wide.map(fn, values)


# -- end-to-end DOP equivalence ------------------------------------------------

_QUERIES = [
    "SELECT COUNT(*), COUNT(a), COUNT(c) FROM t",
    "SELECT c, COUNT(*), SUM(b), MIN(a), MAX(a), AVG(b) FROM t"
    " GROUP BY c ORDER BY 1",
    "SELECT a, COUNT(*) FROM t WHERE b BETWEEN -500 AND 500"
    " GROUP BY a ORDER BY 1",
    "SELECT DISTINCT c FROM t ORDER BY 1",
    "SELECT t.c, dim.w, COUNT(*) FROM t JOIN dim ON t.c = dim.c"
    " GROUP BY t.c, dim.w ORDER BY 1, 2",
    "SELECT a, b, c FROM t WHERE a < 25 AND b IS NOT NULL"
    " ORDER BY 1, 2, 3 FETCH FIRST 40 ROWS ONLY",
]


def _load_engine(session):
    rng = derive_rng(77, "parallel-dop")
    session.execute("CREATE TABLE t (a INT, b INT, c VARCHAR(4))")
    session.execute("CREATE TABLE dim (c VARCHAR(4) PRIMARY KEY, w INT)")
    rows = []
    for _ in range(4000):
        a = "NULL" if rng.random() < 0.05 else str(int(rng.integers(0, 50)))
        b = "NULL" if rng.random() < 0.05 else str(int(rng.integers(-1000, 1000)))
        c = "NULL" if rng.random() < 0.05 else "'v%d'" % rng.integers(0, 8)
        rows.append("(%s, %s, %s)" % (a, b, c))
    for start in range(0, len(rows), 1000):
        session.execute(
            "INSERT INTO t VALUES " + ", ".join(rows[start : start + 1000])
        )
    session.execute(
        "INSERT INTO dim VALUES "
        + ", ".join("('v%d', %d)" % (i, i * 10) for i in range(8))
    )
    for _ in range(3):  # 32,000 rows: four morsels
        session.execute("INSERT INTO t SELECT a, b, c FROM t")


def _runs_by_label(monkeypatch, pool):
    """Every run ``pool`` records from now on, by label."""
    runs = {}
    record = pool.record

    def noting(times, label=None):
        runs[label] = record(times, label)
        return runs[label]

    monkeypatch.setattr(pool, "record", noting)
    return runs


class TestDOPEquivalence:
    @pytest.fixture(scope="class")
    def pair(self):
        serial_db = Database(parallelism=1)
        parallel_db = Database(parallelism=4)
        serial = serial_db.connect("db2")
        parallel = parallel_db.connect("db2")
        _load_engine(serial)
        _load_engine(parallel)
        flush_tables(serial_db)
        flush_tables(parallel_db)
        yield serial, parallel

    @pytest.mark.parametrize("sql", _QUERIES)
    def test_parallel_engine_matches_serial(self, pair, sql):
        serial, parallel = pair
        assert serial.execute(sql).rows == parallel.execute(sql).rows

    def test_parallel_paths_were_exercised(self, pair, monkeypatch):
        serial, parallel = pair
        pool = parallel.database.pool
        assert pool.is_parallel
        runs = _runs_by_label(monkeypatch, pool)
        for sql, label in ((_QUERIES[1], "group-by"), (_QUERIES[4], "join-probe")):
            assert serial.execute(sql).rows == parallel.execute(sql).rows
            assert runs[label].tasks == 4
            _modelled(runs[label])

    def test_repeated_runs_identical(self, pair):
        _, parallel = pair
        sql = _QUERIES[1]
        first = parallel.execute(sql).rows
        for _ in range(5):
            assert parallel.execute(sql).rows == first


# -- fan-out on the calling thread ---------------------------------------------


def _fan_out_engines(dop):
    """``(wide, regions)`` engines at ``dop``: in ``wide`` the tables stay in
    their tails, so only the GROUP BY over ``g`` or the join probe over
    ``p``, three morsels each, is modelled; in ``regions`` the scan is the only
    modelled run, over 128-row regions."""
    wide = Database(parallelism=dop)
    s = wide.connect("db2")
    s.execute("CREATE TABLE p (c INT, v INT)")
    probe = ["(%d, %d)" % (i % 13, i) for i in range(2 * MORSEL_ROWS + 900)]
    for start in range(0, len(probe), 2000):
        s.execute("INSERT INTO p VALUES " + ", ".join(probe[start : start + 2000]))
    s.execute("CREATE TABLE g (k INT, v INT)")
    s.execute("INSERT INTO g SELECT v - v / 7 * 7, v FROM p")
    s.execute("CREATE TABLE d (c INT, w INT)")
    s.execute("INSERT INTO d VALUES " + ", ".join("(%d, %d)" % (i, i * 10) for i in range(0, 13, 2)))
    regions = Database(parallelism=dop, region_rows=128)
    s = regions.connect("db2")
    s.execute("CREATE TABLE r (a INT, b INT)")
    s.execute(
        "INSERT INTO r VALUES "
        + ", ".join("(%d, %d)" % (i, i % 11) for i in range(1000))
    )
    flush_tables(regions)
    return wide, regions


_FAN_OUTS = [
    ("wide", "SELECT k, COUNT(*), SUM(v), MIN(v), AVG(v) FROM g GROUP BY k", "group-by"),
    ("wide", "SELECT p.v, d.w FROM p JOIN d ON p.c = d.c", "join-probe"),
    ("regions", "SELECT a, b FROM r WHERE b > 3", "scan:R"),
]


class TestFanOutRunsOnTheCaller:
    """At DOP 4 a GROUP BY and a join probe each run their one pass, and a
    multi-region scan its regions, on the calling thread: the answer equals
    DOP 1 byte for byte, and the busiest modelled worker carries the run's
    makespan."""

    @pytest.fixture(scope="class")
    def engines(self):
        return dict(zip(("wide", "regions"), _fan_out_engines(1))), dict(
            zip(("wide", "regions"), _fan_out_engines(4))
        )

    @pytest.mark.parametrize("engine, sql, label", _FAN_OUTS)
    def test_spans_equal_dop1_and_run_on_the_caller(self, engines, monkeypatch, engine, sql, label):
        serial, parallel = engines[0][engine], engines[1][engine]
        pool = parallel.pool
        one_pass = pool.one_pass
        idents = []

        def one_pass_noting_threads(fn, n_rows, label):
            def noted():
                idents.append(threading.get_ident())
                return fn()

            return one_pass(noted, n_rows, label)

        # The scan times its regions itself, so its tasks are noted where
        # they run, not through the pool.
        scan_region = TableScanOp._scan_region

        def scan_region_noting_threads(op, *args):
            idents.append(threading.get_ident())
            return scan_region(op, *args)

        monkeypatch.setattr(pool, "one_pass", one_pass_noting_threads)
        monkeypatch.setattr(TableScanOp, "_scan_region", scan_region_noting_threads)
        runs, tasks = pool.runs_total, pool.tasks_total
        got = parallel.connect("db2").execute(sql).rows
        run = pool.last_run
        assert got == serial.connect("db2").execute(sql).rows
        assert run.label == label and run.tasks >= 3
        assert pool.runs_total == runs + 1
        assert pool.tasks_total == tasks + run.tasks
        assert idents and set(idents) == {threading.get_ident()}
        _modelled(run)

    def test_limit_scans_only_the_regions_it_yields(self, engines):
        # The scan is one lazy path at every DOP: under FETCH FIRST a DOP-4
        # scan stops where DOP 1 stops, and its run holds one task per
        # region it scanned.
        sql = "SELECT a, b FROM r FETCH FIRST 1 ROWS ONLY"
        seen = []
        for dbs in engines:
            db = dbs["regions"]
            runs = db.pool.runs_total
            rows = db.connect("db2").execute(sql).rows
            (scan,) = db.last_scans
            seen.append((rows, scan.stats.regions_scanned, scan.parallel_run,
                         db.pool.runs_total - runs, len(scan.regions)))
        (rows1, scanned1, run1, runs1, regions), (rows4, scanned4, run4, runs4, _) = seen
        assert rows4 == rows1 and len(rows1) == 1
        assert scanned4 == scanned1 == 1 and regions == 8  # the limit stops the pull
        assert run1 is None and runs1 == 0
        assert runs4 == 1 and run4.label == "scan:R" and run4.tasks == scanned4

    def test_a_zero_row_limit_scans_nothing(self, engines):
        for dbs in engines:
            db = dbs["regions"]
            runs = db.pool.runs_total
            assert db.connect("db2").execute("SELECT a, b FROM r FETCH FIRST 0 ROWS ONLY").rows == []
            (scan,) = db.last_scans
            assert scan.stats.regions_scanned == 0 and db.pool.runs_total == runs

    def test_explain_analyze_shows_the_modelled_workers(self, engines):
        session = engines[1]["wide"].connect("db2")
        plan = "\n".join(
            row[0] for row in session.execute("EXPLAIN ANALYZE " + _FAN_OUTS[0][1]).rows
        )
        line = next(line for line in plan.splitlines() if "GroupByOp" in line)
        tasks = int(line.split("[parallel tasks=")[1].split()[0])
        workers = int(line.split(" workers=")[1].split()[0])
        assert tasks == 3 and workers == min(4, tasks), line


# -- concurrent sessions stress ------------------------------------------------


N_SESSIONS = 8
N_ROUNDS = 6


class TestConcurrentSessions:
    def test_mixed_ddl_dml_select_stress(self):
        """Eight sessions hammer one database concurrently.

        Each session creates and drops its own table and temp table, runs
        DML against its table and SELECTs against a shared table.  After
        the dust settles: no session sees another session's temp tables,
        per-statement indexes are globally unique, and the database-wide
        statement counter reconciles with the work submitted.

        Under ``REPRO_SANITIZE=1`` (the CI verify leg) the lockset
        sanitizer also watches every instrumented shared structure during
        the run and must observe zero candidate races.
        """
        db = Database(parallelism=4)
        setup = db.connect("db2")
        setup.execute("CREATE TABLE shared (a INT, b INT)")
        setup.execute(
            "INSERT INTO shared VALUES "
            + ", ".join("(%d, %d)" % (i % 40, i) for i in range(2000))
        )
        flush_tables(db)
        base_count = db.statement_count

        sessions = [db.connect("db2") for _ in range(N_SESSIONS)]
        statements_run = [0] * N_SESSIONS
        errors = []
        barrier = threading.Barrier(N_SESSIONS)
        shared_sum = sum(i for i in range(2000))

        def run_session(sid):
            s = sessions[sid]
            try:
                barrier.wait(timeout=30)
                for round_no in range(N_ROUNDS):
                    mine = "own_%d_%d" % (sid, round_no)
                    s.execute("CREATE TABLE %s (x INT)" % mine)
                    s.execute(
                        "INSERT INTO %s VALUES %s"
                        % (mine, ", ".join("(%d)" % v for v in range(sid + 1)))
                    )
                    s.execute(
                        "DECLARE GLOBAL TEMPORARY TABLE scratch_%d (x INT)"
                        % round_no
                    )
                    total = s.execute("SELECT SUM(b) FROM shared").scalar()
                    assert total == shared_sum
                    n = s.execute("SELECT COUNT(*) FROM %s" % mine).scalar()
                    assert n == sid + 1
                    s.execute("UPDATE %s SET x = x + 1" % mine)
                    s.execute("DROP TABLE %s" % mine)
                    statements_run[sid] += 7
            # lint-ok: broad-except (collects every session failure, assertions included, to surface after join)
            except BaseException as exc:
                errors.append((sid, exc))

        threads = [
            threading.Thread(target=run_session, args=(sid,))
            for sid in range(N_SESSIONS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors

        # Statement counter reconciles exactly with submitted work.
        assert db.statement_count - base_count == sum(statements_run)
        # Statement indexes are globally unique across session histories.
        indexes = [
            stat.index for s in sessions for stat in s.query_history()
        ]
        assert len(indexes) == len(set(indexes))
        # Temp tables never leak across sessions, and each session holds
        # exactly its own declarations.
        expected_temps = sorted(
            "SCRATCH_%d" % round_no for round_no in range(N_ROUNDS)
        )
        for s in sessions:
            assert s.temp_table_names() == expected_temps
        # No session-private base table survived its DROP.
        leftovers = [n for n in db.table_names() if n.startswith("OWN_")]
        assert leftovers == []
        # With the race sanitizer armed, the run must be race-free.
        if sanitizer.ENABLED:
            races = sanitizer.report()
            assert not races, "\n".join(r.render() for r in races)


# -- MPP two-phase determinism -------------------------------------------------


class TestMPPTwoPhaseDeterminism:
    def test_twenty_runs_identical(self):
        """Two-phase aggregation over a parallel scatter must be stable:
        shard partials combine in shard order regardless of which worker
        finished first, so 20 runs return the identical row list."""
        from repro.cluster import Cluster, HardwareSpec

        cluster = Cluster(
            [HardwareSpec(cores=4, ram_gb=16, storage_tb=1)] * 3,
            parallelism=4,
        )
        cs = cluster.connect("db2")
        cs.execute(
            "CREATE TABLE f (k INT, v INT, c VARCHAR(4))"
            " DISTRIBUTE BY HASH (k)"
        )
        rng = derive_rng(13, "mpp-determinism")
        rows = ", ".join(
            "(%d, %d, 'v%d')"
            % (rng.integers(0, 100), rng.integers(-500, 500), rng.integers(0, 6))
            for _ in range(3000)
        )
        cs.execute("INSERT INTO f VALUES " + rows)
        sql = (
            "SELECT c, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v)"
            " FROM f GROUP BY c ORDER BY 1"
        )
        first = cs.execute(sql).rows
        assert first  # non-degenerate
        for _ in range(19):
            assert cs.execute(sql).rows == first
        assert cluster.pool.is_parallel
        assert cluster.last_stats.parallelism == 4
