"""Morsel-driven parallel execution: pool, batching, merge, concurrency.

Four layers of evidence that parallelism never changes an answer:

* unit tests for the scheduling model (``greedy_makespan``), morsel
  batching and the deterministic-gather contract of :class:`WorkerPool.map`;
* property tests that the span-partial merge is invariant to morsel size
  (and raises 22003 exactly where a group's exact sum leaves int64), and
  that the one gate (``GroupByOp.parallel_safe()``) and the span route
  always agree;
* end-to-end DOP-equivalence: the same SQL through a serial engine and a
  ``parallelism=4`` engine with tiny morsels must match byte-for-byte;
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
    DEFAULT_MORSEL_ROWS,
    PoolRun,
    TaskSpan,
    WorkerPool,
    batch_items,
    batch_size,
    batch_spans,
    default_parallelism,
    greedy_makespan,
    morsel_ranges,
)
from repro.parallel.pool import list_schedule
from repro.storage.column import ColumnVector
from repro.types import BIGINT, DOUBLE, INTEGER, decimal_type, varchar_type
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


# -- morsel splitting and merge properties ------------------------------------


class TestMorselRanges:
    def test_covers_exactly_once(self):
        ranges = morsel_ranges(10, 3)
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_empty_and_default(self):
        assert morsel_ranges(0, 5) == []
        assert morsel_ranges(5) == [(0, 5)]  # default morsel >> 5
        assert DEFAULT_MORSEL_ROWS > 1024

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            morsel_ranges(10, -1)
        assert morsel_ranges(10, 0) == [(0, 10)]  # 0 -> default size


class TestMorselBatching:
    def test_auto_batch_targets_two_tasks_per_worker(self):
        # 64 items on 4 workers -> ceil(64 / 8) = 8 items per task.
        assert batch_size(64, 4) == 8
        assert batch_size(3, 4) == 1
        assert batch_size(0, 4) == 1
        # A serial pool is one worker, not two: ceil(8 / 2) = 4.
        assert batch_size(8, 1) == batch_size(8, 0) == 4

    def test_batch_items_preserves_order(self):
        items = list(range(10))
        groups = batch_items(items, 2)  # ceil(10 / 4) = 3 items per task
        assert groups == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        assert [x for g in groups for x in g] == items

    def test_batch_spans_merge_contiguous_morsels(self):
        spans = batch_spans(100, 10, 2)  # 10 morsels, 3 per task
        assert spans == [(0, 30), (30, 60), (60, 90), (90, 100)]
        # Coverage is exact and ordered.
        morsels = morsel_ranges(100, 10)
        assert spans[0][0] == 0 and spans[-1][1] == morsels[-1][1]
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


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

_MERGE_ALIASES = ("n", "c", "s", "lo", "hi", "avg")

#: What a GROUP BY answers when a group's exact sum leaves int64.
_OVERFLOW = "22003"


@pytest.fixture(scope="module")
def dop4_pool():
    pool = WorkerPool(parallelism=4)
    yield pool


def _group_of(value):
    """Group key of a drawn value: NULL stays NULL, else ``|v| % 3``."""
    return None if value is None else abs(value) % 3


def _merged_spans(values, morsel_rows, pool, keyed=True):
    """GROUP BY ``_group_of(v)`` (or a grand total) on a DOP-4 pool with
    ``morsel_rows``: its output rows, or :data:`_OVERFLOW`."""
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
        morsel_rows=morsel_rows,
    )
    try:
        batch = op.run()
    except SQLError as exc:
        return exc.sqlstate
    aliases = ("k",) * keyed + _MERGE_ALIASES
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


@given(
    values=_VALUES,
    morsel_rows=st.integers(min_value=1, max_value=61),
    keyed=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_partial_merge_invariant_to_morsel_size(values, morsel_rows, keyed, dop4_pool):
    """Merging per-span partials == aggregating the whole input."""
    got = _merged_spans(values, morsel_rows, dop4_pool, keyed)
    assert got == _expected_groups(values, keyed)


@given(
    values=_VALUES,
    sizes=st.tuples(
        st.integers(min_value=1, max_value=61),
        st.integers(min_value=1, max_value=61),
    ),
)
@settings(max_examples=60, deadline=None)
def test_partial_merge_two_splits_agree(values, sizes, dop4_pool):
    """Any two morsel sizes produce identical merged output."""
    assert _merged_spans(values, sizes[0], dop4_pool) == _merged_spans(
        values, sizes[1], dop4_pool
    )



def test_span_overflow_defers_to_the_whole_group_sum(dop4_pool):
    """One span's partial sum leaves int64 while the group's whole sum
    does not: the group-by answers the whole sum (the one-pass kernel
    decides), and 22003 only when the whole sum leaves int64 too."""
    big = 2**62
    assert _merged_spans([big, big, -big, -big], 2, dop4_pool, keyed=False) == [
        (4, 4, 0, -big, big, 0.0)
    ]
    assert _merged_spans([big, big, -big, 5], 2, dop4_pool, keyed=False) == [
        (4, 4, big + 5, -big, big, float(big + 5) / 4)
    ]
    assert _merged_spans([big, big, big, big], 2, dop4_pool, keyed=False) == _OVERFLOW

# -- the one gate and the one parallel aggregate -------------------------------

_DEC = decimal_type(6, 2)
_STR = varchar_type(4)
_GATE_MORSEL_ROWS = 13

_GATE_KEYS = {
    "g": ColumnRef("g", INTEGER),
    "p": ColumnRef("p", _DEC),
    "s": ColumnRef("s", _STR),
    "d": ColumnRef("d", DOUBLE),  # approximate key: stays serial
}

_GATE_AGGS = {
    # merge exactly across spans (aggregate.merges_exactly)
    "rows": ("COUNT", None, False),
    "count_x": ("COUNT", "x", False),
    "sum_x": ("SUM", "x", False),
    "sum_p": ("SUM", "p", False),
    "avg_x": ("AVG", "x", False),
    "min_p": ("MIN", "p", False),
    "max_s": ("MAX", "s", False),
    "min_d": ("MIN", "d", False),
    # order- or set-dependent: the group-by runs one pass
    "sum_d": ("SUM", "d", False),
    "avg_d": ("AVG", "d", False),
    "avg_p": ("AVG", "p", False),
    "count_distinct_x": ("COUNT", "x", True),
    "sum_distinct_x": ("SUM", "x", True),
    "var_x": ("VAR_POP", "x", False),
    "stddev_x": ("STDDEV_SAMP", "x", False),
    "median_x": ("MEDIAN", "x", False),
}
_GATE_FUSABLE = {
    "rows", "count_x", "sum_x", "sum_p", "avg_x", "min_p", "max_s", "min_d",
}
_GATE_TYPES = {"g": INTEGER, "p": _DEC, "s": _STR, "d": DOUBLE, "x": INTEGER}


def _nullable(strategy):
    return st.one_of(st.none(), strategy)


_GATE_ROW = st.tuples(
    _nullable(st.integers(-3, 3)),
    _nullable(st.integers(-300, 300)),  # cents of the DECIMAL(6,2) column
    _nullable(st.sampled_from(["aa", "bb", "cc", "v1"])),
    _nullable(st.floats(-1e6, 1e6, allow_nan=False, width=32)),
    _nullable(st.integers(-50, 50)),
)


def _gate_spec(name):
    func, arg, distinct = _GATE_AGGS[name]
    args = [] if arg is None else [ColumnRef(arg, _GATE_TYPES[arg])]
    return AggregateSpec(func, args, "a_" + name, distinct=distinct)


def _gate_group_by(columns, keys, aggs, pool):
    return GroupByOp(
        VectorSourceOp(Batch.from_columns(dict(columns))),
        keys=[("k_" + name, _GATE_KEYS[name]) for name in keys],
        aggregates=[_gate_spec(name) for name in aggs],
        pool=pool,
        morsel_rows=_GATE_MORSEL_ROWS,
    )


@given(
    rows=st.lists(_GATE_ROW, min_size=_GATE_MORSEL_ROWS + 1, max_size=70),
    keys=st.lists(st.sampled_from(sorted(_GATE_KEYS)), max_size=3, unique=True),
    aggs=st.lists(
        st.sampled_from(sorted(_GATE_AGGS)), min_size=1, max_size=4, unique=True
    ),
)
@settings(max_examples=150, deadline=None)
def test_gate_and_fused_aggregate_agree(rows, keys, aggs, dop4_pool):
    """``parallel_safe()`` true  => the DOP-4 run is fused and equals DOP 1
    byte for byte; false => the group-by records no pool run at all and
    still equals DOP 1.  There is no third route between the two."""
    from decimal import Decimal

    g, p, s, d, x = zip(*rows)
    columns = {
        "g": ColumnVector.from_boundary(g, INTEGER),
        "p": ColumnVector.from_boundary(
            [None if c is None else Decimal(c).scaleb(-2) for c in p], _DEC
        ),
        "s": ColumnVector.from_boundary(s, _STR),
        "d": ColumnVector.from_boundary(d, DOUBLE),
        "x": ColumnVector.from_boundary(x, INTEGER),
    }
    parallel = _gate_group_by(columns, keys, aggs, dop4_pool)
    serial = _gate_group_by(columns, keys, aggs, None)
    expect_safe = "d" not in keys and set(aggs) <= _GATE_FUSABLE
    assert parallel.parallel_safe() == expect_safe
    got, want = parallel.run(), serial.run()
    if expect_safe:
        assert parallel.fused_mode == "batch-agg"
        assert parallel.parallel_run.tasks > 1
    else:
        assert parallel.fused_mode is None
        assert parallel.parallel_run is None
    assert list(got.columns) == list(want.columns)
    for alias, vector in want.columns.items():
        other = got.columns[alias]
        assert other.dtype == vector.dtype, alias
        assert other.values.dtype == vector.values.dtype, alias
        assert other.to_boundary() == vector.to_boundary(), alias


class TestFloatGating:
    """Order-dependent float aggregates must stay serial at any DOP."""

    def test_double_sum_stays_serial(self):
        rng = np.random.default_rng(9)
        g = rng.integers(0, 6, size=200).tolist()
        d = (rng.random(200) * 100.0).tolist()
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
                morsel_rows=13,
            )

        pool = WorkerPool(4, name="edge")
        op = group_by(pool)
        assert not op.parallel_safe()
        batch = op.run()
        assert op.parallel_run is None, "float aggregate went parallel"
        assert op.fused_mode is None
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


class TestDOPEquivalence:
    @pytest.fixture(scope="class")
    def pair(self):
        serial_db = Database(parallelism=1)
        parallel_db = Database(parallelism=4, morsel_rows=257)
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

    def test_parallel_paths_were_exercised(self, pair):
        serial, parallel = pair
        pool = parallel.database.pool
        assert pool.is_parallel
        assert pool.runs_total > 0 and pool.tasks_total > pool.runs_total

    def test_repeated_runs_identical(self, pair):
        _, parallel = pair
        sql = _QUERIES[1]
        first = parallel.execute(sql).rows
        for _ in range(5):
            assert parallel.execute(sql).rows == first


# -- fan-out on the calling thread ---------------------------------------------


def _fan_out_engines(dop):
    """``(wide, regions)`` engines at ``dop``: in ``wide`` the tables stay in
    their tails, so only the GROUP BY (64-row morsels) or the join probe
    (more probe rows than one partition) fans out; in ``regions`` the scan
    is the only fan-out, over 128-row regions."""
    from repro.engine.join import DEFAULT_PARTITION_ROWS

    wide = Database(parallelism=dop, morsel_rows=64)
    s = wide.connect("db2")
    s.execute("CREATE TABLE g (k INT, v INT)")
    s.execute(
        "INSERT INTO g VALUES "
        + ", ".join("(%d, %d)" % (i % 7, i) for i in range(1000))
    )
    s.execute("CREATE TABLE p (c INT, v INT)")
    probe = ["(%d, %d)" % (i % 13, i) for i in range(DEFAULT_PARTITION_ROWS + 900)]
    for start in range(0, len(probe), 2000):
        s.execute("INSERT INTO p VALUES " + ", ".join(probe[start : start + 2000]))
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
    """At DOP 4 a GROUP BY, a join probe and a multi-region scan each split
    into spans that run on the calling thread: the answer equals DOP 1 byte
    for byte, and the busiest modelled worker carries the run's makespan."""

    @pytest.fixture(scope="class")
    def engines(self):
        return dict(zip(("wide", "regions"), _fan_out_engines(1))), dict(
            zip(("wide", "regions"), _fan_out_engines(4))
        )

    @pytest.mark.parametrize("engine, sql, label", _FAN_OUTS)
    def test_spans_equal_dop1_and_run_on_the_caller(self, engines, monkeypatch, engine, sql, label):
        serial, parallel = engines[0][engine], engines[1][engine]
        pool = parallel.pool
        map_on_pool = pool.map
        idents = []

        def map_noting_threads(fn, items, label=None):
            def noted(item):
                idents.append(threading.get_ident())
                return fn(item)

            return map_on_pool(noted, items, label)

        # The scan times its regions itself (one lazy path at every DOP),
        # so its tasks are noted where they run, not through the pool.
        scan_region = TableScanOp._scan_region

        def scan_region_noting_threads(op, *args):
            idents.append(threading.get_ident())
            return scan_region(op, *args)

        monkeypatch.setattr(pool, "map", map_noting_threads)
        monkeypatch.setattr(TableScanOp, "_scan_region", scan_region_noting_threads)
        runs, tasks = pool.runs_total, pool.tasks_total
        got = parallel.connect("db2").execute(sql).rows
        run = pool.last_run
        assert got == serial.connect("db2").execute(sql).rows
        assert run.label == label and run.tasks >= 2
        assert pool.runs_total == runs + 1
        assert pool.tasks_total == tasks + run.tasks
        assert idents and set(idents) == {threading.get_ident()}
        busy = run.worker_busy()
        assert len(busy) == min(4, run.tasks)
        assert max(busy.values()) == pytest.approx(run.makespan_seconds)

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
        assert tasks >= 2 and workers == min(4, tasks), line


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
