"""Worker-pool backends: process dispatch, fallbacks, batching knobs.

Edge cases the differential sweep cannot reach deliberately:

* a worker *process* dying mid-task must surface as a deterministic
  query error — never a hang — and the pool must stay usable;
* non-picklable kernels must demote one run to the thread backend and
  count the demotion (monitor counter + lifetime accumulator);
* ``GroupByOp.parallel_safe()`` keeps order-dependent float aggregates
  serial under *both* backends;
* the ``REPRO_MORSEL_BATCH`` / ``REPRO_POOL_BACKEND`` knobs and the
  morsel-batching helpers.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine import (
    AggregateSpec,
    Batch,
    ColumnRef,
    GroupByOp,
    VectorSourceOp,
)
from repro.monitor.metrics import MetricsRegistry
from repro.parallel import (
    MORSEL_BATCH_ENV_VAR,
    POOL_BACKEND_ENV_VAR,
    WorkerPool,
    batch_items,
    batch_size,
    batch_spans,
    default_backend,
    morsel_ranges,
)
from repro.storage.column import ColumnVector
from repro.types import DOUBLE, INTEGER


def _square(item):
    return item * item


def _crash_on_two(item):
    if item == 2:
        os._exit(13)  # hard worker death: no exception, no cleanup
    return item


def _pool(backend, metrics=None):
    return WorkerPool(4, metrics=metrics, name="edge", backend=backend)


class TestProcessBackend:
    def test_map_runs_in_worker_processes(self):
        pool = _pool("process")
        try:
            assert pool.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            run = pool.last_run
            assert run.backend == "process"
            assert run.tasks == 4
            assert pool.process_runs_total == 1
            assert pool.process_fallbacks_total == 0
        finally:
            pool.shutdown()

    def test_worker_crash_is_an_error_not_a_hang(self):
        pool = _pool("process")
        try:
            with pytest.raises(RuntimeError, match="worker process crashed"):
                pool.map(_crash_on_two, [1, 2, 3, 4])
            # The broken executor was discarded: the pool recovers.
            assert pool.map(_square, [5, 6, 7]) == [25, 36, 49]
            assert pool.last_run.backend == "process"
        finally:
            pool.shutdown()

    def test_task_exception_propagates_across_processes(self):
        pool = _pool("process")
        try:
            with pytest.raises(ZeroDivisionError):
                pool.map(_reciprocal, [1, 0, 0, 2])
        finally:
            pool.shutdown()

    def test_non_picklable_kernel_falls_back_to_threads(self):
        metrics = MetricsRegistry()
        pool = _pool("process", metrics=metrics)
        state = {"offset": 7}
        try:
            got = pool.map(lambda item: item + state["offset"], [1, 2, 3])
            assert got == [8, 9, 10]
            assert pool.last_run.backend == "thread"
            assert pool.process_fallbacks_total == 1
            assert pool.process_runs_total == 0
            assert metrics.counter("parallel.process_fallbacks").value == 1
        finally:
            pool.shutdown()

    def test_inline_runs_skip_the_executor(self):
        pool = _pool("process")
        try:
            assert pool.map(_square, [3]) == [9]
            assert pool.last_run.inline
            assert pool.process_runs_total == 0
        finally:
            pool.shutdown()


def _reciprocal(item):
    return 1.0 / item


class TestFloatGating:
    """Order-dependent float aggregates must stay serial on both backends."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_double_sum_stays_serial(self, backend):
        rng = np.random.default_rng(9)
        g = rng.integers(0, 6, size=200).tolist()
        d = (rng.random(200) * 100.0).tolist()
        columns = {
            "g": ColumnVector.from_boundary(g, INTEGER),
            "d": ColumnVector.from_boundary(d, DOUBLE),
        }
        pool = _pool(backend)
        try:
            op = GroupByOp(
                VectorSourceOp(Batch.from_columns(dict(columns))),
                keys=[("kg", ColumnRef("g", INTEGER))],
                aggregates=[
                    AggregateSpec("SUM", [ColumnRef("d", DOUBLE)], "a_sum"),
                    AggregateSpec("AVG", [ColumnRef("d", DOUBLE)], "a_avg"),
                ],
                pool=pool,
                morsel_rows=13,
            )
            assert not op.parallel_safe()
            batch = op.run()
            assert op.parallel_run is None, "float aggregate went parallel"
            assert op.fused_mode is None
            serial = GroupByOp(
                VectorSourceOp(Batch.from_columns(dict(columns))),
                keys=[("kg", ColumnRef("g", INTEGER))],
                aggregates=[
                    AggregateSpec("SUM", [ColumnRef("d", DOUBLE)], "a_sum"),
                    AggregateSpec("AVG", [ColumnRef("d", DOUBLE)], "a_avg"),
                ],
            ).run()
            for alias in ("kg", "a_sum", "a_avg"):
                assert (
                    batch.columns[alias].to_boundary()
                    == serial.columns[alias].to_boundary()
                )
        finally:
            pool.shutdown()


class TestBackendSelection:
    def test_default_backend_env(self, monkeypatch):
        monkeypatch.delenv(POOL_BACKEND_ENV_VAR, raising=False)
        assert default_backend() == "thread"
        monkeypatch.setenv(POOL_BACKEND_ENV_VAR, "process")
        assert default_backend() == "process"
        monkeypatch.setenv(POOL_BACKEND_ENV_VAR, " Thread ")
        assert default_backend() == "thread"
        monkeypatch.setenv(POOL_BACKEND_ENV_VAR, "greenlet")
        with pytest.raises(ValueError, match="REPRO_POOL_BACKEND"):
            default_backend()

    def test_pool_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            WorkerPool(2, backend="fibers")

    def test_database_plumbs_backend(self, monkeypatch):
        from repro.database import Database

        monkeypatch.delenv(POOL_BACKEND_ENV_VAR, raising=False)
        db = Database(parallelism=2, pool_backend="process")
        assert db.pool.backend == "process"
        db.pool.shutdown()
        monkeypatch.setenv(POOL_BACKEND_ENV_VAR, "process")
        db = Database(parallelism=2)
        assert db.pool.backend == "process"
        db.pool.shutdown()

    def test_sanitizer_forces_thread_dispatch(self, monkeypatch):
        """With the lockset sanitizer armed, process dispatch would hide
        races from instrumentation — the pool must stay on threads."""
        from repro.verify import sanitizer

        monkeypatch.setattr(sanitizer, "ENABLED", True)
        pool = _pool("process")
        try:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert pool.last_run.backend == "thread"
            assert pool.process_runs_total == 0
        finally:
            pool.shutdown()


class TestMorselBatching:
    def test_auto_batch_targets_two_tasks_per_worker(self):
        # 64 items on 4 workers -> ceil(64 / 8) = 8 items per task.
        assert batch_size(64, 4) == 8
        assert batch_size(3, 4) == 1
        assert batch_size(0, 4) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MORSEL_BATCH_ENV_VAR, "5")
        assert batch_size(64, 4) == 5
        monkeypatch.setenv(MORSEL_BATCH_ENV_VAR, "1")  # the smallest legal batch
        assert batch_size(64, 4) == 1
        monkeypatch.setenv(MORSEL_BATCH_ENV_VAR, "0")
        with pytest.raises(ValueError, match=MORSEL_BATCH_ENV_VAR):
            batch_size(64, 4)
        monkeypatch.setenv(MORSEL_BATCH_ENV_VAR, "lots")
        with pytest.raises(ValueError, match=MORSEL_BATCH_ENV_VAR):
            batch_size(64, 4)

    def test_explicit_batch_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(MORSEL_BATCH_ENV_VAR, "5")
        assert batch_size(64, 4, batch=3) == 3

    def test_batch_items_preserves_order(self):
        items = list(range(10))
        groups = batch_items(items, 4, batch=3)
        assert groups == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        assert [x for g in groups for x in g] == items

    def test_batch_spans_merge_contiguous_morsels(self):
        spans = batch_spans(100, 10, 4, batch=3)
        assert spans == [(0, 30), (30, 60), (60, 90), (90, 100)]
        # Coverage is exact and ordered, regardless of batch size.
        morsels = morsel_ranges(100, 10)
        assert spans[0][0] == 0 and spans[-1][1] == morsels[-1][1]
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
