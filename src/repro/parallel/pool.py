"""The shared worker pool behind morsel-driven parallel execution.

The paper's engine "runs as fast as the hardware allows" through intra-query
parallelism: scans, joins, aggregates, MPP shard scatter, and Spark stages
all split their work into independent tasks and run them on a bounded set of
workers.  One :class:`WorkerPool` — one thread executor, one option (the
degree of parallelism) — provides that substrate for every layer:

* **deterministic gather** — :meth:`WorkerPool.map` always returns results
  in submission order, whatever order workers finish in, so parallel plans
  produce exactly the rows a serial plan would;
* **serial equivalence** — with ``parallelism=1`` (the default unless
  ``REPRO_PARALLELISM`` or the caller says otherwise) tasks run inline on
  the calling thread: byte-for-byte the pre-pool execution path, with no
  executor, no extra threads, and no scheduling jitter;
* **sim-clock awareness** — each run records per-task spans measured in
  *thread CPU seconds* (wall time is kept alongside), so contention on an
  oversubscribed host cannot inflate the model; the simulated cost of a
  parallel phase is the *makespan* of those spans over the configured
  workers (max of worker busy times), never their sum.  Callers that own a
  :class:`~repro.util.timer.SimClock` charge ``run.makespan_seconds``
  instead of ``run.total_seconds``;
* **observability** — when wired to a
  :class:`~repro.monitor.metrics.MetricsRegistry` the pool maintains
  ``parallel.*`` counters/gauges, and every :class:`PoolRun` exposes
  per-worker busy seconds for EXPLAIN ANALYZE and MONREPORT.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.verify import sanitizer

_NULL_SPAN = contextlib.nullcontext()

#: Environment override for the default degree of parallelism.
PARALLELISM_ENV_VAR = "REPRO_PARALLELISM"

def default_parallelism(cores: int | None = None) -> int:
    """Resolve the default degree of parallelism (DOP).

    Priority: the ``REPRO_PARALLELISM`` environment variable, then the
    detected ``cores`` the caller passes (auto-configuration), then 1 —
    serial execution is always the safe default.
    """
    env = os.environ.get(PARALLELISM_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                "%s must be an integer, got %r" % (PARALLELISM_ENV_VAR, env)
            ) from None
    if cores is not None:
        return max(1, int(cores))
    return 1


def greedy_makespan(durations, workers: int) -> float:
    """Simulated elapsed time for ``durations`` on ``workers`` workers.

    Tasks are assigned in submission order to the earliest-free worker (the
    list-scheduling model of a morsel queue).  ``workers=1`` degenerates to
    ``sum``; ``workers>=len(durations)`` to ``max``.  Deterministic, and
    within 2x of the optimal makespan (Graham's bound), which is accurate
    enough for a cost model.
    """
    durations = list(durations)
    if not durations:
        return 0.0
    workers = max(1, int(workers))
    if workers == 1:
        return float(sum(durations))
    loads = [0.0] * min(workers, len(durations))
    heapq.heapify(loads)
    for d in durations:
        heapq.heappush(loads, heapq.heappop(loads) + float(d))
    return max(loads)


@dataclass
class TaskSpan:
    """One task's execution record inside a pool run.

    ``seconds`` is the charged duration: the task's thread-CPU time (with a
    wall-clock fallback when the CPU clock is too coarse to register).  CPU
    time is what a simulator must charge — on an oversubscribed host the
    wall span of a concurrent task silently includes scheduler/GIL waits,
    which would make parallel makespans look as slow as serial sums.
    ``wall_seconds`` keeps the raw wall measurement for reporting.
    """

    index: int          # submission index (== gather position)
    worker: int         # dense worker id within the run (0-based)
    seconds: float      # charged duration (thread CPU seconds)
    wall_seconds: float = 0.0
    label: str | None = None


@dataclass
class PoolRun:
    """Accounting for one :meth:`WorkerPool.map` invocation."""

    parallelism: int
    spans: list[TaskSpan] = field(default_factory=list)
    inline: bool = False  # ran serially on the calling thread
    label: str | None = None

    @property
    def tasks(self) -> int:
        return len(self.spans)

    @property
    def total_seconds(self) -> float:
        """Sum of task spans — the serial-equivalent cost."""
        return sum(s.seconds for s in self.spans)

    @property
    def makespan_seconds(self) -> float:
        """Simulated parallel elapsed time: max of worker spans, not sum."""
        return greedy_makespan(
            (s.seconds for s in self.spans), self.parallelism
        )

    def worker_busy(self) -> dict[int, float]:
        """Measured busy seconds per worker (dense ids, gather order)."""
        busy: dict[int, float] = {}
        for span in self.spans:
            busy[span.worker] = busy.get(span.worker, 0.0) + span.seconds
        return dict(sorted(busy.items()))

    def utilisation(self) -> float:
        """Mean worker busy fraction over the run's makespan (0..1)."""
        makespan = self.makespan_seconds
        if makespan <= 0.0:
            return 1.0
        return self.total_seconds / (makespan * max(1, self.parallelism))


def _timed(fn, item):
    """``fn(item)`` with its thread-CPU and wall seconds: ``(value, cpu,
    wall)``.  A CPU clock too coarse to register falls back to wall."""
    w0 = time.perf_counter()
    c0 = time.thread_time()
    value = fn(item)
    cpu = time.thread_time() - c0
    wall = time.perf_counter() - w0
    if cpu <= 0.0:
        cpu = wall
    return value, cpu, wall


class WorkerPool:
    """A fixed-width worker pool shared by one engine (or one cluster).

    Args:
        parallelism: worker count; ``None`` resolves via
            :func:`default_parallelism` (env var, else serial).
        clock: optional :class:`~repro.util.timer.SimClock`; kept so owners
            can call :meth:`charge_clock` after a run.
        metrics: optional :class:`~repro.monitor.metrics.MetricsRegistry`
            fed with ``parallel.*`` counters.
        name: label used in metric names and thread names.
    """

    # Constant: benchmarks/e2e/layers.py reads it (parallel.thread_fallbacks); goes with ROADMAP 4(d)'s benchmark PR.
    process_fallbacks_total = 0

    def __init__(self, parallelism: int | None = None, clock=None,
                 metrics=None, name: str = "pool"):
        self.parallelism = max(
            1,
            parallelism if parallelism is not None else default_parallelism(),
        )
        self.clock = clock
        self.name = name
        self.metrics = metrics
        #: ``last_run`` is *thread-local*: concurrent sessions each read the
        #: run their own ``map()`` just produced, so a plain attribute would
        #: be a write-write race between session threads (found by the
        #: lockset sanitizer; every consumer reads it on the calling thread
        #: immediately after ``map()`` returns, so TLS preserves the API).
        self._tls = threading.local()
        #: Lifetime accumulators (monitor/report + benchmark surfaces).
        self.runs_total = 0
        self.tasks_total = 0
        self.busy_seconds_total = 0.0      # serial-equivalent cost
        self.makespan_seconds_total = 0.0  # simulated parallel cost
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = sanitizer.make_lock("pool:%s:executor" % name)
        self._stats_lock = sanitizer.make_lock("pool:%s:stats" % name)

    @property
    def last_run(self) -> PoolRun | None:
        """The most recent run *on this thread* (None before the first)."""
        return getattr(self._tls, "last_run", None)

    @last_run.setter
    def last_run(self, run: PoolRun | None) -> None:
        self._tls.last_run = run

    @property
    def is_parallel(self) -> bool:
        return self.parallelism > 1

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.parallelism,
                    thread_name_prefix="repro-%s" % self.name,
                )
            return self._executor

    def shutdown(self) -> None:
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    # -- execution -------------------------------------------------------------

    def map(self, fn, items, label: str | None = None) -> list:
        """Run ``fn`` over ``items``; results gather in submission order.

        With ``parallelism=1`` (or fewer than two items) the tasks run
        inline on the calling thread in submission order — the exact serial
        code path.  Otherwise tasks run on the executor and the first
        failing task's exception (in submission order) propagates after all
        futures settle, so error behaviour is deterministic too.
        """
        items = list(items)
        if not self.is_parallel or len(items) <= 1:
            return self._map_inline(fn, items, label)
        hook = sanitizer.mc_hook()
        if hook is not None and hook.governs_current_thread():
            # Under the model checker, tasks become model threads so the
            # checker explores morsel interleavings too (no real executor).
            return self._map_modelled(hook, fn, items, label)
        executor = self._ensure_executor()
        worker_ids: dict[int, int] = {}
        # lint-ok: raw-lock (per-invocation lock guarding only this call's local worker_ids dict; never shared beyond the run, so lockset tracking would be noise)
        ids_lock = threading.Lock()

        def task(index, item):
            span = (
                sanitizer.task_span(label or self.name)
                if sanitizer.ENABLED
                else _NULL_SPAN
            )
            with span:
                value, cpu, wall = _timed(fn, item)
            ident = threading.get_ident()
            with ids_lock:
                worker = worker_ids.setdefault(ident, len(worker_ids))
            return value, TaskSpan(index, worker, cpu, wall, label)

        futures = [executor.submit(task, i, item) for i, item in enumerate(items)]
        results: list = [None] * len(items)
        spans: list[TaskSpan] = []
        first_error: BaseException | None = None
        for i, future in enumerate(futures):
            try:
                results[i], span = future.result()
            except BaseException as exc:  # lint-ok: broad-except (not a swallow: the first failure, in submission order, re-raises after every future settles — deterministic error behaviour)
                if first_error is None:
                    first_error = exc
                continue
            spans.append(span)
        self._record(spans, inline=False, label=label)
        if first_error is not None:
            raise first_error
        return results

    def _map_modelled(self, hook, fn, items, label) -> list:
        """``map()`` with the model checker owning the schedule: each task
        runs as a model thread, the calling thread joins, and gather order
        / first-error semantics match the executor path."""

        def task(pair):
            index, item = pair
            value, cpu, wall = _timed(fn, item)
            return value, TaskSpan(index, index, cpu, wall, label)

        pairs = hook.run_pool_tasks(
            self, task, list(enumerate(items)), label or self.name
        )
        self._record([span for _, span in pairs], inline=False, label=label)
        return [value for value, _ in pairs]

    def _map_inline(self, fn, items, label) -> list:
        results = []
        spans = []
        for i, item in enumerate(items):
            value, cpu, wall = _timed(fn, item)
            results.append(value)
            spans.append(TaskSpan(i, 0, cpu, wall, label))
        self._record(spans, inline=True, label=label)
        return results

    def _record(self, spans, inline: bool, label) -> None:
        run = PoolRun(
            parallelism=self.parallelism, spans=spans, inline=inline, label=label
        )
        self.last_run = run
        self._note_metrics(run)

    # -- sim clock / metrics ----------------------------------------------------

    def charge_clock(self, run: PoolRun | None = None) -> float:
        """Advance the sim clock by the run's makespan (max of worker
        spans, never their sum).  Returns the seconds charged."""
        run = run or self.last_run
        if run is None:
            return 0.0
        seconds = run.makespan_seconds
        if self.clock is not None and seconds > 0.0:
            self.clock.advance(seconds)
        return seconds

    def _note_metrics(self, run: PoolRun) -> None:
        busy = run.total_seconds
        makespan = run.makespan_seconds
        with self._stats_lock:
            if sanitizer.ENABLED:
                sanitizer.access(
                    "pool:%s" % self.name, "accumulators",
                    site="WorkerPool._note_metrics",
                )
            self.runs_total += 1
            self.tasks_total += run.tasks
            self.busy_seconds_total += busy
            self.makespan_seconds_total += makespan
        metrics = self.metrics
        if metrics is None:
            return
        metrics.counter("parallel.runs").inc()
        metrics.counter("parallel.tasks").inc(run.tasks)
        if run.inline:
            metrics.counter("parallel.tasks_inline").inc(run.tasks)
        metrics.gauge("parallel.workers").set(self.parallelism)
        metrics.gauge("parallel.busy_seconds").add(busy)
        metrics.gauge("parallel.makespan_seconds").add(makespan)
