"""The shared worker pool behind morsel-driven parallel execution.

The paper's engine "runs as fast as the hardware allows" through intra-query
parallelism: scans, joins, aggregates, MPP shard scatter, and Spark stages
all split their work into independent tasks over a bounded set of workers.
This repository reproduces that hardware effect the way it reproduces the
others (PAPER.md's substitution table): on the simulated clock.  One
:class:`WorkerPool` — one option, the degree of parallelism (DOP) — is the
substrate for every layer:

* **tasks run on the calling thread** — :meth:`WorkerPool.map` (the MPP
  shard scatter, Spark stages) runs every task inline, in submission
  order, at every DOP, and returns the results in that order; the first
  failing task raises and later tasks do not run;
* **engine operators run one pass at every DOP** — a GROUP BY or a join
  probe runs its DOP-1 pass once through :meth:`WorkerPool.one_pass`,
  which splits that one measured pass into :data:`MORSEL_ROWS`-row tasks
  by row share, and a table scan times each region it scans.  Parallel
  plans therefore produce exactly the rows a serial plan would;
* **the DOP is modelled** — each run records per-task spans measured in
  *thread CPU seconds* (wall time is kept alongside) and list-schedules
  them over the declared workers (:func:`list_schedule`): each span's
  ``worker`` is the worker the schedule assigns it to, and the simulated
  cost of a parallel phase is the *makespan* of that schedule, never the
  sum of the spans.  Callers that own a
  :class:`~repro.util.timer.SimClock` charge ``run.makespan_seconds``
  instead of ``run.total_seconds``;
* **observability** — when wired to a
  :class:`~repro.monitor.metrics.MetricsRegistry` the pool maintains
  ``parallel.*`` counters/gauges, and every :class:`PoolRun` exposes
  per-worker busy seconds for EXPLAIN ANALYZE and MONREPORT.

Concurrent *sessions* still share one pool, so the lifetime accumulators
stay under a lock and ``last_run`` is per thread.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import dataclass, field

from repro.verify import sanitizer

#: Environment override for the default degree of parallelism.
PARALLELISM_ENV_VAR = "REPRO_PARALLELISM"

#: Rows per morsel: the unit :meth:`WorkerPool.one_pass` splits one
#: measured pass into when it models the pass's DOP.
MORSEL_ROWS = 8_192

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


def list_schedule(durations, workers: int) -> tuple[list[int], list[float]]:
    """``(assignment, loads)``: the worker each of ``durations`` runs on and
    every worker's total busy time.

    Tasks are assigned in submission order to the earliest-free worker,
    the lowest id on a tie (the list-scheduling model of a morsel queue).
    Deterministic, and within 2x of the optimal makespan (Graham's bound),
    which is accurate enough for a cost model.
    """
    durations = list(durations)
    free = [(0.0, w) for w in range(max(1, min(int(workers), len(durations))))]
    loads = [0.0] * len(free)
    assignment = []
    for d in durations:
        _, w = heapq.heappop(free)
        loads[w] += float(d)
        heapq.heappush(free, (loads[w], w))
        assignment.append(w)
    return assignment, loads


def greedy_makespan(durations, workers: int) -> float:
    """Simulated elapsed time for ``durations`` on ``workers`` workers: the
    busiest worker of :func:`list_schedule`.  ``workers=1`` degenerates to
    ``sum``; ``workers>=len(durations)`` to ``max``."""
    return max(list_schedule(durations, workers)[1])


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
    worker: int         # the worker the list schedule assigns it to (0-based)
    seconds: float      # charged duration (thread CPU seconds)
    wall_seconds: float = 0.0


@dataclass
class PoolRun:
    """Accounting for one :meth:`WorkerPool.map` invocation."""

    parallelism: int
    spans: list[TaskSpan] = field(default_factory=list)
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
        """Measured busy seconds per scheduled worker, by worker id."""
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


def timed(fn, *args):
    """``fn(*args)`` with its thread-CPU and wall seconds: ``(value, cpu,
    wall)``.  A CPU clock too coarse to register falls back to wall."""
    w0 = time.perf_counter()
    c0 = time.thread_time()
    value = fn(*args)
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
        metrics: optional :class:`~repro.monitor.metrics.MetricsRegistry`
            fed with ``parallel.*`` counters.
        name: label used in metric and lock names.
    """

    # Constant: benchmarks/e2e/layers.py reads it (parallel.thread_fallbacks); goes with ROADMAP 4(d)'s benchmark PR.
    process_fallbacks_total = 0

    def __init__(self, parallelism: int | None = None, metrics=None,
                 name: str = "pool"):
        self.parallelism = max(
            1,
            parallelism if parallelism is not None else default_parallelism(),
        )
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

    def models(self, tasks: int) -> bool:
        """True when a phase of ``tasks`` tasks gets a modelled run: the DOP
        is above 1 and there is more than one task to schedule."""
        return self.is_parallel and tasks > 1

    def shutdown(self) -> None:
        """A no-op (tasks run on the caller); benchmarks/e2e/workloads.py calls it."""

    # -- execution -------------------------------------------------------------

    def map(self, fn, items, label: str | None = None) -> list:
        """Run ``fn`` over ``items`` on the calling thread, in submission
        order, and return the results in that order.

        The first failing task raises and later tasks do not run; the run
        still records the spans of the tasks before it.
        """
        results = []
        times = []
        try:
            for item in items:
                value, cpu, wall = timed(fn, item)
                results.append(value)
                times.append((cpu, wall))
        finally:
            self.record(times, label)
        return results

    def one_pass(self, fn, n_rows: int, label: str):
        """``(fn(), run)``: ``fn`` runs once, on the caller, over ``n_rows``
        rows.  When the DOP models the pass (:meth:`models` of its
        :data:`MORSEL_ROWS` morsels) the call is timed and recorded as one
        task per morsel, each carrying that morsel's row share of the
        measured ``(cpu, wall)``; otherwise ``run`` is None and nothing is
        recorded.  The answer is the DOP-1 answer at every DOP."""
        starts = range(0, max(0, n_rows), MORSEL_ROWS)
        if not self.models(len(starts)):
            return fn(), None
        value, cpu, wall = timed(fn)
        shares = [min(MORSEL_ROWS, n_rows - start) / n_rows for start in starts]
        return value, self.record([(cpu * s, wall * s) for s in shares], label)

    def record(self, times, label: str | None = None) -> PoolRun:
        """Log and return one run: a ``(cpu, wall)`` pair per task, from
        :func:`timed`, in submission order (:meth:`map`, :meth:`one_pass`,
        the table scan)."""
        workers, _ = list_schedule([cpu for cpu, _ in times], self.parallelism)
        spans = [
            TaskSpan(i, worker, cpu, wall)
            for i, (worker, (cpu, wall)) in enumerate(zip(workers, times))
        ]
        run = PoolRun(parallelism=self.parallelism, spans=spans, label=label)
        self.last_run = run
        self._note_metrics(run)
        return run

    # -- metrics ---------------------------------------------------------------

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
        metrics.gauge("parallel.workers").set(self.parallelism)
        metrics.gauge("parallel.busy_seconds").add(busy)
        metrics.gauge("parallel.makespan_seconds").add(makespan)
