"""The DAG scheduler: stage splitting at shuffle boundaries.

Walks an RDD's lineage, groups consecutive narrow transformations into
stages, and materialises a shuffle (hash partitioning by key) between
stages — Spark's execution model in miniature.  Metrics (stages, tasks,
shuffled records) are recorded for tests and the locality benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SparkJobError
from repro.parallel import WorkerPool

_WIDE_OPS = {"group_by_key", "reduce_by_key", "repartition"}


@dataclass
class JobMetrics:
    stages: int = 0
    tasks: int = 0
    shuffled_records: int = 0
    input_records: int = 0
    #: Per-stage records: {"kind": "narrow"|"shuffle"|"source", "op": ...,
    #: "tasks": int, "records": int}, in execution order.
    stage_metrics: list = field(default_factory=list)


class DAGScheduler:
    """Executes lineage graphs; one instance per SparkContext.

    Args:
        tracer: optional :class:`~repro.monitor.tracer.Tracer`; when given
            (and enabled), each job runs under a ``spark.job`` span with one
            child span per stage.
        pool: optional :class:`~repro.parallel.pool.WorkerPool` shared with
            an embedding engine (the dashDB integration passes the cluster
            scatter pool).  The default pool resolves its width from
            ``REPRO_PARALLELISM``.  A stage's tasks — one per partition —
            run on the calling thread in partition order and the pool
            models the width on the sim clock, so job output is identical
            at any width.
    """

    def __init__(self, tracer=None, pool: WorkerPool | None = None):
        self.last_metrics = JobMetrics()
        self.tracer = tracer
        self.pool = pool if pool is not None else WorkerPool(name="spark")

    def run(self, rdd) -> list[list]:
        self.last_metrics = JobMetrics()
        if self.tracer is not None and self.tracer.enabled:
            with self.tracer.span("spark.job", op=rdd.op) as job:
                result = self._compute(rdd)
                self.tracer.record(
                    "spark.stages",
                    0.0,
                    parent=job,
                    stages=self.last_metrics.stages,
                    tasks=self.last_metrics.tasks,
                    shuffled_records=self.last_metrics.shuffled_records,
                )
            return result
        return self._compute(rdd)

    def _note_stage(self, kind: str, op: str, tasks: int, records: int) -> None:
        self.last_metrics.stage_metrics.append(
            {"kind": kind, "op": op, "tasks": tasks, "records": records}
        )

    # -- recursive lineage evaluation ------------------------------------------

    def _compute(self, rdd) -> list[list]:
        op = rdd.op
        if op == "source":
            self.last_metrics.stages += 1
            self.last_metrics.tasks += rdd.n_partitions
            records = sum(len(p) for p in rdd.data)
            self.last_metrics.input_records += records
            self._note_stage("source", op, rdd.n_partitions, records)
            return [list(p) for p in rdd.data]
        if op == "union":
            left = self._compute(rdd.dep)
            right = self._compute(rdd.dep2)
            return left + right
        parent = self._compute(rdd.dep)
        if op in _WIDE_OPS:
            return self._shuffle(rdd, parent)
        # Narrow op: per-partition tasks, pipelined within the parent stage.
        # All ready tasks dispatch onto the worker pool; gather order is
        # partition order, so output is independent of the pool width.
        self.last_metrics.tasks += len(parent)
        self._note_stage("narrow", op, len(parent), sum(len(p) for p in parent))
        fn = rdd.fn
        if op == "map":
            task = lambda part: [fn(x) for x in part]
        elif op == "filter":
            task = lambda part: [x for x in part if fn(x)]
        elif op == "flat_map":
            task = lambda part: [y for x in part for y in fn(x)]
        elif op == "map_partitions":
            task = lambda part: list(fn(part))
        else:
            raise SparkJobError("unknown RDD op %r" % op)
        return self.pool.map(task, parent, label="spark:%s" % op)

    def _shuffle(self, rdd, parent: list[list]) -> list[list]:
        """Hash-partition parent output by key into the child's partitions."""
        self.last_metrics.stages += 1
        n_out = rdd.n_partitions
        buckets: list[list] = [[] for _ in range(n_out)]
        records = 0
        if rdd.op == "repartition":
            i = 0
            for part in parent:
                for item in part:
                    buckets[i % n_out].append(item)
                    i += 1
            records = i
        else:
            for part in parent:
                for key, value in part:
                    buckets[hash(key) % n_out].append((key, value))
                    records += 1
        self.last_metrics.shuffled_records += records
        self.last_metrics.tasks += n_out
        self._note_stage("shuffle", rdd.op, n_out, records)
        if rdd.op == "repartition":
            return buckets
        # Reduce tasks (one per output partition) run on the worker pool;
        # within a bucket the records keep their arrival order, so grouping
        # and reduction are deterministic at any pool width.
        if rdd.op == "group_by_key":
            def group_bucket(bucket):
                groups: dict = {}
                for key, value in bucket:
                    groups.setdefault(key, []).append(value)
                return list(groups.items())

            return self.pool.map(group_bucket, buckets, label="spark:group")

        def reduce_bucket(bucket):
            groups: dict = {}
            for key, value in bucket:
                if key in groups:
                    groups[key] = rdd.fn(groups[key], value)
                else:
                    groups[key] = value
            return list(groups.items())

        return self.pool.map(reduce_bucket, buckets, label="spark:reduce")
