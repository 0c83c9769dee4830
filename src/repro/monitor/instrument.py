"""Per-operator plan instrumentation (the EXPLAIN ANALYZE machinery).

:func:`instrument_plan` rewrites an operator tree so every node is wrapped
in an :class:`InstrumentedOp` that counts rows/batches and accumulates the
wall-clock (and sim-clock) seconds spent producing them.  Timings are
*inclusive* — an operator's time contains its children's, exactly like the
"actual time" column of a conventional EXPLAIN ANALYZE.

The wrapper charges only the time spent inside the wrapped generator, so a
downstream pipeline-breaker does not inflate an upstream scan.  Engine
imports are deferred to call time to keep ``repro.monitor`` importable from
the engine layer itself.
"""

from __future__ import annotations

import time


class InstrumentedOp:
    """Wraps one operator; execution statistics accumulate across run()s."""

    def __init__(self, inner, clock=None):
        self.inner = inner
        self.clock = clock
        self.rows_out = 0
        self.batches = 0
        self.wall_seconds = 0.0
        self.sim_seconds = 0.0

    def execute(self):
        clock = self.clock
        gen = self.inner.execute()
        while True:
            t0 = time.perf_counter()
            s0 = clock.now if clock is not None else 0.0
            try:
                batch = next(gen)
            except StopIteration:
                self.wall_seconds += time.perf_counter() - t0
                if clock is not None:
                    self.sim_seconds += clock.now - s0
                return
            self.wall_seconds += time.perf_counter() - t0
            if clock is not None:
                self.sim_seconds += clock.now - s0
            self.rows_out += batch.n
            self.batches += 1
            yield batch

    def run(self):
        from repro.engine.expression import Batch

        return Batch.concat(list(self.execute()))


_CHILD_ATTRS = ("child", "left", "right")


def instrument_plan(op, clock=None) -> InstrumentedOp:
    """Recursively wrap an operator tree for per-operator accounting.

    The tree is rewritten in place (child attributes now point at
    wrappers); plans are single-use so this is safe.  Returns the wrapped
    root.
    """
    if isinstance(op, InstrumentedOp):
        return op
    for attr in _CHILD_ATTRS:
        sub = getattr(op, attr, None)
        if sub is not None and hasattr(sub, "execute"):
            setattr(op, attr, instrument_plan(sub, clock))
    children = getattr(op, "children", None)
    if children:
        op.children = [
            instrument_plan(c, clock) if hasattr(c, "execute") else c
            for c in children
        ]
    return InstrumentedOp(op, clock)


def operator_detail(op) -> str:
    """One-line physical detail for an operator (shared by EXPLAIN paths)."""
    from repro.engine.aggregate import GroupByOp
    from repro.engine.join import HashJoinOp, NestedLoopJoinOp
    from repro.engine.operators import TableScanOp

    if isinstance(op, TableScanOp):
        preds = ", ".join("%s %s" % (p.column, p.op) for p in op.pushed)
        return " %s(%s)%s" % (
            op.table.schema.name,
            ", ".join(op.columns),
            (" WHERE " + preds) if preds else "",
        )
    if isinstance(op, (HashJoinOp, NestedLoopJoinOp)):
        return " [%s]" % op.join_type
    if isinstance(op, GroupByOp):
        keys = ", ".join(alias for alias, _ in op.keys)
        aggs = ", ".join(s.alias for s in op.aggregates)
        return " keys(%s) aggs(%s)" % (keys, aggs)
    name = getattr(op, "name", "")  # the relation a source stands for (CTE, gathered partials)
    return " " + name if name else ""


def _instrumented_children(wrapper: InstrumentedOp) -> list[InstrumentedOp]:
    out = []
    for attr in _CHILD_ATTRS:
        sub = getattr(wrapper.inner, attr, None)
        if isinstance(sub, InstrumentedOp):
            out.append(sub)
    for sub in getattr(wrapper.inner, "children", None) or []:
        if isinstance(sub, InstrumentedOp):
            out.append(sub)
    return out


def _operator_line(wrapper: InstrumentedOp, depth: int) -> str:
    op = wrapper.inner
    line = "%s%s%s rows=%d batches=%d time=%.3fms" % (
        "  " * depth,
        type(op).__name__,
        operator_detail(op),
        wrapper.rows_out,
        wrapper.batches,
        wrapper.wall_seconds * 1e3,
    )
    if wrapper.sim_seconds > 0.0:
        line += " sim=%.6fs" % wrapper.sim_seconds
    stats = getattr(op, "stats", None)
    if stats is not None and hasattr(stats, "extents_skipped"):
        line += " [scanned=%d skipped_extents=%d pages=%d]" % (
            stats.rows_scanned, stats.extents_skipped, stats.pages_read
        )
        if stats.regions_positional:  # the form the sealed regions' selections took
            line += " [select=positions %d/%d]" % (
                stats.regions_positional, stats.regions_scanned
            )
        elif stats.regions_scanned:
            line += " [select=mask]"
    run = getattr(op, "parallel_run", None)
    if run is not None:
        line += " [parallel tasks=%d workers=%d busy=%.3fms makespan=%.3fms]" % (
            run.tasks,
            len(run.worker_busy()),
            run.total_seconds * 1e3,
            run.makespan_seconds * 1e3,
        )
    path = getattr(stats, "path", None)
    if path is not None:
        line += " [path=%s]" % path
    key_coding = getattr(stats, "key_coding", None)
    if key_coding is not None:
        line += " [keys=%s%s]" % (
            key_coding,
            "".join(" " + reason for reason in stats.key_reasons),
        )
    return line


def annotated_plan_lines(root: InstrumentedOp, depth: int = 0) -> list[str]:
    """Render an executed instrumented plan as indented annotated lines."""
    lines = [_operator_line(root, depth)]
    for child in _instrumented_children(root):
        lines.extend(annotated_plan_lines(child, depth + 1))
    return lines


def attach_operator_spans(tracer, parent_span, root: InstrumentedOp) -> None:
    """Report each instrumented operator as a finished child span.

    Operators are measured by the wrapper rather than live spans so that
    pipelined (interleaved) generators cannot corrupt the tracer's
    open-span stack; the tree is reconstructed after the plan drains.
    """
    span = tracer.record(
        "operator:%s" % type(root.inner).__name__,
        root.wall_seconds,
        parent=parent_span,
        sim_elapsed=root.sim_seconds if root.sim_seconds > 0.0 else None,
        rows=root.rows_out,
        batches=root.batches,
    )
    stats = getattr(root.inner, "stats", None)
    if stats is not None:
        span.annotate(stats=stats)
    run = getattr(root.inner, "parallel_run", None)
    if run is not None:
        span.annotate(
            parallel={
                "parallelism": run.parallelism,
                "tasks": run.tasks,
                "busy_seconds": run.total_seconds,
                "makespan_seconds": run.makespan_seconds,
                "worker_busy": run.worker_busy(),
            }
        )
    for child in _instrumented_children(root):
        attach_operator_spans(tracer, span, child)


def describe_plan(op, depth: int = 0) -> list[str]:
    """Plain (non-analyzed) EXPLAIN rendering of an operator tree."""
    lines = ["%s%s%s" % ("  " * depth, type(op).__name__, operator_detail(op))]
    for attr in _CHILD_ATTRS:
        sub = getattr(op, attr, None)
        if sub is not None and hasattr(sub, "execute"):
            lines.extend(describe_plan(sub, depth + 1))
    for sub in getattr(op, "children", None) or []:
        if hasattr(sub, "execute"):
            lines.extend(describe_plan(sub, depth + 1))
    return lines
