"""Morsel-driven parallel execution: shared worker pool + morsel batching."""

from repro.parallel.morsel import (
    DEFAULT_MORSEL_ROWS,
    batch_items,
    batch_size,
    batch_spans,
    morsel_ranges,
)
from repro.parallel.pool import (
    PARALLELISM_ENV_VAR,
    PoolRun,
    TaskSpan,
    WorkerPool,
    default_parallelism,
    greedy_makespan,
)

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "PARALLELISM_ENV_VAR",
    "PoolRun",
    "TaskSpan",
    "WorkerPool",
    "batch_items",
    "batch_size",
    "batch_spans",
    "default_parallelism",
    "greedy_makespan",
    "morsel_ranges",
]
