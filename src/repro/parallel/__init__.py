"""Intra-query parallelism, modelled: the shared worker pool."""

from repro.parallel.pool import (
    MORSEL_ROWS,
    PARALLELISM_ENV_VAR,
    PoolRun,
    TaskSpan,
    WorkerPool,
    default_parallelism,
    greedy_makespan,
)

__all__ = [
    "MORSEL_ROWS",
    "PARALLELISM_ENV_VAR",
    "PoolRun",
    "TaskSpan",
    "WorkerPool",
    "default_parallelism",
    "greedy_makespan",
]
