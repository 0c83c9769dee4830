"""Vectorised grouping and aggregation (paper II.B.7).

Groups are resolved by factorising the key columns into dense codes
(:func:`repro.engine.fused.group_codes`); aggregates then reduce with
``np.bincount`` / ``ufunc.at`` scatter ops, so one GROUP BY pass
(:func:`_group`) is a handful of vectorised passes (the cache-efficient,
partition-into-chunks strategy the paper describes, expressed in numpy).

That one pass is the GROUP BY at every DOP.  At DOP > 1 the pool models
it (:meth:`~repro.parallel.pool.WorkerPool.one_pass`): the measured pass
is split into morsel tasks by row share and list-scheduled, so the answer
is the DOP-1 answer and the DOP shows only in the modelled run.

Supported aggregates: COUNT(*), COUNT(x), COUNT(DISTINCT x), SUM, AVG,
MIN, MAX, VAR_POP, VAR_SAMP/VARIANCE, STDDEV, STDDEV_POP, STDDEV_SAMP,
MEDIAN, COVAR_POP, COVAR_SAMP/COVARIANCE, CUME_DIST/PERCENTILE via MEDIAN's
machinery, GROUPING passthrough.  An integer (or DECIMAL) SUM whose exact
group sum leaves int64 raises SQLSTATE 22003 instead of wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.engine import fused
from repro.engine.expression import Batch, ColumnRef, Expr
from repro.engine.operators import Operator
from repro.errors import NumericOverflowError, UnsupportedFeatureError
from repro.storage.column import ColumnVector
from repro.types.datatypes import BIGINT, DOUBLE, DataType, TypeKind, decimal_type

_SINGLE_ARG = {
    "COUNT",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
    "VAR_POP",
    "VAR_SAMP",
    "STDDEV_POP",
    "STDDEV_SAMP",
    "MEDIAN",
    "PERCENTILE_CONT",
    "PERCENTILE_DISC",
    "CUME_DIST",
}
_TWO_ARG = {"COVAR_POP", "COVAR_SAMP"}

#: 2**63: an exact integer sum must lie in ``[-_INT64_SPAN, _INT64_SPAN)``.
_INT64_SPAN = 1 << 63


@dataclass
class GroupStats:
    """Observability counters for one grouping execution (monitor layer)."""

    input_rows: int = 0
    groups: int = 0
    #: How the group keys were coded: "dictionary" (ranked through their
    #: dictionaries, no row's string hashed), "rows" (factorised row by
    #: row) or "mixed"; None for a grand total or an empty input.
    key_coding: str | None = None
    #: Why keys were coded by rows: "plain-input",
    #: "dictionary-larger-than-span".
    key_reasons: tuple = ()


@dataclass
class AggregateSpec:
    """One output aggregate: function, argument expression(s), alias."""

    func: str
    args: list[Expr]
    alias: str
    distinct: bool = False
    param: float | None = None  # percentile fraction for PERCENTILE_*

    def output_type(self) -> DataType:
        func = self.func
        if func == "COUNT":
            return BIGINT
        if func in ("SUM",):
            arg = self.args[0].dtype
            if arg.kind is TypeKind.DECIMAL:
                return decimal_type(31, arg.scale)
            if arg.is_integer:
                return BIGINT
            return DOUBLE
        if func in ("MIN", "MAX"):
            return self.args[0].dtype
        return DOUBLE


class GroupByOp(Operator):
    """GROUP BY with vectorised aggregate computation.

    Args:
        child: input operator.
        keys: (alias, expression) pairs forming the group key (empty for a
            grand total).
        aggregates: the aggregate outputs.
        pool: optional :class:`~repro.parallel.pool.WorkerPool`.  The
            GROUP BY pass runs once at every DOP; a parallel pool models
            its DOP as a ``group-by`` run (``parallel_run``).
    """

    def __init__(
        self,
        child: Operator,
        keys: list[tuple[str, Expr]],
        aggregates: list[AggregateSpec],
        pool=None,
    ):
        self.child = child
        self.keys = keys
        self.aggregates = aggregates
        self.pool = pool
        self.stats = GroupStats()
        self.parallel_run = None

    def note_keys(self, reasons) -> None:
        """Record how the keys were coded (``fused.row_coding_reason`` per
        key) on the stats and the engine's metrics registry."""
        stats = self.stats
        stats.key_coding, stats.key_reasons = fused.key_coding(reasons)
        metrics = getattr(self.pool, "metrics", None)
        if metrics is not None and stats.key_coding is not None:
            path = "dictionary" if stats.key_coding == "dictionary" else "rows"
            metrics.counter("engine.group.keys_%s" % path).inc()

    def execute(self):
        batch = self.child.run()
        self.stats = GroupStats(input_rows=batch.n)  # this execution's own (the operator may be a copy)
        if batch.n == 0 and not batch.columns:
            # A drained-empty child lost its schema: rebuild typed empty
            # columns for every column reference the aggregates/keys read.
            batch = _synthesize_empty(self.keys, self.aggregates)
        group = partial(_group, batch, self.keys, self.aggregates)
        if self.pool is None:
            out, reasons = group()
        else:
            (out, reasons), self.parallel_run = self.pool.one_pass(group, batch.n, "group-by")
        self.note_keys(reasons)
        self.stats.groups = out.n
        yield out


def _group(batch: Batch, keys, aggregates):
    """One GROUP BY pass over ``batch``: ``(output batch, reasons)``, the
    reasons being :func:`fused.row_coding_reason` per key (none for a grand
    total or an empty input)."""
    if not keys:
        group_ids, key_cols, n_groups, reasons = np.zeros(batch.n, dtype=np.int64), [], 1, []
    elif batch.n == 0:
        return Batch(
            columns={
                **{alias: ColumnVector(e.dtype, np.empty(0, e.dtype.numpy_dtype), None)
                   for alias, e in keys},
                **{s.alias: ColumnVector(s.output_type(), np.empty(0, s.output_type().numpy_dtype), None)
                   for s in aggregates},
            },
            n=0,
        ), []
    else:
        key_vectors = [expr.eval(batch) for _, expr in keys]
        reasons = [fused.row_coding_reason(v) for v in key_vectors]
        group_ids, key_cols, n_groups = fused.group_codes(key_vectors)
    columns: dict[str, ColumnVector] = {
        alias: group for (alias, _), group in zip(keys, key_cols)
    }
    for spec in aggregates:
        columns[spec.alias] = _compute_aggregate(spec, batch, group_ids, n_groups)
    return Batch.from_columns(columns), reasons


def _synthesize_empty(keys, aggregates) -> Batch:
    """An empty batch whose columns cover every ColumnRef in the exprs."""
    columns: dict[str, ColumnVector] = {}

    def walk(expr):
        if isinstance(expr, ColumnRef):
            columns[expr.name] = ColumnVector(
                expr.dtype, np.empty(0, dtype=expr.dtype.numpy_dtype), None
            )
            return
        for attr in ("left", "right", "child", "low", "high", "default"):
            sub = getattr(expr, attr, None)
            if isinstance(sub, Expr):
                walk(sub)
        for attr in ("operands", "args"):
            for sub in getattr(expr, attr, []) or []:
                if isinstance(sub, Expr):
                    walk(sub)
        for pair in getattr(expr, "whens", []) or []:
            for sub in pair:
                if isinstance(sub, Expr):
                    walk(sub)

    for _, expr in keys:
        walk(expr)
    for spec in aggregates:
        for arg in spec.args:
            walk(arg)
    return Batch(columns=columns, n=0)


def _compute_aggregate(
    spec: AggregateSpec, batch: Batch, group_ids: np.ndarray, n_groups: int
) -> ColumnVector:
    func = spec.func.upper()
    out_dt = spec.output_type()
    if func == "COUNT" and not spec.args:
        counts = np.bincount(group_ids, minlength=n_groups).astype(np.int64)
        return ColumnVector(BIGINT, counts, None)
    if func in _TWO_ARG:
        return _covariance(spec, batch, group_ids, n_groups, sample=func.endswith("SAMP"))
    if func not in _SINGLE_ARG:
        raise UnsupportedFeatureError("aggregate function %s" % func)
    vector = spec.args[0].eval(batch)
    live = None if vector.nulls is None else np.flatnonzero(~vector.nulls)
    ids = group_ids if live is None else group_ids[live]
    if func == "COUNT":
        if spec.distinct:
            ids, _ = _distinct_pairs(ids, _distinct_keys(vector, live))
        counts = np.bincount(ids, minlength=n_groups).astype(np.int64)
        return ColumnVector(BIGINT, counts, None)
    values = vector.values if live is None else vector.values[live]

    group_counts = np.bincount(ids, minlength=n_groups).astype(np.int64)
    empty = group_counts == 0  # groups where every input was NULL
    if func in ("MIN", "MAX"):
        return _min_max(values, ids, n_groups, empty, func, out_dt)
    if spec.distinct:
        ids, values = _distinct_pairs(ids, values)
        group_counts = np.bincount(ids, minlength=n_groups).astype(np.int64)
        empty = group_counts == 0
    arg_dt = spec.args[0].dtype
    if func == "AVG" and arg_dt.is_integer and values.dtype == np.int64:
        return _mean(_exact_sums(ids, values, n_groups), group_counts)
    if func == "SUM" and values.dtype == np.int64:
        # Exact integer accumulation (money sums on scaled decimals).
        sums = _exact_sums(ids, values, n_groups)
        return ColumnVector(out_dt, sums, empty if empty.any() else None)
    numeric = values.astype(np.float64)
    if arg_dt.kind is TypeKind.DECIMAL:
        # Physical decimals are scaled integers; statistics need true values.
        numeric = numeric / (10 ** arg_dt.scale)
    # np.bincount of an empty (all-NULL) input ignores its float weights
    # and returns integer zeros: keep the sums physically DOUBLE.
    sums = np.bincount(ids, weights=numeric, minlength=n_groups).astype(np.float64, copy=False)
    if func == "SUM":
        return ColumnVector(DOUBLE, sums, empty if empty.any() else None)
    safe_counts = np.maximum(group_counts, 1)
    means = sums / safe_counts
    if func == "AVG":
        return ColumnVector(DOUBLE, means, empty if empty.any() else None)
    if func == "CUME_DIST":
        # Hypothetical-set aggregate: the relative position the constant
        # spec.param would take if inserted into each group:
        # (rows <= value, counting itself) / (n + 1).
        value = float(spec.param or 0.0)
        out = np.zeros(n_groups, dtype=np.float64)
        for g in range(n_groups):
            members = numeric[ids == g]
            if members.size:
                out[g] = (int((members <= value).sum()) + 1) / (members.size + 1)
        return ColumnVector(DOUBLE, out, empty if empty.any() else None)
    if func in ("MEDIAN", "PERCENTILE_CONT", "PERCENTILE_DISC"):
        fraction = 0.5 if func == "MEDIAN" else float(spec.param or 0.5)
        method = "lower" if func == "PERCENTILE_DISC" else "linear"
        out = np.zeros(n_groups, dtype=np.float64)
        for g in range(n_groups):
            members = numeric[ids == g]
            if members.size:
                out[g] = np.percentile(members, fraction * 100.0, method=method)
        return ColumnVector(DOUBLE, out, empty if empty.any() else None)
    # Variance family.
    sq = np.bincount(ids, weights=numeric * numeric, minlength=n_groups)
    var_pop = np.maximum(sq / safe_counts - means * means, 0.0)
    if func == "VAR_POP":
        return ColumnVector(DOUBLE, var_pop, empty if empty.any() else None)
    if func == "STDDEV_POP":
        return ColumnVector(DOUBLE, np.sqrt(var_pop), empty if empty.any() else None)
    denom = np.maximum(group_counts - 1, 1)
    var_samp = var_pop * group_counts / denom
    nulls = empty | (group_counts <= 1)
    if func == "VAR_SAMP":
        return ColumnVector(DOUBLE, var_samp, nulls if nulls.any() else None)
    # STDDEV_SAMP
    return ColumnVector(DOUBLE, np.sqrt(var_samp), nulls if nulls.any() else None)


def _distinct_keys(vector: ColumnVector, live) -> np.ndarray:
    """What COUNT(DISTINCT) compares, at the rows ``live`` (None: all): the
    values, or for a coded vector its codes, each replaced by the rank of
    its dictionary entry (a dictionary may hold a string twice) — only the
    entries some row references are ranked, and no row's string is read."""
    codes = vector.codes
    if codes is None:
        return vector.values if live is None else vector.values[live]
    used, at = np.unique(codes if live is None else codes[live], return_inverse=True)
    _, entry_ranks = np.unique(vector.dictionary[used], return_inverse=True)
    return entry_ranks[at]


def _distinct_pairs(ids: np.ndarray, values: np.ndarray):
    """The first row of every distinct (group id, value) pair, in row
    order — so SUM(DISTINCT) of DOUBLE adds what it always added, in the
    same order.  Values compare as numbers (0.0 and -0.0 are one value; a
    NaN equals nothing, not even another NaN)."""
    if not ids.size:
        return ids, values
    _, ranks = np.unique(values, return_inverse=True, equal_nan=False)
    pairs = ids * (int(ranks.max()) + 1) + ranks
    _, first = np.unique(pairs, return_index=True)
    first.sort()
    return ids[first], values[first]


def _min_max(values, ids, n_groups, empty, func, out_dt):
    out = fused.min_max_span(func.lower(), ids, values, n_groups)
    out[empty] = "" if out.dtype == object else 0  # filler under the NULL mask
    return ColumnVector(out_dt, out, empty if empty.any() else None)


def _exact_sums(ids, values, n_groups):
    """Per-group int64 sums of int64 ``values``; NumericOverflowError
    (22003) when a group's exact sum leaves int64.

    ``max|v| * n < 2**63`` proves no group can overflow, so the exact
    check runs only when that bound fails: each value splits into a high
    and a low 32-bit half, whose per-group sums cannot overflow, and the
    exact sums are rebuilt from them as Python integers.
    """
    sums = np.zeros(n_groups, dtype=np.int64)
    np.add.at(sums, ids, values)
    if values.size and max(int(values.max()), -int(values.min())) * values.size >= _INT64_SPAN:
        high = np.zeros(n_groups, dtype=np.int64)
        low = np.zeros(n_groups, dtype=np.int64)
        np.add.at(high, ids, values >> 32)
        np.add.at(low, ids, values & 0xFFFFFFFF)
        for h, lo in zip(high.tolist(), low.tolist()):
            exact = (h << 32) + lo
            if not -_INT64_SPAN <= exact < _INT64_SPAN:
                raise NumericOverflowError("integer sum out of range for BIGINT")
    return sums


def _mean(sums, counts):
    """AVG from exact int64 sums and counts: one float64 division (an
    all-NULL group is NULL over the filler 0 / 1)."""
    empty = counts == 0
    out = sums.astype(np.float64) / np.maximum(counts, 1)
    return ColumnVector(DOUBLE, out, empty if empty.any() else None)


def _covariance(spec, batch, group_ids, n_groups, sample: bool):
    xv = spec.args[0].eval(batch)
    yv = spec.args[1].eval(batch)
    live = ~xv.null_mask() & ~yv.null_mask()
    ids = group_ids[live]
    x = xv.values[live].astype(np.float64)
    y = yv.values[live].astype(np.float64)
    if xv.dtype.kind is TypeKind.DECIMAL:
        x = x / (10 ** xv.dtype.scale)
    if yv.dtype.kind is TypeKind.DECIMAL:
        y = y / (10 ** yv.dtype.scale)
    counts = np.bincount(ids, minlength=n_groups).astype(np.int64)
    empty = counts == 0
    safe = np.maximum(counts, 1)
    mx = np.bincount(ids, weights=x, minlength=n_groups) / safe
    my = np.bincount(ids, weights=y, minlength=n_groups) / safe
    xy = np.bincount(ids, weights=x * y, minlength=n_groups) / safe
    cov_pop = xy - mx * my
    if not sample:
        return ColumnVector(DOUBLE, cov_pop, empty if empty.any() else None)
    denom = np.maximum(counts - 1, 1)
    cov_samp = cov_pop * counts / denom
    nulls = empty | (counts <= 1)
    return ColumnVector(DOUBLE, cov_samp, nulls if nulls.any() else None)
