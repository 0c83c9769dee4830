"""Vectorised grouping and aggregation (paper II.B.7).

Groups are resolved by factorising the key columns into dense codes
(:func:`repro.engine.fused.group_codes`, the one group-coding routine at
every DOP); aggregates then reduce with ``np.bincount`` / ``ufunc.at``
scatter ops, so the whole operator is a handful of vectorised passes (the
cache-efficient, partition-into-chunks strategy the paper describes,
expressed in numpy).

Supported aggregates: COUNT(*), COUNT(x), COUNT(DISTINCT x), SUM, AVG,
MIN, MAX, VAR_POP, VAR_SAMP/VARIANCE, STDDEV, STDDEV_POP, STDDEV_SAMP,
MEDIAN, COVAR_POP, COVAR_SAMP/COVARIANCE, CUME_DIST/PERCENTILE via MEDIAN's
machinery, GROUPING passthrough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import fused
from repro.engine.expression import Batch, Expr
from repro.engine.operators import Operator
from repro.errors import UnsupportedFeatureError
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


@dataclass
class GroupStats:
    """Observability counters for one grouping execution (monitor layer)."""

    input_rows: int = 0
    groups: int = 0


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
        pool: optional :class:`~repro.parallel.pool.WorkerPool`.  With a
            parallel pool the input splits into morsels, each worker builds
            partial per-group states, and the states merge in morsel order.
            Only aggregates whose machine arithmetic is associative take
            this path (see :meth:`parallel_safe`); everything else stays on
            the serial code, so results are bit-identical at any DOP.
        morsel_rows: rows per morsel (default
            :data:`~repro.parallel.morsel.DEFAULT_MORSEL_ROWS`).
    """

    def __init__(
        self,
        child: Operator,
        keys: list[tuple[str, Expr]],
        aggregates: list[AggregateSpec],
        pool=None,
        morsel_rows: int | None = None,
    ):
        self.child = child
        self.keys = keys
        self.aggregates = aggregates
        self.pool = pool
        self.morsel_rows = morsel_rows
        self.stats = GroupStats()
        self.parallel_run = None
        #: Fusion telemetry (EXPLAIN ANALYZE): "scan-agg" when the whole
        #: scan→aggregate chain ran fused, "batch-agg" for a fused reduce
        #: over the drained child, None for the unfused paths.
        self.fused_mode = None
        self.fused_cache = None
        #: Planner-assigned structural signature; part of the fused
        #: pipeline-cache key so shape-identical queries share a pipeline.
        self.shape_key = ""

    def parallel_safe(self) -> bool:
        """True when every aggregate merges exactly across morsels.

        COUNT / MIN / MAX always merge exactly; SUM when the physical
        accumulator is int64 (integers and scaled DECIMALs — modular int64
        addition is associative); AVG for integer arguments (integer-valued
        float64 division of an exact integer sum).  DISTINCT forms and the
        float-accumulating families (DOUBLE SUM/AVG, variance, percentiles)
        round differently under re-association, so they stay serial.
        Approximate (float) group keys also stay serial: NaN ordering under
        a partial-state merge is not worth the hazard.
        """
        for _, expr in self.keys:
            if expr.dtype.is_approximate:
                return False
        for spec in self.aggregates:
            func = spec.func.upper()
            if spec.distinct:
                return False
            if func == "COUNT":
                continue
            if func in ("MIN", "MAX"):
                continue
            if not spec.args:
                return False
            arg = spec.args[0].dtype
            if func == "SUM" and (arg.is_integer or arg.kind is TypeKind.DECIMAL):
                continue
            if func == "AVG" and arg.is_integer:
                continue
            return False
        return True

    def execute(self):
        pool = self.pool
        if pool is not None and pool.is_parallel and self.parallel_safe():
            # Whole-chain fusion: when the child is a project/filter chain
            # over a multi-region scan, each pool task scans K regions and
            # reduces them in place — the decoded scan output is never
            # materialised (see repro.engine.fused).
            plan = fused.match_scan_agg(self)
            if plan is not None:
                columns, n_groups, input_rows = fused.execute_scan_agg(
                    self, plan, pool
                )
                self.stats = GroupStats(input_rows=input_rows, groups=n_groups)
                yield Batch.from_columns(columns)
                return
        batch = self.child.run()
        self.stats = GroupStats(input_rows=batch.n)
        if batch.n == 0 and not batch.columns:
            # A drained-empty child lost its schema: rebuild typed empty
            # columns for every column reference the aggregates/keys read.
            batch = _synthesize_empty(self.keys, self.aggregates)
        if pool is not None and pool.is_parallel and batch.n > 1 and self.parallel_safe():
            from repro.parallel.morsel import morsel_ranges

            morsels = morsel_ranges(batch.n, self.morsel_rows)
            if len(morsels) > 1:
                yield self._execute_parallel(batch, morsels, pool)
                return
        if not self.keys:
            self.stats.groups = 1
            yield self._grand_total(batch)
            return
        if batch.n == 0:
            yield Batch(
                columns={
                    **{alias: ColumnVector(e.dtype, np.empty(0, e.dtype.numpy_dtype), None)
                       for alias, e in self.keys},
                    **{s.alias: ColumnVector(s.output_type(), np.empty(0, s.output_type().numpy_dtype), None)
                       for s in self.aggregates},
                },
                n=0,
            )
            return
        key_vectors = [(alias, expr.eval(batch)) for alias, expr in self.keys]
        group_ids, key_cols, n_groups = fused.group_codes(
            [(vector.values, vector.nulls) for _, vector in key_vectors]
        )
        self.stats.groups = n_groups
        columns: dict[str, ColumnVector] = {}
        for (alias, vector), (values, nulls) in zip(key_vectors, key_cols):
            columns[alias] = ColumnVector(vector.dtype, values, nulls)
        for spec in self.aggregates:
            columns[spec.alias] = _compute_aggregate(spec, batch, group_ids, n_groups)
        yield Batch.from_columns(columns)

    def _grand_total(self, batch: Batch) -> Batch:
        group_ids = np.zeros(batch.n, dtype=np.int64)
        columns = {
            spec.alias: _compute_aggregate(spec, batch, group_ids, 1)
            for spec in self.aggregates
        }
        return Batch.from_columns(columns)

    # -- morsel-parallel path ----------------------------------------------------

    def _execute_parallel(self, batch: Batch, morsels, pool) -> Batch:
        """Fused span reduction over the drained input batch.

        Key/argument expressions evaluate once over the whole batch, then
        batched morsel spans reduce through the fused array kernels
        (:mod:`repro.engine.fused`).  An aggregate set the recipe compiler
        rejects falls back to the original per-group state merge."""
        try:
            columns, n_groups = fused.parallel_group_reduce(self, batch, pool)
        except fused.FusionFallback:
            return self._execute_parallel_states(batch, morsels, pool)
        self.stats.groups = n_groups
        return Batch.from_columns(columns)

    def _execute_parallel_states(self, batch: Batch, morsels, pool) -> Batch:
        """Partial per-group states per morsel, merged in morsel order, then
        groups re-sorted into the engine's group output order (per column:
        NULL first, then ascending values — the code order of
        :func:`repro.engine.fused.group_codes`)."""
        from repro.parallel.morsel import MorselMerger

        def partials(rng):
            start, stop = rng
            return self._morsel_partials(batch.take(np.arange(start, stop)))

        per_morsel = pool.map(partials, morsels, label="group-by")
        self.parallel_run = pool.last_run
        merger = MorselMerger(len(self.aggregates))
        for part in per_morsel:
            merger.add_morsel(part)
        ordered = merger.ordered_groups(sort_key=_serial_group_order)
        self.stats.groups = len(ordered)
        columns: dict[str, ColumnVector] = {}
        for k, (alias, expr) in enumerate(self.keys):
            columns[alias] = _key_column(expr.dtype, [key[k] for key in ordered])
        for j, spec in enumerate(self.aggregates):
            states = [merger.groups[key][j] for key in ordered]
            columns[spec.alias] = _partial_result(spec, states)
        return Batch.from_columns(columns)

    def _morsel_partials(self, sub: Batch) -> dict:
        """One morsel's {group key tuple: [PartialAgg per aggregate]}."""
        n = sub.n
        if self.keys:
            key_vectors = [expr.eval(sub) for _, expr in self.keys]
            group_ids, key_cols, n_groups = fused.group_codes(
                [(v.values, v.nulls) for v in key_vectors]
            )
            parts = []
            for values, nulls in key_cols:
                items = values.tolist()
                if nulls is not None:
                    items = [
                        None if null else item
                        for item, null in zip(items, nulls.tolist())
                    ]
                parts.append(items)
            group_keys = list(zip(*parts))
        else:
            group_ids = np.zeros(n, dtype=np.int64)
            n_groups = 1
            group_keys = [()]
        rows_per_group = np.bincount(group_ids, minlength=n_groups)
        per_spec = [
            self._spec_states(spec, sub, group_ids, int(n_groups), rows_per_group)
            for spec in self.aggregates
        ]
        return {
            key: [states[g] for states in per_spec]
            for g, key in enumerate(group_keys)
        }

    def _spec_states(self, spec, sub, group_ids, n_groups, rows_per_group):
        from repro.parallel.morsel import PartialAgg

        func = spec.func.upper()
        states = [PartialAgg(rows=int(rows_per_group[g])) for g in range(n_groups)]
        if func == "COUNT" and not spec.args:
            return states
        vector = spec.args[0].eval(sub)
        live = ~vector.null_mask()
        ids = group_ids[live]
        values = vector.values[live]
        counts = np.bincount(ids, minlength=n_groups)
        for g in range(n_groups):
            states[g].count = int(counts[g])
        if func in ("SUM", "AVG"):
            if values.dtype != np.int64:
                # parallel_safe() guarantees an integral argument; coerce
                # stray representations to the exact accumulator.
                values = values.astype(np.int64)
            sums = np.zeros(n_groups, dtype=np.int64)
            np.add.at(sums, ids, values)
            for g in range(n_groups):
                states[g].total = int(sums[g])
        elif func in ("MIN", "MAX"):
            for g, value in zip(ids.tolist(), values.tolist()):
                state = states[g]
                if state.minimum is None or value < state.minimum:
                    state.minimum = value
                if state.maximum is None or value > state.maximum:
                    state.maximum = value
        return states


def _serial_group_order(key: tuple):
    """Sort key reproducing the engine's group output order: per column,
    NULL sorts first (code 0 in :func:`repro.engine.fused.group_codes`),
    then values ascend."""
    return tuple((0,) if v is None else (1, v) for v in key)


def _key_column(dtype: DataType, values_list) -> ColumnVector:
    np_dtype = dtype.numpy_dtype
    n = len(values_list)
    out = np.empty(n, dtype=np_dtype)
    nulls = np.zeros(n, dtype=bool)
    filler = "" if np_dtype == object else 0
    for i, value in enumerate(values_list):
        if value is None:
            nulls[i] = True
            out[i] = filler
        else:
            out[i] = value
    return ColumnVector(dtype, out, nulls if nulls.any() else None)


def _partial_result(spec: AggregateSpec, states) -> ColumnVector:
    """Finalise merged :class:`~repro.parallel.morsel.PartialAgg` states."""
    func = spec.func.upper()
    n = len(states)
    if func == "COUNT":
        if not spec.args:
            source = [s.rows for s in states]
        else:
            source = [s.count for s in states]
        return ColumnVector(BIGINT, np.array(source, dtype=np.int64), None)
    empty = np.array([s.count == 0 for s in states], dtype=bool)
    nulls = empty if empty.any() else None
    out_dt = spec.output_type()
    if func in ("MIN", "MAX"):
        np_dtype = out_dt.numpy_dtype
        filler = "" if np_dtype == object else 0
        out = np.full(n, filler, dtype=np_dtype)
        for i, state in enumerate(states):
            value = state.minimum if func == "MIN" else state.maximum
            if value is not None:
                out[i] = value
        return ColumnVector(out_dt, out, nulls)
    if func == "SUM":
        out = np.array([int(s.total) for s in states], dtype=np.int64)
        return ColumnVector(out_dt, out, nulls)
    # AVG over integer arguments: the integer partial sums are exact, so a
    # single float64 division reproduces the serial bincount/divide result.
    out = np.array(
        [float(s.total) / s.count if s.count else 0.0 for s in states],
        dtype=np.float64,
    )
    return ColumnVector(DOUBLE, out, nulls)


def _synthesize_empty(keys, aggregates) -> Batch:
    """An empty batch whose columns cover every ColumnRef in the exprs."""
    from repro.engine.expression import ColumnRef as _ColumnRef

    columns: dict[str, ColumnVector] = {}

    def walk(expr):
        if isinstance(expr, _ColumnRef):
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
    live = ~vector.null_mask()
    ids = group_ids[live]
    values = vector.values[live]
    if func == "COUNT":
        if spec.distinct:
            counts = np.zeros(n_groups, dtype=np.int64)
            seen = set()
            for g, v in zip(ids.tolist(), values.tolist()):
                if (g, v) not in seen:
                    seen.add((g, v))
                    counts[g] += 1
        else:
            counts = np.bincount(ids, minlength=n_groups).astype(np.int64)
        return ColumnVector(BIGINT, counts, None)

    group_counts = np.bincount(ids, minlength=n_groups).astype(np.int64)
    empty = group_counts == 0  # groups where every input was NULL
    if func in ("MIN", "MAX"):
        return _min_max(values, ids, n_groups, empty, func, out_dt)
    if spec.distinct:
        ids, values = _distinct_pairs(ids, values)
        group_counts = np.bincount(ids, minlength=n_groups).astype(np.int64)
        empty = group_counts == 0
    numeric = values.astype(np.float64)
    arg_dt = spec.args[0].dtype
    if arg_dt.kind is TypeKind.DECIMAL:
        # Physical decimals are scaled integers; statistics need true values.
        numeric = numeric / (10 ** arg_dt.scale)
    sums = np.bincount(ids, weights=numeric, minlength=n_groups)
    if func == "SUM":
        return _sum_result(vector, values, ids, n_groups, sums, empty, out_dt)
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


def _distinct_pairs(ids: np.ndarray, values: np.ndarray):
    seen = set()
    keep = np.zeros(ids.size, dtype=bool)
    for i, (g, v) in enumerate(zip(ids.tolist(), values.tolist())):
        if (g, v) not in seen:
            seen.add((g, v))
            keep[i] = True
    return ids[keep], values[keep]


def _min_max(values, ids, n_groups, empty, func, out_dt):
    out = fused.min_max_span(func.lower(), ids, values, n_groups)
    out[empty] = "" if out.dtype == object else 0  # filler under the NULL mask
    return ColumnVector(out_dt, out, empty if empty.any() else None)


def _sum_result(vector, values, ids, n_groups, float_sums, empty, out_dt):
    if vector.values.dtype == np.int64:
        # Exact integer accumulation (money sums on scaled decimals).
        sums = np.zeros(n_groups, dtype=np.int64)
        np.add.at(sums, ids, values)
        return ColumnVector(out_dt, sums, empty if empty.any() else None)
    # np.bincount of an empty (all-NULL) input ignores its float weights
    # and returns integer zeros: keep the vector physically DOUBLE.
    float_sums = float_sums.astype(np.float64, copy=False)
    return ColumnVector(DOUBLE, float_sums, empty if empty.any() else None)


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
