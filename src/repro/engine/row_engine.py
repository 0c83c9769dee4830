"""The row-at-a-time baseline engine.

This is the comparison engine for the paper's row-vs-column claims: it
processes one row dict at a time over a :class:`~repro.storage.rowtable.
RowTable`, optionally using secondary B-tree indexes for selective
predicates — i.e. the access-pattern profile of a classic row store with
secondary indexing (II.B.7).  All expression evaluation goes through
``Expr.eval_row``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.expression import Expr
from repro.engine.operators import SimplePredicate
from repro.errors import NumericOverflowError
from repro.storage.rowtable import RowTable


class RowOperator:
    """Base: row operators yield dicts of physical values."""

    def rows(self):
        raise NotImplementedError

    def run(self) -> list[dict]:
        return list(self.rows())


class RowScan(RowOperator):
    """Scan a row table, choosing an index when one predicate allows it."""

    def __init__(
        self,
        table: RowTable,
        pushed: list[SimplePredicate] | None = None,
        residual: Expr | None = None,
    ):
        self.table = table
        self.pushed = list(pushed or [])
        self.residual = residual
        self.used_index: str | None = None
        self.rows_examined = 0

    def _index_candidate(self) -> SimplePredicate | None:
        for pred in self.pushed:
            if pred.column in self.table.indexes and pred.op in ("=", "BETWEEN", "<", "<=", ">", ">="):
                return pred
        return None

    def _candidate_row_ids(self, pred: SimplePredicate):
        column = pred.column
        if pred.op == "=":
            return self.table.indexes[column].search(pred.value)
        if pred.op == "BETWEEN":
            lo, hi = pred.value
            return self.table.indexes[column].range_search(lo, hi)
        if pred.op == "<":
            return self.table.indexes[column].range_search(None, pred.value, hi_open=True)
        if pred.op == "<=":
            return self.table.indexes[column].range_search(None, pred.value)
        if pred.op == ">":
            return self.table.indexes[column].range_search(pred.value, None, lo_open=True)
        return self.table.indexes[column].range_search(pred.value, None)

    def rows(self):
        names = self.table.schema.column_names
        index_pred = self._index_candidate()
        if index_pred is not None:
            self.used_index = index_pred.column
            others = [p for p in self.pushed if p is not index_pred]
            deleted = self.table._deleted
            for row_id in self._candidate_row_ids(index_pred):
                if row_id in deleted:
                    continue
                self.rows_examined += 1
                raw = self.table.fetch(row_id)
                row = dict(zip(names, raw))
                if self._passes(row, others):
                    yield row
            return
        for _, raw in self.table.scan():
            self.rows_examined += 1
            row = dict(zip(names, raw))
            if self._passes(row, self.pushed):
                yield row

    def _passes(self, row: dict, preds) -> bool:
        for pred in preds:
            if not pred.eval_row_value(row[pred.column]):
                return False
        if self.residual is not None:
            verdict = self.residual.eval_row(row)
            if not verdict:
                return False
        return True


class RowSource(RowOperator):
    """Wrap a materialised list of row dicts."""

    def __init__(self, rows: list[dict]):
        self._rows = rows

    def rows(self):
        yield from self._rows


class RowFilter(RowOperator):
    def __init__(self, child: RowOperator, predicate: Expr):
        self.child = child
        self.predicate = predicate

    def rows(self):
        for row in self.child.rows():
            if self.predicate.eval_row(row):
                yield row


class RowProject(RowOperator):
    def __init__(self, child: RowOperator, outputs: list[tuple[str, Expr]]):
        self.child = child
        self.outputs = outputs

    def rows(self):
        for row in self.child.rows():
            yield {alias: expr.eval_row(row) for alias, expr in self.outputs}


class RowNestedLoopJoin(RowOperator):
    """Tuple-at-a-time join; uses the inner table's index when possible."""

    def __init__(
        self,
        outer: RowOperator,
        inner_table: RowTable,
        outer_key: str,
        inner_key: str,
        join_type: str = "inner",
    ):
        if join_type not in ("inner", "left"):
            raise ValueError("row nested-loop join supports inner/left")
        self.outer = outer
        self.inner_table = inner_table
        self.outer_key = outer_key
        self.inner_key = inner_key
        self.join_type = join_type

    def rows(self):
        inner_names = self.inner_table.schema.column_names
        use_index = self.inner_key in self.inner_table.indexes
        for outer_row in self.outer.rows():
            key = outer_row[self.outer_key]
            matched = False
            if key is not None:
                if use_index:
                    candidates = self.inner_table.indexes[self.inner_key].search(key)
                    candidates = [
                        c for c in candidates if c not in self.inner_table._deleted
                    ]
                    inner_rows = (self.inner_table.fetch(c) for c in candidates)
                else:
                    key_idx = self.inner_table.schema.column_index(self.inner_key)
                    inner_rows = (
                        raw for _, raw in self.inner_table.scan() if raw[key_idx] == key
                    )
                for raw in inner_rows:
                    matched = True
                    joined = dict(outer_row)
                    for name, value in zip(inner_names, raw):
                        joined.setdefault(name, value)
                    yield joined
            if not matched and self.join_type == "left":
                joined = dict(outer_row)
                for name in inner_names:
                    joined.setdefault(name, None)
                yield joined


class RowHashJoin(RowOperator):
    """Tuple-at-a-time hash join (row stores have these too; the contrast
    with the columnar engine is per-row interpretation overhead)."""

    def __init__(
        self,
        left: RowOperator,
        right: RowOperator,
        left_key: str,
        right_key: str,
    ):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key

    def rows(self):
        table: dict = {}
        for row in self.right.rows():
            key = row[self.right_key]
            if key is not None:
                table.setdefault(key, []).append(row)
        for row in self.left.rows():
            key = row[self.left_key]
            if key is None:
                continue
            for match in table.get(key, ()):
                joined = dict(row)
                for name, value in match.items():
                    joined.setdefault(name, value)
                yield joined


class RowGroupBy(RowOperator):
    """Dict-based grouping with row-at-a-time accumulation."""

    def __init__(
        self,
        child: RowOperator,
        keys: list[tuple[str, Expr]],
        aggregates: list,  # AggregateSpec
    ):
        self.child = child
        self.keys = keys
        self.aggregates = aggregates

    def rows(self):
        groups: dict = {}
        for row in self.child.rows():
            key = tuple(expr.eval_row(row) for _, expr in self.keys)
            state = groups.get(key)
            if state is None:
                state = [_AggState(spec) for spec in self.aggregates]
                groups[key] = state
            for agg in state:
                agg.update(row)
        if not groups and not self.keys:
            state = [_AggState(spec) for spec in self.aggregates]
            groups[()] = state
        for key, state in groups.items():
            out = {alias: value for (alias, _), value in zip(self.keys, key)}
            for spec, agg in zip(self.aggregates, state):
                out[spec.alias] = agg.result()
            yield out


class _AggState:
    """Scalar accumulator mirroring the vectorised aggregate set.

    Values arrive in *physical* form; results are produced in the physical
    form matching :meth:`AggregateSpec.output_type` (exact scaled integers
    for SUM over decimals, true doubles for moments).
    """

    def __init__(self, spec):
        self.spec = spec
        self.count = 0
        self.total = 0.0       # descaled (true-value) accumulation
        self.total_sq = 0.0
        self.total_raw = 0     # exact physical accumulation (SUM)
        self.min = None
        self.max = None
        self.values = [] if spec.func in ("MEDIAN",) or spec.distinct else None
        self._scale_div = 1
        if spec.args:
            dt = spec.args[0].dtype
            if dt.kind.value == "DECIMAL":
                self._scale_div = 10 ** dt.scale

    def update(self, row: dict) -> None:
        spec = self.spec
        if spec.func == "COUNT" and not spec.args:
            self.count += 1
            return
        value = spec.args[0].eval_row(row)
        if value is None:
            return
        if self.values is not None:
            self.values.append(value)
        self.count += 1
        if isinstance(value, (int, float)):
            numeric = value / self._scale_div if self._scale_div != 1 else value
            self.total += numeric
            self.total_sq += numeric * numeric
            if isinstance(value, int):
                self.total_raw += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def result(self):
        spec = self.spec
        func = spec.func
        if func == "COUNT":
            if spec.distinct and self.values is not None:
                return len(set(self.values))
            return self.count
        if self.count == 0:
            return None
        if func == "SUM":
            if spec.distinct and self.values is not None:
                total = sum(set(self.values))
            elif spec.output_type().kind.value in ("DECIMAL", "BIGINT"):
                total = self.total_raw
            else:
                return self.total
            return _in_int64(total) if isinstance(total, int) else total
        if func == "AVG":
            if not spec.args[0].dtype.is_integer:
                return self.total / self.count
            # One float division of the exact sum, as the column engine does.
            values = set(self.values) if spec.distinct else None
            if values is None:
                return float(_in_int64(self.total_raw)) / self.count
            return float(_in_int64(sum(values))) / len(values)
        if func == "MIN":
            return self.min
        if func == "MAX":
            return self.max
        if func == "MEDIAN":
            ordered = sorted(v / self._scale_div for v in self.values)
            mid = len(ordered) // 2
            if len(ordered) % 2:
                return float(ordered[mid])
            return (ordered[mid - 1] + ordered[mid]) / 2.0
        mean = self.total / self.count
        var_pop = max(self.total_sq / self.count - mean * mean, 0.0)
        if func == "VAR_POP":
            return var_pop
        if func == "STDDEV_POP":
            return var_pop ** 0.5
        if self.count <= 1:
            return None
        var_samp = var_pop * self.count / (self.count - 1)
        if func == "VAR_SAMP":
            return var_samp
        if func == "STDDEV_SAMP":
            return var_samp ** 0.5
        raise ValueError("row engine does not support aggregate %s" % func)


def _in_int64(total: int) -> int:
    """An exact integer aggregate, or 22003 when it leaves int64."""
    if not -(1 << 63) <= total < 1 << 63:
        raise NumericOverflowError("integer sum out of range for BIGINT")
    return total


class RowSort(RowOperator):
    def __init__(self, child: RowOperator, keys: list):
        self.child = child
        self.keys = keys  # list of SortKey

    def rows(self):
        rows = self.child.run()
        for key in reversed(self.keys):
            nulls_first = key.nulls_go_first()
            # With reverse=True the bucket comparison flips too, so place the
            # null bucket accordingly; ties across buckets never mix types.
            if key.ascending:
                null_bucket = 0 if nulls_first else 2
            else:
                null_bucket = 2 if nulls_first else 0

            def sort_key(row, key=key, null_bucket=null_bucket):
                value = key.expr.eval_row(row)
                if value is None:
                    return (null_bucket, 0)
                return (1, value)

            rows.sort(key=sort_key, reverse=not key.ascending)
        yield from rows


class RowLimit(RowOperator):
    def __init__(self, child: RowOperator, limit: int | None, offset: int = 0):
        self.child = child
        self.limit = limit
        self.offset = offset

    def rows(self):
        produced = 0
        skipped = 0
        for row in self.child.rows():
            if skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield row
