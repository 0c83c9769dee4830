"""Scan, filter, project, and limit operators.

The scan is where the paper's techniques compose (II.B): for each region it
first asks the synopsis which extents can match (data skipping), then
evaluates pushed-down simple predicates directly on the packed codes
(operating on compressed data via software-SIMD), and only decodes the
columns the query actually needs, for the rows that survive: predicates
answer as a bool mask while many rows are in it and as a vector of row ids
once the first predicate has left few (DESIGN.md note 19); either way the
surviving rows are gathered by their ids (note 23).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.expression import Batch, Expr, selection_mask
from repro.parallel.pool import timed
from repro.simd.packed import count_result_bits
from repro.simd.predicates import COMPARISONS
from repro.storage.column import ColumnVector
from repro.storage.table import ColumnTable, region_vector
from repro.verify import sanitizer

#: The one switch between the two forms of a scan's selection: when the
#: first pushed predicate selects under this share of the rows its kernel
#: ran over, the selection is carried as sorted row ids and everything after
#: it — remaining predicates, visibility, decode — reads only those rows;
#: at or above it, as a bool mask over every row.  Measured crossover of
#: gather-decode against unpack-all: EXPERIMENTS.md, "Selection form".
POSITIONS_MAX_DENSITY = 1 / 16


@dataclass
class ScanStats:
    """Observability + cost-model inputs collected during a scan."""

    regions_scanned: int = 0
    extents_total: int = 0
    extents_skipped: int = 0
    rows_scanned: int = 0
    rows_matched: int = 0
    pages_read: int = 0
    bytes_scanned: int = 0       # compressed bytes touched
    raw_bytes_scanned: int = 0   # uncompressed equivalent of touched data
    rows_decoded: int = 0        # column rows unpacked or gathered out of their words
    regions_positional: int = 0  # regions whose selection was row ids, not a mask


@dataclass
class SimplePredicate:
    """A pushdown-able predicate: ``column <op> constant`` (physical form).

    op is one of the comparison operators, "BETWEEN", "IN", "IS NULL",
    "IS NOT NULL".  ``value`` holds the constant, the (lo, hi) pair, or the
    value list, in physical representation.
    """

    column: str
    op: str
    value: object = None

    def synopsis_candidates(self, synopsis) -> np.ndarray:
        if self.op == "BETWEEN":
            lo, hi = self.value
            return synopsis.candidates_between(lo, hi)
        if self.op == "IN":
            return synopsis.candidates_in(self.value)
        if self.op == "IS NULL":
            return synopsis.candidates_is_null()
        if self.op == "IS NOT NULL":
            return synopsis.candidates_is_not_null()
        return synopsis.candidates_compare(self.op, self.value)

    def eval_compressed(self, column, ids=None) -> np.ndarray:
        """On the column's codes: a bool per row, or per row id of ``ids``."""
        return column.eval(self.op, self.value, ids)

    def eval_vector(self, vector: ColumnVector) -> np.ndarray:
        values, nulls = vector.values, vector.null_mask()
        if self.op == "IS NULL":
            return nulls.copy()
        if self.op == "IS NOT NULL":
            return ~nulls
        if self.op == "BETWEEN":
            lo, hi = self.value
            return (values >= lo) & (values <= hi) & ~nulls
        if self.op == "IN":
            live = [v for v in self.value if v is not None]
            return np.isin(values, live) & ~nulls
        return np.asarray(COMPARISONS[self.op](values, self.value)) & ~nulls

    def eval_row_value(self, value) -> bool:
        if self.op == "IS NULL":
            return value is None
        if self.op == "IS NOT NULL":
            return value is not None
        if value is None:
            return False
        if self.op == "BETWEEN":
            lo, hi = self.value
            return lo <= value <= hi
        if self.op == "IN":
            return value in [v for v in self.value if v is not None]
        return bool(COMPARISONS[self.op](value, self.value))


class Operator:
    """Base: operators produce an iterator of batches."""

    def execute(self):
        raise NotImplementedError

    def run(self) -> Batch:
        """Drain the operator into one batch (pipeline-breaker helper).

        A lone batch is returned as it is — it may be a source's own (a
        ``VectorSourceOp``'s, a tail's read-only views): consumers build
        new vectors and never write into the one they were handed.
        """
        batches = list(self.execute())
        return batches[0] if len(batches) == 1 else Batch.concat(batches)


class TableScanOp(Operator):
    """Scan a column-organised table with skipping and compressed predicates.

    Args:
        table: the storage table.
        columns: column names the query needs (projection pruning, II.B.3).
        pushed: conjunctive simple predicates evaluated on compressed data.
        residual: optional residual predicate evaluated on decoded batches.
        page_source: optional callable(table_name, column, region_idx,
            loader) routing page fetches through a buffer pool.
        stride_rows: if set, emit batches of at most this many rows
            (stride-at-a-time processing, II.B.7).
        pool: optional :class:`~repro.parallel.pool.WorkerPool`.  The scan
            has one path at every DOP: a lazy generator over the regions in
            order, which stops early under LIMIT.  When the pool is parallel
            and there is more than one region, each region's scan is timed
            as one task and the scan hands those times to the pool as one
            ``scan:<TABLE>`` run when it ends (``parallel_run``), so the DOP
            is modelled on the regions it actually scanned.

    The operator as constructed holds nothing of an execution: no MVCC
    snapshot, no captured table state, no statistics — a planned scan can
    sit in a cached plan.  :meth:`open` starts one execution: it freezes
    the scan's view of the table (region list + tail prefix) under the
    statement's :class:`~repro.mvcc.txn.Snapshot` and filters every
    region/tail batch through that snapshot's visibility mask, so
    concurrent writers neither block nor perturb the scan.  A scan that is
    executed without having been opened opens itself on the latest state
    (all live rows) — the pre-MVCC behaviour.
    """

    def __init__(
        self,
        table: ColumnTable,
        columns: list[str],
        pushed: list[SimplePredicate] | None = None,
        residual: Expr | None = None,
        page_source=None,
        stride_rows: int | None = None,
        use_skipping: bool = True,
        use_compressed_eval: bool = True,
        pool=None,
    ):
        self.table = table
        self.columns = list(columns)
        self.pushed = list(pushed or [])
        self.residual = residual
        self.page_source = page_source
        self.stride_rows = stride_rows
        self.use_skipping = use_skipping
        self.use_compressed_eval = use_compressed_eval
        self.pool = pool
        needed = set(self.columns) | {p.column for p in self.pushed}
        if self.residual is not None:
            needed |= self.residual.references()
        #: Columns whose tail vectors a capture materialises.
        self._capture_columns = sorted(needed)
        # Per-execution state, set by open().
        self.stats: ScanStats | None = None
        self._capture = None
        #: PoolRun of the last parallel execution (EXPLAIN ANALYZE surface).
        self.parallel_run = None

    def open(self, snapshot=None) -> None:
        """Begin one execution under *snapshot*: capture the table once —
        morsel workers all scan the same captured region tuple and tail
        prefix — and start fresh statistics."""
        self._capture = self.table.capture(snapshot, columns=self._capture_columns)
        self.stats = ScanStats()

    @property
    def regions(self):
        """Frozen region list of this execution (capture-time prefix)."""
        if self._capture is None:
            self.open()
        return self._capture.regions

    def _fetch(self, region_idx: int, column: str):
        region = self._capture.regions[region_idx]
        if self.page_source is None:
            return region.columns[column]
        return self.page_source(
            self.table.schema.name,
            column,
            region_idx,
            lambda: region.columns[column],
        )

    def execute(self):
        needed = set(self.columns)
        if self.residual is not None:
            needed |= self.residual.references()
        pool = self.pool
        regions = self.regions  # opens the scan if nobody has
        # At DOP > 1 each region is one modelled task: its scan is timed
        # and the times go to the pool as one run when the scan ends.
        times = [] if pool is not None and pool.models(len(regions)) else None
        try:
            for region_idx, region in enumerate(regions):
                if times is None:
                    batch = self._scan_region(region_idx, region, needed, self.stats)
                else:
                    batch, cpu, wall = timed(
                        self._scan_region, region_idx, region, needed, self.stats
                    )
                    times.append((cpu, wall))
                if batch is not None and batch.n:
                    yield from self._emit(batch)
            tail = self._scan_tail(needed)
            if tail is not None and tail.n:
                yield from self._emit(tail)
        finally:  # a LIMIT above may stop the scan early; what ran still counts
            if times is not None:
                self.parallel_run = pool.record(times, "scan:%s" % self.table.schema.name)
            metrics = getattr(pool, "metrics", None)
            if metrics is not None:  # the forms the selections took
                stats = self.stats
                metrics.counter("engine.scan.regions").inc(stats.regions_scanned)
                metrics.counter("engine.scan.regions_positional").inc(stats.regions_positional)
                metrics.counter("engine.scan.rows_decoded").inc(stats.rows_decoded)

    def _emit(self, batch: Batch):
        if self.stride_rows is None or batch.n <= self.stride_rows:
            yield batch
            return
        for start in range(0, batch.n, self.stride_rows):
            idx = np.arange(start, min(start + self.stride_rows, batch.n))
            yield batch.take(idx)

    def _scan_region(self, region_idx, region, needed, stats):
        stats.regions_scanned += 1
        n = region.n_rows
        stride = self.table.synopsis_stride
        n_extents = -(-n // stride) if n else 0
        stats.extents_total += n_extents
        # 1. Data skipping: intersect synopsis candidates per predicate.
        extent_keep = np.ones(n_extents, dtype=bool)
        if self.use_skipping:
            for pred in self.pushed:
                synopsis = region.synopses.get(pred.column)
                if synopsis is not None:
                    extent_keep &= pred.synopsis_candidates(synopsis)
        kept = int(np.count_nonzero(extent_keep))
        stats.extents_skipped += n_extents - kept
        if not kept:
            return None
        # Every extent holds ``stride`` rows but the region's last.
        rows_touched = kept * stride
        if extent_keep[-1]:
            rows_touched -= n_extents * stride - n
        stats.rows_scanned += rows_touched
        # Uncompressed-equivalent bytes for the touched columns/rows.
        touched_columns = {p.column for p in self.pushed} | set(needed)
        for column in touched_columns:
            per_row = region.column_raw_nbytes.get(column, 8) / max(region.n_rows, 1)
            stats.raw_bytes_scanned += int(per_row * rows_touched)
        touched_fraction = rows_touched / max(n, 1)
        # Surviving-extent window: with skipping on, predicates evaluate
        # only over the word-aligned range covering surviving extents.
        holes = kept < n_extents
        if holes:
            first_extent = int(np.argmax(extent_keep))
            last_extent = n_extents - int(np.argmax(extent_keep[::-1]))
            window = (first_extent * stride, min(last_extent * stride, n))
        else:
            window = None
        # One buffer-pool request and one page/byte charge per (region,
        # column), even when a column is both a pushed predicate and a
        # projected output (or appears in several predicates).  Without the
        # cache the scan issued a second pool request at decode time, so
        # pool accesses could not be reconciled with ``stats.pages_read``.
        # Everything above and every ``fetch`` below runs the same way for
        # both forms of the selection, so the accounting cannot tell them
        # apart.
        fetched: dict[str, object] = {}

        def fetch(name: str):
            compressed = fetched.get(name)
            if compressed is None:
                compressed = self._fetch(region_idx, name)
                fetched[name] = compressed
                stats.pages_read += 1
                stats.bytes_scanned += int(
                    compressed.nbytes() * touched_fraction
                )
            return compressed

        def windowed(compressed):
            """The column over the surviving-extent window and its first row."""
            if window is None:
                return compressed, 0
            return compressed.slice_rows(*window)

        # 2. Predicates on compressed data (no decode).  The first one's
        # kernel answers in result words, and how many bits they carry
        # decides the form of the selection for the rest of the region.
        snapshot = self._capture.snapshot
        ids = words = lead = None
        if self.pushed and self.use_compressed_eval:
            lead = self.pushed[0]
            lead_column, base = windowed(fetch(lead.column))
            words = lead_column.eval_words(lead.op, lead.value)
            if (
                words is not None
                and count_result_bits(words) < POSITIONS_MAX_DENSITY * lead_column.n
            ):
                ids = base + lead_column.words_positions(words)
        if ids is not None:
            # Few rows: row ids, and every later step reads only those rows.
            stats.regions_positional += 1
            if holes:  # interior extents the synopsis skipped stay excluded
                ids = ids[extent_keep[ids // stride]]
            if not ids.size:
                return None
            for pred in self.pushed[1:]:
                stats.rows_decoded += ids.size
                ids = ids[pred.eval_compressed(fetch(pred.column), ids)]
                if not ids.size:
                    return None
            visible = region.visible_mask(snapshot, ids)
            if visible is not None:
                ids = ids[visible]
                if not ids.size:
                    return None
        else:
            # Many rows (or no kernel to count on): a mask over every row.
            if holes:
                selection = np.repeat(extent_keep, stride)[:n]
            else:
                selection = np.ones(n, dtype=bool)
            for pred in self.pushed:
                column, base = windowed(fetch(pred.column))
                if not self.use_compressed_eval:
                    stats.rows_decoded += column.n
                    hit = pred.eval_vector(self._vector(pred.column, column))
                elif pred is lead and words is not None:  # its kernel already ran
                    hit = column.words_mask(words)
                else:
                    hit = pred.eval_compressed(column)
                if window is not None:
                    mask = np.zeros(n, dtype=bool)
                    mask[base : base + column.n] = hit
                    hit = mask
                selection = selection & hit
                if not selection.any():
                    return None
            visible = region.visible_mask(snapshot)
            if visible is not None:
                selection = selection & visible
            if selection.all():
                kept_ids = None  # every row: the decoded vectors go out as they are
            else:
                kept_ids = np.flatnonzero(selection)
                if not kept_ids.size:
                    return None
        # 3. Decode only the needed columns, for the surviving rows: gathered
        # at the row ids, or unpacked over the window and gathered at the
        # kept rows' ids.
        columns = {}
        for name in needed:
            if ids is not None:
                stats.rows_decoded += ids.size
                columns[name] = self._vector(name, fetch(name), ids)
                continue
            column, base = windowed(fetch(name))
            stats.rows_decoded += column.n
            vector = self._vector(name, column)
            if kept_ids is not None:
                vector = vector.take(kept_ids - base if base else kept_ids)
            columns[name] = vector
        batch = Batch.from_columns(columns)
        if sanitizer.ENABLED and ids is not None:
            sanitizer.check_positions(ids, n, batch.n if columns else ids.size)
        batch = self._apply_residual(batch)
        stats.rows_matched += batch.n
        return batch

    def _vector(self, name: str, compressed, ids=None) -> ColumnVector:
        """A column region as a vector — all of its rows, or those at ``ids``."""
        return region_vector(compressed, self.table.schema.column_type(name), ids)

    def _scan_tail(self, needed):
        capture = self._capture
        if capture.tail_rows == 0:
            return None
        self.stats.rows_scanned += capture.tail_rows
        fetch = set(needed) | {p.column for p in self.pushed}
        vectors = {name: capture.tail[name] for name in fetch}
        batch = Batch.from_columns(vectors)
        if capture.tail_mask is not None:
            selection = capture.tail_mask.copy()
        else:
            selection = np.ones(batch.n, dtype=bool)
        for pred in self.pushed:
            selection &= pred.eval_vector(batch.columns[pred.column])
        batch = batch.filter(selection)
        batch = Batch.from_columns(
            {name: batch.columns[name] for name in needed}
        )
        batch = self._apply_residual(batch)
        self.stats.rows_matched += batch.n
        return batch

    def _apply_residual(self, batch: Batch) -> Batch:
        if self.residual is None or batch.n == 0:
            return batch
        return batch.filter(selection_mask(self.residual, batch))


class VectorSourceOp(Operator):
    """Expose an in-memory batch as a plan source (VALUES, intermediate).

    ``name`` is the relation it stands for (a CTE, gathered MPP partials),
    shown by EXPLAIN.
    """

    def __init__(self, batch: Batch, name: str = ""):
        self.batch = batch
        self.name = name

    def execute(self):
        if self.batch.n:
            yield self.batch


class FilterOp(Operator):
    def __init__(self, child: Operator, predicate: Expr):
        self.child = child
        self.predicate = predicate

    def execute(self):
        for batch in self.child.execute():
            mask = selection_mask(self.predicate, batch)
            # Empty results still flow through so downstream operators keep
            # the batch schema.
            yield batch.filter(mask)


class ProjectOp(Operator):
    """Compute output columns as (alias, expression) pairs."""

    def __init__(self, child: Operator, outputs: list[tuple[str, Expr]]):
        self.child = child
        self.outputs = outputs

    def execute(self):
        import numpy as np

        from repro.storage.column import ColumnVector

        for batch in self.child.execute():
            if batch.n == 0 and not batch.columns:
                # A drained-empty child lost its schema; rebuild typed
                # empty outputs so downstream operators keep working.
                columns = {
                    alias: ColumnVector(
                        expr.dtype, np.empty(0, dtype=expr.dtype.numpy_dtype), None
                    )
                    for alias, expr in self.outputs
                }
            else:
                columns = {alias: expr.eval(batch) for alias, expr in self.outputs}
            yield Batch.from_columns(columns)


class LimitOp(Operator):
    """LIMIT/OFFSET (also FETCH FIRST n ROWS ONLY and ROWNUM <= n)."""

    def __init__(self, child: Operator, limit: int | None, offset: int = 0):
        self.child = child
        self.limit = limit
        self.offset = offset

    def execute(self):
        # The child is pulled only while the limit is not spent: the batch
        # that spends it is the last one asked for, and a limit of 0 asks
        # for none.
        to_skip = self.offset
        remaining = self.limit
        if remaining is not None and remaining <= 0:
            return
        for batch in self.child.execute():
            if to_skip >= batch.n:
                to_skip -= batch.n
                continue
            if to_skip:
                batch = batch.take(np.arange(to_skip, batch.n))
                to_skip = 0
            if remaining is None:
                yield batch
                continue
            if batch.n > remaining:
                batch = batch.take(np.arange(remaining))
            remaining -= batch.n
            yield batch
            if remaining <= 0:
                return
