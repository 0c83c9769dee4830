"""Column-organised tables: compressed regions plus an insert tail.

Layout (paper II.B.3-4): rows are appended to an uncompressed *tail* — one
growable typed array, null mask and pair of version stamps per column, so
what a batch lands as is what scans read and what a seal compresses; when
the tail reaches ``region_rows`` (or on :meth:`ColumnTable.flush`) it is
sealed into a *region*, where every column is independently compressed
(:mod:`repro.compression.codec`) and covered by a data-skipping synopsis
every ~1K tuples (:mod:`repro.skipping`).  DELETE marks tombstones; UPDATE
is delete + re-insert, the usual strategy for analytic column stores.

Every row carries MVCC version stamps: ``xmin`` is the txid that created
it, ``xmax`` the txid that deleted it (0 = live).  Stamps live *outside*
the compressed columns — tombstoning never rewrites a region — and both
deletes against the tail tombstone rather than physically removing rows,
so the logical scan order (region 0 rows, region 1 rows, ..., tail rows)
is append-only and a snapshot captured at statement start stays valid
while concurrent writers append.  Visibility under a snapshot is decided
by :meth:`Region.visible_mask` / :meth:`ColumnTable.capture`.

The query engine scans region by region: it consults the synopsis first
(data skipping), evaluates predicates on compressed codes (operating on
compressed data), and only decodes surviving columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.compression.codec import CompressedColumn, compress_column
from repro.errors import (
    BindError,
    ConstraintViolationError,
    ConversionError,
    NotNullViolationError,
    SQLError,
    TransactionConflictError,
)
from repro.mvcc.txn import ANCIENT_TXID, Snapshot
from repro.skipping.synopsis import SYNOPSIS_STRIDE, Synopsis
from repro.storage.column import (
    ColumnVector,
    LandingStats,
    physical_column,
    to_physical_scalar,
)
from repro.types.datatypes import DataType, TypeKind
from repro.verify import sanitizer

DEFAULT_REGION_ROWS = 65_536


@dataclass(frozen=True)
class TableSchema:
    """Ordered column names and types for one table."""

    name: str
    columns: tuple[tuple[str, DataType], ...]

    def __post_init__(self):
        names = [c for c, _ in self.columns]
        if len(set(names)) != len(names):
            raise SQLError("duplicate column name in table %s" % self.name)

    @property
    def column_names(self) -> list[str]:
        return [c for c, _ in self.columns]

    def column_index(self, name: str) -> int:
        for i, (c, _) in enumerate(self.columns):
            if c == name:
                return i
        raise BindError("column %s not in table %s" % (name, self.name))

    def column_type(self, name: str) -> DataType:
        return self.columns[self.column_index(name)][1]

    def check_vectors(self, vectors) -> int:
        """Row count of *vectors* if they are physically this schema.

        One equal-length vector per column whose SQL type and numpy dtype
        are exactly the column's; anything else raises rather than being
        coerced.
        """
        if len(vectors) != len(self.columns):
            raise SQLError(
                "%d vectors for the %d columns of table %s"
                % (len(vectors), len(self.columns), self.name)
            )
        n = len(vectors[0]) if vectors else 0
        for (name, dt), vector in zip(self.columns, vectors):
            if vector.dtype != dt or vector.values.dtype != dt.numpy_dtype:
                raise SQLError(
                    "column %s.%s is %s, got a %s vector of %s"
                    % (self.name, name, dt, vector.dtype, vector.values.dtype)
                )
            if len(vector) != n:
                raise SQLError(
                    "column %s.%s has %d rows, expected %d"
                    % (self.name, name, len(vector), n)
                )
        return n

    def __len__(self) -> int:
        return len(self.columns)


@dataclass
class Region:
    """A sealed, immutable run of rows in compressed columnar form.

    ``xmin``/``xmax`` are int64 per-row creator/deleter txid stamps; None
    means "all zero" (created ancient / nothing deleted).  ``xmin_hi`` and
    ``xmax_hi`` cache the largest stamp ever written so the common case —
    every stamp committed before the snapshot's low-water mark — skips the
    vectorised visibility test entirely.  The caches only ever overstate
    (rollback lowers stamps without lowering the cache), which costs the
    fast path, never correctness.
    """

    n_rows: int
    columns: dict[str, CompressedColumn]
    synopses: dict[str, Synopsis]
    xmin: np.ndarray | None = None
    xmax: np.ndarray | None = None
    xmin_hi: int = 0
    xmax_hi: int = 0
    raw_nbytes: int = 0
    column_raw_nbytes: dict[str, int] = field(default_factory=dict)

    def live_mask(self) -> np.ndarray | None:
        """Mask of non-deleted rows, or None when nothing is deleted."""
        if self.xmax is None or not self.xmax.any():
            return None
        return self.xmax == 0

    def live_count(self) -> int:
        if self.xmax is None:
            return self.n_rows
        return int((self.xmax == 0).sum())

    def visible_mask(self, snapshot: Snapshot | None, ids=None) -> np.ndarray | None:
        """Rows visible under *snapshot* (None mask = everything visible).

        With row positions ``ids`` the answer covers those rows alone, in
        their order, and only their ``xmin``/``xmax`` stamps are read.

        With no snapshot this degrades to :meth:`live_mask` — the legacy
        latest-state read used by core-API callers outside a transaction.
        """
        xmax = self.xmax
        if xmax is not None and ids is not None:
            xmax = xmax[ids]
        if snapshot is None:
            if xmax is None or not xmax.any():
                return None
            return xmax == 0
        mask: np.ndarray | None = None
        if self.xmin is not None and self.xmin_hi >= snapshot.lowater:
            mask = snapshot.sees_vec(self.xmin if ids is None else self.xmin[ids])
        if xmax is not None:
            stamped = xmax != 0
            if stamped.any():
                if self.xmax_hi < snapshot.lowater:
                    dead = stamped  # every deleter committed long ago
                else:
                    dead = stamped & snapshot.sees_vec(xmax)
                mask = ~dead if mask is None else mask & ~dead
        if mask is not None and mask.all():
            return None
        return mask

    def mark_deleted(self, mask: np.ndarray, txid: int = ANCIENT_TXID) -> np.ndarray:
        """Stamp rows where mask is True; returns the newly deleted rows' mask.

        With an MVCC *txid*, stamping a row already stamped by another
        transaction raises :class:`TransactionConflictError` — ``xmax``
        doubles as a no-wait write lock (first-committer-wins).  With the
        default ancient txid (legacy/recovery callers) re-deletes are
        silently idempotent, matching the historical tombstone semantics.
        """
        if self.xmax is None:
            self.xmax = np.zeros(self.n_rows, dtype=np.int64)
        fresh = _stamp_deleted(self.xmax, mask, txid)
        if txid > self.xmax_hi:
            self.xmax_hi = txid
        return fresh

    def nbytes(self) -> int:
        return sum(col.nbytes() for col in self.columns.values())

    def synopsis_nbytes(self) -> int:
        return sum(s.nbytes() for s in self.synopses.values())


@dataclass(frozen=True)
class TableCapture:
    """A consistent snapshot view of one table, safe to scan lock-free.

    ``regions`` is the frozen region list at capture time; ``tail`` maps
    the requested columns to uncompressed vectors of the captured tail
    prefix; ``tail_mask`` filters the tail to visible rows (None = all);
    ``snapshot`` is the MVCC snapshot the view was taken under, which
    decides row visibility inside ``regions`` (None = latest state).
    Concurrent appends and seals after the capture are simply not part of
    the view — exactly snapshot semantics.
    """

    regions: tuple[Region, ...]
    tail: dict[str, ColumnVector]
    tail_mask: np.ndarray | None
    tail_rows: int
    snapshot: Snapshot | None = None


class ColumnTable:
    """A column-organised table with compressed regions and an insert tail."""

    def __init__(
        self,
        schema: TableSchema,
        region_rows: int = DEFAULT_REGION_ROWS,
        synopsis_stride: int = SYNOPSIS_STRIDE,
        unique_columns: tuple[str, ...] = (),
        not_null_columns: tuple[str, ...] = (),
    ):
        self.schema = schema
        self.region_rows = region_rows
        self.synopsis_stride = synopsis_stride
        self.regions: list[Region] = []
        self.unique_columns = tuple(unique_columns)
        self.not_null_columns = tuple(not_null_columns)
        self._unique_seen: dict[str, set] = {c: set() for c in self.unique_columns}
        names = schema.column_names
        self._unique_at = [(name, names.index(name)) for name in self.unique_columns]
        self._not_null_at = [(name, names.index(name)) for name in self.not_null_columns]
        #: Which loop converted the values this table was handed.
        self.landing = LandingStats()
        # Guards the structural swap in _seal_tail/truncate against
        # concurrent capture(); appends need no lock because _tail_rows is
        # bumped only after every column's values are in place.
        self._capture_lock = sanitizer.make_lock(
            "table:%s:capture" % schema.name, reentrant=False
        )
        self._reset_tail()

    # -- the tail ------------------------------------------------------------
    #
    # Reader contract: rows ``[0, _tail_rows)`` of the value, null and xmin
    # arrays never change once published, so a reader may keep views of
    # them; ``xmax`` is written in place by tombstoning, so a reader copies
    # its prefix.  Growth and sealing allocate new arrays and never touch
    # the old ones.  Slots past ``_tail_rows`` of the masks and stamps are
    # zero, and a column's mask is all zero until ``_tail_any_null`` says
    # a NULL landed (so readers of NULL-free columns never scan one).

    def _reset_tail(self) -> None:
        columns = self.schema.columns
        self._tail_values = [np.empty(0, dtype=dt.numpy_dtype) for _, dt in columns]
        self._tail_nulls = [np.zeros(0, dtype=bool) for _ in columns]
        self._tail_any_null = [False] * len(columns)
        self._tail_xmin = np.zeros(0, dtype=np.int64)
        self._tail_xmax = np.zeros(0, dtype=np.int64)
        self._tail_rows = 0

    def _grow_tail(self, rows: int) -> None:
        """Reallocate the tail arrays to hold at least *rows* rows."""
        kept = self._tail_rows
        capacity = min(max(rows, 2 * self._tail_xmax.size, 16), self.region_rows)

        def grown(old, allocate):
            new = allocate(capacity, dtype=old.dtype)
            new[:kept] = old[:kept]
            return new

        self._tail_values = [grown(old, np.empty) for old in self._tail_values]
        self._tail_nulls = [grown(old, np.zeros) for old in self._tail_nulls]
        self._tail_xmin = grown(self._tail_xmin, np.zeros)
        self._tail_xmax = grown(self._tail_xmax, np.zeros)

    def _tail_column(self, index: int, rows: int) -> ColumnVector:
        """Read-only view of the first *rows* tail rows of one column."""
        values = self._tail_values[index][:rows]
        values.flags.writeable = False
        nulls = None
        if self._tail_any_null[index]:
            nulls = self._tail_nulls[index][:rows]
            nulls.flags.writeable = False
        return ColumnVector(self.schema.columns[index][1], values, nulls)

    # -- inserts -------------------------------------------------------------

    def insert_rows(self, rows, txid: int = 0) -> int:
        """Append boundary-value rows (sequences matching the schema).

        The batch is transposed once and converted a column at a time
        (:func:`~repro.storage.column.physical_column`); every value and the
        NOT NULL / unique constraints are checked before anything lands,
        so a rejected batch leaves no row, stamp or unique value behind
        and raises what its first offending row raises.  Rows are stamped
        ``xmin = txid`` (0 = ancient: visible to every snapshot, the
        pre-MVCC behaviour).  Returns the number of rows inserted.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        self._land(self._convert(rows), len(rows), txid)
        return len(rows)

    def append_vectors(self, vectors: list[ColumnVector], txid: int = 0) -> int:
        """Append rows that are already physical column vectors.

        The entry of :meth:`insert_rows`' landing path for data that needs
        no conversion (a shard's partial result): the vectors must be
        exactly the schema's types, NOT NULL and unique constraints are
        checked on them as on converted rows, and nothing lands unless
        all of it does.  The values are copied into the tail; NULL slots
        may hold any filler.
        """
        n = self.schema.check_vectors(vectors)
        columns = [(v.values, v.nulls) for v in vectors]
        failures = self._violations(columns, n)
        if failures:
            raise min(failures, key=lambda f: f[:2])[2]
        self._land(columns, n, txid)
        return n

    def _convert(self, rows) -> list[tuple]:
        """Physical ``(values, nulls)`` per column of a batch that may land.

        Every column is converted and checked even after one has failed:
        the error raised is that of the lowest offending row (within a
        row: column order, then the unique columns), which is the row a
        row-at-a-time load would have stopped at.
        """
        width = len(self.schema)
        if set(map(len, rows)) - {width}:
            bad = next(i for i, row in enumerate(rows) if len(row) != width)
            self._convert(rows[:bad])  # an earlier row's error comes first
            raise SQLError(
                "row has %d values, table %s has %d columns"
                % (len(rows[bad]), self.schema.name, width)
            )
        columns: list = []
        failures = []
        transposed = zip(*rows) if rows else [()] * width
        for at, ((name, dt), values) in enumerate(zip(self.schema.columns, transposed)):
            try:
                columns.append(physical_column(values, dt, self.landing))
            except ConversionError:
                columns.append(None)
                failures.append(
                    _first_rejected(values, dt, name, at, name in self.not_null_columns)
                )
        failures += self._violations(columns, len(rows))
        if failures:
            row, _, error = min(failures, key=lambda f: f[:2])
            # A unique column that failed to convert was not checked for
            # duplicates above its bad value; the rows before the lowest
            # failure all convert, so checking them alone finds one.
            self._convert(rows[:row])
            raise error
        return columns

    def _violations(self, columns, n: int) -> list[tuple[int, int, Exception]]:
        """``(row, order, error)`` of each constrained column's first
        NOT NULL / unique violation; a column that is None is skipped."""
        failures = []
        for name, at in self._not_null_at:
            if columns[at] is not None and columns[at][1] is not None:
                row = int(columns[at][1].argmax())
                failures.append((row, at, _null_violation(name)))
        for k, (name, at) in enumerate(self._unique_at):
            column = columns[at]
            if column is None:
                continue
            present = _present(*column)
            seen = self._unique_seen[name]
            if len(set(present)) == len(present) and seen.isdisjoint(present):
                continue
            nulls = column[1]
            rows = range(n) if nulls is None else np.flatnonzero(~nulls).tolist()
            batch: set = set()
            for row, value in zip(rows, present):
                if value in seen or value in batch:
                    failures.append((
                        row,
                        len(columns) + k,
                        ConstraintViolationError(
                            "duplicate value %r for unique column %s" % (value, name)
                        ),
                    ))
                    break
                batch.add(value)
        return failures

    def _land(self, columns, n: int, txid: int) -> None:
        """Append *n* checked physical rows in region-aligned chunks."""
        for name, at in self._unique_at:
            self._unique_seen[name].update(_present(*columns[at]))
        self.landing.batches += 1
        # Chunk boundaries: what the tail still takes, then whole regions.
        room = self.region_rows - self._tail_rows
        bounds = [0, *range(room, n, self.region_rows), n]
        for start, stop in zip(bounds, bounds[1:]):
            at = self._tail_rows
            end = at + stop - start
            if end > self._tail_xmax.size:
                self._grow_tail(end)
            for i, (tail, (values, nulls)) in enumerate(zip(self._tail_values, columns)):
                tail[at:end] = values[start:stop]
                if nulls is not None:
                    self._tail_nulls[i][at:end] = nulls[start:stop]
                    self._tail_any_null[i] = True
            if txid:
                self._tail_xmin[at:end] = txid
            self._tail_rows = end  # published last: no reader sees half a row
            if end >= self.region_rows:
                self._seal_tail()

    def flush(self) -> None:
        """Seal any buffered tail rows into a compressed region."""
        if self._tail_rows:
            self._seal_tail()

    def _seal_tail(self) -> None:
        n = self._tail_rows
        # A generator: one column's vector alive at a time while sealing.
        vectors = (self._tail_column(i, n) for i in range(len(self.schema)))
        region = self._build_region(
            vectors, n, _stamps(self._tail_xmin, n), _stamps(self._tail_xmax, n)
        )
        with self._capture_lock:
            self.regions.append(region)
            self._reset_tail()

    def _build_region(self, vectors, n_rows: int, xmin=None, xmax=None) -> Region:
        """Compress one region's columns and build their synopses."""
        columns: dict[str, CompressedColumn] = {}
        synopses: dict[str, Synopsis] = {}
        column_raw: dict[str, int] = {}
        for (name, dt), vector in zip(self.schema.columns, vectors):
            columns[name] = compress_column(vector.values, vector.nulls)
            synopses[name] = Synopsis.build(
                vector.values, vector.nulls, stride=self.synopsis_stride
            )
            column_raw[name] = _raw_size(vector.values, dt)
        return Region(
            n_rows=n_rows,
            columns=columns,
            synopses=synopses,
            xmin=xmin,
            xmax=xmax,
            xmin_hi=int(xmin.max()) if xmin is not None else 0,
            xmax_hi=int(xmax.max()) if xmax is not None else 0,
            raw_nbytes=sum(column_raw.values()),
            column_raw_nbytes=column_raw,
        )

    # -- deletes / truncation --------------------------------------------------

    def apply_deletes(self, global_mask: np.ndarray, txid: int = ANCIENT_TXID) -> int:
        """Tombstone rows selected by a mask over the logical scan order.

        The logical order is: region 0 rows, region 1 rows, ..., tail rows.
        Both region and tail rows are tombstoned (stamped ``xmax = txid``)
        — never physically removed — so the coordinate space is stable for
        WAL replay and for snapshots captured before the delete.  With an
        MVCC txid, hitting a row stamped by a different transaction raises
        :class:`TransactionConflictError` (first-committer-wins).

        A unique value has exactly one live row, so forgetting the values
        of the rows tombstoned here keeps the seen-sets exact without
        rescanning the table (an abort rebuilds them, :meth:`rollback_txn`);
        only those rows of a region's unique columns are decoded.
        """
        expected = self.n_rows_physical()
        if global_mask.size != expected:
            raise SQLError(
                "delete mask covers %d rows, table has %d" % (global_mask.size, expected)
            )
        deleted = 0
        offset = 0
        for region in self.regions:
            chunk = global_mask[offset : offset + region.n_rows]
            if chunk.any():
                gone = np.flatnonzero(region.mark_deleted(chunk, txid))
                deleted += gone.size
                for name in self.unique_columns:
                    self._forget(name, *region.columns[name].decode(gone))
            offset += region.n_rows
        tail_mask = global_mask[offset:]
        if tail_mask.any():
            n = self._tail_rows
            gone = np.flatnonzero(_stamp_deleted(self._tail_xmax[:n], tail_mask, txid))
            deleted += gone.size
            for name, at in self._unique_at:
                self._forget(name, self._tail_values[at][gone], self._tail_nulls[at][gone])
        return deleted

    def _forget(self, name: str, values, nulls) -> None:
        """Drop the unique values of deleted rows from the seen-set."""
        self._unique_seen[name].difference_update(_present(values, nulls))

    def rollback_txn(self, txid: int) -> None:
        """Revert every stamp *txid* left: undo its deletes, kill its inserts.

        Deletes revert to live (``xmax = 0``); inserted versions become
        permanently invisible (``xmax = ANCIENT_TXID``) rather than being
        physically removed, keeping the coordinate space stable.  A row
        both inserted and deleted by the txn ends up dead.
        """
        for region in self.regions:
            if region.xmax is not None:
                region.xmax[region.xmax == txid] = 0
            if region.xmin is not None:
                aborted = region.xmin == txid
                if aborted.any():
                    if region.xmax is None:
                        region.xmax = np.zeros(region.n_rows, dtype=np.int64)
                    region.xmax[aborted] = ANCIENT_TXID
                    if ANCIENT_TXID > region.xmax_hi:
                        region.xmax_hi = ANCIENT_TXID
        n = self._tail_rows
        xmax = self._tail_xmax[:n]
        xmax[xmax == txid] = 0
        xmax[self._tail_xmin[:n] == txid] = ANCIENT_TXID
        if self.unique_columns:
            self._rebuild_unique_sets()

    def truncate(self) -> None:
        """Remove all rows, keeping the definition (TRUNCATE TABLE)."""
        with self._capture_lock:
            self.regions = []
            self._reset_tail()
        self._unique_seen = {c: set() for c in self.unique_columns}

    def _rebuild_unique_sets(self) -> None:
        live_mask = self.live_mask()
        for name in self.unique_columns:
            vector = self.column_vector(name)
            keep = live_mask if vector.nulls is None else (live_mask & ~vector.nulls)
            self._unique_seen[name] = set(vector.values[keep].tolist())

    # -- scan surface -----------------------------------------------------------

    def n_rows_physical(self) -> int:
        """All rows including tombstoned ones (mask coordinate space)."""
        return sum(r.n_rows for r in self.regions) + self._tail_rows

    @property
    def n_rows(self) -> int:
        """Live (visible) rows."""
        n = self._tail_rows
        tail_live = n - int(np.count_nonzero(self._tail_xmax[:n]))
        return sum(r.live_count() for r in self.regions) + tail_live

    @property
    def tail_rows(self) -> int:
        return self._tail_rows

    def capture(self, snapshot: Snapshot | None = None, columns=None) -> TableCapture:
        """Freeze a consistent view for one scan: regions + tail prefix.

        Takes the capture lock only for the structural copy (region list
        tuple, tail slices) — never while compressing or scanning — so
        readers and writers block each other for microseconds at most.
        *columns* limits which tail vectors are materialised.
        """
        names = list(columns) if columns is not None else self.schema.column_names
        with self._capture_lock:
            regions = tuple(self.regions)
            n = self._tail_rows
            tail = {
                name: self._tail_column(self.schema.column_index(name), n)
                for name in names
            }
            xmin = _stamps(self._tail_xmin, n)
            xmax = _stamps(self._tail_xmax, n)
        tail_mask = _tail_visible(xmin, xmax, n, snapshot)
        return TableCapture(
            regions=regions, tail=tail, tail_mask=tail_mask, tail_rows=n,
            snapshot=snapshot,
        )

    def tail_vector(self, name: str) -> ColumnVector:
        """The uncompressed tail of one column as a runtime vector."""
        return self._tail_column(self.schema.column_index(name), self._tail_rows)

    def tail_visible(self, snapshot: Snapshot | None, ids: np.ndarray) -> np.ndarray | None:
        """Which of the tail rows at positions *ids* *snapshot* sees, in
        their order (None: all of them); only their stamps are read."""
        return _tail_visible(self._tail_xmin[ids], self._tail_xmax[ids], ids.size, snapshot)

    def column_vector(self, name: str) -> ColumnVector:
        """Materialise one whole column (all live and tombstoned rows).

        Tombstones are *not* removed here; callers that need only live rows
        combine this with :meth:`live_mask`.
        """
        dt = self.schema.column_type(name)
        parts: list[ColumnVector] = []
        for region in self.regions:
            values, nulls = region.columns[name].decode()
            parts.append(ColumnVector(dt, values, nulls))
        parts.append(self.tail_vector(name))
        return ColumnVector.concat(parts)

    def visible_mask(self, snapshot: Snapshot | None) -> np.ndarray:
        """Mask of rows visible under *snapshot* over the logical scan order.

        ``snapshot=None`` degrades to :meth:`live_mask` (latest state).
        The whole-table form, for core-API callers (``txn.delete(table,
        table.visible_mask(txn.snapshot))``); UPDATE and DELETE read the
        stamps of their candidate rows alone (:meth:`Region.visible_mask`
        with ids, :meth:`tail_visible`).
        """
        if snapshot is None:
            return self.live_mask()
        parts = []
        for region in self.regions:
            mask = region.visible_mask(snapshot)
            parts.append(np.ones(region.n_rows, dtype=bool) if mask is None else mask)
        n = self._tail_rows
        tail = _tail_visible(
            _stamps(self._tail_xmin, n), _stamps(self._tail_xmax, n), n, snapshot
        )
        parts.append(np.ones(n, dtype=bool) if tail is None else tail)
        return np.concatenate(parts)

    def live_mask(self) -> np.ndarray:
        """Mask of live rows over the logical scan order."""
        parts = []
        for region in self.regions:
            if region.xmax is None:
                parts.append(np.ones(region.n_rows, dtype=bool))
            else:
                parts.append(region.xmax == 0)
        parts.append(self._tail_xmax[: self._tail_rows] == 0)
        return np.concatenate(parts)

    # -- size accounting -----------------------------------------------------------

    def compressed_nbytes(self) -> int:
        """Bytes of compressed regions plus synopses."""
        return sum(r.nbytes() + r.synopsis_nbytes() for r in self.regions)

    def raw_nbytes(self) -> int:
        """Uncompressed footprint of the sealed regions."""
        return sum(r.raw_nbytes for r in self.regions)

    def compression_ratio(self) -> float:
        """raw / compressed for the sealed part of the table."""
        compressed = self.compressed_nbytes()
        if compressed == 0:
            return 1.0
        return self.raw_nbytes() / compressed


def region_vector(compressed: CompressedColumn, dtype: DataType, ids=None) -> ColumnVector:
    """One column of a region as a runtime vector — every row, or the rows
    at positions ``ids``; a dictionary-coded string column stays codes
    until someone reads its values."""
    coded = compressed.decode_coded(ids)
    if coded is not None:
        return ColumnVector.coded(dtype, *coded)
    return ColumnVector(dtype, *compressed.decode(ids))


def _stamps(stamps: np.ndarray, n: int) -> np.ndarray | None:
    """A copy of the first *n* version stamps, or None when all are zero
    (the common case)."""
    if not n:
        return None
    prefix = stamps[:n]
    return prefix.copy() if prefix.any() else None


def _stamp_deleted(xmax: np.ndarray, mask: np.ndarray, txid: int) -> np.ndarray:
    """Stamp ``xmax = txid`` in place on the live rows under *mask* and
    return their mask; a foreign in-flight stamp under it is a conflict."""
    fresh = mask & (xmax == 0)
    if txid != ANCIENT_TXID:
        foreign = mask & (xmax != 0) & (xmax != txid)
        if foreign.any():
            raise TransactionConflictError(
                "row version already deleted by txn %d" % int(xmax[foreign][0])
            )
    xmax[fresh] = txid
    return fresh


def _present(values, nulls: np.ndarray | None) -> list:
    """The non-NULL values of a physical column, as Python values."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if nulls is None:
        return values
    return list(itertools.compress(values, (~nulls).tolist()))


def _null_violation(name: str) -> NotNullViolationError:
    return NotNullViolationError("column %s does not accept NULL" % name)


def _first_rejected(values, dt: DataType, name: str, at: int, not_null: bool):
    """``(row, order, error)`` of the first value of a column that failed
    to convert which a row-at-a-time load would have rejected."""
    for row, value in enumerate(values):
        if value is None:
            if not_null:
                return row, at, _null_violation(name)
            continue
        try:
            to_physical_scalar(value, dt)
        except ConversionError as error:
            return row, at, error
    raise AssertionError("column %s converts value by value" % name)


def _tail_visible(
    xmin: np.ndarray | None, xmax: np.ndarray | None, n: int, snapshot: Snapshot | None
) -> np.ndarray | None:
    if snapshot is None:
        return None if xmax is None else xmax == 0
    mask: np.ndarray | None = None
    if xmin is not None:
        mask = snapshot.sees_vec(xmin)
    if xmax is not None:
        dead = (xmax != 0) & snapshot.sees_vec(xmax)
        mask = ~dead if mask is None else mask & ~dead
    if mask is not None and mask.all():
        return None
    return mask


def _raw_size(array: np.ndarray, dt: DataType) -> int:
    if array.dtype == object:
        return sum(len(str(v)) for v in array.tolist()) + array.size
    if dt.kind in (TypeKind.SMALLINT,):
        return 2 * array.size
    if dt.kind in (TypeKind.INTEGER, TypeKind.DATE, TypeKind.TIME, TypeKind.REAL):
        return 4 * array.size
    if dt.kind in (TypeKind.BOOLEAN,):
        return array.size
    return 8 * array.size
