"""Column-organised tables: compressed regions plus an insert tail.

Layout (paper II.B.3-4): rows are appended to an uncompressed *tail*; when
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

from dataclasses import dataclass, field

import numpy as np

from repro.compression.codec import CompressedColumn, compress_column
from repro.errors import ConstraintViolationError, SQLError, TransactionConflictError
from repro.mvcc.txn import ANCIENT_TXID, Snapshot
from repro.skipping.synopsis import SYNOPSIS_STRIDE, Synopsis
from repro.storage.column import ColumnVector, to_physical, to_physical_scalar
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
        raise KeyError("no column %r in table %s" % (name, self.name))

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
        fresh = mask & (self.xmax == 0)
        if txid != ANCIENT_TXID:
            foreign = mask & (self.xmax != 0) & (self.xmax != txid)
            if foreign.any():
                raise TransactionConflictError(
                    "row version already deleted by txn %d"
                    % int(self.xmax[foreign][0])
                )
        self.xmax[fresh] = txid
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
        self._tail: list[list] = [[] for _ in schema.columns]
        self._tail_rows = 0
        self._tail_xmin: list[int] = []
        self._tail_xmax: list[int] = []
        self._unique_seen: dict[str, set] = {c: set() for c in self.unique_columns}
        # Guards the structural swap in _seal_tail/truncate against
        # concurrent capture(); appends need no lock because _tail_rows is
        # bumped only after all per-column appends land.
        self._capture_lock = sanitizer.make_lock(
            "table:%s:capture" % schema.name, reentrant=False
        )

    # ColumnTable instances are pickled by durability checkpoints; locks
    # are not picklable, so drop and rebuild.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_capture_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._capture_lock = sanitizer.make_lock(
            "table:%s:capture" % self.schema.name, reentrant=False
        )

    # -- inserts -------------------------------------------------------------

    def insert_rows(self, rows, txid: int = 0) -> int:
        """Append boundary-value rows (sequences matching the schema).

        Values are validated and converted to physical form per column.
        Rows are stamped ``xmin = txid`` (0 = ancient: visible to every
        snapshot, the pre-MVCC behaviour).  Returns the number of rows
        inserted.
        """
        count = 0
        names = self.schema.column_names
        unique = [
            (name, names.index(name), self._unique_seen[name])
            for name in self.unique_columns
        ]
        for row in rows:
            if len(row) != len(self.schema):
                raise SQLError(
                    "row has %d values, table %s has %d columns"
                    % (len(row), self.schema.name, len(self.schema))
                )
            physical = []
            for (name, dt), value in zip(self.schema.columns, row):
                if value is None and name in self.not_null_columns:
                    raise ConstraintViolationError(
                        "column %s does not accept NULL" % name
                    )
                physical.append(
                    None if value is None else to_physical_scalar(value, dt)
                )
            # Check every unique column before recording any: a rejected
            # row must leave nothing behind in the seen-sets.
            for name, at, seen in unique:
                value = physical[at]
                if value is not None and value in seen:
                    raise ConstraintViolationError(
                        "duplicate value %r for unique column %s" % (value, name)
                    )
            for _, at, seen in unique:
                if physical[at] is not None:
                    seen.add(physical[at])
            for i, value in enumerate(physical):
                self._tail[i].append(value)
            self._tail_xmin.append(txid)
            self._tail_xmax.append(0)
            self._tail_rows += 1
            count += 1
            if self._tail_rows >= self.region_rows:
                self._seal_tail()
        return count

    def flush(self) -> None:
        """Seal any buffered tail rows into a compressed region."""
        if self._tail_rows:
            self._seal_tail()

    def append_vectors(self, vectors: list[ColumnVector]) -> int:
        """Seal physical column vectors straight into compressed regions.

        The columnar twin of :meth:`insert_rows` for data that is already
        in physical form (a shard's partial result): no per-value
        conversion or validation, so the vectors must be exactly the
        schema's types.  The table keeps the arrays — callers must not
        mutate them afterwards.  NULL slots may hold any filler.  Rows
        are stamped ancient (visible to every snapshot); any buffered
        tail is sealed first so the logical scan order stays append-only.
        Unique columns are refused: their seen-sets are kept per value.
        """
        if self.unique_columns:
            raise SQLError(
                "table %s has unique columns; use insert_rows" % self.schema.name
            )
        n = self.schema.check_vectors(vectors)
        for (name, _), vector in zip(self.schema.columns, vectors):
            if vector.nulls is not None and name in self.not_null_columns:
                raise ConstraintViolationError(
                    "column %s does not accept NULL" % name
                )
        self.flush()
        for start in range(0, n, self.region_rows):
            stop = min(start + self.region_rows, n)
            chunk = [
                ColumnVector(
                    v.dtype,
                    v.values[start:stop],
                    None if v.nulls is None else v.nulls[start:stop],
                )
                for v in vectors
            ]
            region = self._build_region(chunk, stop - start)
            with self._capture_lock:
                self.regions.append(region)
        return n

    def _seal_tail(self) -> None:
        # A generator: one column's raw array alive at a time while sealing.
        vectors = (
            _vector_from_raw(raw, dt)
            for (_, dt), raw in zip(self.schema.columns, self._tail)
        )
        region = self._build_region(
            vectors,
            self._tail_rows,
            _stamp_array(self._tail_xmin, self._tail_rows),
            _stamp_array(self._tail_xmax, self._tail_rows),
        )
        with self._capture_lock:
            self.regions.append(region)
            self._tail = [[] for _ in self.schema.columns]
            self._tail_rows = 0
            self._tail_xmin = []
            self._tail_xmax = []

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
        rescanning the table (an abort rebuilds them, :meth:`rollback_txn`).
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
                fresh = region.mark_deleted(chunk, txid)
                deleted += int(fresh.sum())
                for name in self.unique_columns:
                    values, nulls = region.columns[name].decode()
                    gone = fresh if nulls is None else fresh & ~nulls
                    self._unique_seen[name].difference_update(values[gone].tolist())
            offset += region.n_rows
        tail_mask = global_mask[offset:]
        if tail_mask.any():
            unique_tails = [
                (self._unique_seen[name], self._tail[self.schema.column_index(name)])
                for name in self.unique_columns
            ]
            for i in np.flatnonzero(tail_mask):
                current = self._tail_xmax[i]
                if current == 0:
                    self._tail_xmax[i] = txid
                    deleted += 1
                    for seen, tail in unique_tails:
                        seen.discard(tail[i])  # None (NULL) was never seen
                elif txid != ANCIENT_TXID and current != txid:
                    raise TransactionConflictError(
                        "row version already deleted by txn %d" % current
                    )
        return deleted

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
        for i in range(self._tail_rows):
            if self._tail_xmax[i] == txid:
                self._tail_xmax[i] = 0
            if self._tail_xmin[i] == txid:
                self._tail_xmax[i] = ANCIENT_TXID
        if self.unique_columns:
            self._rebuild_unique_sets()

    def truncate(self) -> None:
        """Remove all rows, keeping the definition (TRUNCATE TABLE)."""
        with self._capture_lock:
            self.regions = []
            self._tail = [[] for _ in self.schema.columns]
            self._tail_rows = 0
            self._tail_xmin = []
            self._tail_xmax = []
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
        tail_live = self._tail_rows - sum(1 for x in self._tail_xmax if x != 0)
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
        with self._capture_lock:
            regions = tuple(self.regions)
            n = self._tail_rows
            raw_tail = [raw[:n] for raw in self._tail]
            xmin = _stamp_array(self._tail_xmin, n)
            xmax = _stamp_array(self._tail_xmax, n)
        names = list(columns) if columns is not None else self.schema.column_names
        tail = {
            name: _vector_from_raw(
                raw_tail[self.schema.column_index(name)],
                self.schema.column_type(name),
            )
            for name in names
        }
        tail_mask = _tail_visible(xmin, xmax, n, snapshot)
        return TableCapture(
            regions=regions, tail=tail, tail_mask=tail_mask, tail_rows=n,
            snapshot=snapshot,
        )

    def tail_vector(self, name: str) -> ColumnVector:
        """The uncompressed tail of one column as a runtime vector."""
        idx = self.schema.column_index(name)
        dt = self.schema.columns[idx][1]
        return _vector_from_raw(self._tail[idx], dt)

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
        Used by the UPDATE/DELETE match path so a write transaction only
        targets versions its own snapshot can see.
        """
        if snapshot is None:
            return self.live_mask()
        parts = []
        for region in self.regions:
            mask = region.visible_mask(snapshot)
            parts.append(np.ones(region.n_rows, dtype=bool) if mask is None else mask)
        n = self._tail_rows
        tail = _tail_visible(
            _stamp_array(self._tail_xmin, n), _stamp_array(self._tail_xmax, n), n, snapshot
        )
        parts.append(np.ones(n, dtype=bool) if tail is None else tail)
        if not parts:
            return np.zeros(0, dtype=bool)
        return np.concatenate(parts)

    def live_mask(self) -> np.ndarray:
        """Mask of live rows over the logical scan order."""
        parts = []
        for region in self.regions:
            if region.xmax is None:
                parts.append(np.ones(region.n_rows, dtype=bool))
            else:
                parts.append(region.xmax == 0)
        parts.append(
            np.fromiter(
                (x == 0 for x in self._tail_xmax), dtype=bool, count=self._tail_rows
            )
        )
        if not parts:
            return np.zeros(0, dtype=bool)
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


def _stamp_array(stamps: list[int], n: int) -> np.ndarray | None:
    """Version stamps as int64, or None when all-zero (the common case).

    Tolerates stamp lists shorter than *n*: benchmarks poke ``_tail``
    directly for bulk setup, leaving the version lists empty — those rows
    are ancient (stamp 0).
    """
    if not any(stamps[:n]):
        return None
    out = np.zeros(n, dtype=np.int64)
    out[: len(stamps)] = stamps[:n]
    return out


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


def _vector_from_raw(raw: list, dt: DataType) -> ColumnVector:
    nulls = np.fromiter((v is None for v in raw), dtype=bool, count=len(raw))
    dtype = dt.numpy_dtype
    filler = "" if dtype == object else 0
    cleaned = [filler if v is None else v for v in raw]
    if dtype == object:
        array = np.empty(len(raw), dtype=object)
        array[:] = cleaned
    else:
        array = np.array(cleaned, dtype=dtype)
    return ColumnVector(dt, array, nulls if nulls.any() else None)


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
