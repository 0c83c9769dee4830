"""Fuzzy checkpoints: encoded columnar snapshots on the clustered FS.

A checkpoint captures one engine's full durable state — tables in their
compressed-region form, views, aliases, sequences — as of a *checkpoint
LSN*.  Recovery restores the newest complete checkpoint and redoes the WAL
from that LSN forward (ARIES-style redo, :mod:`repro.durability.manager`).

The write protocol makes crashes at any point harmless:

1. every table is serialised to its own checksummed blob under a
   ``ckpt-<lsn>.partial`` staging directory (the *fuzzy* part: tables are
   written one at a time while readers keep running — snapshot isolation
   comes from serialising, which copies, rather than locking);
2. a manifest naming every blob with its size and CRC is written last;
3. the staging directory is published by a single **atomic rename**
   (:meth:`~repro.storage.filesystem.ClusterFileSystem.rename`).

A crash before the rename leaves only a ``.partial`` directory, which
recovery ignores; a torn table blob fails its manifest CRC, which demotes
the whole image; in both cases the previous checkpoint is used.  Only
after a successful publish are older images garbage-collected.
"""

from __future__ import annotations

import pickle
import zlib

import numpy as np

from repro.catalog.catalog import AliasInfo, Catalog, TableInfo, ViewInfo
from repro.durability.faults import NULL_INJECTOR
from repro.storage.filesystem import ClusterFileSystem
from repro.storage.table import ColumnTable, TableSchema

_DIR_PREFIX = "ckpt-"
_PARTIAL_SUFFIX = ".partial"


# --------------------------------------------------------------------------
# Snapshot <-> Database
# --------------------------------------------------------------------------


def snapshot_database(database) -> dict:
    """Capture a database's durable state as plain picklable structures."""
    catalog = database.catalog
    tables, views, aliases = [], [], []
    for schema_name in catalog.schema_names():
        for name, obj in catalog.entries(schema_name):
            if isinstance(obj, TableInfo):
                if obj.temporary:
                    continue
                tables.append(_table_state(schema_name, obj.table))
            elif isinstance(obj, ViewInfo):
                views.append(
                    {
                        "schema": schema_name,
                        "name": name,
                        "text": obj.text,
                        "dialect": obj.dialect,
                        "column_names": obj.column_names,
                    }
                )
            elif isinstance(obj, AliasInfo):
                aliases.append(
                    {"schema": schema_name, "name": name, "target": obj.target}
                )
    sequences = []
    for name in catalog.sequence_names():
        seq = catalog.get_sequence(name)
        sequences.append(
            {
                "name": seq.name,
                "start": seq.start,
                "increment": seq.increment,
                "minvalue": seq.minvalue,
                "maxvalue": seq.maxvalue,
                "cycle": seq.cycle,
                "current": seq._current,
            }
        )
    return {
        "schemas": catalog.schema_names(),
        "tables": tables,
        "views": views,
        "aliases": aliases,
        "sequences": sequences,
    }


def _table_state(schema_name: str, table: ColumnTable) -> dict:
    n = table.tail_rows
    return {
        "schema": schema_name,
        "table_schema": table.schema,
        "region_rows": table.region_rows,
        "synopsis_stride": table.synopsis_stride,
        "unique_columns": table.unique_columns,
        "not_null_columns": table.not_null_columns,
        "regions": table.regions,
        "tail": [
            _tail_list(values[:n], nulls[:n])
            for values, nulls in zip(table._tail_values, table._tail_nulls)
        ],
        "tail_rows": n,
        "tail_xmin": table._tail_xmin[:n].tolist(),
        "tail_xmax": table._tail_xmax[:n].tolist(),
    }


# The image keeps the tail as one list of physical Python values per
# column (None = NULL) and its stamps as lists of ints, the encoding it has
# always had: small integers pickle in two to five bytes where an int64
# array spends eight, the image's bytes count in the space a durable
# engine occupies, and every older image still loads.


def _tail_list(values: np.ndarray, nulls: np.ndarray) -> list:
    column = values.tolist()
    for row in np.flatnonzero(nulls).tolist():
        column[row] = None
    return column


def _tail_physical(column: list, dtype) -> tuple[list, np.ndarray]:
    nulls = np.fromiter((v is None for v in column), dtype=bool, count=len(column))
    if nulls.any():
        filler = "" if dtype == object else 0
        column = [filler if v is None else v for v in column]
    return column, nulls


def _rebuild_table(state: dict) -> ColumnTable:
    table = ColumnTable(
        state["table_schema"],
        region_rows=state["region_rows"],
        synopsis_stride=state["synopsis_stride"],
        unique_columns=state["unique_columns"],
        not_null_columns=state["not_null_columns"],
    )
    table.regions = state["regions"]
    n = state["tail_rows"]
    table._land(
        [
            _tail_physical(column, dt.numpy_dtype)
            for column, (_, dt) in zip(state["tail"], table.schema.columns)
        ],
        n,
        txid=0,
    )
    # Images from before MVCC carry no stamps: nothing in them is deleted.
    xmax = state.get("tail_xmax", ())
    table._tail_xmax[: len(xmax)] = xmax
    _normalize_versions(table)
    if table.unique_columns:
        table._rebuild_unique_sets()
    return table


def _normalize_versions(table: ColumnTable) -> None:
    """Stamp every surviving version ancient after a restore.

    Txids are an incarnation-local notion: the engine restarts with a
    fresh transaction manager, so stamps from the previous incarnation
    must not alias the new one's txids.  A checkpoint is taken at a
    statement boundary under the statement lock, so every version in the
    image belongs to a committed transaction: creators collapse to
    "ancient" (``xmin = None``/0, visible to all) and deleters to the
    always-committed :data:`~repro.mvcc.txn.ANCIENT_TXID`.  Versions of
    transactions that had *not* committed never reach here — redo replays
    committed WAL transactions only — which is how recovery prunes an
    uncommitted load's versions.
    """
    from repro.mvcc.txn import ANCIENT_TXID

    for region in table.regions:
        region.xmin = None
        region.xmin_hi = 0
        if region.xmax is not None:
            if region.xmax.any():
                region.xmax = (region.xmax != 0).astype(region.xmax.dtype) * ANCIENT_TXID
                region.xmax_hi = ANCIENT_TXID
            else:
                region.xmax = None
                region.xmax_hi = 0
    n = table.tail_rows
    table._tail_xmin[:n] = 0
    xmax = table._tail_xmax[:n]
    xmax[xmax != 0] = ANCIENT_TXID


def restore_snapshot(database, snapshot: dict) -> None:
    """Replace a database's catalog with the snapshot's state."""
    catalog = Catalog()
    for schema_name in snapshot["schemas"]:
        if schema_name not in catalog.schema_names():
            catalog.create_schema(schema_name)
    for state in snapshot["tables"]:
        info = catalog.create_table(
            state["table_schema"],
            state["schema"],
            region_rows=state["region_rows"],
            synopsis_stride=state["synopsis_stride"],
            unique_columns=state["unique_columns"],
            not_null_columns=state["not_null_columns"],
        )
        info.table = _rebuild_table(state)
    for view in snapshot["views"]:
        catalog.create_view(
            view["name"],
            view["text"],
            view["dialect"],
            view["schema"],
            view["column_names"],
        )
    for alias in snapshot["aliases"]:
        catalog.create_alias(alias["name"], alias["target"], alias["schema"])
    for seq_state in snapshot["sequences"]:
        seq = catalog.create_sequence(
            seq_state["name"],
            start=seq_state["start"],
            increment=seq_state["increment"],
            minvalue=seq_state["minvalue"],
            maxvalue=seq_state["maxvalue"],
            cycle=seq_state["cycle"],
        )
        seq._current = seq_state["current"]
    database.catalog = catalog
    database.bufferpool.clear()


# --------------------------------------------------------------------------
# The on-FS checkpoint store
# --------------------------------------------------------------------------


class CheckpointStore:
    """Versioned checkpoint images under one directory of the clustered FS."""

    def __init__(self, filesystem: ClusterFileSystem, root: str, injector=None):
        self.filesystem = filesystem
        self.root = root.rstrip("/")
        self.injector = injector if injector is not None else NULL_INJECTOR
        filesystem.mkdir(self.root)

    def _dir_name(self, lsn: int, partial: bool) -> str:
        name = "%s%012d" % (_DIR_PREFIX, lsn)
        return "%s/%s%s" % (self.root, name, _PARTIAL_SUFFIX if partial else "")

    def write(self, snapshot: dict, lsn: int) -> int:
        """Write and atomically publish one checkpoint image.

        Returns bytes written.  Injection points: ``checkpoint.table``
        (crash between, or torn write of, per-table blobs — a partial
        fileset write), ``checkpoint.manifest``, ``checkpoint.rename``
        (complete image never published).
        """
        fs = self.filesystem
        staging = self._dir_name(lsn, partial=True)
        if fs.exists(staging):
            fs.delete(staging)
        fs.mkdir(staging)
        total = 0
        manifest_tables = []
        for i, state in enumerate(snapshot["tables"]):
            self.injector.crash_point("checkpoint.table")
            blob = pickle.dumps(state)
            file_name = "table-%04d" % i
            fraction = self.injector.torn_fraction("checkpoint.table")
            if fraction is not None:
                torn = blob[: int(len(blob) * fraction)]
                fs.write_file("%s/%s" % (staging, file_name), torn, len(torn),
                              durable=True)
                raise self.injector.crash_after_torn("checkpoint.table")
            fs.write_file("%s/%s" % (staging, file_name), blob, len(blob),
                          durable=True)
            manifest_tables.append((file_name, len(blob), zlib.crc32(blob)))
            total += len(blob)
        self.injector.crash_point("checkpoint.manifest")
        manifest = pickle.dumps(
            {
                "lsn": lsn,
                "tables": manifest_tables,
                "schemas": snapshot["schemas"],
                "views": snapshot["views"],
                "aliases": snapshot["aliases"],
                "sequences": snapshot["sequences"],
            }
        )
        fs.write_file("%s/MANIFEST" % staging, manifest, len(manifest), durable=True)
        total += len(manifest)
        self.injector.crash_point("checkpoint.rename")
        fs.rename(staging, self._dir_name(lsn, partial=False))
        self._collect_garbage(keep_lsn=lsn)
        return total

    def _collect_garbage(self, keep_lsn: int) -> None:
        for name in self.filesystem.listdir(self.root):
            if not name.startswith(_DIR_PREFIX):
                continue
            if name == "%s%012d" % (_DIR_PREFIX, keep_lsn):
                continue
            self.filesystem.delete("%s/%s" % (self.root, name))

    def checkpoint_lsns(self) -> list[int]:
        """Published (complete) checkpoint LSNs, newest first."""
        lsns = []
        for name in self.filesystem.listdir(self.root):
            if name.startswith(_DIR_PREFIX) and not name.endswith(_PARTIAL_SUFFIX):
                try:
                    lsns.append(int(name[len(_DIR_PREFIX):]))
                except ValueError:
                    continue
        return sorted(lsns, reverse=True)

    def load_latest(self) -> tuple[int, dict, int] | None:
        """Newest checkpoint that validates end to end.

        Returns ``(lsn, snapshot, bytes_read)`` or ``None``.  An image
        with a missing/corrupt manifest or any table blob failing its
        size/CRC check is skipped in favour of the next older one — this
        is how partial fileset writes are survived.
        """
        for lsn in self.checkpoint_lsns():
            loaded = self._try_load(lsn)
            if loaded is not None:
                snapshot, nbytes = loaded
                return lsn, snapshot, nbytes
        return None

    def _try_load(self, lsn: int) -> tuple[dict, int] | None:
        fs = self.filesystem
        directory = self._dir_name(lsn, partial=False)
        manifest_path = "%s/MANIFEST" % directory
        if not fs.exists(manifest_path):
            return None
        try:
            manifest = pickle.loads(fs.read_file(manifest_path))
        except Exception:  # lint-ok: broad-except (deliberately broad: a corrupt manifest from a partial fileset write means "skip to the next older checkpoint", not "fail recovery")
            return None
        tables = []
        nbytes = len(fs.read_file(manifest_path))
        for file_name, size, crc in manifest["tables"]:
            path = "%s/%s" % (directory, file_name)
            if not fs.exists(path):
                return None
            blob = fs.read_file(path)
            if len(blob) != size or zlib.crc32(blob) != crc:
                return None
            tables.append(pickle.loads(blob))
            nbytes += len(blob)
        snapshot = {
            "schemas": manifest["schemas"],
            "tables": tables,
            "views": manifest["views"],
            "aliases": manifest["aliases"],
            "sequences": manifest["sequences"],
        }
        return snapshot, nbytes
