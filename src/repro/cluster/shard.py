"""Shards: hash partitions with their own filesets on the clustered FS.

Paper II.E: "each shard has its own file set that is not shared.  Because
the system is based on a clustered file system, it is similarly possible to
re-associate shards from one host to another."  A shard owns a slice of
every distributed table (a full copy of replicated tables) and is backed by
a single-shard :class:`~repro.database.database.Database` engine.
"""

from __future__ import annotations

import zlib

from repro.database.database import Database
from repro.durability.manager import DurabilityManager
from repro.storage.filesystem import ClusterFileSystem


def hash_value_to_shard(value, n_shards: int) -> int:
    """Deterministic hash partitioning for distribution-key values.

    NULL distribution keys all land on shard 0 (they compare equal for
    co-partitioned joins only via non-null keys anyway).
    """
    if value is None:
        return 0
    return zlib.crc32(repr(value).encode()) % n_shards


class Shard:
    """One hash partition: local engine plus its fileset path."""

    def __init__(
        self,
        shard_id: int,
        filesystem: ClusterFileSystem,
        bufferpool_pages: int = 256,
        clock=None,
        durable: bool = True,
        group_commit: int = 1,
        injector=None,
    ):
        self.shard_id = shard_id
        self.filesystem = filesystem
        self.fileset_path = "shards/s%04d" % shard_id
        filesystem.mkdir(self.fileset_path)
        # Each shard's WAL and checkpoints live *inside its own fileset* on
        # the clustered FS — which is exactly why failover can recover an
        # orphaned shard on any surviving host (paper II.E).
        durability = None
        if durable:
            durability = DurabilityManager(
                filesystem,
                path="%s/durability" % self.fileset_path,
                clock=clock,
                injector=injector,
                group_commit=group_commit,
            )
        # Shard engines run serial (parallelism=1): intra-query parallelism
        # in the cluster is the scatter pool's modelled DOP over shards.
        self.engine = Database(
            name="SHARD%d" % shard_id,
            bufferpool_pages=bufferpool_pages,
            clock=clock,
            parallelism=1,
            durability=durability,
        )
        self._register_fileset()

    def _register_fileset(self) -> None:
        self.filesystem.write_file(
            "%s/fileset" % self.fileset_path, self, self.data_bytes()
        )

    def data_bytes(self) -> int:
        """Compressed bytes held by this shard."""
        return self.engine.total_compressed_bytes()

    def sync_fileset(self) -> None:
        """Refresh the fileset's recorded size after DML."""
        self.filesystem.write_file(
            "%s/fileset" % self.fileset_path, self, self.data_bytes()
        )

    def log_committed_insert(self, name: str, rows, txid: int | None = None) -> None:
        """WAL hook for the cluster's direct-insert path, which writes to
        shard tables without going through the engine's statement
        machinery (:meth:`~repro.cluster.mpp.Cluster._insert_rows`).
        ``txid`` records the staging MVCC transaction in the commit
        record's metadata."""
        if self.engine.durability is not None and rows:
            self.engine.durability.log_insert((None, name.upper()), rows)
            self.engine.durability.commit(
                txn_meta=None if txid is None else {"txn": txid}
            )

    def n_rows(self, table_name: str) -> int:
        return self.engine.catalog.get_table(table_name).table.n_rows

    def __repr__(self) -> str:
        return "Shard(%d)" % self.shard_id
