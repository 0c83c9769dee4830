"""dashDB <-> Spark integration: collocated fetch with pushdown.

Paper II.D.2 / Fig. 7: "for each database node an own Apache Spark cluster
is available which fetches the database data collocated" and "to optimize
the transfer an additional where clause could be pushed to the database to
transfer only the data really needed".  This module builds RDDs whose
partitions map 1:1 onto the cluster's shards:

* **collocated** mode reads each shard's slice directly on its node (one
  local transfer per shard);
* **remote** mode routes every row through the coordinator (the naive
  JDBC-to-one-endpoint pattern), which the locality benchmark compares
  against.

Transfer accounting (rows and estimated bytes, local vs. remote) feeds the
Figure-7 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.mpp import Cluster
from repro.errors import SparkError
from repro.spark.dataframe import SparkDataFrame
from repro.spark.rdd import RDD, SparkContext

_ROW_BYTES_ESTIMATE = 64


@dataclass
class TransferStats:
    rows_local: int = 0
    rows_remote: int = 0
    bytes_local: int = 0
    bytes_remote: int = 0


class DashDBSparkContext(SparkContext):
    """A SparkContext wired to a dashDB Local cluster."""

    def __init__(self, cluster: Cluster, app_name: str = "dashdb-spark", user: str = "spark"):
        # Colocation (paper II.D): Spark tasks share the cluster's worker
        # pool instead of competing with it.  Safe because table_rdd
        # materialises shard SQL eagerly on the calling thread — Spark
        # tasks themselves never re-enter the scatter path.
        super().__init__(
            app_name,
            default_parallelism=max(2, len(cluster.live_nodes())),
            pool=cluster.pool,
        )
        self.cluster = cluster
        self.user = user
        self.transfer = TransferStats()

    def table_rdd(
        self,
        table_name: str,
        columns: list[str] | None = None,
        where: str | None = None,
        collocated: bool = True,
    ) -> RDD:
        """An RDD over a cluster table, one partition per shard.

        Args:
            table_name: a distributed or replicated cluster table.
            columns: projection (default: all columns).
            where: SQL predicate text pushed into each shard's scan
                ("an additional where clause could be pushed to the
                database"); evaluated on compressed data shard-side.
            collocated: fetch each shard slice locally (True) or drag every
                row through the coordinator (False).
        """
        name = table_name.upper()
        if name not in self.cluster.tables:
            raise SparkError("no cluster table %s" % name)
        projection = ", ".join(columns) if columns else "*"
        sql = "SELECT %s FROM %s" % (projection, name)
        if where:
            sql += " WHERE %s" % where
        replicated = self.cluster.tables[name].replicated
        partitions: list[list] = []
        shard_ids = sorted(self.cluster.shards)
        if replicated:
            shard_ids = shard_ids[:1]  # one copy suffices
        for sid in shard_ids:
            shard = self.cluster.shards[sid]
            session = shard.engine.connect("db2")
            result = shard.engine.execute(sql, session)
            rows = [dict(zip(result.columns, r)) for r in result.rows]
            partitions.append(rows)
            nbytes = len(rows) * _ROW_BYTES_ESTIMATE
            if collocated:
                self.transfer.rows_local += len(rows)
                self.transfer.bytes_local += nbytes
            else:
                # Remote: shard -> coordinator -> Spark (double transfer).
                self.transfer.rows_remote += len(rows)
                self.transfer.bytes_remote += 2 * nbytes
        return self.from_partitions(partitions)

    def table_df(
        self,
        table_name: str,
        columns: list[str] | None = None,
        where: str | None = None,
        collocated: bool = True,
    ) -> SparkDataFrame:
        rdd = self.table_rdd(table_name, columns, where, collocated)
        name = table_name.upper()
        schema = self.cluster.shards[0].engine.catalog.get_table(name).table.schema
        column_names = [c.upper() for c in (columns or schema.column_names)]
        return SparkDataFrame(rdd, column_names)

    def write_table(self, df: SparkDataFrame, table_name: str) -> int:
        """Persist a DataFrame back into the warehouse (object-store /
        streaming ingestion path of paper II.D.3)."""
        rows = df.collect()
        if not rows:
            return 0
        session = self.cluster.connect("db2")
        values = []
        for row in rows:
            rendered = []
            for column in df.columns:
                value = row[column]
                if value is None:
                    rendered.append("NULL")
                elif isinstance(value, str):
                    rendered.append("'%s'" % value.replace("'", "''"))
                else:
                    rendered.append(str(value))
            values.append("(%s)" % ", ".join(rendered))
        columns = ", ".join(df.columns)
        session.execute(
            "INSERT INTO %s (%s) VALUES %s" % (table_name, columns, ", ".join(values))
        )
        return len(rows)
