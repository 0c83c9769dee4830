"""The MPP shared-nothing distributed SQL executor (paper Fig. 2, II.E).

Tables are hash-partitioned across shards (or replicated to every shard);
queries scatter to all live shards and gather at a coordinator:

* **non-aggregate queries** run unchanged on every shard; the coordinator
  concatenates partial rows, then applies global DISTINCT / ORDER / LIMIT;
* **aggregate queries** are split into per-shard partial aggregates
  (COUNT -> partial COUNT + global SUM, AVG -> SUM&COUNT, ...) combined by
  a rewritten global statement over the gathered partials — the classic
  two-phase aggregation of shared-nothing warehouses;
* shapes the splitter cannot handle (subqueries over distributed tables,
  set operations, exotic aggregates) fall back to gathering the referenced
  columns of the referenced tables to the coordinator and running the
  original statement there.

Whatever the shards answer reaches the coordinator's planner as an
in-memory relation of column vectors, scoped to the one statement: it is
never a table, so nothing is compressed, pooled or left behind.

Joins execute shard-locally, which is correct when each join either has a
replicated side or is co-partitioned (the schema designer's contract, as on
real MPP systems).
"""

from __future__ import annotations

import copy
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace

from repro.cluster.autoconfig import shards_for_cluster
from repro.cluster.hardware import HardwareSpec, detect_hardware
from repro.cluster.node import Node
from repro.cluster.shard import Shard, hash_value_to_shard
from repro.database.database import Database, insert_targets, schema_rows
from repro.database.result import Result
from repro.database.session import Session
from repro.errors import (
    ClusterError,
    DialectError,
    NoSurvivorsError,
    NumericOverflowError,
    UnknownObjectError,
    UnsupportedFeatureError,
)
from repro.parallel import WorkerPool, default_parallelism, greedy_makespan
from repro.serving.normalize import StatementKey, is_volatile, statement_key
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.planner import (
    MaterialRel,
    _default_name,
    ordinal_index,
    vector_relation,
)
from repro.storage.column import ColumnVector
from repro.storage.filesystem import ClusterFileSystem
from repro.storage.table import TableSchema
from repro.util.timer import SimClock
from repro.verify import sanitizer

#: Aggregates the two-phase splitter handles natively.
_SPLITTABLE = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
#: Of those, the ones DISTINCT changes (MIN/MAX ignore it).
_DISTINCT_SENSITIVE = {"COUNT", "SUM", "AVG"}
_AGG_NAMES = {
    "COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "STDDEV", "VARIANCE",
    "VAR_POP", "VAR_SAMP", "STDDEV_POP", "STDDEV_SAMP", "COVAR_POP",
    "COVAR_SAMP", "COVARIANCE", "COVARIANCE_SAMP", "PERCENTILE_CONT",
    "PERCENTILE_DISC", "MEAN",
}

#: The gathered partials' relation name in the coordinator's statement.
_GATHER_TABLE = "__MPP_GATHER"
#: Shard column carrying the DISTINCT aggregates' shared argument.
_DISTINCT_COLUMN = "__D0"


@dataclass
class DistInfo:
    """Distribution metadata for one cluster table."""

    name: str
    key_columns: list[str] | None  # None/[] -> round robin
    replicated: bool = False


@dataclass
class QueryStats:
    """Execution accounting for the last distributed statement."""

    shards_touched: int = 0
    rows_gathered: int = 0
    mode: str = ""  # "scatter", "two-phase", "gather-fallback", "dml", ...
    #: Why a SELECT took the gather-fallback ("set-op", "cte", "subquery",
    #: "coordinator-object", "no-from", "unsplittable-aggregate: <agg>",
    #: "partial-overflow").
    fallback_reason: str = ""
    #: Gather-fallback only: columns pulled from the shards / columns the
    #: referenced cluster tables have.
    columns_pulled: int = 0
    columns_total: int = 0
    elapsed_by_node: dict = field(default_factory=dict)
    elapsed_by_shard: dict = field(default_factory=dict)
    #: max shard time / mean shard time — 1.0 is perfectly balanced.
    skew_ratio: float = 0.0
    gather_seconds: float = 0.0
    #: Scatter degree of parallelism and per-worker busy seconds.
    parallelism: int = 1
    worker_busy: dict = field(default_factory=dict)
    #: Where the shards' plans came from, over every shard execution of
    #: the statement: ``cached`` or ``fresh (<why>)`` -> executions.
    plans: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FragmentKey:
    """The plan-cache key a shard runs one fragment of a statement under
    (:func:`_fragment_key`): the statement's ``tokens`` and ``bypass``, the
    fragment's own ``template`` and the ``slots`` that occur in it."""

    tokens: tuple
    bypass: str | None
    template: tuple
    slots: tuple[int, ...]


class ClusterSession:
    """A client session against the whole cluster."""

    def __init__(self, cluster: "Cluster", dialect: str = "db2"):
        self.cluster = cluster
        self.inner = cluster.coordinator.connect(dialect)

    @property
    def dialect(self):
        return self.inner.dialect

    def execute(self, sql: str) -> Result:
        return self.cluster.execute(sql, session=self)

    def query(self, sql: str) -> list[tuple]:
        return self.execute(sql).rows


class Cluster:
    """A dashDB Local MPP cluster."""

    def __init__(
        self,
        node_hardware: list[HardwareSpec],
        filesystem: ClusterFileSystem | None = None,
        clock: SimClock | None = None,
        shard_factor: int = 6,
        shard_bufferpool_pages: int = 256,
        parallelism: int | None = None,
        durable: bool = True,
        group_commit: int = 1,
        fault_injector=None,
    ):
        if not node_hardware:
            raise ClusterError("a cluster needs at least one node")
        self.filesystem = filesystem or ClusterFileSystem()
        self.clock = clock
        self.durable = durable
        #: Scatter DOP: the sim clock schedules per-shard statements over
        #: this many workers; the gather merges in shard-id order.
        self.parallelism = (
            parallelism if parallelism is not None else default_parallelism()
        )
        self.pool = WorkerPool(self.parallelism, name="mpp")
        #: Coordinator commit lock: a multi-shard insert commits its
        #: per-shard MVCC transactions under this lock, and scatter reads
        #: pin their per-shard snapshots under it — so a cross-shard write
        #: is either fully visible or fully invisible to any scatter read
        #: (coordinator-consistent snapshots).
        self._commit_lock = sanitizer.make_lock("database:mpp:commit")
        self.nodes: list[Node] = []
        for i, hardware in enumerate(node_hardware):
            node = Node(node_id="node%d" % i, hardware=detect_hardware(hardware))
            node.configure(n_nodes=len(node_hardware), shard_factor=shard_factor)
            self.nodes.append(node)
        min_cores = min(h.cores for h in node_hardware)
        n_shards = shards_for_cluster(len(node_hardware), min_cores, shard_factor)
        self.shards: dict[int, Shard] = {
            sid: Shard(
                sid,
                self.filesystem,
                shard_bufferpool_pages,
                clock,
                durable=durable,
                group_commit=group_commit,
                injector=fault_injector,
            )
            for sid in range(n_shards)
        }
        self.assignment: dict[int, str] = {}
        self._assign_initial()
        # The coordinator holds views/sequences/aliases, so it keeps its own
        # log and checkpoints on the clustered FS too.
        coord_durability = None
        if durable:
            from repro.durability.manager import DurabilityManager

            coord_durability = DurabilityManager(
                self.filesystem,
                path="coordinator/durability",
                clock=clock,
                injector=fault_injector,
                group_commit=group_commit,
            )
        self.coordinator = Database(
            name="COORD", clock=clock, durability=coord_durability
        )
        self.tables: dict[str, DistInfo] = {}
        self.last_stats = QueryStats()
        #: Gather-fallback statements so far, by ``fallback_reason``.
        self.fallback_counts: dict[str, int] = {}
        #: shard_id -> RecoveryReport from the most recent fail_node().
        self.last_failover_recoveries: dict = {}

    # -- shard placement ------------------------------------------------------

    def _assign_initial(self) -> None:
        node_ids = [n.node_id for n in self.nodes]
        for sid in sorted(self.shards):
            node = self.nodes[sid % len(self.nodes)]
            node.assign_shard(sid)
            self.assignment[sid] = node.node_id

    def node_by_id(self, node_id: str) -> Node:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise ClusterError("no node %s" % node_id)

    def live_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.alive]

    def shards_on(self, node_id: str) -> list[int]:
        return sorted(sid for sid, nid in self.assignment.items() if nid == node_id)

    def shard_counts(self) -> dict[str, int]:
        counts = {n.node_id: 0 for n in self.live_nodes()}
        for sid, nid in self.assignment.items():
            counts[nid] = counts.get(nid, 0) + 1
        return counts

    def is_balanced(self, tolerance: int = 1) -> bool:
        counts = [c for nid, c in self.shard_counts().items()
                  if self.node_by_id(nid).alive]
        return (max(counts) - min(counts)) <= tolerance if counts else True

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def total_rows(self, table_name: str) -> int:
        return sum(s.n_rows(table_name.upper()) for s in self.shards.values())

    # -- durability -----------------------------------------------------------

    def checkpoint(self) -> dict[str, int]:
        """Fuzzy-checkpoint every engine; returns engine name -> LSN."""
        lsns: dict[str, int] = {}
        for sid in sorted(self.shards):
            shard = self.shards[sid]
            if shard.engine.durability is not None:
                lsns[shard.engine.name] = shard.engine.checkpoint()
        if self.coordinator.durability is not None:
            lsns[self.coordinator.name] = self.coordinator.checkpoint()
        return lsns

    # -- connections ---------------------------------------------------------------

    def connect(self, dialect: str = "db2") -> ClusterSession:
        return ClusterSession(self, dialect)

    # -- execution -------------------------------------------------------------------

    def execute(self, sql: str, session: ClusterSession | None = None) -> Result:
        session = session or self.connect()
        # Keyed through the coordinator's text memo, like Session and the
        # gateway: a read the cluster has seen is not lexed again.  The key
        # goes down the statement's calls as an argument, so each shard
        # can cache its fragment's plan, and nothing keeps it past the
        # statement.  A bulk INSERT's tokens are big and nothing plans
        # them: its key goes at the parse.  A text that fails to lex or
        # parse still replaces the previous statement's stats.
        self.last_stats = QueryStats()
        key = statement_key(sql, self.coordinator.plan_cache)
        node = parse_statement(sql, key.tokens)
        if isinstance(node, ast.Insert) and node.select is None:
            key = None
        return self.execute_ast(node, session, key)

    def execute_ast(
        self, node: ast.Node, session: ClusterSession, key: StatementKey | None = None
    ) -> Result:
        """Run one statement.  *key* is the ``statement_key`` of the text
        *node* was parsed from: with it each shard caches the plan of its
        fragment (:func:`_fragment_key`); without it shards plan afresh."""
        self.last_stats = QueryStats()
        if isinstance(node, ast.Select):
            return self._execute_select(node, session, key)
        if (
            isinstance(node, ast.ExplainStatement)
            and node.analyze
            and isinstance(node.statement, ast.Select)
        ):
            if key is not None:  # the explained SELECT is the read
                key = replace(
                    key, bypass="volatile" if is_volatile(key.tokens) else None
                )
            return self._explain_analyze(node.statement, session, key)
        if isinstance(node, ast.CreateTable):
            return self._execute_create_table(node, session)
        if isinstance(node, ast.Insert):
            return self._execute_insert(node, session, key)
        if isinstance(node, (ast.Update, ast.Delete)):
            return self._broadcast_dml(node, session, key)
        if isinstance(node, (ast.DropTable, ast.TruncateTable)):
            return self._execute_drop_or_truncate(node, session)
        # Views, sequences, aliases, SET, EXPLAIN, VALUES, CALL: coordinator.
        return self.coordinator.execute_ast(node, session.inner)

    # -- DDL -----------------------------------------------------------------------

    def _execute_create_table(self, node: ast.CreateTable, session) -> Result:
        if node.as_select is not None:
            raise UnsupportedFeatureError(
                "CREATE TABLE AS over the cluster: create then INSERT ... SELECT"
            )
        name = node.name.name.upper()
        for shard in self.shards.values():
            shard.engine.execute_ast(node, shard.engine.connect(session.dialect.name))
        # Register on the coordinator too (schema known for fallbacks).
        self.coordinator.execute_ast(node, session.inner)
        if node.replicated:
            info = DistInfo(name, None, replicated=True)
        elif node.distribute_on is not None:
            info = DistInfo(name, [c.upper() for c in node.distribute_on])
        else:
            first_column = node.columns[0].name.upper() if node.columns else None
            info = DistInfo(name, [first_column] if first_column else [])
        self.tables[name] = info
        self.last_stats.mode = "ddl"
        return Result(message="table %s created across %d shards" % (name, self.n_shards))

    def _execute_drop_or_truncate(self, node, session) -> Result:
        for shard in self.shards.values():
            shard.engine.execute_ast(node, shard.engine.connect(session.dialect.name))
        result = self.coordinator.execute_ast(node, session.inner)
        if isinstance(node, ast.DropTable):
            self.tables.pop(node.name.name.upper(), None)
        self.last_stats.mode = "ddl"
        return result

    # -- DML ------------------------------------------------------------------------

    def _dist_info(self, name: str) -> DistInfo:
        info = self.tables.get(name.upper())
        if info is None:
            raise UnknownObjectError("table %s is not a cluster table" % name.upper())
        return info

    def _execute_insert(self, node: ast.Insert, session, key) -> Result:
        name = node.table.name.upper()
        info = self._dist_info(name)
        schema = self.shards[0].engine.catalog.get_table(name).table.schema
        names = schema.column_names
        targets = insert_targets(node, schema)
        if node.rows is not None:
            raw_rows = self.coordinator.evaluate_rows(node.rows, session.inner)
        else:
            raw_rows = self._execute_select(node.select, session, key).rows
        rows = schema_rows(raw_rows, targets, names)
        count = self._insert_rows(name, info, names, rows, session)
        self.last_stats.mode = "dml"
        return Result(rowcount=count, message="%d row(s) inserted" % count)

    def _insert_rows(self, name, info, names, rows, session) -> int:
        if info.replicated:
            by_shard = {sid: rows for sid in self.shards}
        else:
            by_shard = {}
            if info.key_columns:
                key_idx = [names.index(c) for c in info.key_columns]
                for row in rows:
                    key = tuple(row[i] for i in key_idx)
                    sid = hash_value_to_shard(
                        key if len(key) > 1 else key[0], self.n_shards
                    )
                    by_shard.setdefault(sid, []).append(row)
            else:  # round robin
                for i, row in enumerate(rows):
                    by_shard.setdefault(i % self.n_shards, []).append(row)
        # Stage: stamp every shard's rows with an in-flight txn (invisible
        # to snapshot readers), make them durable, then commit all the
        # per-shard transactions under the coordinator commit lock so the
        # insert becomes visible atomically across shards.  Each touched
        # shard's statement lock is held throughout, taken in shard-id
        # order: a shard checkpoint must not snapshot between the WAL
        # commit and the MVCC commit, or recovery replays the insert on
        # top of its own snapshotted rows.
        with ExitStack() as locks:
            staged = []
            for sid, shard_rows in sorted(by_shard.items()):
                shard = self.shards[sid]
                locks.enter_context(shard.engine._statement_lock)
                txn = shard.engine.txn.begin()
                txn.insert(self._shard_table(shard, name), shard_rows)
                shard.log_committed_insert(name, shard_rows, txid=txn.txid)
                shard.sync_fileset()
                staged.append((shard, txn))
            with self._commit_lock:
                for shard, txn in staged:
                    txn.commit()
                    # This coordinator path commits raw per-shard
                    # transactions, bypassing Database._execute_write_node —
                    # so it must bump each shard engine's commit-version
                    # clock itself, or serving caches attached to shard
                    # engines keep replaying pre-insert results as valid.
                    shard.engine._note_commit(frozenset({name}))
        return len(rows)

    def _pin_snapshots(self) -> dict[int, object]:
        """Per-shard MVCC snapshots taken atomically w.r.t. cluster commits."""
        with self._commit_lock:
            return {
                sid: shard.engine.txn.snapshot()
                for sid, shard in sorted(self.shards.items())
            }

    def _shard_table(self, shard: Shard, name: str):
        return shard.engine.catalog.get_table(name).table

    def _broadcast_dml(self, node, session, key) -> Result:
        """Run an UPDATE or DELETE on every shard.  The statement is its own
        fragment, so its *key* is each shard's plan-cache key as it is."""
        total = 0
        for shard in self.shards.values():
            self._check_owner_alive(shard.shard_id)
            result = shard.engine.execute_ast(
                node, shard.engine.connect(session.dialect.name), key=key
            )
            total += max(result.rowcount, 0)
            shard.sync_fileset()
        self.last_stats.mode = "dml"
        self.last_stats.shards_touched = self.n_shards
        verb = "updated" if isinstance(node, ast.Update) else "deleted"
        return Result(rowcount=total, message="%d row(s) %s" % (total, verb))

    def _check_owner_alive(self, shard_id: int) -> None:
        node = self.node_by_id(self.assignment[shard_id])
        node.check_alive()

    # -- SELECT ------------------------------------------------------------------------

    def _execute_select(self, select: ast.Select, session, key) -> Result:
        global_select, relations = self._shard_phase(select, session, key)
        return self.coordinator.execute_ast(
            global_select, session.inner, relations=relations
        )

    def _shard_phase(
        self, select: ast.Select, session, key
    ) -> tuple[ast.Select, dict[str, MaterialRel]]:
        """Run the shard side of a SELECT; returns the statement left for
        the coordinator and the gathered relations it reads."""
        if select.limit_syntax == "limit" and not session.dialect.allows_limit:
            raise DialectError(
                "LIMIT/OFFSET requires the Netezza or PostgreSQL dialect"
            )
        aggregates = _collect_aggregates(select)
        reason = self._needs_gather_fallback(select) or _unsplittable(aggregates)
        if reason is not None:
            return self._gather_fallback(select, session, reason, key)
        if aggregates:
            try:
                return self._two_phase(select, session, key)
            except NumericOverflowError:
                # A shard's partial sum left int64; whether a group's whole
                # sum does is decided over the gathered rows.
                return self._gather_fallback(select, session, "partial-overflow", key)
        # GROUP BY without aggregates deduplicates like DISTINCT; the global
        # phase must dedup across shards.
        force_distinct = bool(select.group_by)
        return self._scatter_concat(select, session, key, force_distinct)

    def _explain_analyze(self, select: ast.Select, session, key) -> Result:
        """Distributed EXPLAIN ANALYZE: run the shard phase, then report the
        MPP shape (mode, shards, gather volume, skew, where the shards'
        plans came from) plus the coordinator's annotated global plan over
        the gathered partials."""
        global_select, relations = self._shard_phase(select, session, key)
        stats = self.last_stats
        head = "MPP %s: shards=%d rows_gathered=%d gather=%.3fms skew=%.2f" % (
            stats.mode,
            stats.shards_touched,
            stats.rows_gathered,
            stats.gather_seconds * 1e3,
            stats.skew_ratio,
        )
        total = sum(stats.plans.values())
        head += " plans=" + ", ".join(
            "%s %d/%d" % (origin, n, total) for origin, n in sorted(stats.plans.items())
        )
        if stats.fallback_reason:
            head += " columns=%d/%d reason=%s" % (
                stats.columns_pulled, stats.columns_total, stats.fallback_reason
            )
        lines = [head]
        if stats.worker_busy:
            lines.append(
                "  parallel: dop=%d workers=%d busy=[%s]ms"
                % (
                    stats.parallelism,
                    len(stats.worker_busy),
                    ", ".join(
                        "%.3f" % (s * 1e3) for _, s in sorted(stats.worker_busy.items())
                    ),
                )
            )
        for sid in sorted(stats.elapsed_by_shard):
            lines.append(
                "  shard %d (%s): %.3fms"
                % (sid, self.assignment[sid], stats.elapsed_by_shard[sid] * 1e3)
            )
        lines.append("  coordinator plan:")
        explain = ast.ExplainStatement(global_select, analyze=True)
        coord = self.coordinator.execute_ast(
            explain, session.inner, relations=relations
        )
        lines.extend("    " + row[0] for row in coord.rows)
        return Result(columns=["PLAN"], rows=[(l,) for l in lines], rowcount=len(lines))

    def monreport(self) -> dict:
        """Cluster MONREPORT analogue (topology, pools, last query)."""
        from repro.monitor.report import cluster_report

        return cluster_report(self)

    def serving_recommendation(
        self,
        offered_qps: float,
        measurement,
        hit_rate: float = 0.0,
        hit_seconds: float = 0.0,
        weights: dict[str, float] | None = None,
    ):
        """Size this cluster for an offered serving load.

        Runs the serving capacity sizer (:func:`repro.serving.sizer.recommend`)
        against the *smallest live node's* hardware — the same conservative
        floor the shard rule uses — so the recommendation can be compared
        directly with the current topology: ``rec.nodes`` vs
        ``len(self.live_nodes())`` answers "is this cluster big enough for
        that traffic".
        """
        from repro.serving.sizer import recommend

        live = self.live_nodes()
        if not live:
            raise ClusterError("no live node to size against")
        floor = min((n.hardware for n in live), key=lambda h: h.cores)
        return recommend(
            offered_qps,
            measurement,
            floor,
            hit_rate=hit_rate,
            hit_seconds=hit_seconds,
            weights=weights,
        )

    def _needs_gather_fallback(self, select: ast.Select) -> str | None:
        """The reason this statement's shape cannot be scattered, or None."""
        if select.set_op is not None:
            return "set-op"
        if select.ctes:
            return "cte"
        if _contains_subquery(select):
            return "subquery"
        # FROM items referencing only coordinator objects (views, DUAL)?
        for item in select.from_items:
            for ref in _table_refs(item):
                if ref.name.upper() not in self.tables and ref.name.upper() != "DUAL":
                    return "coordinator-object"
        if not select.from_items:
            return "no-from"
        return None

    def _run_on_shards(self, select: ast.Select, session, key) -> list[Result]:
        """Scatter one statement to every shard.

        Shards dispatch onto the cluster worker pool in ascending shard-id
        order and the pool gathers results in that same submission order,
        so downstream combines (gather table inserts, two-phase global
        aggregation) see a deterministic shard sequence at any DOP.  Each
        shard runs the fragment under one key (:func:`_fragment_key`), so
        a repeat only binds the plan its engine cached.
        """
        fragment = _fragment_key(select, key)
        shard_ids = sorted(self.shards)
        for sid in shard_ids:
            self._check_owner_alive(sid)
        dialect = session.dialect.name
        # Coordinator-consistent reads: every shard scans through a
        # snapshot pinned atomically w.r.t. cluster commits.
        pinned = self._pin_snapshots()

        def run_shard(sid: int) -> Result:
            shard = self.shards[sid]
            shard_session = shard.engine.connect(dialect)
            return shard.engine.execute_ast(
                select, shard_session, snapshot=pinned.get(sid), key=fragment
            )

        results = self.pool.map(run_shard, shard_ids, label="scatter")
        plans = self.last_stats.plans
        for result in results:
            plans[result.plan] = plans.get(result.plan, 0) + 1
        run = self.pool.last_run
        elapsed: dict[str, float] = {}
        elapsed_shard: dict[int, float] = {}
        for span in run.spans:
            sid = shard_ids[span.index]
            node_id = self.assignment[sid]
            elapsed[node_id] = elapsed.get(node_id, 0.0) + span.seconds
            elapsed_shard[sid] = elapsed_shard.get(sid, 0.0) + span.seconds
        self.last_stats.shards_touched = len(results)
        self.last_stats.elapsed_by_node = elapsed
        self.last_stats.elapsed_by_shard = elapsed_shard
        self.last_stats.parallelism = self.parallelism
        self.last_stats.worker_busy = run.worker_busy()
        if elapsed_shard:
            mean = sum(elapsed_shard.values()) / len(elapsed_shard)
            self.last_stats.skew_ratio = (
                max(elapsed_shard.values()) / mean if mean > 0 else 1.0
            )
        if self.clock is not None and elapsed:
            # Nodes work in parallel; within a node, its shards' spans run
            # on the configured worker slots — simulated elapsed time is
            # the slowest node's makespan (max over nodes), never a sum
            # across nodes.  At parallelism=1 this is the plain per-node
            # sum, the pre-parallel clock model.
            per_node = []
            for node_id in elapsed:
                spans = [
                    elapsed_shard[sid]
                    for sid in shard_ids
                    if self.assignment[sid] == node_id and sid in elapsed_shard
                ]
                per_node.append(greedy_makespan(spans, self.parallelism))
            self.clock.advance(max(per_node))
        return results

    def _gather(self, results: list[Result], name: str = _GATHER_TABLE) -> MaterialRel:
        """The shards' partial vectors as one relation called *name*.

        Each column is concatenated across shards in shard-id order — the
        order every downstream combine sees — after checking that every
        shard answered with exactly the first shard's types (concat would
        coerce silently).
        """
        t0 = time.perf_counter()  # lint-ok: wall-clock (gather_seconds is a reported wall metric, never charged to the sim clock)
        template = results[0]
        schema = TableSchema(name, tuple(zip(template.columns, template.dtypes)))
        for result in results:
            schema.check_vectors(result.vectors)
        vectors = [
            ColumnVector.concat(parts) for parts in zip(*(r.vectors for r in results))
        ]
        self.last_stats.rows_gathered += len(vectors[0])
        self.last_stats.gather_seconds += time.perf_counter() - t0  # lint-ok: wall-clock (same reported wall metric as above)
        return vector_relation(name, template.columns, template.dtypes, vectors)

    def _scatter_concat(self, select: ast.Select, session, key, force_distinct=False):
        """Non-aggregate scatter: shards run the body, coordinator finishes."""
        self.last_stats.mode = "scatter"
        partial = ast.Select(
            items=select.items,
            distinct=select.distinct,
            from_items=select.from_items,
            where=select.where,
            group_by=select.group_by,
            having=select.having,
            connect_by=select.connect_by,
        )
        # LIMIT n (without OFFSET) can also run on each shard.
        if select.limit is not None and select.offset is None and not select.order_by:
            partial.limit = select.limit
            partial.limit_syntax = "fetch"
        results = self._run_on_shards(partial, session, key)
        template = results[0]
        global_select = ast.Select(
            items=[
                ast.SelectItem(ast.Identifier([c]), alias=c) for c in template.columns
            ],
            distinct=select.distinct or force_distinct,
            from_items=[ast.TableRef([_GATHER_TABLE])],
            order_by=_order_for_gather(select, template.columns),
            limit=select.limit,
            limit_syntax="fetch" if select.limit is not None else None,
            offset=select.offset,
        )
        return global_select, {_GATHER_TABLE: self._gather(results)}

    def _two_phase(self, select: ast.Select, session, key):
        """Split aggregates into shard partials plus a global combine.

        DISTINCT aggregates (one shared argument, see :func:`_unsplittable`)
        make the shards group by that argument as well: every shard answers
        its distinct values per group, with the other aggregates' partials
        spread over them, and the coordinator aggregates DISTINCT over the
        union — exact, whatever the distribution key.
        """
        self.last_stats.mode = "two-phase"
        rewriter = _AggregateSplitter()
        group_by = _group_key_exprs(select)
        # Partial select: group-key expressions + partial aggregates.
        partial_items = []
        for i, g in enumerate(group_by):
            partial_items.append(ast.SelectItem(g, alias="__G%d" % i))
        global_items = []
        for index, item in enumerate(select.items):
            alias = item.alias or _default_name(item.expr, index)
            global_items.append(
                ast.SelectItem(rewriter.rewrite(item.expr, group_by), alias)
            )
        global_having = (
            rewriter.rewrite(select.having, group_by)
            if select.having is not None
            else None
        )
        global_order = []
        for item in select.order_by:
            if isinstance(item.expr, ast.NumberLit):
                global_order.append(item)
            else:
                global_order.append(
                    ast.OrderItem(
                        rewriter.rewrite(item.expr, group_by),
                        item.ascending,
                        item.nulls_first,
                    )
                )
        partial_group_by = list(group_by)
        if rewriter.distinct_arg is not None:
            partial_items.append(
                ast.SelectItem(rewriter.distinct_arg, alias=_DISTINCT_COLUMN)
            )
            partial_group_by.append(rewriter.distinct_arg)
        partial_items.extend(rewriter.partial_items)
        partial = ast.Select(
            items=partial_items,
            from_items=select.from_items,
            where=select.where,
            group_by=partial_group_by,
            connect_by=select.connect_by,
        )
        results = self._run_on_shards(partial, session, key)
        global_select = ast.Select(
            items=global_items,
            from_items=[ast.TableRef([_GATHER_TABLE])],
            group_by=[ast.Identifier(["__G%d" % i]) for i in range(len(group_by))],
            having=global_having,
            order_by=global_order,
            limit=select.limit,
            limit_syntax="fetch" if select.limit is not None else None,
            offset=select.offset,
            distinct=select.distinct,
        )
        return global_select, {_GATHER_TABLE: self._gather(results)}

    def _gather_fallback(self, select: ast.Select, session, reason: str, key):
        """Gather what the statement can read of every referenced cluster
        table, under the table's own name, and run the statement locally."""
        stats = self.last_stats
        stats.mode = "gather-fallback"
        stats.fallback_reason = reason
        self.fallback_counts[reason] = self.fallback_counts.get(reason, 0) + 1
        referenced, names = self._reachable(select)
        relations = {}
        for table in sorted(referenced):
            columns = self.coordinator.catalog.get_table(table).table.schema.column_names
            # ``names is None``: a ``*`` somewhere reads every column.  A
            # table none of whose columns is named still owes its row count.
            wanted = columns if names is None else (
                [c for c in columns if c in names] or columns[:1]
            )
            stats.columns_pulled += len(wanted)
            stats.columns_total += len(columns)
            pull = ast.Select(
                items=[ast.SelectItem(ast.Identifier([c])) for c in wanted],
                from_items=[ast.TableRef([table])],
            )
            relations[table] = self._gather(self._run_on_shards(pull, session, key), table)
        return select, relations

    def _reachable(self, select: ast.Select) -> tuple[set[str], set[str] | None]:
        """Cluster tables referenced directly or through coordinator views
        (views recompile at the coordinator, so their base data must be
        gathered too), and every name the statement or a reached view uses
        as a column — None when one of them has a ``*``.  The names are
        not resolved to tables: pulling a column too many is harmless."""
        from repro.catalog.catalog import ViewInfo

        tables: set[str] = set()
        names: set[str] = set()
        every_column = False
        seen_views: set[str] = set()
        queue = [select]
        while queue:
            for item in _ast_walk(queue.pop()):
                if isinstance(item, ast.Identifier):
                    names.add(item.parts[-1].upper())
                elif isinstance(item, ast.Star):
                    every_column = True
                elif isinstance(item, ast.Join) and item.using is not None:
                    names.update(c.upper() for c in item.using)
                    every_column |= not item.using  # NATURAL: the common columns
                elif isinstance(item, ast.TableRef):
                    name = item.name.upper()
                    if name in self.tables:
                        tables.add(name)
                    elif name not in seen_views:
                        view = self.coordinator.catalog.try_resolve(name, item.schema)
                        if isinstance(view, ViewInfo):
                            seen_views.add(name)
                            parsed = parse_statement(view.text)
                            if isinstance(parsed, ast.Select):
                                queue.append(parsed)
        return tables, None if every_column else names


# --------------------------------------------------------------------------
# AST utilities for the splitter
# --------------------------------------------------------------------------


def _ast_walk(node):
    yield node
    if not hasattr(node, "__dataclass_fields__"):
        return
    for name in node.__dataclass_fields__:
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            yield from _ast_walk(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    yield from _ast_walk(item)
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, ast.Node):
                            yield from _ast_walk(sub)


def _collect_aggregates(select: ast.Select) -> list[ast.FunctionCall]:
    out = []
    roots = [i.expr for i in select.items]
    if select.having is not None:
        roots.append(select.having)
    for item in select.order_by:
        roots.append(item.expr)
    for root in roots:
        for node in _ast_walk(root):
            if isinstance(node, ast.FunctionCall) and node.name.upper() in _AGG_NAMES:
                out.append(node)
    return out


def _unsplittable(aggregates: list[ast.FunctionCall]) -> str | None:
    """Why these aggregates cannot be combined from shard partials, or None.

    COUNT/SUM/AVG/MIN/MAX split; so do their DISTINCT forms as long as all
    of them aggregate one and the same argument, which the shards can then
    group by (:meth:`Cluster._two_phase`).
    """
    distinct_args = set()
    for a in aggregates:
        name = a.name.upper()
        if name not in _SPLITTABLE:
            return "unsplittable-aggregate: %s%s" % (
                name, "(DISTINCT)" if a.distinct else ""
            )
        if a.distinct and name in _DISTINCT_SENSITIVE:
            distinct_args.add(_ast_signature(a.args[0]))
            if len(distinct_args) > 1:
                return "unsplittable-aggregate: %s(DISTINCT)" % name
    return None


def _contains_subquery(select: ast.Select) -> bool:
    for node in _ast_walk(select):
        if node is select:
            continue
        if isinstance(node, (ast.ScalarSubquery, ast.ExistsExpr)):
            return True
        if isinstance(node, ast.InExpr) and node.subquery is not None:
            return True
        if isinstance(node, ast.SubqueryRef):
            return True
    return False


def _table_refs(item):
    if isinstance(item, ast.TableRef):
        yield item
    elif isinstance(item, ast.Join):
        yield from _table_refs(item.left)
        yield from _table_refs(item.right)


#: AST class -> the fields a node's identity is made of (a literal's
#: token ``slot`` is not one: it is ``compare=False``).
_IDENTITY: dict[type, tuple[str, ...]] = {}
_SLOTTED = (ast.NumberLit, ast.StringLit, ast.TypedLit)


def _ast_signature(node, slots: list | None = None):
    """*node* as a hashable value, equal for equal nodes wherever in the
    statement their literals were spelled.

    Given a *slots* list, a literal that a token spelled stands as its
    slot instead of its value, and the slot is appended to *slots*: that
    is *node*'s template, which each statement's tokens fill in."""
    if isinstance(node, (list, tuple)):
        return tuple([_ast_signature(item, slots) for item in node])
    if not isinstance(node, ast.Node):
        return node
    cls = type(node)
    if slots is not None and cls in _SLOTTED and node.slot is not None:
        slots.append(node.slot)
        return ("?", cls.__name__, getattr(node, "type_name", None), node.slot)
    names = _IDENTITY.get(cls)
    if names is None:
        names = _IDENTITY[cls] = tuple([f.name for f in fields(cls) if f.compare])
    return (cls.__name__,) + tuple(
        [_ast_signature(getattr(node, name), slots) for name in names]
    )


def _fragment_key(fragment: ast.Select, key) -> FragmentKey | StatementKey | None:
    """The plan-cache key the shards run *fragment* under, for the
    statement whose *key* it was rewritten from (None: no key, and each
    shard plans for itself).

    Not the statement's template: the rewrite reads literal values
    (``SUM(a+1)+SUM(a+2)`` makes two partial columns, ``SUM(a+3)+SUM(a+3)``
    one), so a fragment is keyed by its own structure with each slotted
    literal standing as its slot.  The plan cache pins every slot a plan
    does not bind late, so a GROUP BY ordinal or ``FETCH FIRST n`` the
    fragment holds stays exact.  A key that bypasses the cache is passed
    as it is: the shard only counts why."""
    if key is None or key.bypass is not None:
        return key
    slots: list[int] = []
    template = _ast_signature(fragment, slots)
    return FragmentKey(key.tokens, None, template, tuple(sorted(set(slots))))


class _AggregateSplitter:
    """Rewrites expressions: aggregate calls -> combines over partials."""

    def __init__(self):
        self.partial_items: list[ast.SelectItem] = []
        self._counter = 0
        self._memo: dict[tuple, ast.ExprNode] = {}
        #: The argument the statement's DISTINCT aggregates share, once one
        #: was met: shards answer it as ``__D0`` and group by it.
        self.distinct_arg: ast.ExprNode | None = None

    def _fresh(self) -> str:
        self._counter += 1
        return "__P%d" % self._counter

    def rewrite(self, node, group_by):
        signature = _ast_signature(node)
        for i, g in enumerate(group_by):
            if signature == _ast_signature(g):
                return ast.Identifier(["__G%d" % i])
        if isinstance(node, ast.FunctionCall) and node.name.upper() in _AGG_NAMES:
            return self._split_aggregate(node)
        return self._rewrite_children(node, group_by)

    def _rewrite_children(self, node, group_by):
        if not isinstance(node, ast.Node):
            return node
        clone = copy.copy(node)
        for name in clone.__dataclass_fields__:
            value = getattr(clone, name)
            if isinstance(value, ast.ExprNode):
                setattr(clone, name, self.rewrite(value, group_by))
            elif isinstance(value, list):
                new_list = []
                for item in value:
                    if isinstance(item, ast.ExprNode):
                        new_list.append(self.rewrite(item, group_by))
                    elif isinstance(item, tuple):
                        new_list.append(
                            tuple(
                                self.rewrite(x, group_by) if isinstance(x, ast.ExprNode) else x
                                for x in item
                            )
                        )
                    else:
                        new_list.append(item)
                setattr(clone, name, new_list)
        return clone

    def _split_aggregate(self, call: ast.FunctionCall) -> ast.ExprNode:
        signature = _ast_signature(call)
        if signature in self._memo:
            return self._memo[signature]
        func = call.name.upper()
        if call.distinct and func in _DISTINCT_SENSITIVE:
            self.distinct_arg = call.args[0]
            combined = ast.FunctionCall(
                func, [ast.Identifier([_DISTINCT_COLUMN])], distinct=True
            )
        elif func in ("COUNT",):
            alias = self._fresh()
            self.partial_items.append(ast.SelectItem(call, alias=alias))
            # A COUNT is never NULL, even when no shard answered a row
            # (shards grouping by a DISTINCT argument over no data).
            combined = ast.FunctionCall(
                "COALESCE",
                [ast.FunctionCall("SUM", [ast.Identifier([alias])]), ast.NumberLit("0")],
            )
        elif func in ("SUM", "MIN", "MAX"):
            alias = self._fresh()
            self.partial_items.append(ast.SelectItem(call, alias=alias))
            combined = ast.FunctionCall(func, [ast.Identifier([alias])])
        elif func == "AVG":
            sum_alias = self._fresh()
            count_alias = self._fresh()
            self.partial_items.append(
                ast.SelectItem(ast.FunctionCall("SUM", [call.args[0]]), alias=sum_alias)
            )
            self.partial_items.append(
                ast.SelectItem(ast.FunctionCall("COUNT", [call.args[0]]), alias=count_alias)
            )
            combined = ast.BinaryOp(
                "/",
                ast.CastExpr(
                    ast.FunctionCall("SUM", [ast.Identifier([sum_alias])]), "DOUBLE"
                ),
                ast.FunctionCall("SUM", [ast.Identifier([count_alias])]),
            )
        else:  # pragma: no cover - guarded by _SPLITTABLE
            raise UnsupportedFeatureError("cannot split aggregate %s" % func)
        self._memo[signature] = combined
        return combined


def _group_key_exprs(select: ast.Select) -> list:
    """GROUP BY keys with ordinals replaced by the select item they name.

    The shards receive a different select list (``__G``/``__P`` columns),
    and the coordinator matches key expressions against the original
    items, so a position has to become its expression before the split.
    """
    keys = []
    for g in select.group_by:
        if isinstance(g, ast.NumberLit):
            g = select.items[ordinal_index(g, len(select.items), "GROUP BY")].expr
        keys.append(g)
    return keys


def _order_for_gather(select: ast.Select, columns: list[str]):
    """ORDER BY items usable over the gather table (ordinals/output names)."""
    out = []
    for item in select.order_by:
        expr = item.expr
        if isinstance(expr, ast.NumberLit):
            out.append(item)
        elif isinstance(expr, ast.Identifier) and expr.parts[-1].upper() in columns:
            out.append(ast.OrderItem(ast.Identifier([expr.parts[-1].upper()]),
                                     item.ascending, item.nulls_first))
        else:
            raise UnsupportedFeatureError(
                "distributed ORDER BY must use output columns or ordinals"
            )
    return out
