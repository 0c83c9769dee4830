"""The DurabilityManager: glue between an engine, its WAL, and checkpoints.

One manager serves one :class:`~repro.database.database.Database` (in a
cluster, one per shard — each shard's log and checkpoints live inside its
own fileset on the clustered filesystem, paper II.E).  The engine's
statement machinery drives it through three hooks:

* ``log_op(kind, table, payload)`` — called at each mutation point while a
  statement executes (logical redo records: inserted boundary rows,
  deleted physical row indices, DDL definitions);
* ``commit()`` — called once per successful statement (auto-commit = one
  transaction); appends the ``commit`` record and group-commits;
* ``abort()`` — called when a statement raises; its records never reach
  the log.

Recovery (:meth:`DurabilityManager.recover`) is ARIES-style redo without
undo: restore the newest complete checkpoint, then replay every *committed*
transaction past the checkpoint LSN, in commit order.  Because only
committed transactions replay and the WAL tail is checksum-truncated,
committed data always survives a crash and uncommitted data never
resurrects.

Following the simulation-for-prototyping approach (Wang & Wang 2022), log
and checkpoint I/O is *charged to the simulated clock* via
:class:`DurabilityCosts`, so group-commit batching, checkpoint frequency,
and log length have measurable time consequences (see
``benchmarks/test_recovery_time.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.durability.checkpoint import (
    CheckpointStore,
    restore_snapshot,
    snapshot_database,
)
from repro.durability.faults import NULL_INJECTOR
from repro.durability.wal import WriteAheadLog, committed_transactions
from repro.errors import CrashError, RecoveryError
from repro.storage.filesystem import ClusterFileSystem
from repro.verify import sanitizer


@dataclass(frozen=True)
class DurabilityCosts:
    """Simulated-time costs of durability I/O (SSD-class, cf. the
    ``io_seconds_per_mb`` scale of :mod:`repro.baselines.costmodel`)."""

    #: One group-commit flush = one fsync on the clustered FS.
    fsync_seconds: float = 0.002
    #: Sequential log append bandwidth.
    log_seconds_per_mb: float = 0.02
    #: Checkpoint write bandwidth (compress + write + fsync per table).
    checkpoint_seconds_per_mb: float = 0.05
    #: Checkpoint read bandwidth during recovery.
    checkpoint_load_seconds_per_mb: float = 0.02
    #: Per-record redo apply cost during replay.
    replay_seconds_per_record: float = 0.001


DEFAULT_DURABILITY_COSTS = DurabilityCosts()


@dataclass
class RecoveryReport:
    """What one ``recover()`` did, and what it cost on the sim clock."""

    checkpoint_lsn: int = 0
    checkpoint_bytes: int = 0
    transactions_replayed: int = 0
    records_replayed: int = 0
    torn_tail_detected: bool = False
    sim_seconds: float = 0.0


class _Host:
    """Whether the simulated host is up, entered around every durable step.

    An injected fault kills the host, not the thread it fired on: once a
    :class:`CrashError` escapes one step, every later step on any thread
    raises too (no session flushes what the crash left buffered) until
    :meth:`DurabilityManager.crash` restarts it."""

    __slots__ = ("down",)

    def __init__(self):
        self.down: CrashError | None = None

    def __enter__(self) -> None:
        if self.down is not None:
            raise CrashError("host is down (%s)" % self.down)

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, CrashError):
            self.down = exc


class DurabilityManager:
    """WAL + checkpoint lifecycle for one engine."""

    def __init__(
        self,
        filesystem: ClusterFileSystem,
        path: str = "db",
        clock=None,
        injector=None,
        costs: DurabilityCosts = DEFAULT_DURABILITY_COSTS,
        group_commit: int = 1,
    ):
        if group_commit < 1:
            raise ValueError("group_commit must be >= 1")
        self.filesystem = filesystem
        self.path = path.rstrip("/")
        self.clock = clock
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.costs = costs
        self.group_commit = group_commit
        self.wal = WriteAheadLog(filesystem, "%s/wal.log" % self.path, self.injector)
        self.store = CheckpointStore(
            filesystem, "%s/checkpoints" % self.path, self.injector
        )
        self.database = None
        #: Serialises WAL appends / group commits across sessions.  The
        #: engine's statement lock does not cover durability (EXPLAIN and
        #: MPP shard work drive the manager from other threads), so the
        #: manager owns its own reentrant lock (checkpoint -> flush).
        self._lock = sanitizer.make_lock(
            "durability:%s" % self.path, reentrant=True
        )
        #: Per-thread statement buffers.  Each session thread buffers the
        #: redo ops of *its own* in-flight statement; a shared buffer here
        #: was a genuine cross-session bug (found by the model checker's
        #: concurrent insert/abort scenario): thread B's ``abort()`` could
        #: drop thread A's buffered ops, and A's ``commit()`` could claim
        #: B's ops under A's txid, because statements execute outside the
        #: engine's statement lock's critical section for dispatch.
        self._txn_tls = threading.local()
        #: Bumped by :meth:`crash` so every thread's buffered (volatile)
        #: statement ops are discarded, not just the crashing thread's.
        self._txn_epoch = 0
        self._host = _Host()
        self._next_txid = 1
        self._unflushed_commits = 0
        self._seq_shadow: dict[str, int | None] = {}
        self.stats = {
            "wal_appends": 0,
            "wal_flushes": 0,
            "wal_flushed_bytes": 0,
            "commits": 0,
            "group_commit_batches": 0,
            "checkpoints": 0,
            "checkpoint_bytes": 0,
            "recoveries": 0,
        }
        self.last_recovery: RecoveryReport | None = None

    # -- attachment ----------------------------------------------------------

    def attach(self, database) -> None:
        self.database = database

    def _charge(self, seconds: float) -> None:
        if self.clock is not None and seconds > 0:
            self.clock.advance(seconds)

    def _metric(self, name: str, amount: int = 1) -> None:
        db = self.database
        if db is not None and db.tracer.enabled:
            db.metrics.counter("durability.%s" % name).inc(amount)

    # -- the commit protocol -------------------------------------------------

    def _txn_ops(self) -> list:
        """This thread's statement buffer (reset after a crash epoch)."""
        tls = self._txn_tls
        ops = getattr(tls, "ops", None)
        if ops is None or getattr(tls, "epoch", -1) != self._txn_epoch:
            ops = tls.ops = []
            tls.epoch = self._txn_epoch
        return ops

    def log_op(self, kind: str, table: str | None, payload) -> None:
        """Buffer one redo op for the statement this thread is executing.

        The buffer is thread-confined, so no lock is needed; the access
        point (thread-qualified, so Eraser sees the confinement) remains an
        interleaving point for the model checker.
        """
        if sanitizer.ENABLED:
            sanitizer.access(
                "durability:%s" % self.path,
                "txn_ops@%s" % threading.current_thread().name,
                site="DurabilityManager.log_op",
            )
        self._txn_ops().append((kind, table, payload))

    def log_insert(self, table: str, rows) -> None:
        self.log_op("insert", table, [tuple(r) for r in rows])

    def log_delete(self, table: str, mask: np.ndarray) -> None:
        """Record a tombstone mask as (physical size, deleted indices)."""
        self.log_op(
            "delete", table, (int(mask.size), np.flatnonzero(mask).tolist())
        )

    def abort(self) -> None:
        """Drop this thread's buffered ops (its statement failed).  Other
        sessions' in-flight statements are untouched."""
        if sanitizer.ENABLED:
            sanitizer.access(
                "durability:%s" % self.path,
                "txn_ops@%s" % threading.current_thread().name,
                site="DurabilityManager.abort",
            )
        self._txn_ops().clear()

    def commit(self, txn_meta: dict | None = None) -> bool:
        """End the current auto-commit transaction.

        Appends the ops plus a ``commit`` record and group-commits: the
        WAL flushes once every ``group_commit`` commits (or on explicit
        :meth:`flush`).  ``txn_meta`` (e.g. the engine's MVCC txid and
        commit sequence) rides in the commit record's payload — recovery
        replays versions from *committed* transactions only and stamps
        them ancient, which is how an uncommitted load's versions get
        pruned: its ops never made it past a commit record, so redo never
        recreates them.  Returns True when the commit is already durable.
        """
        with self._lock, self._host:
            if sanitizer.ENABLED:
                sanitizer.access(
                    "durability:%s" % self.path, "wal_append",
                    site="DurabilityManager.commit",
                )
            ops = self._txn_ops()
            seq_delta = self._sequence_delta()
            if not ops and seq_delta is None:
                return self.wal.pending_count == 0
            txid = self._next_txid
            self._next_txid += 1
            for kind, table, payload in ops:
                self.wal.append(kind, (table, payload), txid)
                self.stats["wal_appends"] += 1
            if seq_delta is not None:
                self.wal.append("seq", (None, seq_delta), txid)
                self.stats["wal_appends"] += 1
            self.wal.append("commit", txn_meta, txid)
            self.stats["wal_appends"] += 1
            self.stats["commits"] += 1
            self._metric("commits")
            ops.clear()
            self._unflushed_commits += 1
            if self._unflushed_commits >= self.group_commit:
                self.flush()
                return True
            return False

    def _sequence_delta(self) -> dict | None:
        """Sequence positions changed since the last commit (NEXTVAL state
        is durable even when consumed by pure queries)."""
        db = self.database
        if db is None:
            return None
        current = {
            name: db.catalog.get_sequence(name)._current
            for name in db.catalog.sequence_names()
        }
        delta = {
            name: value
            for name, value in current.items()
            if self._seq_shadow.get(name, "∅") != value
        }
        self._seq_shadow = current
        return delta or None

    def flush(self) -> int:
        """Force the group commit; returns bytes written."""
        with self._lock, self._host:
            if sanitizer.ENABLED:
                sanitizer.access(
                    "durability:%s" % self.path, "wal_append",
                    site="DurabilityManager.flush",
                )
            written = self.wal.flush()
            if written:
                batched = self._unflushed_commits
                self._unflushed_commits = 0
                self.stats["wal_flushes"] += 1
                self.stats["group_commit_batches"] += batched
                self.stats["wal_flushed_bytes"] += written
                self._metric("wal.flushes")
                self._metric("wal.flushed_bytes", written)
                self._charge(
                    self.costs.fsync_seconds
                    + written / 2**20 * self.costs.log_seconds_per_mb
                )
            return written

    @property
    def durable_commits(self) -> int:
        """Commits whose records have reached the durable log."""
        return self.stats["commits"] - self._unflushed_commits

    # -- checkpoint ----------------------------------------------------------

    def checkpoint(self) -> int:
        """Fuzzy checkpoint: flush, snapshot, publish, truncate the log.

        Returns the checkpoint LSN."""
        if self.database is None:
            raise RecoveryError("no database attached to checkpoint")
        with self._lock, self._host:
            self.flush()
            lsn = self.wal.flushed_lsn
            with self.database.tracer.span("checkpoint", lsn=lsn):
                snapshot = snapshot_database(self.database)
                written = self.store.write(snapshot, lsn)
            self.stats["checkpoints"] += 1
            self.stats["checkpoint_bytes"] += written
            self._metric("checkpoints")
            self._metric("checkpoint_bytes", written)
            self._charge(written / 2**20 * self.costs.checkpoint_seconds_per_mb)
            self.wal.truncate_through(lsn)
            return lsn

    # -- crash & recovery ----------------------------------------------------

    def crash(self) -> None:
        """Simulate the host dying: everything volatile is lost — the
        statement in flight, buffered (unflushed) WAL records, and the
        commits they carried."""
        with self._lock:
            self._host.down = None  # the host restarts
            self._txn_epoch += 1  # drops every thread's buffered ops
            lost_commits = self._unflushed_commits
            self._unflushed_commits = 0
            self.stats["commits"] -= lost_commits
            self.wal.discard_pending()

    def recover(self) -> RecoveryReport:
        """ARIES-style redo: newest complete checkpoint + committed WAL.

        The attached database must present a fresh (empty) catalog; both
        :meth:`Database.reopen` and the failover path guarantee that.
        """
        db = self.database
        if db is None:
            raise RecoveryError("no database attached to recover into")
        report = RecoveryReport(torn_tail_detected=self.wal.torn_tail_detected)
        sim_start = self.clock.now if self.clock is not None else None
        with self._host, db.tracer.span("recover"):
            with db.tracer.span("checkpoint-load"):
                loaded = self.store.load_latest()
                if loaded is not None:
                    lsn, snapshot, nbytes = loaded
                    restore_snapshot(db, snapshot)
                    report.checkpoint_lsn = lsn
                    report.checkpoint_bytes = nbytes
                    self._charge(
                        nbytes / 2**20 * self.costs.checkpoint_load_seconds_per_mb
                    )
            with db.tracer.span("wal-replay"):
                records = [
                    r for r in self.wal.records() if r.lsn > report.checkpoint_lsn
                ]
                for txid, ops in committed_transactions(records):
                    self.injector.crash_point("recovery.replay")
                    for record in ops:
                        _apply_record(db, record)
                        report.records_replayed += 1
                    report.transactions_replayed += 1
                self._charge(
                    report.records_replayed * self.costs.replay_seconds_per_record
                )
        # Rebuild volatile bookkeeping from the recovered state.
        self._seq_shadow = {
            name: db.catalog.get_sequence(name)._current
            for name in db.catalog.sequence_names()
        }
        self.stats["recoveries"] += 1
        self._metric("recoveries")
        if sim_start is not None:
            report.sim_seconds = self.clock.now - sim_start
        self.last_recovery = report
        return report

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict:
        """The ``durability`` monreport section."""
        out = {
            "enabled": True,
            "path": self.path,
            "group_commit": self.group_commit,
            "wal_durable_records": len(self.wal.records()),
            "wal_durable_bytes": self.wal.durable_nbytes(),
            "wal_pending_records": self.wal.pending_count,
            "checkpoint_lsns": self.store.checkpoint_lsns(),
        }
        out.update(self.stats)
        if self.last_recovery is not None:
            last = self.last_recovery
            out["last_recovery"] = {
                "checkpoint_lsn": last.checkpoint_lsn,
                "transactions_replayed": last.transactions_replayed,
                "records_replayed": last.records_replayed,
                "torn_tail_detected": last.torn_tail_detected,
                "sim_seconds": last.sim_seconds,
            }
        return out


def recover(database) -> RecoveryReport:
    """Module-level convenience: replay ``database``'s log from its last
    checkpoint (the engine must have a durability manager attached)."""
    if database.durability is None:
        raise RecoveryError("database %s has no durability manager" % database.name)
    return database.durability.recover()


# --------------------------------------------------------------------------
# Redo application
# --------------------------------------------------------------------------


def _get_table(db, key):
    """Resolve a logged ``(schema, name)`` table key."""
    schema_name, name = key
    return db.catalog.get_table(name, schema_name).table


def _apply_record(db, record) -> None:
    table_key, payload = record.payload
    if record.kind == "insert":
        _get_table(db, table_key).insert_rows(payload)
    elif record.kind == "delete":
        size, indices = payload
        table = _get_table(db, table_key)
        if table.n_rows_physical() != size:
            raise RecoveryError(
                "redo mask for %s covers %d rows, table has %d — log and "
                "checkpoint disagree" % (table_key[1], size, table.n_rows_physical())
            )
        mask = np.zeros(size, dtype=bool)
        mask[indices] = True
        table.apply_deletes(mask)
    elif record.kind == "truncate":
        _get_table(db, table_key).truncate()
    elif record.kind == "seq":
        for name, current in payload.items():
            db.catalog.get_sequence(name)._current = current
    elif record.kind == "ddl":
        db.apply_ddl(payload)
    else:
        raise RecoveryError("unknown WAL record kind %r" % record.kind)

