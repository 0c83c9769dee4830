"""Durability: WAL, fuzzy checkpoints, crash recovery, fault injection.

The core invariant, checked from many angles here: after any crash at any
injection point, recovery restores a state equal to the oracle state after
*some prefix* of the committed statements, at least as long as everything
known durable before the crash — zero committed-data loss, zero
uncommitted-data resurrection.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ha
from repro.cluster.hardware import HardwareSpec
from repro.cluster.mpp import Cluster
from repro.database import Database
from repro.durability import (
    DurabilityManager,
    FaultInjector,
    WalRecord,
    decode_records,
)
from repro.durability.faults import INJECTION_POINTS
from repro.errors import ConstraintViolationError, CrashError, RecoveryError
from repro.mvcc import ANCIENT_TXID, FIRST_TXID, visible_rows
from repro.storage.filesystem import ClusterFileSystem
from repro.util.rng import derive_rng

#: REPRO_FAULTS=1 (the CI fault-injection leg) widens the randomized sweep.
N_HARNESS_SEEDS = 150 if os.environ.get("REPRO_FAULTS") else 50


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def make_db(fs=None, group_commit=1, injector=None, path="db", clock=None):
    fs = fs if fs is not None else ClusterFileSystem()
    manager = DurabilityManager(
        fs, path=path, group_commit=group_commit, injector=injector, clock=clock
    )
    return Database(name="DUT", durability=manager), fs


def dump(db) -> dict:
    """Order-independent fingerprint of every base table's contents."""
    session = db.connect()
    state = {}
    for name in db.table_names():
        columns = ", ".join(db.catalog.get_table(name).table.schema.column_names)
        rows = session.query("SELECT %s FROM %s" % (columns, name))
        state[name] = sorted(repr(tuple(map(str, r))) for r in rows)
    return state


def crash_and_recover(db):
    """Crash-restart, retrying when recovery itself is crash-injected."""
    for _ in range(8):
        try:
            return db.reopen(clean=False)
        except CrashError:
            continue
    raise AssertionError("recovery never completed")


def assert_versions_normalized(db) -> None:
    """Version-visibility oracle for a recovered engine.

    Txids are incarnation-local: after any recovery, no stamp from the
    dead incarnation may survive — region ``xmin`` cleared, ``xmax`` only
    0/ANCIENT, tail stamps likewise — and the row set a fresh snapshot
    sees through the MVCC oracle must equal the SQL-visible rows.
    """
    session = db.connect()
    for name in db.table_names():
        table = db.catalog.get_table(name).table
        for region in table.regions:
            assert region.xmin is None, (
                "%s: region xmin stamps survived recovery" % name
            )
            if region.xmax is not None:
                foreign = set(region.xmax.tolist()) - {0, ANCIENT_TXID}
                assert not foreign, (
                    "%s: dead-incarnation xmax stamps survived: %s"
                    % (name, foreign)
                )
        n = table.tail_rows
        assert not table._tail_xmin[:n].any(), "%s: tail xmin survived" % name
        assert set(table._tail_xmax[:n].tolist()) <= {0, ANCIENT_TXID}, name
        oracle_rows = len(visible_rows(table, db.txn.snapshot()))
        sql_rows = int(
            session.query("SELECT COUNT(*) FROM %s" % name)[0][0]
        )
        assert oracle_rows == sql_rows, (
            "%s: MVCC oracle sees %d row(s), SQL sees %d"
            % (name, oracle_rows, sql_rows)
        )


def verify_prefix_consistent(recovered: dict, logged: list[str], floor: int) -> int:
    """The recovered state must equal the oracle state after some prefix of
    the logged (state-changing) statements, no shorter than ``floor``."""
    oracle = Database(name="ORACLE")
    session = oracle.connect()
    states = [dump(oracle)]
    for sql in logged:
        session.execute(sql)
        states.append(dump(oracle))
    for n in range(floor, len(logged) + 1):
        if recovered == states[n]:
            return n
    raise AssertionError(
        "recovered state matches no committed prefix >= %d of %d statements:"
        "\nrecovered=%r" % (floor, len(logged), recovered)
    )


# --------------------------------------------------------------------------
# WAL framing
# --------------------------------------------------------------------------


class TestWalFraming:
    RECORDS = [
        WalRecord(i + 1, i + 1, "insert", ((None, "T"), [(i, "v%d" % i)]))
        for i in range(5)
    ]

    def test_round_trip(self):
        blob = b"".join(r.encode() for r in self.RECORDS)
        records, valid, torn = decode_records(blob)
        assert records == self.RECORDS
        assert valid == len(blob)
        assert torn is False

    def test_torn_tail_at_every_byte_offset(self):
        """A cut anywhere can only drop whole suffix records."""
        encoded = [r.encode() for r in self.RECORDS]
        blob = b"".join(encoded)
        boundaries = {0}
        total = 0
        for piece in encoded:
            total += len(piece)
            boundaries.add(total)
        for cut in range(len(blob) + 1):
            records, valid, torn = decode_records(blob[:cut])
            assert records == self.RECORDS[: len(records)]
            assert valid <= cut
            assert torn is (cut not in boundaries)

    def test_corrupt_byte_stops_decode_before_frame(self):
        encoded = [r.encode() for r in self.RECORDS]
        blob = b"".join(encoded)
        # Flip a byte inside the third record's body.
        offset = len(encoded[0]) + len(encoded[1]) + 12
        mutated = blob[:offset] + bytes([blob[offset] ^ 0xFF]) + blob[offset + 1:]
        records, valid, torn = decode_records(mutated)
        assert records == self.RECORDS[:2]
        assert torn is True

    def test_empty_blob(self):
        assert decode_records(b"") == ([], 0, False)


# --------------------------------------------------------------------------
# Commit semantics on a single engine
# --------------------------------------------------------------------------


class TestCommitSemantics:
    def test_committed_data_survives_crash(self):
        db, _ = make_db()
        session = db.connect()
        session.execute("CREATE TABLE t (k INT, v VARCHAR(8))")
        session.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        session.execute("UPDATE t SET v = 'z' WHERE k = 1")
        session.execute("DELETE FROM t WHERE k = 2")
        report = crash_and_recover(db)
        assert report.transactions_replayed == 4
        assert db.connect().query("SELECT k, v FROM t") == [(1, "z")]

    def test_commit_appends_under_the_manager_lock(self):
        # (drop-lock mutant in DurabilityManager.commit: the WAL appends
        # must run held, or concurrent sessions interleave their records.)
        from tests.test_mutation_gaps import _RecordingLock

        db, _ = make_db(group_commit=100)
        session = db.connect()
        session.execute("CREATE TABLE t (k INT)")
        manager = db.durability
        recorder = _RecordingLock(manager._lock)
        held = []
        append = manager.wal.append

        def spy(*args):
            held.append(recorder.held)
            return append(*args)

        manager._lock, manager.wal.append = recorder, spy
        session.execute("INSERT INTO t VALUES (1)")
        assert held == [True, True]  # the insert and its commit record

    def test_crash_discards_under_the_manager_lock(self):
        # (drop-lock mutant in DurabilityManager.crash: a commit on another
        # session must not interleave with the discard of the WAL tail.)
        from tests.test_mutation_gaps import _RecordingLock

        db, _ = make_db(group_commit=100)
        session = db.connect()
        session.execute("CREATE TABLE t (k INT)")
        manager = db.durability
        recorder = _RecordingLock(manager._lock)
        held = []
        discard = manager.wal.discard_pending

        def spy():
            held.append(recorder.held)
            return discard()

        manager._lock, manager.wal.discard_pending = recorder, spy
        db.reopen()
        assert held == [True]

    def test_group_commit_batches_flushes(self):
        db, _ = make_db(group_commit=3)
        session = db.connect()
        session.execute("CREATE TABLE g (k INT)")
        session.execute("INSERT INTO g VALUES (1)")
        assert db.durability.stats["wal_flushes"] == 0
        assert db.durability.durable_commits == 0
        session.execute("INSERT INTO g VALUES (2)")
        assert db.durability.stats["wal_flushes"] == 1
        assert db.durability.durable_commits == 3

    def test_unflushed_commits_lost_on_crash(self):
        db, _ = make_db(group_commit=10)
        session = db.connect()
        session.execute("CREATE TABLE g (k INT)")
        session.execute("INSERT INTO g VALUES (1)")
        db.durability.flush()
        session.execute("INSERT INTO g VALUES (2)")  # buffered only
        crash_and_recover(db)
        assert db.connect().query("SELECT k FROM g") == [(1,)]

    def test_clean_reopen_keeps_buffered_commits(self):
        db, _ = make_db(group_commit=10)
        session = db.connect()
        session.execute("CREATE TABLE g (k INT)")
        session.execute("INSERT INTO g VALUES (1)")
        db.reopen(clean=True)  # orderly shutdown flushes first
        assert db.connect().query("SELECT k FROM g") == [(1,)]

    def test_ctas_table_and_rows_survive_crash(self):
        # Mutants drop-wal@src/repro/database/database.py:901:16 and
        # :913:20 survived: CTAS logs its DDL and its bulk rows through a
        # dedicated path (the populating SELECT runs before the table
        # exists in the catalog), and no crash test covered it — dropping
        # either record silently lost the whole snapshot table (or its
        # contents) on recovery.
        db, _ = make_db()
        session = db.connect()
        session.execute("CREATE TABLE base (k INT, v INT)")
        session.execute("INSERT INTO base VALUES (1, 10), (2, 20)")
        session.execute(
            "CREATE TABLE snap AS (SELECT k, v FROM base) WITH DATA"
        )
        crash_and_recover(db)
        assert sorted(db.connect().query("SELECT k, v FROM snap")) == [
            (1, 10),
            (2, 20),
        ]

    def test_failed_statement_never_resurrects(self):
        db, _ = make_db()
        session = db.connect()
        session.execute("CREATE TABLE u (k INT PRIMARY KEY)")
        session.execute("INSERT INTO u VALUES (1)")
        with pytest.raises(ConstraintViolationError):
            session.execute("INSERT INTO u VALUES (1)")
        crash_and_recover(db)
        assert db.connect().query("SELECT k FROM u") == [(1,)]

    def test_temp_tables_are_not_logged(self):
        db, _ = make_db()
        session = db.connect()
        session.execute("CREATE TABLE real (k INT)")
        session.execute("CREATE TEMPORARY TABLE scratch (k INT)")
        session.execute("INSERT INTO scratch VALUES (1), (2)")
        kinds = [r.kind for r in db.durability.wal.records()]
        assert "insert" not in kinds  # only the CREATE of `real` is logged
        crash_and_recover(db)
        assert db.table_names() == ["REAL"]

    def test_sequence_positions_are_durable(self):
        db, _ = make_db()
        session = db.connect("oracle")
        session.execute("CREATE SEQUENCE sq")
        first = session.query("SELECT sq.NEXTVAL FROM DUAL")
        second = session.query("SELECT sq.NEXTVAL FROM DUAL")
        crash_and_recover(db)
        third = db.connect("oracle").query("SELECT sq.NEXTVAL FROM DUAL")
        values = [r[0][0] for r in (first, second, third)]
        assert values == sorted(set(values)), "NEXTVAL repeated after recovery"

    def test_ddl_objects_survive(self):
        db, _ = make_db()
        session = db.connect()
        session.execute("CREATE TABLE base (k INT, v INT)")
        session.execute("INSERT INTO base VALUES (1, 10), (2, 20)")
        session.execute("CREATE VIEW doubled AS SELECT k, v * 2 AS w FROM base")
        session.execute("CREATE ALIAS b2 FOR base")
        crash_and_recover(db)
        session = db.connect()
        assert session.query("SELECT w FROM doubled WHERE k = 2") == [(40,)]
        assert session.query("SELECT COUNT(*) FROM b2") == [(2,)]

    def test_recover_requires_manager(self):
        db = Database(name="PLAIN")
        with pytest.raises(RecoveryError):
            db.reopen()


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------


class TestCheckpoints:
    def test_checkpoint_truncates_wal(self):
        db, _ = make_db()
        session = db.connect()
        session.execute("CREATE TABLE c (k INT)")
        session.execute("INSERT INTO c VALUES (1)")
        assert len(db.durability.wal.records()) > 0
        lsn = db.checkpoint()
        assert lsn > 0
        assert db.durability.wal.records() == []
        assert db.durability.store.checkpoint_lsns() == [lsn]

    def test_recovery_is_checkpoint_plus_tail(self):
        db, _ = make_db()
        session = db.connect()
        session.execute("CREATE TABLE c (k INT)")
        session.execute("INSERT INTO c VALUES (1)")
        db.checkpoint()
        session.execute("INSERT INTO c VALUES (2)")
        report = crash_and_recover(db)
        assert report.checkpoint_lsn > 0
        assert report.transactions_replayed == 1  # only the post-ckpt insert
        assert db.connect().query("SELECT k FROM c ORDER BY 1") == [(1,), (2,)]

    def test_old_images_garbage_collected(self):
        db, _ = make_db()
        session = db.connect()
        session.execute("CREATE TABLE c (k INT)")
        first = db.checkpoint()
        session.execute("INSERT INTO c VALUES (1)")
        second = db.checkpoint()
        assert first != second
        assert db.durability.store.checkpoint_lsns() == [second]

    def test_unpublished_image_ignored_and_older_used(self):
        injector = FaultInjector()
        db, _ = make_db(injector=injector)
        session = db.connect()
        session.execute("CREATE TABLE c (k INT)")
        session.execute("INSERT INTO c VALUES (1)")
        good = db.checkpoint()
        session.execute("INSERT INTO c VALUES (2)")
        injector.arm("checkpoint.rename")
        with pytest.raises(CrashError):
            db.checkpoint()
        assert injector.fired == ["checkpoint.rename:crash"]
        # The second image was fully written but never published.
        assert db.durability.store.checkpoint_lsns() == [good]
        crash_and_recover(db)
        assert db.connect().query("SELECT k FROM c ORDER BY 1") == [(1,), (2,)]

    def test_torn_table_blob_demotes_whole_image(self):
        injector = FaultInjector()
        db, fs = make_db(injector=injector)
        session = db.connect()
        session.execute("CREATE TABLE c (k INT)")
        session.execute("INSERT INTO c VALUES (1)")
        db.checkpoint()
        session.execute("INSERT INTO c VALUES (2)")
        injector.arm("checkpoint.table", mode="torn", fraction=0.4)
        with pytest.raises(CrashError):
            db.checkpoint()
        crash_and_recover(db)
        assert db.connect().query("SELECT k FROM c ORDER BY 1") == [(1,), (2,)]

    def test_readers_unblocked_while_checkpointing(self):
        # "Fuzzy": the snapshot copies; the live table keeps answering.
        db, _ = make_db()
        session = db.connect()
        session.execute("CREATE TABLE c (k INT)")
        session.execute("INSERT INTO c VALUES (1)")
        db.checkpoint()
        assert session.query("SELECT COUNT(*) FROM c") == [(1,)]


# --------------------------------------------------------------------------
# Crash matrix: every injection point, both modes, several stages
# --------------------------------------------------------------------------

_MATRIX_SCRIPT = [
    "CREATE TABLE m (k INT, v VARCHAR(8))",
    "INSERT INTO m VALUES (1, 'a'), (2, 'b')",
    "CKPT",
    "INSERT INTO m VALUES (3, 'c')",
    "UPDATE m SET v = 'z' WHERE k = 1",
    "CKPT",
    "DELETE FROM m WHERE k = 2",
    "INSERT INTO m VALUES (4, 'd')",
]

_MATRIX_CASES = [
    (point, "crash", after) for point in INJECTION_POINTS for after in (0, 1, 2)
] + [
    (point, "torn", after)
    for point in ("wal.flush", "checkpoint.table")
    for after in (0, 1)
]


class TestCrashMatrix:
    @pytest.mark.parametrize("point,mode,after", _MATRIX_CASES)
    def test_crash_recover_verify(self, point, mode, after):
        injector = FaultInjector()
        injector.arm(point, mode=mode, after=after, fraction=0.6)
        db, _ = make_db(injector=injector)
        session = db.connect()
        logged, floor = [], 0
        for step in _MATRIX_SCRIPT:
            before = db.durability.stats["commits"]
            try:
                if step == "CKPT":
                    db.checkpoint()
                else:
                    session.execute(step)
            except CrashError:
                break
            if step != "CKPT" and db.durability.stats["commits"] > before:
                logged.append(step)
            floor = db.durability.durable_commits
        crash_and_recover(db)
        verify_prefix_consistent(dump(db), logged, floor)
        assert_versions_normalized(db)

    def test_every_point_actually_fires(self):
        """The matrix is not vacuous: each point triggers somewhere."""
        for point in INJECTION_POINTS:
            injector = FaultInjector()
            injector.arm(point)
            db, _ = make_db(injector=injector)
            session = db.connect()
            try:
                for step in _MATRIX_SCRIPT:
                    if step == "CKPT":
                        db.checkpoint()
                    else:
                        session.execute(step)
                crash_and_recover(db)  # recovery.replay fires here
            except CrashError:
                pass
            if not injector.fired:
                crash_and_recover(db)
            assert injector.fired == ["%s:crash" % point], point


class TestCrashStopsTheHost:
    """An injected fault kills the simulated host, not one thread: every
    later commit, on any session, raises until the engine reopens."""

    def _two_sessions(self, mode):
        injector = FaultInjector()
        db, _ = make_db(injector=injector)
        setup = db.connect()
        setup.execute("CREATE TABLE a (k INT)")
        setup.execute("CREATE TABLE b (k INT)")
        injector.arm("wal.flush", mode=mode, fraction=0.0)
        a_crashed = threading.Event()
        outcome = []

        def session_a():
            try:
                db.connect().execute("INSERT INTO a VALUES (1)")
                outcome.append("A committed")
            except CrashError:
                outcome.append("A crashed")
            finally:
                a_crashed.set()

        def session_b():
            assert a_crashed.wait(timeout=60)
            try:
                db.connect().execute("INSERT INTO b VALUES (2)")
                outcome.append("B committed")
            except CrashError:
                outcome.append("B crashed")

        threads = [threading.Thread(target=session_a), threading.Thread(target=session_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        return db, outcome

    def test_a_failed_commit_leaves_no_transaction_open(self):
        # The commit that crashes and the next INSERT on the down host
        # both abort their MVCC transactions: none stays active until reopen.
        injector = FaultInjector()
        db, _ = make_db(injector=injector)
        session = db.connect()
        session.execute("CREATE TABLE a (k INT)")
        injector.arm("wal.flush", mode="crash")
        for value in (1, 2):
            with pytest.raises(CrashError):
                session.execute("INSERT INTO a VALUES (%d)" % value)
        report = db.txn.report()
        assert report["active"] == 0 and report["aborted"] == 2, report
        crash_and_recover(db)
        assert db.connect().query("SELECT k FROM a") == []

    @pytest.mark.parametrize("mode", ["crash", "torn"])
    def test_a_second_session_cannot_flush_the_crashed_statement(self, mode):
        db, outcome = self._two_sessions(mode)
        assert outcome == ["A crashed", "B crashed"]
        with pytest.raises(CrashError):
            db.checkpoint()
        crash_and_recover(db)
        session = db.connect()
        assert session.query("SELECT k FROM a") == []
        assert session.query("SELECT k FROM b") == []
        session.execute("INSERT INTO b VALUES (3)")  # reopened: up again
        crash_and_recover(db)
        assert db.connect().query("SELECT k FROM b") == [(3,)]


# --------------------------------------------------------------------------
# Versioned WAL records: commit metadata, torn-commit rollback, pruning
# --------------------------------------------------------------------------


class TestVersionedWal:
    def test_commit_records_carry_txn_metadata(self):
        db, _ = make_db()
        session = db.connect()
        session.execute("CREATE TABLE t (k INT)")
        session.execute("INSERT INTO t VALUES (1)")
        session.execute("INSERT INTO t VALUES (2)")
        commits = [
            r for r in db.durability.wal.records() if r.kind == "commit"
        ]
        assert commits, "no commit records logged"
        txids = [r.payload["txn"] for r in commits]
        assert all(t >= FIRST_TXID for t in txids)
        assert txids == sorted(txids), "commit txids not monotonic"
        assert len(set(txids)) == len(txids), "txid reused across commits"

    def test_torn_tail_mid_commit_rolls_versions_back(self):
        """Cut the WAL *inside* the final commit record: the transaction's
        insert record survives the cut, but without its durable commit the
        redo pass must not replay it — and no version stamped by that
        transaction may exist in the recovered engine."""
        db, fs = make_db()
        session = db.connect()
        session.execute("CREATE TABLE t (k INT)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute("INSERT INTO t VALUES (3), (4)")
        blob = fs.read_file("db/wal.log")
        records, _valid, _torn = decode_records(blob)
        last = records[-1]
        assert last.kind == "commit"
        cut = len(blob) - len(last.encode()) // 2  # tear mid-commit-record
        torn_fs = ClusterFileSystem()
        torn_fs.write_file("db/wal.log", blob[:cut], cut, durable=True)
        manager = DurabilityManager(torn_fs, path="db")
        recovered = Database(name="TORN", durability=manager)
        manager.recover()
        rows = sorted(recovered.connect().query("SELECT k FROM t"))
        assert rows == [(1,), (2,)], (
            "torn commit leaked or lost rows: %r" % (rows,)
        )
        assert_versions_normalized(recovered)

    def test_crash_mid_commit_prunes_uncommitted_versions(self):
        """Buffered (group-commit) transactions die with the crash: their
        rows, and every version stamp they made, must vanish — while the
        flushed prefix survives with all stamps collapsed to ancient."""
        db, _ = make_db(group_commit=8)
        session = db.connect()
        session.execute("CREATE TABLE t (k INT)")
        session.execute("INSERT INTO t VALUES (1)")
        db.durability.flush()
        session.execute("INSERT INTO t VALUES (2)")   # volatile commit
        session.execute("DELETE FROM t WHERE k = 1")  # volatile tombstone
        crash_and_recover(db)
        rows = sorted(db.connect().query("SELECT k FROM t"))
        assert rows == [(1,)], (
            "crash mid group-commit: expected the flushed prefix, got %r"
            % (rows,)
        )
        assert_versions_normalized(db)
        assert db.txn.report()["active"] == 0


# --------------------------------------------------------------------------
# Randomized crash–recover–verify harness
# --------------------------------------------------------------------------


def _random_statement(rng, next_key):
    roll = rng.random()
    if roll < 0.55:
        n = int(rng.integers(1, 4))
        values = ", ".join(
            "(%d, %d)" % (next_key + i, int(rng.integers(0, 100)))
            for i in range(n)
        )
        return "INSERT INTO w VALUES " + values, next_key + n
    if roll < 0.75:
        return (
            "UPDATE w SET v = v + 1 WHERE k < %d" % int(rng.integers(0, next_key + 1)),
            next_key,
        )
    if roll < 0.9:
        lo = int(rng.integers(0, max(next_key, 1)))
        return "DELETE FROM w WHERE k BETWEEN %d AND %d" % (lo, lo + 2), next_key
    return "UPDATE w SET v = 0 WHERE v > %d" % int(rng.integers(50, 100)), next_key


@pytest.mark.parametrize("seed", range(N_HARNESS_SEEDS))
def test_randomized_crash_recover_verify(seed):
    """One randomized crash per seed: random workload, random injection
    point/mode/occurrence, random group-commit depth, occasional
    checkpoints — and, on half the seeds, a concurrent trickle writer
    committing to a second table while the main workload runs.  Recovery
    must always land on a committed prefix of each table's history."""
    import threading

    rng = derive_rng(seed, "crash-harness")
    injector = FaultInjector()
    point = INJECTION_POINTS[int(rng.integers(0, len(INJECTION_POINTS)))]
    mode = (
        "torn"
        if point in ("wal.flush", "checkpoint.table") and rng.random() < 0.5
        else "crash"
    )
    injector.arm(
        point,
        mode=mode,
        after=int(rng.integers(0, 6)),
        fraction=float(rng.random()),
    )
    churn = bool(rng.random() < 0.5)
    # Under churn every returned statement must be durable the moment it
    # returns (group_commit=1), so each table's committed prefix is exact
    # even though the two writers' commits interleave in the WAL.
    group_commit = 1 if churn else int(rng.integers(1, 4))
    db, _ = make_db(group_commit=group_commit, injector=injector)
    session = db.connect()

    logged, floor, next_key = [], 0, 0
    statements = ["CREATE TABLE w (k INT, v INT)"]
    for _ in range(30):
        statement, next_key = _random_statement(rng, next_key)
        statements.append(statement)

    writer = None
    writer_done = [0]
    writer_errors: list[BaseException] = []
    crashed_early = False
    if churn:
        try:
            session.execute("CREATE TABLE c (k INT)")
        except CrashError:
            # The injected crash fired during the churn table's DDL.  A
            # crashed engine must not execute anything further (the WAL
            # tail it failed to flush is still buffered): go straight to
            # recovery, and verify against the one-statement history.
            crashed_early = True
            churn = False
            logged = ["CREATE TABLE c (k INT)"]
    if churn:
        def trickle():
            try:
                trickle_session = db.connect()
                for i in range(20):
                    trickle_session.execute("INSERT INTO c VALUES (%d)" % i)
                    writer_done[0] += 1
            except CrashError:
                pass  # the injected crash landed on the writer thread
            except BaseException as exc:  # lint-ok: broad-except (re-raised on the main thread after join)
                writer_errors.append(exc)

        writer = threading.Thread(target=trickle)
        writer.start()

    for statement in ([] if crashed_early else statements):
        before = db.durability.stats["commits"]
        try:
            session.execute(statement)
        except CrashError:
            break
        if db.durability.stats["commits"] > before:
            logged.append(statement)
        floor = db.durability.durable_commits
        if rng.random() < 0.12:
            try:
                db.checkpoint()
            except CrashError:
                break
            floor = db.durability.durable_commits
    if writer is not None:
        writer.join()
        assert not writer_errors, writer_errors[0]
    crash_and_recover(db)
    recovered = dump(db)
    if churn:
        # Main table: group_commit=1 makes every logged statement durable.
        matched = verify_prefix_consistent(
            {k: v for k, v in recovered.items() if k == "W"},
            logged, len(logged),
        )
        assert matched == len(logged)
        # Writer table: a contiguous prefix of the trickle, at least every
        # insert that returned (+1 when the crash fired mid-insert after
        # the commit was already durable).
        keys = sorted(
            int(k) for (k,) in db.connect().query("SELECT k FROM c")
        )
        assert keys == list(range(len(keys))), (
            "trickle table has gaps: %r" % (keys,)
        )
        assert writer_done[0] <= len(keys) <= writer_done[0] + 1
    else:
        matched = verify_prefix_consistent(recovered, logged, floor)
        assert floor <= matched <= len(logged)
    assert_versions_normalized(db)


# --------------------------------------------------------------------------
# Hypothesis: any WAL byte-prefix replays to a consistent state
# --------------------------------------------------------------------------


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10**6), cut_fraction=st.floats(0.0, 1.0))
def test_any_wal_prefix_replays_to_committed_prefix(seed, cut_fraction):
    """Truncate the durable log at an arbitrary byte and recover: the
    result must equal the oracle state after some committed prefix."""
    rng = derive_rng(seed, "wal-prefix")
    db, fs = make_db()
    session = db.connect()
    logged, next_key = ["CREATE TABLE w (k INT, v INT)"], 0
    session.execute(logged[0])
    for _ in range(8):
        statement, next_key = _random_statement(rng, next_key)
        before = db.durability.stats["commits"]
        session.execute(statement)
        if db.durability.stats["commits"] > before:
            logged.append(statement)

    blob = fs.read_file("db/wal.log")
    cut = int(len(blob) * cut_fraction)
    torn_fs = ClusterFileSystem()
    torn_fs.write_file("db/wal.log", blob[:cut], cut, durable=True)
    manager = DurabilityManager(torn_fs, path="db")
    recovered_db = Database(name="TORN", durability=manager)
    manager.recover()
    verify_prefix_consistent(dump(recovered_db), logged, floor=0)


# --------------------------------------------------------------------------
# DDL redo: a catalog statement replays to the catalog it made
# --------------------------------------------------------------------------

_DDL_SETUP = [
    "CREATE TABLE base (k INT PRIMARY KEY, v VARCHAR(8) NOT NULL)",
    "INSERT INTO base VALUES (1, 'a'), (2, 'b'), (3, 'c')",
    "CREATE TABLE trail (n INT)",
]

#: Each catalog statement kind, with what it needs before it.
_DDL_CASES = {
    "create-table": [
        "CREATE TABLE c (id INT PRIMARY KEY, name VARCHAR(10) NOT NULL, amt DECIMAL(7,2))",
        "INSERT INTO c VALUES (1, 'x', 1.25), (2, 'y', NULL)",
    ],
    "ctas": ["CREATE TABLE c AS (SELECT k, v FROM base WHERE k > 1) WITH DATA"],
    "ctas-empty": ["CREATE TABLE c AS (SELECT k FROM base WHERE k > 9) WITH DATA"],
    # A temp table is never logged, whatever schema its statement names.
    "ctas-temp": ["CREATE TEMPORARY TABLE app.tmp AS (SELECT k FROM base) WITH DATA"],
    "ctas-temp-beside-table": [
        "CREATE TABLE tmp (k INT)",
        "CREATE TEMPORARY TABLE public.tmp AS (SELECT k FROM base) WITH DATA",
    ],
    "drop-table": ["DROP TABLE base"],
    "drop-table-if-exists": ["DROP TABLE IF EXISTS base", "DROP TABLE IF EXISTS gone"],
    "create-view": ["CREATE VIEW w (key) AS SELECT k FROM base WHERE k < 3"],
    "create-or-replace-view": [
        "CREATE VIEW w AS SELECT k FROM base",
        "CREATE OR REPLACE VIEW w AS SELECT v FROM base WHERE k = 2",
    ],
    "drop-view": ["CREATE VIEW w AS SELECT k FROM base", "DROP VIEW w"],
    "create-sequence": [
        "CREATE SEQUENCE s START WITH 10 INCREMENT BY 5",
        "INSERT INTO base VALUES (NEXT VALUE FOR s, 's')",
    ],
    "drop-sequence": ["CREATE SEQUENCE s", "DROP SEQUENCE s"],
    "create-alias": ["CREATE ALIAS a FOR base"],
    "truncate": ["TRUNCATE TABLE base IMMEDIATE"],
}


def catalog_state(db) -> dict:
    """Every catalog object's definition and answers, and every
    sequence's definition and position."""
    from repro.catalog.catalog import TableInfo

    session = db.connect()
    state = {}
    for name, obj in db.catalog.entries():
        if isinstance(obj, TableInfo):
            table = obj.table
            definition = (
                table.schema.columns, table.unique_columns, table.not_null_columns
            )
        else:
            definition = obj
        rows = sorted(map(repr, session.query("SELECT * FROM %s" % name)))
        state[name] = (type(obj).__name__, definition, rows)
    for name in db.catalog.sequence_names():
        seq = db.catalog.get_sequence(name)
        state["sequence " + name] = (
            seq.start, seq.increment, seq.minvalue, seq.maxvalue, seq.cycle,
            seq._current,
        )
    return state


@pytest.mark.parametrize("checkpoint", [False, True], ids=["wal", "checkpoint+wal"])
@pytest.mark.parametrize("kind", sorted(_DDL_CASES))
def test_catalog_statement_replays_to_its_catalog(kind, checkpoint):
    """Recovery gives each catalog statement's catalog and answers back,
    replayed from the WAL alone or restored from a checkpoint taken after
    it with later records replayed on top."""
    db, _ = make_db()
    session = db.connect()
    for sql in _DDL_SETUP + _DDL_CASES[kind]:
        session.execute(sql)
    if checkpoint:
        db.checkpoint()
    session.execute("INSERT INTO trail VALUES (1)")
    before = catalog_state(db)
    report = crash_and_recover(db)
    assert report.records_replayed > 0
    assert (report.checkpoint_lsn > 0) == checkpoint
    assert catalog_state(db) == before
    # the recovered catalog takes further DDL like the original did
    session = db.connect()
    session.execute("CREATE TABLE later (n INT)")
    session.execute("DROP TABLE later")


def test_ddl_records_keep_their_payload_shape():
    """The WAL payload of each catalog statement, exactly: a log written
    by an older build must replay through :meth:`Database.apply_ddl`."""
    from repro.types.datatypes import INTEGER

    db, _ = make_db()
    session = db.connect()
    for sql in [
        "CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)",
        "CREATE TABLE c AS (SELECT k FROM t) WITH DATA",
        "CREATE VIEW w (x) AS SELECT k FROM t",
        "DROP VIEW w",
        "CREATE SEQUENCE s START WITH 3",
        "DROP SEQUENCE s",
        "CREATE ALIAS a FOR t",
        "DROP TABLE c",
    ]:
        session.execute(sql)
    db.durability.flush()
    payloads = [r.payload for r in db.durability.wal.records() if r.kind == "ddl"]
    assert payloads == [
        (None, ("create_table", None, "T", [("K", INTEGER), ("V", INTEGER)], {
            "region_rows": db.region_rows,
            "unique_columns": ("K",),
            "not_null_columns": ("K", "V"),
        })),
        (None, ("create_table", None, "C", [("K", INTEGER)],
                {"region_rows": db.region_rows})),
        (None, ("create_view", None, "W", "SELECT k FROM t", "db2", ["X"], False)),
        (None, ("drop_view", None, "W")),
        (None, ("create_sequence", "S", {
            "start": 3, "increment": 1, "minvalue": None, "maxvalue": None,
            "cycle": False,
        })),
        (None, ("drop_sequence", "S")),
        (None, ("create_alias", None, "A", "T")),
        (None, ("drop_table", None, "C")),
    ]


# --------------------------------------------------------------------------
# Cluster failover under pending writes
# --------------------------------------------------------------------------


def _small_cluster(**kwargs):
    spec = HardwareSpec(cores=2, ram_gb=8, storage_tb=1)
    return Cluster([spec, spec], shard_factor=2, parallelism=1, **kwargs)


class TestClusterDurability:
    def test_failover_replays_orphaned_shard_logs(self):
        from repro.util.timer import SimClock

        clock = SimClock()
        cluster = _small_cluster(clock=clock)
        session = cluster.connect()
        session.execute("CREATE TABLE s (id INT, x INT) DISTRIBUTE ON (id)")
        session.execute(
            "INSERT INTO s VALUES "
            + ", ".join("(%d, %d)" % (i, i) for i in range(40))
        )
        before = session.query("SELECT COUNT(*), SUM(x) FROM s")
        t0 = clock.now
        ha.fail_node(cluster, "node1")
        assert cluster.last_failover_recoveries, "no shard was recovered"
        assert clock.now > t0, "failover charged no simulated time"
        for report in cluster.last_failover_recoveries.values():
            assert report.transactions_replayed > 0
        assert session.query("SELECT COUNT(*), SUM(x) FROM s") == before

    def test_failover_with_pending_writes_loses_only_unflushed(self):
        """Group commit trades a bounded window of recent commits for
        fewer fsyncs: a crash loses at most the unflushed batch."""
        cluster = _small_cluster(group_commit=100)
        session = cluster.connect()
        session.execute("CREATE TABLE p (id INT, x INT) DISTRIBUTE ON (id)")
        session.execute(
            "INSERT INTO p VALUES "
            + ", ".join("(%d, 1)" % i for i in range(30))
        )
        # Make everything so far durable, then add unflushed writes.
        for shard in cluster.shards.values():
            shard.engine.durability.flush()
        session.execute(
            "INSERT INTO p VALUES "
            + ", ".join("(%d, 2)" % (100 + i) for i in range(10))
        )
        failed_shards = set(cluster.shards_on("node1"))
        ha.fail_node(cluster, "node1")
        rows = dict(session.query("SELECT x, COUNT(*) FROM p GROUP BY x"))
        # Every durable row survived; the orphaned shards' unflushed rows
        # are gone, the surviving node's engines (still running) keep theirs.
        assert rows[1] == 30
        lost = 10 - rows.get(2, 0)
        expected_lost = sum(
            1
            for i in range(10)
            if _shard_of(cluster, 100 + i) in failed_shards
        )
        assert lost == expected_lost

    def test_checkpoint_bounds_failover_replay(self):
        cluster = _small_cluster()
        session = cluster.connect()
        session.execute("CREATE TABLE c (id INT, x INT) DISTRIBUTE ON (id)")
        session.execute(
            "INSERT INTO c VALUES "
            + ", ".join("(%d, %d)" % (i, i) for i in range(40))
        )
        cluster.checkpoint()
        session.execute("INSERT INTO c VALUES (1000, 1), (1001, 2)")
        ha.fail_node(cluster, "node1")
        for report in cluster.last_failover_recoveries.values():
            assert report.checkpoint_lsn > 0
            assert report.transactions_replayed <= 1  # only the post-ckpt insert
        assert session.query("SELECT COUNT(*) FROM c") == [(42,)]

    def test_shard_checkpoint_waits_for_a_routed_insert(self, monkeypatch):
        """A shard checkpoint racing a cluster INSERT between its WAL
        commit and its MVCC commit must wait for the MVCC commit: a
        snapshot taken in between holds the rows *and* precedes nothing
        of them in the log, so recovery would replay them twice."""
        from repro.cluster.shard import Shard

        cluster = _small_cluster()
        session = cluster.connect()
        session.execute("CREATE TABLE r (id INT, x INT) DISTRIBUTE ON (id)")
        session.execute("INSERT INTO r VALUES (1000, 0)")
        log_committed_insert = Shard.log_committed_insert
        checkpoints, blocked = [], []

        def log_then_checkpoint(shard, name, rows, txid=None):
            log_committed_insert(shard, name, rows, txid)
            worker = threading.Thread(target=shard.engine.checkpoint)
            worker.start()
            worker.join(timeout=0.1)
            blocked.append(worker.is_alive())
            checkpoints.append(worker)

        monkeypatch.setattr(Shard, "log_committed_insert", log_then_checkpoint)
        session.execute(
            "INSERT INTO r VALUES " + ", ".join("(%d, 1)" % i for i in range(40))
        )
        for worker in checkpoints:
            worker.join(timeout=30)
            assert not worker.is_alive()
        assert checkpoints and all(blocked)
        for shard in cluster.shards.values():
            shard.engine.reopen(clean=False)
        assert session.query("SELECT COUNT(*) FROM r") == [(41,)]

    def test_monreport_has_durability_section(self):
        cluster = _small_cluster()
        session = cluster.connect()
        session.execute("CREATE TABLE r (id INT) DISTRIBUTE ON (id)")
        session.execute("INSERT INTO r VALUES (1), (2), (3)")
        report = cluster.monreport()["durability"]
        assert report["enabled"] is True
        assert report["commits"] > 0
        assert report["wal_durable_bytes"] > 0
        assert set(report["per_shard"]) == set(cluster.shards)

    def test_durability_can_be_disabled(self):
        cluster = _small_cluster(durable=False)
        assert all(
            s.engine.durability is None for s in cluster.shards.values()
        )
        assert cluster.monreport()["durability"] == {"enabled": False}


def _shard_of(cluster: Cluster, key) -> int:
    from repro.cluster.shard import hash_value_to_shard

    return hash_value_to_shard(key, cluster.n_shards)
