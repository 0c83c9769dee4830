"""Regression tests pinning gaps found by surviving mutants (repromutate).

Each test names the mutant id from the seed-0 canonical run (see
``BENCH_mutation.json``) that survived the statically-selected kill set,
and pins the behaviour the battery was missing.  The point is not the
specific line — it is that the *invariant* the mutant falsified now has
a test that fails when it breaks.
"""

from __future__ import annotations

from repro.database import Database
from repro.durability.manager import DurabilityManager
from repro.serving.cache import ResultCache
from repro.sql.parser import parse_statement
from repro.storage.filesystem import ClusterFileSystem


def _durable_db(group_commit: int = 1) -> Database:
    fs = ClusterFileSystem()
    manager = DurabilityManager(fs, path="db", group_commit=group_commit)
    return Database(name="GAPS", durability=manager)


class _RecordingLock:
    """Context-manager proxy that records acquisition around the inner
    lock, so a test can assert a critical section really ran held."""

    def __init__(self, inner):
        self._inner = inner
        self.held = False
        self.acquisitions = 0

    def __enter__(self):
        self._inner.__enter__()
        self.held = True
        self.acquisitions += 1
        return self

    def __exit__(self, *exc):
        self.held = False
        return self._inner.__exit__(*exc)


class TestCheckpointHoldsStatementLock:
    """Mutant drop-lock@src/repro/database/database.py:688:8 survived:
    unwrapping ``with self._statement_lock:`` around the checkpoint
    changed nothing any selected test observed — single-threaded runs
    never contend, and the concurrency suites drive commits, not
    checkpoints.  Pin the invariant directly: the durability snapshot
    must be taken *while* the statement lock is held (a checkpoint
    racing an in-flight statement snapshots a transaction-inconsistent
    state that recovery then replays on top of itself)."""

    def test_checkpoint_snapshots_under_the_statement_lock(self):
        db = _durable_db()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")

        recorder = _RecordingLock(db._statement_lock)
        db._statement_lock = recorder
        inner_checkpoint = db.durability.checkpoint
        held_at_snapshot = []

        def checkpoint_probe():
            held_at_snapshot.append(recorder.held)
            return inner_checkpoint()

        db.durability.checkpoint = checkpoint_probe
        try:
            db.checkpoint()
        finally:
            db.durability.checkpoint = inner_checkpoint
            db._statement_lock = recorder._inner

        assert held_at_snapshot == [True]
        assert recorder.acquisitions == 1
        assert recorder.held is False  # released on the way out


class TestReopenInvalidatesServingCaches:
    """Mutant drop-commit-hook@src/repro/database/database.py:717:8
    survived: deleting ``self._note_commit(None)`` from ``reopen`` left
    every selected test green because none of them put a serving cache
    in front of a crash.  Pin the staleness bug the hook prevents: an
    answer cached before a crash must not be replayed after recovery
    rewrote the tables underneath it."""

    def test_post_crash_fetch_recomputes_instead_of_replaying(self):
        db = _durable_db(group_commit=100)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.durability.flush()  # rows 1,2 are durable

        # A committed-but-unflushed row: visible now, lost on crash.
        db.execute("INSERT INTO t VALUES (3)")
        cache = ResultCache(db)
        sql = "SELECT COUNT(*) FROM t"
        first = cache.fetch(sql)
        assert not first.hit
        assert first.result.scalar() == 3

        db.reopen()  # crash: the buffered commit of row 3 is gone

        after = cache.fetch(sql)
        assert after.result.scalar() == 2, (
            "cache replayed a pre-crash answer over recovered state"
        )
        assert not after.hit
        # The version clock is what invalidated the entry: reopen must
        # have bumped it even though no table was 'touched' in the
        # ordinary write-path sense.
        assert db.write_epoch >= 1

    def test_reopen_bumps_every_table_version(self):
        db = _durable_db()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        token = db.versions_token(frozenset({"T"}))
        assert db.versions_valid(token)
        db.reopen(clean=True)
        assert not db.versions_valid(token)


class TestCrashForgetsItsUnflushedCommits:
    """Mutant constant@src/repro/durability/manager.py:318:38 survived
    (``_unflushed_commits = 1`` after a crash): the commit counter a crash
    corrects must not be corrected again by the next one."""

    def test_a_second_crash_loses_nothing_more(self):
        db = _durable_db(group_commit=100)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.durability.flush()
        durable = db.durability.stats["commits"]
        db.execute("INSERT INTO t VALUES (2)")  # committed, never flushed
        assert db.durability.stats["commits"] == durable + 1
        db.reopen()
        assert db.durability.stats["commits"] == durable
        assert db.durability.durable_commits == durable
        db.reopen()  # nothing was committed in between
        assert db.durability.stats["commits"] == durable
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1


class TestCheckpointCoversItsOwnLsn:
    """Mutant boundary@src/repro/durability/manager.py:346:53 survived:
    replaying ``lsn >= checkpoint_lsn`` instead of ``>`` is invisible while
    every checkpoint also cuts the log, because no record at or below the
    checkpoint LSN is left to replay.  A host that dies after the
    checkpoint is published but before the log is cut leaves them all:
    the checkpoint already holds every one, its own LSN's included."""

    def test_crash_between_publish_and_truncate_replays_nothing(self):
        db = _durable_db()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.durability.wal.truncate_through = lambda lsn: None  # died before the cut
        lsn = db.checkpoint()
        assert [r.lsn for r in db.durability.wal.records()][-1] == lsn
        report = db.reopen(clean=False)
        assert report.checkpoint_lsn == lsn
        assert report.records_replayed == report.transactions_replayed == 0
        assert db.execute("SELECT a FROM t ORDER BY a").rows == [(1,), (2,)]


class TestPlanCacheDefaultCapacity:
    """Mutant constant@src/repro/serving/cache.py:178:57 survived: the
    plan cache's default capacity (512 -> 513) is observable nowhere —
    every test passes an explicit capacity.  The default is part of the
    sizing story (EXPERIMENTS.md serving rows were measured with it),
    so pin it, and pin that the default-constructed cache actually
    enforces whatever its capacity says.  (The cache is the engine's
    since PR 21 — ``Database.plan_cache`` — and holds plans, not ASTs.)"""

    def test_default_capacity_is_pinned(self):
        db = Database("CAP")
        assert db.plan_cache.capacity == 512
        assert ResultCache(db).capacity == 2048

    def test_default_constructed_cache_evicts_at_capacity(self):
        db = Database("EVICT")
        db.execute("CREATE TABLE t (a INT)")
        cache = db.plan_cache
        for i in range(cache.capacity + 1):
            db.execute("SELECT a AS c%d FROM t" % i)  # one template each
        report = cache.report()
        assert report["entries"] == report["templates"] == cache.capacity
        assert cache.stats.evictions == 1

    def test_a_hit_counts_once_and_a_full_cache_keeps_capacity_entries(self):
        """constant@src/repro/serving/cache.py:198:35 (``hits += 2``) and
        boundary@src/repro/serving/cache.py:224:18 (evict at ``>=``
        capacity) survived: nothing read the hit counter or filled the
        cache exactly to its capacity."""
        db = Database("HITS")
        db.execute("CREATE TABLE t (a INT)")
        cache = db.plan_cache
        cache.capacity = 2
        for _ in range(3):
            db.execute("SELECT 1 FROM t")
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
        db.execute("SELECT 2 AS b FROM t")
        assert cache.report()["entries"] == 2 and cache.stats.evictions == 0
        db.execute("SELECT 3 AS c FROM t")
        assert cache.report()["entries"] == 2 and cache.stats.evictions == 1


class _ProbeClock:
    """Minimal sim-clock stand-in that records every advance()."""

    def __init__(self):
        self.now = 0.0
        self.calls: list[float] = []

    def advance(self, seconds: float) -> None:
        self.calls.append(seconds)
        self.now += seconds


class TestVersionClockLockDiscipline:
    """Mutants drop-lock@src/repro/database/database.py:265:8, :283:8,
    :450:8 and :514:8 survived: unwrapping the version-clock, counter and
    statement critical sections changed nothing any selected test could
    observe, because single-threaded suites never contend and the
    concurrency suites assert on *values*, not on the locks that make
    those values safe.  Pin the discipline directly: each method must
    take its lock exactly once and release it on the way out."""

    def test_versions_valid_checks_under_the_version_lock(self):
        db = Database(name="LCK1")
        db.execute("CREATE TABLE t (a INT)")
        token = db.versions_token(frozenset({"T"}))
        recorder = _RecordingLock(db._version_lock)
        db._version_lock = recorder
        try:
            assert db.versions_valid(token)
        finally:
            db._version_lock = recorder._inner
        assert recorder.acquisitions == 1
        assert recorder.held is False

    def test_note_commit_bumps_under_the_version_lock(self):
        db = Database(name="LCK2")
        db.execute("CREATE TABLE t (a INT)")
        token = db.versions_token(frozenset({"T"}))
        recorder = _RecordingLock(db._version_lock)
        db._version_lock = recorder
        try:
            db._note_commit(frozenset({"T"}))
        finally:
            db._version_lock = recorder._inner
        assert recorder.acquisitions == 1
        assert not db.versions_valid(token)

    def test_statement_counter_bumps_under_its_lock(self):
        db = Database(name="LCK3")
        recorder = _RecordingLock(db._counter_lock)
        db._counter_lock = recorder
        try:
            index = db._bump_statement_count()
        finally:
            db._counter_lock = recorder._inner
        assert index == db.statement_count
        assert recorder.acquisitions == 1
        assert recorder.held is False

    def test_write_statements_run_under_the_statement_lock(self):
        db = Database(name="LCK4")
        db.execute("CREATE TABLE t (a INT)")
        session = db.connect()
        node = parse_statement("INSERT INTO t VALUES (1)")
        recorder = _RecordingLock(db._statement_lock)
        db._statement_lock = recorder
        try:
            db._execute_write_node(node, session, "INSERT INTO t VALUES (1)")
        finally:
            db._statement_lock = recorder._inner
        assert recorder.acquisitions == 1
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1


class TestSequenceDdlCacheScope:
    """Mutant boolean@src/repro/database/database.py:323:39 survived:
    double-negating the CreateAlias test flips *both* arms of the
    sequence/alias commit-note — sequence DDL starts invalidating every
    cached token and alias DDL stops invalidating any — yet no selected
    test caches anything across either kind of DDL.  Pin both arms."""

    def test_touched_tables_distinguishes_sequences_from_aliases(self):
        db = Database(name="DDL1")
        db.execute("CREATE TABLE t (a INT)")
        sequence = parse_statement("CREATE SEQUENCE sq")
        alias = parse_statement("CREATE ALIAS t2 FOR t")
        assert db._touched_tables(sequence, None) == frozenset()
        assert db._touched_tables(alias, None) is None

    def test_sequence_ddl_preserves_cached_version_tokens(self):
        db = Database(name="DDL2")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        token = db.versions_token(frozenset({"T"}))
        db.execute("CREATE SEQUENCE sq")
        assert db.versions_valid(token), "sequence DDL touches no table"
        db.execute("CREATE ALIAS t2 FOR t")
        assert not db.versions_valid(token), "alias DDL can rebind any name"


class TestDurabilityCostCharging:
    """Mutant boundary@src/repro/durability/manager.py:146:38 survived:
    relaxing ``seconds > 0`` to ``>= 0`` makes every free operation call
    ``clock.advance(0.0)`` — invisible to any test that only reads
    ``clock.now``, but each no-op advance is a scheduling point for the
    simulated-time harness, so the cost model's "zero cost" must mean
    *no clock interaction at all*, not "advance by nothing"."""

    def test_zero_cost_operations_never_touch_the_clock(self):
        clock = _ProbeClock()
        manager = DurabilityManager(ClusterFileSystem(), path="db", clock=clock)
        manager._charge(0.0)
        assert clock.calls == []
        manager._charge(0.125)
        assert clock.calls == [0.125]
