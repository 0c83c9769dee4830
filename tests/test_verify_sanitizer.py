"""Lockset race sanitizer: the Eraser state machine, end to end.

The positive control is the canonical data race — an unguarded counter
incremented from several threads — which must produce a candidate-race
report even when the interleaving happens to be benign (that is the point
of lockset analysis: no lock in common is reported without needing the
race to strike).  The negative controls exercise every way an access is
legitimately safe: guarded by a common tracked lock, confined to one
thread, or read-shared after single-threaded initialisation.
"""

from __future__ import annotations

import threading

import pytest

from repro.verify import sanitizer


@pytest.fixture(autouse=True)
def sanitizer_session():
    """Each test gets a fresh, enabled sanitizer; always disabled after."""
    sanitizer.enable()
    yield
    sanitizer.disable()


def _run_threads(n, fn):
    # All n threads rendezvous before running fn: with trivial work the
    # first thread can finish before the next starts, the OS recycles its
    # ident, and the sanitizer would (correctly!) see a single thread.
    barrier = threading.Barrier(n)

    def run():
        barrier.wait(5)
        fn()

    threads = [
        threading.Thread(target=run, name="san-worker-%d" % i) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class Counter:
    """A shared counter with optional locking, instrumented like the engine."""

    def __init__(self, lock=None):
        self.lock = lock
        self.value = 0

    def inc(self):
        if self.lock is not None:
            with self.lock:
                sanitizer.access("counter", "value", site="Counter.inc")
                self.value += 1
        else:
            sanitizer.access("counter", "value", site="Counter.inc")
            self.value += 1


class TestEraserStateMachine:
    def test_unguarded_shared_counter_is_reported(self):
        counter = Counter(lock=None)
        _run_threads(4, lambda: [counter.inc() for _ in range(50)])
        races = sanitizer.report()
        assert len(races) == 1  # reported once per field, not per access
        race = races[0]
        assert (race.owner, race.fld) == ("counter", "value")
        assert len(race.threads) >= 2
        assert "Counter.inc" in race.sites
        assert "share no lock" in race.render()

    def test_guarded_shared_counter_is_clean(self):
        counter = Counter(lock=sanitizer.make_lock("counter-lock"))
        _run_threads(4, lambda: [counter.inc() for _ in range(50)])
        assert sanitizer.report() == []
        assert counter.value == 200

    def test_single_thread_mutation_is_clean(self):
        counter = Counter(lock=None)
        for _ in range(100):
            counter.inc()
        assert sanitizer.report() == []
        assert sanitizer.stats()["states"] == {"counter.value": "exclusive"}

    def test_init_then_read_shared_is_clean(self):
        # Eraser's refinement: unlocked initialisation followed by unlocked
        # reads from other threads is fine; only a *write* once shared trips.
        sanitizer.access("config", "flags", write=True, site="init")
        _run_threads(
            2, lambda: sanitizer.access("config", "flags", write=False, site="read")
        )
        assert sanitizer.report() == []
        assert sanitizer.stats()["states"] == {"config.flags": "shared"}

    def test_write_after_shared_reports(self):
        sanitizer.access("config", "flags", write=True, site="init")
        _run_threads(
            2, lambda: sanitizer.access("config", "flags", write=False, site="read")
        )
        _run_threads(
            1, lambda: sanitizer.access("config", "flags", write=True, site="write")
        )
        races = sanitizer.report()
        assert len(races) == 1
        assert sanitizer.stats()["states"] == {"config.flags": "shared-modified"}

    def test_lockset_is_the_intersection(self):
        # Thread group A holds {a, common}; group B holds {b, common}:
        # the intersection {common} is non-empty, so no race...
        lock_a = sanitizer.make_lock("a")
        lock_b = sanitizer.make_lock("b")
        common = sanitizer.make_lock("common")

        def with_a():
            with lock_a, common:
                sanitizer.access("shared", "x", site="with_a")

        def with_b():
            with lock_b, common:
                sanitizer.access("shared", "x", site="with_b")

        _run_threads(2, with_a)
        _run_threads(2, with_b)
        assert sanitizer.report() == []

        # ...while disjoint locksets {a} vs {b} do race despite both
        # threads dutifully holding *a* lock.
        def only_a():
            with lock_a:
                sanitizer.access("shared", "y", site="only_a")

        def only_b():
            with lock_b:
                sanitizer.access("shared", "y", site="only_b")

        # Three accesses in a fixed order (the lockset is seeded by the
        # second accessing thread, so the empty intersection shows on the
        # third).  All three threads stay alive until the end: joining one
        # before starting the next would let the OS recycle its ident and
        # make two of them look like the same thread.
        order = [only_a, only_b, only_a]
        turns = [threading.Event() for _ in order]
        done = threading.Event()

        def runner(i):
            turns[i].wait(5)
            order[i]()
            (turns[i + 1] if i + 1 < len(order) else done).set()
            done.wait(5)

        threads = [threading.Thread(target=runner, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        turns[0].set()
        for t in threads:
            t.join()
        assert [r.fld for r in sanitizer.report()] == ["y"]

    def test_reset_clears_collected_state(self):
        counter = Counter(lock=None)
        _run_threads(2, counter.inc)
        assert sanitizer.report()
        sanitizer.reset()
        assert sanitizer.report() == []
        assert sanitizer.stats()["fields_tracked"] == 0


class TestInstrumentationPrimitives:
    def test_make_lock_is_tracked_only_when_enabled(self):
        assert isinstance(sanitizer.make_lock("x"), sanitizer.TrackedLock)
        sanitizer.disable()
        lock = sanitizer.make_lock("x")
        assert not isinstance(lock, sanitizer.TrackedLock)
        with lock:  # still a working lock
            pass
        sanitizer.enable()

    def test_tracked_lock_updates_thread_lockset(self):
        lock = sanitizer.make_lock("outer")
        inner = sanitizer.make_lock("inner")
        assert sanitizer.held_locks() == set()
        with lock:
            assert sanitizer.held_locks() == {"outer"}
            with inner:
                assert sanitizer.held_locks() == {"outer", "inner"}
            assert sanitizer.held_locks() == {"outer"}
        assert sanitizer.held_locks() == set()

    def test_reentrant_tracked_lock(self):
        lock = sanitizer.make_lock("re", reentrant=True)
        with lock:
            with lock:
                assert "re" in sanitizer.held_locks()
            assert "re" in sanitizer.held_locks()  # still held once
        assert "re" not in sanitizer.held_locks()

    def test_access_is_noop_when_disabled(self):
        sanitizer.disable()
        sanitizer.access("anything", "at-all")
        assert sanitizer.report() == []
        assert sanitizer.stats() == {"enabled": False}
        sanitizer.enable()

    def test_stats_shape(self):
        counter = Counter(lock=None)
        counter.inc()
        stats = sanitizer.stats()
        assert stats["enabled"] and stats["fields_tracked"] == 1
        assert stats["accesses"] == 1 and stats["races"] == 0


class TestEngineIntegration:
    def test_worker_pool_accumulators_are_clean(self):
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(parallelism=4, name="san-test")

        # Hammer the pool from several session threads at once: the
        # lifetime accumulators are shared and must stay lock-guarded.
        def session():
            for _ in range(5):
                pool.map(lambda x: x * x, range(32), label="san")

        _run_threads(4, session)
        races = sanitizer.report()
        assert races == [], "\n".join(r.render() for r in races)
        assert pool.runs_total == 20

    def test_concurrent_sessions_race_free(self):
        from repro.database import Database
        from repro.workloads.tpcds import flush_tables

        db = Database(parallelism=2)
        session = db.connect("db2")
        session.execute("CREATE TABLE s (a INT, b INT)")
        session.execute(
            "INSERT INTO s VALUES "
            + ", ".join("(%d, %d)" % (i % 7, i) for i in range(512))
        )
        flush_tables(db)

        def client():
            conn = db.connect("db2")
            for _ in range(3):
                conn.execute("SELECT a, COUNT(*), SUM(b) FROM s GROUP BY a")

        _run_threads(4, client)
        races = sanitizer.report()
        assert races == [], "\n".join(r.render() for r in races)
        stats = sanitizer.stats()
        # The shared engine structures actually got exercised.
        assert ("database:%s.statement_count" % db.name) in stats["states"]


class TestCodedVectorInvariants:
    """Batch boundaries check the dictionary-coded representation."""

    @staticmethod
    def _vector(codes, entries, nulls=None, frozen=True):
        import numpy as np

        from repro.storage.column import ColumnVector
        from repro.types import varchar_type

        dictionary = np.empty(len(entries), dtype=object)
        dictionary[:] = entries
        dictionary.flags.writeable = not frozen
        return ColumnVector.coded(
            varchar_type(4), np.asarray(codes, dtype=np.int64), dictionary, nulls
        )

    def test_corrupted_vectors_are_caught_at_the_batch_boundary(self):
        import numpy as np

        from repro.engine.expression import Batch

        good = self._vector([0, 1, 1], ["a", "b"])
        assert Batch.from_columns({"S": good}).n == 3
        corrupt = {
            "code outside [0, 2)": self._vector([0, 2, 1], ["a", "b"]),
            "code outside [0, 2) ": self._vector([0, -1, 1], ["a", "b"]),
            "2 null flags for 3 codes": self._vector(
                [0, 1, 1], ["a", "b"], np.array([True, False])),
            "dictionary is writeable": self._vector([0, 1, 1], ["a", "b"], frozen=False),
        }
        for problem, vector in corrupt.items():
            with pytest.raises(sanitizer.VectorInvariantError) as caught:
                Batch.from_columns({"S": vector})
            assert str(caught.value) == "coded column S: " + problem.strip()
        # A code under a NULL slot is gathered too: it must be in range.
        with pytest.raises(sanitizer.VectorInvariantError):
            Batch.from_columns(
                {"S": self._vector([0, 9], ["a"], np.array([False, True]))}
            )

    def test_disabled_sanitizer_checks_nothing(self):
        from repro.engine.expression import Batch

        sanitizer.disable()
        assert Batch.from_columns({"S": self._vector([0, 5], ["a"])}).n == 2

    def test_engine_vectors_hold_the_invariants(self):
        """Scan, join, CASE, CAST, concat and group-by over sealed regions
        plus a tail, all through checked batch boundaries."""
        from repro.database import Database
        from repro.workloads.tpcds import flush_tables

        db = Database(region_rows=32)
        session = db.connect("db2")
        session.execute("CREATE TABLE f (k INT, s VARCHAR(6), v INT)")
        session.execute("CREATE TABLE d (k INT, name VARCHAR(6))")
        session.execute("INSERT INTO d VALUES " + ", ".join(
            "(%d, 'n%d')" % (i, i % 3) for i in range(6)))
        rows = ", ".join(
            "(%d, %s, %d)" % (i % 7, "NULL" if i % 9 == 0 else "'s%d'" % (i % 5 + i // 32), i)
            for i in range(100)
        )
        session.execute("INSERT INTO f VALUES " + rows)
        flush_tables(db)
        session.execute("INSERT INTO f VALUES (1, 'tail', 7), (2, NULL, 8)")
        for sql in (
            "SELECT s, COUNT(*) FROM f GROUP BY s",
            "SELECT d.name, f.s, COUNT(*) FROM f LEFT JOIN d ON f.k = d.k GROUP BY d.name, f.s",
            "SELECT CASE WHEN v < 30 THEN s WHEN v < 60 THEN 'mid' END AS x, COUNT(*)"
            " FROM f GROUP BY 1",
            "SELECT CAST(s AS VARCHAR(2)), COUNT(*) FROM f WHERE v > 90 GROUP BY CAST(s AS VARCHAR(2))",
            "SELECT DISTINCT s FROM f ORDER BY 1",
            "SELECT s FROM f WHERE v < 5 UNION ALL SELECT name FROM d",
        ):
            assert session.execute(sql).rows
