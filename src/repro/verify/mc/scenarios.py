"""The model-checking scenario registry: small concurrent engine workloads.

Each scenario builds a *fresh* engine (statelessness is what makes replay
deterministic), declares two-or-three threads of real engine work, and an
oracle over the final state.  The explorer runs the scenario under every
interleaving (up to the preemption bound and budget); any interleaving
that deadlocks, raises, or fails the oracle is a counterexample whose
schedule replays exactly.

Crash scenarios additionally model failover: a crash pseudo-thread is
enabled at every explored state, and its body crash-restarts the engine
and checks WAL prefix consistency — recovery must reproduce exactly the
durably committed transactions, wherever the crash landed.
"""

from __future__ import annotations

from repro.database import Database
from repro.durability import CrashError, DurabilityManager, FaultInjector
from repro.durability.wal import committed_transactions
from repro.errors import SQLError, TransactionConflictError
from repro.mvcc import ANCIENT_TXID, visible_rows
from repro.sql.parser import parse_statement
from repro.storage.filesystem import ClusterFileSystem


class Scenario:
    """Base class: subclasses define name/description and the four hooks."""

    name = "scenario"
    description = ""
    #: True adds the crash pseudo-thread (exploring crash-at-every-state).
    crashes = False

    def setup(self) -> dict:
        raise NotImplementedError

    def thread_specs(self, state: dict) -> list:
        raise NotImplementedError

    def crash(self, state: dict) -> None:
        """Crash body (recovery + oracle), for ``crashes = True``."""

    def check(self, state: dict) -> None:
        """Final-state oracle for runs that completed without crashing."""


def _make_db(group_commit: int = 1, injector=None) -> dict:
    fs = ClusterFileSystem()
    manager = DurabilityManager(
        fs, path="db", group_commit=group_commit, injector=injector
    )
    db = Database(name="MC", durability=manager)
    return {"db": db, "fs": fs, "manager": manager}


def _rows(db, sql: str):
    return db.connect().query(sql)


def _count(db, table: str) -> int:
    return int(_rows(db, "SELECT COUNT(*) FROM %s" % table)[0][0])


def _insert_each(db, outcomes: dict | None = None) -> list:
    """Two sessions, each inserting one row: ``sessA`` into TA, ``sessB``
    into TB.  With *outcomes*, each records ``committed`` or the
    ``CrashError`` its statement raised, under its table's name."""

    def insert(table):
        def body():
            try:
                db.connect().execute("INSERT INTO %s VALUES (1)" % table)
            except CrashError as exc:
                if outcomes is None:
                    raise
                outcomes[table] = str(exc)
            else:
                if outcomes is not None:
                    outcomes[table] = "committed"
        return body

    return [("sessA", insert("TA")), ("sessB", insert("TB"))]


def _durable_insert_counts(manager) -> dict:
    """Rows per table in the durable, committed portion of the WAL."""
    counts: dict[str, int] = {}
    for _txid, ops in committed_transactions(manager.wal.records()):
        for record in ops:
            if record.kind == "insert":
                (_schema, table), payload = record.payload
                counts[table] = counts.get(table, 0) + len(payload)
    return counts


class ConcurrentInsertCommit(Scenario):
    """Two sessions insert into their own tables concurrently.

    Oracles: both rows land; the statement counter advances by exactly two
    (no lost update); and each WAL transaction carries only its own
    session's ops (the cross-session op-attribution bug this scenario was
    built to catch: a shared statement buffer let one session's commit
    claim — or one session's abort drop — another session's redo ops).
    """

    name = "concurrent-insert-commit"
    description = "two sessions insert+commit; WAL attribution + counters"

    def setup(self) -> dict:
        state = _make_db()
        session = state["db"].connect()
        session.execute("CREATE TABLE TA (A INT)")
        session.execute("CREATE TABLE TB (A INT)")
        state["statements_before"] = state["db"].statement_count
        return state

    def thread_specs(self, state: dict) -> list:
        return _insert_each(state["db"])

    def check(self, state: dict) -> None:
        db = state["db"]
        # Read the counter first: the count queries below advance it too.
        advanced = db.statement_count - state["statements_before"]
        assert advanced == 2, (
            "statement counter advanced %d times for 2 statements" % advanced
        )
        assert _count(db, "TA") == 1, "TA lost its insert"
        assert _count(db, "TB") == 1, "TB lost its insert"
        state["manager"].flush()
        for txid, ops in committed_transactions(state["manager"].wal.records()):
            tables = {
                record.payload[0][1]
                for record in ops
                if record.kind == "insert"
            }
            assert len(tables) <= 1, (
                "txn %d mixes ops of tables %s: cross-session attribution"
                % (txid, sorted(tables))
            )


class InsertVsAbort(Scenario):
    """A successful insert races a failing statement (which aborts).

    With a shared statement buffer, the failing session's ``abort()``
    could clear the other session's buffered redo ops, silently committing
    an *empty* transaction — committed data lost after restart.  The
    oracle restarts from durable state alone and requires the insert back.
    """

    name = "insert-vs-abort"
    description = "commit races an aborting statement; no lost redo ops"

    def setup(self) -> dict:
        state = _make_db()
        state["db"].connect().execute("CREATE TABLE TA (A INT)")
        return state

    def thread_specs(self, state: dict) -> list:
        db = state["db"]

        def good():
            db.connect().execute("INSERT INTO TA VALUES (1)")

        def bad():
            try:
                db.connect().execute("INSERT INTO NOPE VALUES (1)")
            except SQLError:
                pass  # expected: unknown table -> statement aborts

        return [("sessA", good), ("sessB", bad)]

    def check(self, state: dict) -> None:
        db = state["db"]
        db.reopen(clean=True)
        assert _count(db, "TA") == 1, (
            "committed insert missing after clean restart (lost redo ops)"
        )


class CommitVsCheckpoint(Scenario):
    """An insert+commit races a fuzzy checkpoint.

    Whatever the interleaving, a clean restart must land on exactly the
    committed state: the checkpoint/WAL hand-off (truncate-through-LSN)
    must never drop the commit or apply it twice.
    """

    name = "commit-vs-checkpoint"
    description = "insert+commit races a fuzzy checkpoint; restart exact"

    def setup(self) -> dict:
        state = _make_db()
        session = state["db"].connect()
        session.execute("CREATE TABLE TA (A INT)")
        session.execute("INSERT INTO TA VALUES (0)")
        return state

    def thread_specs(self, state: dict) -> list:
        db = state["db"]

        def insert():
            db.connect().execute("INSERT INTO TA VALUES (1)")

        def checkpoint():
            db.checkpoint()

        return [("sessA", insert), ("ckpt", checkpoint)]

    def check(self, state: dict) -> None:
        db = state["db"]
        assert _count(db, "TA") == 2
        db.reopen(clean=True)
        assert _count(db, "TA") == 2, (
            "checkpoint/WAL hand-off lost or duplicated a committed insert"
        )


class GroupCommitCrash(Scenario):
    """Failover during group commit: crash enabled at every state.

    Two sessions commit under ``group_commit=4`` (commits buffer in the
    volatile WAL tail until a flush).  The crash pseudo-thread kills the
    engine at an arbitrary explored state; recovery must reproduce exactly
    the durably-flushed committed transactions — no lost durable commit,
    no resurrected unflushed one (WAL prefix consistency).
    """

    name = "group-commit-crash"
    description = "crash at any state during group commit; prefix-exact recovery"
    crashes = True

    def setup(self) -> dict:
        state = _make_db(group_commit=4)
        session = state["db"].connect()
        session.execute("CREATE TABLE TA (A INT)")
        session.execute("CREATE TABLE TB (A INT)")
        state["manager"].flush()  # schema is durable; the race is the DML
        return state

    def thread_specs(self, state: dict) -> list:
        return _insert_each(state["db"])

    def crash(self, state: dict) -> None:
        db = state["db"]
        db.reopen(clean=False)
        expected = _durable_insert_counts(state["manager"])
        for table in ("TA", "TB"):
            want = expected.get(table, 0)
            got = _count(db, table)
            assert got == want, (
                "recovered %s has %d row(s), durable WAL commits say %d"
                % (table, got, want)
            )

    def check(self, state: dict) -> None:
        db = state["db"]
        assert _count(db, "TA") == 1
        assert _count(db, "TB") == 1
        db.reopen(clean=True)
        assert _count(db, "TA") == 1 and _count(db, "TB") == 1


class SnapshotReadVsCommit(Scenario):
    """A pinned snapshot read races a concurrent insert+commit.

    The reader pins one MVCC snapshot and runs the same COUNT twice while
    the writer commits in between (under some interleavings).  Oracles:
    the two pinned reads agree (repeatable snapshot — the committing
    writer can never leak into an older snapshot mid-flight), both match
    the version-visibility oracle :func:`~repro.mvcc.txn.visible_rows`
    computed over the same snapshot, and a fresh read at the end sees the
    commit.
    """

    name = "snapshot-read-vs-commit"
    description = "pinned snapshot read races a commit; repeatable reads"

    def setup(self) -> dict:
        state = _make_db()
        state["db"].connect().execute("CREATE TABLE T (A INT)")
        state["db"].connect().execute("INSERT INTO T VALUES (0)")
        return state

    def thread_specs(self, state: dict) -> list:
        db = state["db"]
        count_stmt = "SELECT COUNT(*) FROM T"

        def writer():
            db.connect().execute("INSERT INTO T VALUES (1)")

        def reader():
            snap = db.txn.snapshot()
            first = int(
                db.execute_ast(parse_statement(count_stmt), snapshot=snap)
                .rows[0][0]
            )
            second = int(
                db.execute_ast(parse_statement(count_stmt), snapshot=snap)
                .rows[0][0]
            )
            table = db.catalog.get_table("T").table
            state["reads"] = (first, second)
            state["oracle"] = len(visible_rows(table, snap))

        return [("writer", writer), ("reader", reader)]

    def check(self, state: dict) -> None:
        first, second = state["reads"]
        assert first == second, (
            "non-repeatable read on one snapshot: %d then %d" % (first, second)
        )
        assert first == state["oracle"], (
            "engine scan saw %d row(s), version-visibility oracle says %d"
            % (first, state["oracle"])
        )
        assert _count(state["db"], "T") == 2, "commit lost after the race"


class FirstCommitterWins(Scenario):
    """Two overlapping transactions increment the same row (read-modify-
    write through the core MVCC API, which — unlike SQL statements — does
    not serialize under the statement lock).

    Under first-committer-wins, both writers read the row under their own
    snapshot and try to replace it (tombstone + insert).  The second
    stamper of the shared version gets ``TransactionConflictError``
    (sqlstate 40001) and its transaction rolls back completely.  A *lost
    update* — both increments "succeed" but the final value reflects only
    one — is the bug this catches.  Fully serialized interleavings
    legitimately let both succeed.
    """

    name = "first-committer-wins"
    description = "overlapping updates of one row; no lost update, loser 40001"

    def setup(self) -> dict:
        state = _make_db()
        state["db"].connect().execute("CREATE TABLE T (A INT)")
        state["db"].connect().execute("INSERT INTO T VALUES (0)")
        state["wins"] = []
        state["conflicts"] = []
        return state

    def thread_specs(self, state: dict) -> list:
        db = state["db"]
        table = db.catalog.get_table("T").table

        def increment(who):
            def body():
                txn = db.txn.begin()
                try:
                    (value,) = txn.read(table)[0]
                    txn.delete(table, table.visible_mask(txn.snapshot))
                    txn.insert(table, [(value + 1,)])
                except TransactionConflictError:
                    state["conflicts"].append(who)  # delete aborted the txn
                else:
                    txn.commit()
                    state["wins"].append(who)
            return body

        return [("txnA", increment("A")), ("txnB", increment("B"))]

    def check(self, state: dict) -> None:
        db = state["db"]
        wins, conflicts = state["wins"], state["conflicts"]
        assert len(wins) + len(conflicts) == 2
        assert len(wins) >= 1, "both updates conflicted: no first committer"
        value = int(_rows(db, "SELECT A FROM T")[0][0])
        assert value == len(wins), (
            "row at %d after %d successful increment(s): lost update"
            % (value, len(wins))
        )
        assert _count(db, "T") == 1, "increments changed the row count"
        assert db.txn.stats["conflicts"] == len(conflicts)
        assert db.txn.report()["active"] == 0, "transaction leaked as active"


class CommitCrashVersions(Scenario):
    """Crash at any state while an insert and a delete commit (MVCC WAL).

    Commit records carry the writer's txid; recovery replays only durably
    committed transactions and restamps every surviving version ancient
    (txids are incarnation-local).  Oracles after the crash-restart: row
    counts equal the durable WAL's committed inserts minus deletes; no
    stamp from the dead incarnation survives (``xmin`` cleared, ``xmax``
    only 0/ANCIENT); and the SQL-visible count equals the
    version-visibility oracle on a fresh snapshot — an uncommitted
    writer's versions never resurrect.
    """

    name = "commit-crash-versions"
    description = "crash during MVCC commits; versions pruned + restamped"
    crashes = True

    def setup(self) -> dict:
        state = _make_db(group_commit=4)
        session = state["db"].connect()
        session.execute("CREATE TABLE TA (A INT)")
        session.execute("INSERT INTO TA VALUES (0)")
        state["manager"].flush()  # the base row is durable; the race is DML
        return state

    def thread_specs(self, state: dict) -> list:
        db = state["db"]

        def insert():
            db.connect().execute("INSERT INTO TA VALUES (1), (2)")

        def delete():
            db.connect().execute("DELETE FROM TA WHERE A = 0")

        return [("ins", insert), ("del", delete)]

    def _check_versions(self, state: dict) -> None:
        db = state["db"]
        table = db.catalog.get_table("TA").table
        for region in table.regions:
            assert region.xmin is None, "region xmin survived recovery"
            if region.xmax is not None:
                foreign = set(region.xmax.tolist()) - {0, ANCIENT_TXID}
                assert not foreign, (
                    "dead-incarnation xmax stamps survived: %s" % foreign
                )
        n = table.tail_rows
        assert not table._tail_xmin[:n].any(), "tail xmin survived recovery"
        assert set(table._tail_xmax[:n].tolist()) <= {0, ANCIENT_TXID}
        snap = db.txn.snapshot()
        assert len(visible_rows(table, snap)) == _count(db, "TA"), (
            "version-visibility oracle disagrees with SQL count"
        )

    def crash(self, state: dict) -> None:
        db = state["db"]
        db.reopen(clean=False)
        # No checkpoint exists, so recovery rebuilds from the WAL alone:
        # the expected count is exactly the durable committed inserts
        # minus deletes (the setup row's insert is itself a WAL record).
        expected = 0
        for _txid, ops in committed_transactions(state["manager"].wal.records()):
            for record in ops:
                if record.kind == "insert":
                    expected += len(record.payload[1])
                elif record.kind == "delete":
                    expected -= len(record.payload[1][1])
        got = _count(db, "TA")
        assert got == expected, (
            "recovered TA has %d row(s), durable WAL commits say %d"
            % (got, expected)
        )
        self._check_versions(state)

    def check(self, state: dict) -> None:
        db = state["db"]
        assert _count(db, "TA") == 2  # (1), (2) in; (0) deleted
        db.reopen(clean=True)
        assert _count(db, "TA") == 2
        self._check_versions(state)


class PlanCacheFillVsDdl(Scenario):
    """A plan-cache fill races a DDL commit on the name the plan resolved.

    One session executes ``SELECT A FROM V`` for the first time — plans
    it, then stores the plan — while another redefines the view ``V`` over
    a different table.  A plan is valid only while the DDL stamp of every
    name it resolved stands (``Catalog.resolve`` reads the stamp before the
    object, DDL moves it after the change), so whichever way the two
    interleave, the plan that ends up cached either compiles the new
    definition or is dropped on its next lookup.  The bug this catches: a
    plan of the *old* definition stored under the new definition's stamp —
    every later execution of the template would silently answer from it.
    """

    name = "plan-cache-fill-vs-ddl"
    description = "first execution of a template races a redefinition of its view"

    _QUERY = "SELECT A FROM V"

    def setup(self) -> dict:
        db = Database(name="MC")
        session = db.connect()
        session.execute("CREATE TABLE OLD (A INT)")
        session.execute("CREATE TABLE NEW (A INT)")
        session.execute("INSERT INTO OLD VALUES (0)")
        session.execute("INSERT INTO NEW VALUES (7)")
        session.execute("CREATE VIEW V AS SELECT A FROM OLD")
        return {"db": db}

    def thread_specs(self, state: dict) -> list:
        db = state["db"]

        def reader():
            state["seen"] = _rows(db, self._QUERY)

        def ddl():
            db.connect().execute("CREATE OR REPLACE VIEW V AS SELECT A FROM NEW")

        return [("reader", reader), ("ddl", ddl)]

    def check(self, state: dict) -> None:
        db = state["db"]
        assert state["seen"] in ([(0,)], [(7,)]), state["seen"]
        # Whatever the race left in the cache, the template now answers
        # from the definition that stands — and again, from the cached plan.
        for _ in range(2):
            assert _rows(db, self._QUERY) == [(7,)], (
                "cached plan still compiles the replaced view definition"
            )
        assert db.plan_cache.stats.hits >= 1


class ResultFillVsFilteredCommit(Scenario):
    """A result-cache fill races a commit the cache decides about by delta.

    A gateway session asks ``SELECT V FROM T WHERE K = 1`` for the first
    time — clock read, snapshot pinned, execution, store — while a writer
    commits ``UPDATE T ... WHERE K = 2``, whose old and new rows both fail
    the entry's filter: the hook spares the entry if it is there, and marks
    ``T`` checked through the commit either way.  Whichever way the two
    interleave, the cache must then answer exactly what the table holds:
    hit or not, and after a commit that reaches the entry (run once the
    race is over).  The bug this catches: a table marked checked through a
    commit an entry never saw, so that an entry born before the commit —
    stored past the clock, or filed after the hook ran — is taken as
    current.
    """

    name = "result-fill-vs-filtered-commit"
    description = "first fill of a cached lookup races a commit whose delta spares it"

    _QUERY = "SELECT V FROM T WHERE K = 1"

    def setup(self) -> dict:
        from repro.serving import ServingGateway

        db = Database(name="MC")
        session = db.connect()
        session.execute("CREATE TABLE T (K INT, V INT)")
        session.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
        session.execute(self._QUERY)  # the plan is cached; the answer is not
        return {"db": db, "gateway": ServingGateway(db)}

    def thread_specs(self, state: dict) -> list:
        db, gateway = state["db"], state["gateway"]

        def reader():
            state["seen"] = gateway.execute(self._QUERY).rows

        def writer():
            db.connect().execute("UPDATE T SET V = V + 1 WHERE K = 2")

        return [("reader", reader), ("writer", writer)]

    def check(self, state: dict) -> None:
        db, cache = state["db"], state["gateway"].result_cache
        assert state["seen"] == [(10,)], state["seen"]
        for _ in range(2):  # whatever the race left cached, then from the cache
            assert cache.fetch(self._QUERY).result.rows == [(10,)]
        assert cache.fetch(self._QUERY).hit
        db.execute("UPDATE T SET V = V + 1 WHERE K = 2")
        assert cache.fetch(self._QUERY).hit, "a sparing commit dropped the entry"
        db.execute("UPDATE T SET V = 110 WHERE K = 1")
        fetched = cache.fetch(self._QUERY)
        assert fetched.result.rows == [(110,)], (
            "result cache served %r after a commit that reaches it (hit=%s)"
            % (fetched.result.rows, fetched.hit)
        )


class CrashRacesCommit(Scenario):
    """One session's injected crash races another session's commit.

    Unlike the crash pseudo-thread, which stops every thread at once, this
    fault fires inside one session: its WAL flush dies with its records
    still buffered while the other session runs on.  The host is down from
    then on, so the other commit was durable before the crash or raises
    ``CrashError``; it never flushes the crashed statement's records.
    Oracle: before recovery no MVCC transaction is left active (a failed
    commit aborts its transaction); after recovery the crashed session's
    row is absent, the other's is there exactly when its statement
    committed.
    """

    name = "crash-races-commit"
    description = "one session's wal.flush crash races another session's commit"

    def setup(self) -> dict:
        injector = FaultInjector()
        state = _make_db(injector=injector)
        session = state["db"].connect()
        session.execute("CREATE TABLE TA (A INT)")
        session.execute("CREATE TABLE TB (A INT)")
        injector.arm("wal.flush", mode="crash")  # the next flush, whoever's
        state["outcomes"] = {}
        return state

    def thread_specs(self, state: dict) -> list:
        return _insert_each(state["db"], state["outcomes"])

    def check(self, state: dict) -> None:
        db, outcomes = state["db"], state["outcomes"]
        crashed = [t for t, o in outcomes.items() if o.startswith("injected")]
        assert len(crashed) == 1, "one injected crash, got %r" % outcomes
        active = db.txn.report()["active"]
        assert active == 0, "%d transaction(s) left active by %r" % (active, outcomes)
        db.reopen(clean=False)
        for table, outcome in outcomes.items():
            got = _count(db, table)
            assert got == (outcome == "committed"), (
                "%s holds %d row(s) after recovery; its statement ended %r"
                % (table, got, outcome)
            )


#: The registry, in documentation order.
SCENARIOS = [
    ConcurrentInsertCommit(),
    InsertVsAbort(),
    CommitVsCheckpoint(),
    GroupCommitCrash(),
    SnapshotReadVsCommit(),
    FirstCommitterWins(),
    CommitCrashVersions(),
    PlanCacheFillVsDdl(),
    ResultFillVsFilteredCommit(),
    CrashRacesCommit(),
]


def by_name(name: str) -> Scenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError(
        "unknown scenario %r (have: %s)"
        % (name, ", ".join(s.name for s in SCENARIOS))
    )
