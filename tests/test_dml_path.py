"""UPDATE and DELETE read what they touch, and are planned once per template.

* ``Database._match`` answers a write's WHERE the way a scan answers a
  SELECT's — synopses, predicates on codes, row ids — reads visibility at
  the candidates only, and evaluates the residual at the visible ones
  alone; a property pins it to the whole-table answer it replaced.
* A write is cached in the one plan cache, keyed like a SELECT family; an
  oracle pins a cached UPDATE / DELETE to a fresh one under DDL and
  temp-table shadowing.
* The regressions it fixed: a WHERE evaluated over versions the statement
  cannot see, SET rounding DECIMALs unlike INSERT, NOT NULL reporting the
  unique-violation SQLSTATE — and ``RowDatabase``, the oracle, enforcing
  keys and NOT NULL at all.
"""

from __future__ import annotations

import random
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.rowdb import RowDatabase
from repro.cluster import Cluster, HardwareSpec
from repro.database import Database
from repro.database import database as database_module
from repro.engine.expression import Batch, selection_mask
from repro.engine.operators import TableScanOp
from repro import errors
from repro.errors import ConstraintViolationError, SQLError
from repro.sql.binder import ExpressionBinder, Scope, ScopeColumn
from repro.sql.parser import parse_statement


def _rows(db, table="z"):
    return sorted(db.execute("SELECT * FROM %s" % table).rows, key=repr)


def _outcome(db, sql):
    try:
        return db.execute(sql).rowcount
    except SQLError as exc:
        return exc.sqlstate


# -- a WHERE sees only the versions its statement can see ----------------------------


def _tombstoned_zero(db):
    db.execute("CREATE TABLE z (k INT, v INT)")
    db.execute("INSERT INTO z VALUES (1, 0), (2, 5), (3, 1), (4, 2)")
    db.execute("DELETE FROM z WHERE k = 1")  # the row with v = 0 is gone


class TestInvisibleVersionsNeverReachTheWhere:
    @pytest.mark.parametrize("engine", [
        lambda: Database(parallelism=1), RowDatabase,
    ])
    def test_delete_after_a_tombstone(self, engine):
        db = engine()
        _tombstoned_zero(db)
        assert db.execute("DELETE FROM z WHERE 10 / v > 1").rowcount == 3
        assert _rows(db) == []

    @pytest.mark.parametrize("engine", [
        lambda: Database(parallelism=1), RowDatabase,
    ])
    def test_update_after_a_tombstone(self, engine):
        db = engine()
        _tombstoned_zero(db)
        assert db.execute("UPDATE z SET v = 100 / v WHERE 10 / v > 1").rowcount == 3
        assert _rows(db) == [(2, 20), (3, 100), (4, 50)]

    def test_a_sealed_tombstone(self):
        db = Database(parallelism=1, region_rows=2)
        _tombstoned_zero(db)
        assert len(db.catalog.get_table("Z").table.regions) == 2
        assert db.execute("UPDATE z SET v = v + 1 WHERE 10 / v > 1").rowcount == 3
        assert db.execute("DELETE FROM z WHERE 10 / v >= 1").rowcount == 3

    def test_a_row_an_in_flight_transaction_inserted(self):
        db = Database(parallelism=1)
        db.execute("CREATE TABLE z (k INT, v INT)")
        db.execute("INSERT INTO z VALUES (2, 5)")
        writer = db.txn.begin()
        writer.insert(db.catalog.get_table("Z").table, [(9, 0)])
        assert db.execute("UPDATE z SET v = v * 2 WHERE 10 / v > 1").rowcount == 1
        assert db.execute("DELETE FROM z WHERE 10 / v >= 1").rowcount == 1
        writer.abort()
        assert _rows(db) == []

    def test_a_four_shard_cluster_with_broadcast_dml(self):
        cluster = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2)
        assert len(cluster.shards) == 4
        session = cluster.connect("db2")
        session.execute("CREATE TABLE z (k INT, v INT) DISTRIBUTE BY HASH (k)")
        session.execute(
            "INSERT INTO z VALUES " + ", ".join("(%d, %d)" % (k, k % 3) for k in range(24))
        )
        session.execute("DELETE FROM z WHERE v = 0")  # on every shard
        assert session.execute("UPDATE z SET v = v + 1 WHERE 10 / v > 1").rowcount == 16
        assert session.execute("DELETE FROM z WHERE 10 / v >= 1").rowcount == 16
        assert session.execute("SELECT COUNT(*) FROM z").rows == [(0,)]


# -- SET lands a DECIMAL as INSERT does ------------------------------------------------


class TestDecimalAssignmentRounding:
    @pytest.mark.parametrize("engine", [Database, RowDatabase])
    @pytest.mark.parametrize("literal, stored", [
        ("-1.005", Decimal("-1.00")), ("-0.005", Decimal("0.00")),
        ("1.015", Decimal("1.02")), ("-1.015", Decimal("-1.02")),
    ])
    def test_a_literal_rounds_like_insert(self, engine, literal, stored):
        db = engine()
        db.execute("CREATE TABLE d (k INT, v DECIMAL(6,2))")
        db.execute("INSERT INTO d VALUES (1, 0.00), (2, %s)" % literal)
        db.execute("UPDATE d SET v = %s WHERE k = 1" % literal)
        assert db.execute("SELECT k, v FROM d ORDER BY 1").rows == [(1, stored), (2, stored)]

    @pytest.mark.parametrize("engine", [Database, RowDatabase])
    def test_an_expression_rounds_like_insert(self, engine):
        db = engine()
        db.execute("CREATE TABLE d (k INT, v DECIMAL(6,2))")
        db.execute("INSERT INTO d VALUES (1, 2.00), (2, -2.00)")
        db.execute("UPDATE d SET v = v * 1.0025")  # +-2.005: half to even
        assert db.execute("SELECT k, v FROM d ORDER BY 1").rows == [
            (1, Decimal("2.00")), (2, Decimal("-2.00"))
        ]


# -- constraint SQLSTATEs, and the row store enforcing them ------------------------


_KEYED = "CREATE TABLE u (k INT PRIMARY KEY, v INT NOT NULL, w VARCHAR(4) UNIQUE)"


class TestConstraints:
    def test_not_null_is_23502_and_still_a_constraint_violation(self):
        db = Database()
        db.execute(_KEYED)
        with pytest.raises(ConstraintViolationError) as caught:
            db.execute("INSERT INTO u VALUES (1, NULL, 'a')")
        assert isinstance(caught.value, errors.NotNullViolationError)
        assert caught.value.sqlstate == "23502"
        db.execute("INSERT INTO u VALUES (1, 1, 'a')")
        with pytest.raises(errors.NotNullViolationError):
            db.execute("UPDATE u SET v = NULL")
        with pytest.raises(ConstraintViolationError) as caught:
            db.execute("INSERT INTO u VALUES (1, 2, 'b')")
        assert caught.value.sqlstate == "23505"

    CASES = [
        "INSERT INTO u VALUES (1, 2, 'x')",  # duplicate key
        "INSERT INTO u VALUES (7, NULL, 'x')",  # NULL into NOT NULL
        "INSERT INTO u VALUES (7, 1, 'x'), (8, NULL, 'y')",  # all or nothing
        "INSERT INTO u VALUES (7, 1, 'x'), (7, 1, 'y')",  # duplicate in the batch
        "INSERT INTO u VALUES (7, 1, 'a')",  # duplicate on the second key
        "INSERT INTO u VALUES (7, 1, NULL), (8, 1, NULL)",  # NULLs never collide
        "UPDATE u SET k = 1",
        "UPDATE u SET k = 1 WHERE k = 2",
        "UPDATE u SET v = NULL WHERE k = 3",
        "UPDATE u SET w = 'b' WHERE k = 1",
        "DELETE FROM u WHERE k = 2",
        "INSERT INTO u VALUES (2, 9, 'q')",  # the deleted key is free again
        "UPDATE u SET k = k + 1",  # shifts onto the next key: checked at the end
        "UPDATE u SET k = k + 10",  # shifts clear of every key
        "UPDATE u SET w = NULL",
    ]

    def test_row_database_enforces_keys_and_not_null_like_the_engine(self):
        engines = [Database(), RowDatabase()]
        for db in engines:
            db.execute(_KEYED)
            db.execute("INSERT INTO u VALUES (1, 1, 'a'), (2, 2, 'b'), (3, 3, NULL)")
        for sql in self.CASES:
            outcomes = [_outcome(db, sql) for db in engines]
            assert outcomes[0] == outcomes[1], sql
            assert _rows(engines[0], "u") == _rows(engines[1], "u"), sql

    def test_a_failed_update_leaves_nothing_behind(self):
        for db in (Database(), RowDatabase()):
            db.execute(_KEYED)
            db.execute("INSERT INTO u VALUES (1, 1, 'a'), (2, 2, 'b')")
            before = _rows(db, "u")
            assert _outcome(db, "UPDATE u SET k = 5, v = NULL WHERE k = 2") == "23502"
            assert _outcome(db, "UPDATE u SET k = 2 WHERE k = 1") == "23505"
            assert _rows(db, "u") == before


# -- _match equals the whole-table answer it replaced -----------------------------


_COLUMNS = "k INT, g INT, s VARCHAR(3), d DECIMAL(6,2)"

_PUSHED = [
    "k = {i}", "k < {i}", "k >= {i}", "k BETWEEN {i} AND {j}", "k IN ({i}, {j}, 3)",
    "g = {small}", "g <> {small}", "g IS NULL", "g IS NOT NULL", "g IN ({small}, 2)",
    "s = '{s}'", "s >= '{s}'", "s IS NULL", "d > {i}.50", "d <= {j}.25",
]
_RESIDUAL = [
    "k + g > {i}", "s LIKE '{s}%'", "g <> k", "(k = {i} OR g = {small})",
    "COALESCE(g, 0) = {small}", "d * 2 < {j}", "NOT (k = {j})", "s || 'x' = '{s}x'",
]


def _value_rows(draw, n):
    strings = st.one_of(st.none(), st.sampled_from(["a", "ab", "b", "ba", "c", ""]))
    groups = st.one_of(st.none(), st.none(), st.integers(0, 3))
    decimals = st.one_of(st.none(), st.integers(-500, 500))
    rows = []
    for k in range(n):
        cents = draw(decimals)
        rows.append((
            k if draw(st.booleans()) else draw(st.integers(0, n)),
            draw(groups), draw(strings),
            None if cents is None else Decimal(cents).scaleb(-2),
        ))
    return rows


@st.composite
def _dml_cases(draw):
    n = draw(st.integers(0, 40))
    rows = _value_rows(draw, n)
    flushes = sorted(draw(st.sets(st.integers(0, n), max_size=3)))
    deleted = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=6)) if n else set()
    in_flight = draw(st.booleans())
    fill = dict(
        i=draw(st.integers(0, 40)), j=draw(st.integers(0, 40)),
        small=draw(st.integers(0, 3)), s=draw(st.sampled_from(["a", "b", "ab", "c"])),
    )
    conjuncts = draw(st.lists(
        st.sampled_from(_PUSHED + _RESIDUAL), min_size=0, max_size=3
    ))
    where = " AND ".join(c.format(**fill) for c in conjuncts)
    return rows, flushes, deleted, in_flight, where


def _old_match(db, table, alias, where, snapshot):
    """What ``_table_batch`` computed: every column decoded, the WHERE over
    every row, ANDed with the whole-table visibility mask."""
    columns, scope = {}, []
    for name, dtype in table.schema.columns:
        key = "%s.%s" % (alias, name)
        columns[key] = table.column_vector(name)
        scope.append(ScopeColumn(key, name, alias, dtype))
    batch = Batch.from_columns(columns)
    mask = table.visible_mask(snapshot)
    if where is not None:
        binder = ExpressionBinder(Scope(scope), db.connect().dialect, db)
        mask = mask & selection_mask(binder.bind(where), batch)
    return np.flatnonzero(mask), batch.filter(mask)


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(_dml_cases())
def test_match_equals_the_whole_table_answer(case):
    rows, flushes, deleted, in_flight, where = case
    db = Database(region_rows=64)
    db.execute("CREATE TABLE t (%s)" % _COLUMNS)
    table = db.catalog.get_table("T").table
    table.synopsis_stride = 4  # several extents per region: skipping has holes
    start = 0
    for stop in flushes + [len(rows)]:
        if stop > start:
            table.insert_rows(rows[start:stop])
            if stop in flushes:
                table.flush()
        start = max(start, stop)
    if deleted:
        mask = np.zeros(table.n_rows_physical(), dtype=bool)
        mask[sorted(deleted)] = True
        table.apply_deletes(mask)
    writer = None
    if in_flight:  # neither its new row nor its tombstone is ours to see
        writer = db.txn.begin()
        writer.insert(table, [(7, 1, "ab", Decimal("1.50"))])
        live = table.visible_mask(writer.snapshot)
        if live.any():
            mask = np.zeros(live.size, dtype=bool)
            mask[np.flatnonzero(live)[0]] = True
            writer.delete(table, mask)
    sql = "DELETE FROM t x" + (" WHERE " + where if where else "")
    txn = db.txn.begin()
    db._tls.txn = txn
    try:
        plan = db._write_plan(parse_statement(sql), db.connect())
        positions, batch, size = db._match(plan)
        expected, old = _old_match(db, table, "X", parse_statement(sql).where, txn.snapshot)
    finally:
        db._tls.txn = None
        txn.abort()
        if writer is not None:
            writer.abort()
    assert size == table.n_rows_physical()
    assert positions.tolist() == expected.tolist()
    if positions.size:
        assert list(batch.columns) == ["X.K", "X.G", "X.S", "X.D"]
        for key, vector in old.columns.items():
            assert batch.columns[key].to_boundary() == vector.to_boundary(), key


# -- the matcher reads what it touches ---------------------------------------------


def _accounts(region_rows=64, n=300):
    db = Database(region_rows=region_rows)
    session = db.connect()
    session.execute(
        "CREATE TABLE accounts (acct_id INT PRIMARY KEY, cust VARCHAR(8),"
        " branch INT, balance DECIMAL(12,2))"
    )
    session.execute("INSERT INTO accounts VALUES " + ", ".join(
        "(%d, 'c%d', %d, %d.50)" % (i, i % 7, i % 5, i) for i in range(n)
    ))
    db.catalog.get_table("ACCOUNTS").table.flush()
    return db, session


class TestReadsWhatItTouches:
    def test_no_table_scan_and_no_whole_region_decode(self, monkeypatch):
        from repro.compression.codec import CompressedColumn

        db, session = _accounts()
        decoded = []
        original = CompressedColumn.decode

        def decode(self, ids=None):
            decoded.append(self.n if ids is None else len(ids))
            return original(self, ids)

        def refuse(*args, **kwargs):
            raise AssertionError("DML built a TableScanOp")

        monkeypatch.setattr(CompressedColumn, "decode", decode)
        monkeypatch.setattr(TableScanOp, "__init__", refuse)
        session.execute("UPDATE accounts SET balance = balance + 1.25 WHERE acct_id = 77")
        session.execute("DELETE FROM accounts WHERE acct_id = 201 AND branch < 3")
        assert decoded and max(decoded) == 1  # one row, never a region
        assert not hasattr(Database, "_table_batch")
        monkeypatch.undo()
        assert session.execute(
            "SELECT balance FROM accounts WHERE acct_id = 77"
        ).rows == [(Decimal("78.75"),)]
        assert session.execute("SELECT COUNT(*) FROM accounts").rows == [(299,)]

    def test_a_delete_forgets_only_its_own_unique_values(self):
        db, session = _accounts()
        session.execute("DELETE FROM accounts WHERE acct_id = 5")
        session.execute("INSERT INTO accounts VALUES (5, 'n', 0, 0.00)")
        with pytest.raises(ConstraintViolationError):
            session.execute("INSERT INTO accounts VALUES (6, 'n', 0, 0.00)")

    def test_delete_hands_listeners_only_the_matched_rows(self):
        db, session = _accounts()
        seen = []
        db.add_commit_listener(seen.append)
        session.execute("DELETE FROM accounts WHERE branch = 1 AND acct_id < 20")
        delta = seen[-1].deltas["ACCOUNTS"]
        assert delta.n == 4
        assert delta.column("ACCT_ID").values.tolist() == [1, 6, 11, 16]
        assert delta.column("CUST").to_boundary() == ["c1", "c6", "c4", "c2"]


# -- DML templates in the plan cache --------------------------------------------------


class TestDmlPlanCache:
    def test_a_hit_neither_parses_nor_binds(self, monkeypatch):
        db, session = _accounts()
        sql = "UPDATE accounts SET balance = balance + %d.25 WHERE acct_id = %d"
        session.execute(sql % (1, 3))
        calls = []
        parse = database_module.parse_statement
        bind = ExpressionBinder.bind
        monkeypatch.setattr(
            database_module, "parse_statement",
            lambda *a, **k: calls.append("parse") or parse(*a, **k),
        )
        monkeypatch.setattr(
            ExpressionBinder, "bind", lambda *a, **k: calls.append("bind") or bind(*a, **k)
        )
        hits = db.plan_cache.stats.hits
        assert session.execute(sql % (2, 4)).rowcount == 1
        assert session.execute(sql % (3, 999_999)).rowcount == 0
        assert calls == [] and db.plan_cache.stats.hits == hits + 2
        monkeypatch.undo()
        assert session.execute(
            "SELECT balance FROM accounts WHERE acct_id IN (3, 4) ORDER BY 1"
        ).rows == [(Decimal("4.75"),), (Decimal("6.75"),)]

    def test_what_is_not_cached_says_why(self):
        db, session = _accounts()
        session.execute("CREATE TABLE d (v DECIMAL(7,2))")
        session.execute("INSERT INTO d VALUES (1.00)")
        reasons = db.plan_cache.stats.bypass_reasons
        before = dict(reasons)
        statements = [
            "DELETE FROM d WHERE v = 1.000",  # planned and kept: a miss
            "DELETE FROM d WHERE v = 1.005",  # the late constant does not fit
            "DELETE FROM accounts WHERE acct_id IN (SELECT MAX(acct_id) FROM accounts)",
            "UPDATE accounts SET branch = RAND() WHERE acct_id < 0",
            "INSERT INTO d VALUES (2.00)",
        ]
        outcomes = [_outcome(db, sql) for sql in statements]
        assert outcomes == [1, 0, 1, 0, 1]
        db.execute_ast(parse_statement("UPDATE d SET v = 0 WHERE v = 2.00"))
        session.execute("DECLARE GLOBAL TEMPORARY TABLE tmp (x INT)")
        session.execute("UPDATE tmp SET x = 1")
        counted = {k: v - before[k] for k, v in reasons.items() if v != before[k]}
        assert counted == {
            "literal-shape": 1, "plan-time-subquery": 1, "volatile": 1,
            "not-a-read": 2, "ast-entry": 1, "temp-table": 1,
        }
        assert _rows(db, "d") == [(Decimal("0.00"),)]

    def test_ddl_and_a_shadowing_temp_table_retarget_a_cached_write(self):
        db, session = _accounts()
        sql = "UPDATE accounts SET branch = %d WHERE acct_id = 1"
        session.execute(sql % 7)
        session.execute("DROP TABLE accounts")
        session.execute("CREATE TABLE accounts (acct_id INT, branch INT)")
        session.execute("INSERT INTO accounts VALUES (1, 0)")
        assert session.execute(sql % 8).rowcount == 1
        assert db.plan_cache.stats.invalidations == 1
        assert session.execute("SELECT branch FROM accounts").rows == [(8,)]
        session.execute(
            "DECLARE GLOBAL TEMPORARY TABLE accounts (acct_id INT, branch INT)"
        )
        session.execute("INSERT INTO accounts VALUES (1, 0), (1, 1)")
        assert session.execute(sql % 9).rowcount == 2  # the temp table's rows
        other = db.connect()
        assert other.execute(sql % 10).rowcount == 1  # the catalog table's
        assert other.execute("SELECT branch FROM accounts").rows == [(10,)]

    def test_a_broadcast_update_hits_every_shards_cached_write(self):
        cluster = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2)
        shards = [shard.engine for shard in cluster.shards.values()]
        assert len(shards) == 4
        single = Database().connect("db2")
        cs = cluster.connect("db2")
        single.execute("CREATE TABLE z (k INT, v INT)")
        cs.execute("CREATE TABLE z (k INT, v INT) DISTRIBUTE BY HASH (k)")
        rows = "INSERT INTO z VALUES " + ", ".join("(%d, %d)" % (k, k % 5) for k in range(40))
        sql = "UPDATE z SET v = v + %d WHERE k < %d"
        for session in (single, cs):
            session.execute(rows)
            session.execute(sql % (2, 10))
        counts = [(db.plan_cache.stats.hits, db.plan_cache.stats.misses) for db in shards]
        assert all(misses == 1 for _, misses in counts)
        for session in (single, cs):
            assert session.execute(sql % (3, 25)).rowcount == 25
            session.execute("DELETE FROM z WHERE v = %d" % 4)
            session.execute("DELETE FROM z WHERE v = %d" % 5)
        # the second UPDATE and DELETE of each template bind the shard's plan
        assert [
            (db.plan_cache.stats.hits - hits, db.plan_cache.stats.misses - misses)
            for db, (hits, misses) in zip(shards, counts)
        ] == [(2, 1)] * 4
        query = "SELECT k, v FROM z ORDER BY 1"
        assert cs.execute(query).rows == single.execute(query).rows


_ORACLE_TABLES = {
    "p": "CREATE TABLE p (k INT, g INT, s VARCHAR(4))",
    "q": "CREATE TABLE q (k INT, s VARCHAR(4), g INT)",  # the same names, moved
}
_ORACLE_WRITES = [
    "UPDATE {t} SET g = g + {i} WHERE k = {j}",
    "UPDATE {t} SET s = 'v{i}' WHERE g < {i} AND k > {j}",
    "UPDATE {t} x SET g = x.k * 2 WHERE x.s LIKE 'v%'",
    "DELETE FROM {t} WHERE k = {i}",
    "DELETE FROM {t} WHERE g IS NULL AND k < {j}",
    "INSERT INTO {t} (k, g, s) VALUES ({i}, {j}, 's{i}')",
]


def _oracle_step(rng, sessions):
    roll = rng.random()
    t = rng.choice(["p", "q"])
    session = rng.choice(sessions)
    if roll < 0.08:
        return session, "DROP TABLE %s" % t
    if roll < 0.16:
        return session, _ORACLE_TABLES[t]
    if roll < 0.22:
        return session, "DECLARE GLOBAL TEMPORARY TABLE %s (k INT, g INT, s VARCHAR(4))" % t
    if roll < 0.26:
        return session, "FLUSH"
    sql = rng.choice(_ORACLE_WRITES).format(t=t, i=rng.randint(0, 9), j=rng.randint(0, 9))
    return session, sql


@pytest.mark.parametrize("seed", range(6))
def test_a_cached_write_equals_a_fresh_one_under_ddl_and_shadowing(seed):
    """Two engines run one random stream of writes, DDL, temp-table
    declarations and flushes; one keeps its plans, the other empties its
    plan cache before every statement.  Every outcome and every table agree."""
    rng = random.Random(seed)
    engines = [Database("CACHED", region_rows=8), Database("FRESH", region_rows=8)]
    sessions = [[db.connect(), db.connect()] for db in engines]
    for db in engines:
        for ddl in _ORACLE_TABLES.values():
            db.execute(ddl)
            db.execute("INSERT INTO %s (k, g, s) VALUES (1, 1, 'a'), (2, NULL, 'b')"
                       % ddl.split()[2])
    for _ in range(80):
        which, sql = _oracle_step(rng, [0, 1])
        outcomes = []
        for db, pair in zip(engines, sessions):
            if db.name == "FRESH":
                db.plan_cache.clear()
            if sql == "FLUSH":
                for name in db.table_names():
                    db.catalog.get_table(name).table.flush()
                outcomes.append(None)
                continue
            try:
                outcomes.append(pair[which].execute(sql).rowcount)
            except SQLError as exc:
                outcomes.append(exc.sqlstate)
        assert outcomes[0] == outcomes[1], sql
        for t in _ORACLE_TABLES:
            views = [_outcome_rows(pair[which], t) for pair in sessions]
            assert views[0] == views[1], (sql, t)
    assert engines[0].plan_cache.stats.hits > 0


def _outcome_rows(session, table):
    try:
        return sorted(session.execute("SELECT k, g, s FROM %s" % table).rows, key=repr)
    except SQLError as exc:
        return exc.sqlstate
