"""SQL edge cases across the whole front end."""

import datetime
from decimal import Decimal

import pytest

from repro.database import Database
from repro.errors import (
    BindError,
    ConversionError,
    DivisionByZeroError,
    SQLError,
    SQLSyntaxError,
    UnsupportedFeatureError,
)


@pytest.fixture()
def s():
    db = Database()
    session = db.connect("db2")
    session.execute("CREATE TABLE t (a INT, b INT, s VARCHAR(8))")
    session.execute(
        "INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y'), (3, NULL, NULL), (4, 40, 'x')"
    )
    return session


class TestIdentifiers:
    def test_quoted_identifiers_preserve_case(self, s):
        s.execute('CREATE TABLE "CaseSensitive" ("Col" INT)')
        s.execute('INSERT INTO "CaseSensitive" VALUES (1)')
        # Catalog folds to the quoted spelling, which happens to be mixed.
        assert s.execute('SELECT "Col" FROM "CaseSensitive"').scalar() == 1

    def test_ambiguous_column(self, s):
        s.execute("CREATE TABLE u (a INT)")
        s.execute("INSERT INTO u VALUES (1)")
        with pytest.raises(BindError):
            s.execute("SELECT a FROM t, u")

    def test_qualified_disambiguation(self, s):
        s.execute("CREATE TABLE u2 (a INT)")
        s.execute("INSERT INTO u2 VALUES (9)")
        rows = s.execute("SELECT t.a, u2.a FROM t, u2 WHERE t.a = 1").rows
        assert rows == [(1, 9)]

    def test_duplicate_alias_rejected(self, s):
        with pytest.raises(BindError):
            s.execute("SELECT 1 FROM t x, t x")

    def test_unknown_column_names_position(self, s):
        with pytest.raises(BindError):
            s.execute("SELECT zz FROM t")


class TestExpressionsEdge:
    def test_unary_minus_chains(self, s):
        assert s.execute("SELECT - - a FROM t WHERE a = 2").scalar() == 2
        assert s.execute("SELECT -(a + 1) FROM t WHERE a = 2").scalar() == -3

    def test_division_by_zero_in_live_row(self, s):
        with pytest.raises(DivisionByZeroError):
            s.execute("SELECT 1 / (a - 1) FROM t")

    def test_division_by_zero_avoided_by_filter(self, s):
        rows = s.execute("SELECT 10 / a FROM t WHERE a > 1 ORDER BY 1").rows
        assert rows == [(2,), (3,), (5,)]  # truncating integer division

    def test_string_number_coercion_in_compare(self, s):
        assert s.execute("SELECT COUNT(*) FROM t WHERE a = '2'").scalar() == 1

    def test_arith_on_string_literal(self, s):
        assert s.execute("SELECT '5' + 1 FROM t WHERE a = 1").scalar() == 6.0

    def test_concat_mixed_types(self, s):
        assert s.execute("SELECT s || a FROM t WHERE a = 1").scalar() == "x1"

    def test_between_symmetric_nulls(self, s):
        # NULL BETWEEN is UNKNOWN: filtered.
        assert s.execute("SELECT COUNT(*) FROM t WHERE b BETWEEN 0 AND 100").scalar() == 3

    def test_not_in_excludes_nothing_with_null_operand(self, s):
        assert s.execute("SELECT COUNT(*) FROM t WHERE b NOT IN (10)").scalar() == 2

    def test_case_with_null_branch(self, s):
        rows = s.execute(
            "SELECT a, CASE WHEN b IS NULL THEN 'missing' END FROM t ORDER BY a"
        ).rows
        assert rows[2] == (3, "missing")
        assert rows[0] == (1, None)


class TestSetOpsAndSubqueries:
    def test_union_all_keeps_duplicates(self, s):
        rows = s.execute(
            "SELECT s FROM t WHERE s = 'x' UNION ALL SELECT s FROM t WHERE s = 'x'"
        ).rows
        assert len(rows) == 4

    def test_union_column_count_mismatch(self, s):
        with pytest.raises(SQLError):
            s.execute("SELECT a FROM t UNION SELECT a, b FROM t")

    def test_chained_set_ops(self, s):
        rows = s.execute(
            "SELECT a FROM t WHERE a <= 2 UNION SELECT a FROM t WHERE a = 3"
            " UNION SELECT a FROM t WHERE a = 4 ORDER BY 1"
        ).rows
        assert rows == [(1,), (2,), (3,), (4,)]

    def test_scalar_subquery_multiple_rows_rejected(self, s):
        with pytest.raises(SQLError):
            s.execute("SELECT (SELECT a FROM t) FROM t")

    def test_scalar_subquery_empty_is_null(self, s):
        assert s.execute(
            "SELECT COUNT(*) FROM t WHERE a = (SELECT a FROM t WHERE a = 99)"
        ).scalar() == 0

    def test_nested_ctes(self, s):
        value = s.execute(
            "WITH x AS (SELECT a FROM t WHERE a > 1),"
            " y AS (SELECT a FROM x WHERE a < 4)"
            " SELECT COUNT(*) FROM y"
        ).scalar()
        assert value == 2

    def test_in_subquery_with_nulls(self, s):
        # b values: 10, 20, NULL, 40
        assert s.execute(
            "SELECT COUNT(*) FROM t WHERE b IN (SELECT b FROM t)"
        ).scalar() == 3


class TestErrorsAndSyntax:
    def test_trailing_garbage(self, s):
        with pytest.raises(SQLSyntaxError):
            s.execute("SELECT a FROM t GARBAGE EXTRA TOKENS HERE (")

    def test_empty_statement(self, s):
        with pytest.raises(SQLSyntaxError):
            s.execute("")

    def test_insert_arity_mismatch(self, s):
        with pytest.raises(SQLError):
            s.execute("INSERT INTO t VALUES (1)")

    def test_insert_unknown_column(self, s):
        with pytest.raises(SQLError):
            s.execute("INSERT INTO t (zz) VALUES (1)")

    def test_order_by_ordinal_out_of_range(self, s):
        with pytest.raises(BindError):
            s.execute("SELECT a FROM t ORDER BY 9")

    def test_group_by_ordinal_out_of_range(self, s):
        with pytest.raises(BindError):
            s.execute("SELECT a FROM t GROUP BY 9")

    @pytest.mark.parametrize("clause", ["GROUP BY", "ORDER BY"])
    @pytest.mark.parametrize("position", ["1e0", "1.0", "1.5"])
    def test_ordinal_that_is_not_an_integer(self, s, clause, position):
        """Was a raw ``ValueError`` out of ``int('1e0')``.  The plan cache
        keys on the template, so the cached run must raise what the fresh
        one did — the typed error an out-of-range position gets."""
        expected = None
        for sql in ("SELECT a FROM t %s 9" % clause, "SELECT a FROM t %s %s" % (clause, position)):
            for _run in ("fresh", "cached"):
                with pytest.raises(BindError) as caught:
                    s.execute(sql)
                expected = expected or caught.value.sqlstate
                assert caught.value.sqlstate == expected

    def test_aggregate_in_where_rejected(self, s):
        from repro.errors import TypeCheckError

        with pytest.raises(TypeCheckError):
            s.execute("SELECT a FROM t WHERE SUM(b) > 10")

    def test_star_without_from(self, s):
        with pytest.raises(BindError):
            s.execute("SELECT *")


class TestInconvertibleValuesAreConversionErrors:
    """A value the column cannot hold is SQLSTATE 22018 whatever the target
    type, never a bare ``decimal.InvalidOperation`` / ``ValueError``."""

    CASES = [
        ("a", "'abc'"),       # Decimal('abc') inside the integer cast
        ("a", "''"),
        ("b", "1e30"),        # more digits than the decimal context holds
        ("b", "'Infinity'"),
        ("b", "'NaN'"),       # quantizes fine, then int(NaN)
        ("b", "'abc'"),       # the neighbours that were right already
        ("c", "'abc'"),
        ("d", "'abc'"),
    ]
    VALUES = {"'abc'": "abc", "''": "", "1e30": 1e30, "'Infinity'": "Infinity", "'NaN'": "NaN"}

    @pytest.fixture()
    def typed(self):
        session = Database().connect("db2")
        session.execute("CREATE TABLE c (a INT, b DECIMAL(8,2), c DOUBLE, d DATE)")
        return session

    @pytest.mark.parametrize("column,literal", CASES)
    def test_on_the_sql_path(self, typed, column, literal):
        with pytest.raises(ConversionError) as raised:
            typed.execute("INSERT INTO c (%s) VALUES (%s)" % (column, literal))
        assert raised.value.sqlstate == "22018"
        assert typed.execute("SELECT COUNT(*) FROM c").scalar() == 0

    @pytest.mark.parametrize("column,literal", CASES)
    def test_on_direct_insert_rows(self, typed, column, literal):
        table = typed.database.catalog.get_table("C").table
        bad = [None] * 4
        bad["abcd".index(column)] = self.VALUES[literal]
        good = (1, Decimal("1.50"), 2.5, datetime.date(2016, 1, 1))
        with pytest.raises(ConversionError) as raised:
            table.insert_rows([good, tuple(bad), good])
        assert raised.value.sqlstate == "22018"
        assert table.n_rows_physical() == 0  # and nothing of the batch landed

    def test_decimal_nan_object_is_rejected_like_the_float(self, typed):
        table = typed.database.catalog.get_table("C").table
        for value in (Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity")):
            with pytest.raises(ConversionError):
                table.insert_rows([(None, value, None, None)])
        with pytest.raises(ConversionError, match="NaN"):
            table.insert_rows([(None, None, float("nan"), None)])
        assert table.insert_rows([(None, None, float("inf"), None)]) == 1


class TestNumericCastMatchesTheRowStore:
    """CAST between numeric types answers, or fails, exactly as the row
    store's scalar cast does (the column path once passed the scaled
    DECIMAL integer through and skipped every range check)."""

    @pytest.mark.parametrize("sql", [
        "SELECT k, CAST(d AS INTEGER) FROM n ORDER BY 1",
        "SELECT k, CAST(d AS SMALLINT) FROM n ORDER BY 1",
        "SELECT CAST(b AS SMALLINT) FROM n WHERE k = 1",
        "SELECT CAST(b AS INTEGER) FROM n WHERE k = 2",
        "SELECT CAST(f AS INTEGER) FROM n WHERE k = 1",
        "SELECT CAST(f AS SMALLINT) FROM n WHERE k = 1",
        "SELECT CAST(f AS DECIMAL(8,2)) FROM n WHERE k = 1",
        "SELECT CAST(f AS INTEGER) FROM n WHERE k = 2",
    ])
    def test_column_cast_agrees_with_row_database(self, sql):
        from repro.baselines.rowdb import RowDatabase

        outcomes = []
        for system in (Database().connect("db2"), RowDatabase()):
            system.execute("CREATE TABLE n (k INT, d DECIMAL(8,2), b BIGINT, f DOUBLE)")
            system.execute(
                "INSERT INTO n VALUES (1, 1.50, 100000, 1e30),"
                " (2, 2.49, 5000000000, 2.5), (3, -2.50, 7, -1.5)"
            )
            try:
                outcomes.append(system.execute(sql).rows)
            except ConversionError as exc:
                outcomes.append(exc.sqlstate)
        assert outcomes[0] == outcomes[1], sql

    @staticmethod
    def _system(engine, ddl):
        from repro.baselines.rowdb import RowDatabase
        from repro.cluster import Cluster, HardwareSpec

        if engine == "cluster":
            system = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2).connect("db2")
            ddl += " DISTRIBUTE BY HASH (k)"
        elif engine == "rowdb":
            system = RowDatabase()
        else:
            system = Database(parallelism=1 if engine == "dop1" else 4).connect("db2")
        system.execute(ddl)
        return system

    @pytest.mark.parametrize("engine", ["dop1", "dop4", "cluster", "rowdb"])
    def test_decimal_cast_to_an_integer_truncates_toward_zero(self, engine):
        """DB2's CAST drops the fraction; storing the same DECIMAL into an
        INTEGER column still rounds half away from zero."""
        system = self._system(engine, "CREATE TABLE m (k INT, d DECIMAL(8,2), i INT)")
        system.execute("INSERT INTO m VALUES (1, 1.50, 1.50), (2, 2.49, 2.49), (3, -2.50, -2.50)")
        casts = system.execute("SELECT k, CAST(d AS INTEGER) FROM m ORDER BY 1").rows
        assert [row[1:] for row in casts] == [(1,), (2,), (-2,)]
        literals = system.execute(
            "SELECT CAST(1.50 AS INTEGER), CAST(2.49 AS SMALLINT), CAST(-2.50 AS BIGINT)"
            " FROM m WHERE k = 1"
        ).rows
        assert literals == [(1, 2, -2)]
        stored = system.execute("SELECT k, i FROM m ORDER BY 1").rows
        assert [row[1:] for row in stored] == [(2,), (2,), (-3,)]

    @pytest.mark.parametrize("engine", ["dop1", "dop4", "cluster", "rowdb"])
    def test_cast_to_a_smaller_decimal_scale_truncates_toward_zero(self, engine):
        """DB2's CAST drops the extra digits (toward zero); it does not
        floor, and it does not round as storing a value does."""
        system = self._system(engine, "CREATE TABLE c (k INT, v DECIMAL(8,3))")
        system.execute("INSERT INTO c VALUES (1, -1.005), (2, -0.005), (3, 1.015)")
        expected = [(1, Decimal("-1.00")), (2, Decimal("0.00")), (3, Decimal("1.01"))]
        assert system.execute("SELECT k, CAST(v AS DECIMAL(6,2)) FROM c ORDER BY k").rows == expected
        literals = system.execute(
            "SELECT CAST(-1.005 AS DECIMAL(6,2)), CAST(-0.005 AS DECIMAL(6,2)),"
            " CAST(1.015 AS DECIMAL(6,2)) FROM c WHERE k = 1"
        ).rows
        assert literals == [tuple(value for _, value in expected)]


class TestLiteralsBeyondInt64:
    """A numeric literal whose stored form does not fit int64 is 22018 when
    it is bound — on a fresh plan and on a cached one — never a raw
    ``OverflowError`` out of ``np.full``."""

    @pytest.mark.parametrize("literal", [
        "99999999999999999999", "99999999999999999999.0", "-9223372036854775808",
    ])
    def test_out_of_range_literal_is_a_conversion_error(self, s, literal):
        for _run in ("fresh", "cached"):
            with pytest.raises(ConversionError, match="out of range") as raised:
                s.execute("SELECT %s FROM t" % literal)
            assert raised.value.sqlstate == "22018"

    def test_largest_literals_still_bind(self, s):
        assert s.execute("SELECT 9223372036854775807 FROM t WHERE a = 1").scalar() == 2**63 - 1
        assert s.execute("SELECT -9223372036854775807 FROM t WHERE a = 1").scalar() == 1 - 2**63


class TestIntegerSumsStayExact:
    """An integer SUM or AVG whose exact group sum leaves int64 is 22003
    (DB2's SQL0802N) — never a wrapped answer — and the same statement
    answers, or fails, identically at DOP 1, at DOP 4, on a 4-shard
    cluster and in the row store.  AVG over integers is one float division
    of the exact sum everywhere."""

    @staticmethod
    def _systems(values):
        from repro.baselines.rowdb import RowDatabase
        from repro.cluster import Cluster, HardwareSpec

        cluster = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2)
        assert cluster.n_shards == 4
        systems = {
            "dop1": Database(parallelism=1, morsel_rows=64).connect("db2"),
            "dop4": Database(parallelism=4, morsel_rows=64).connect("db2"),
            "cluster": cluster.connect(),
            "row": RowDatabase(),
        }
        rows = ", ".join("(%d, %d, %d)" % (k, k % 3, v) for k, v in enumerate(values))
        for name, system in systems.items():
            distribute = " DISTRIBUTE BY HASH (k)" if name == "cluster" else ""
            system.execute("CREATE TABLE t (k INT, g INT, v BIGINT)" + distribute)
            system.execute("INSERT INTO t VALUES " + rows)
        return systems

    @staticmethod
    def _outcome(system, sql):
        try:
            return system.execute(sql).rows
        except SQLError as exc:
            return exc.sqlstate

    _QUERIES = [
        "SELECT SUM(v) FROM t",
        "SELECT AVG(v) FROM t",
        "SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g",
        "SELECT g, AVG(v) FROM t GROUP BY g ORDER BY g",
    ]

    @pytest.mark.parametrize("sql", _QUERIES)
    def test_sum_past_int64_is_22003_everywhere(self, sql):
        # 2**62 on every other row of 400: every group's sum is ~3e20.
        systems = self._systems([2**62 if k % 2 else k for k in range(400)])
        for name, system in systems.items():
            assert self._outcome(system, sql) == "22003", name

    @pytest.mark.parametrize("sql", _QUERIES)
    def test_partial_sums_past_int64_defer_to_the_whole_sum(self, sql):
        # +2**62 then -2**62: spans and shards see partial sums past int64,
        # but no group's whole sum leaves it.
        values = [2**62 - k if k < 200 else k - 2**62 for k in range(400)]
        systems = self._systems(values)
        outcomes = {name: self._outcome(s, sql) for name, s in systems.items()}
        assert outcomes["dop1"] != "22003"
        if "GROUP BY" in sql:  # a shard's per-group partial leaves int64
            stats = systems["cluster"].cluster.last_stats
            assert (stats.mode, stats.fallback_reason) == ("gather-fallback", "partial-overflow")
        assert all(o == outcomes["dop1"] for o in outcomes.values()), outcomes

    def test_avg_distinct_averages_distinct_values_everywhere(self):
        systems = self._systems([5, 5, 5, 2**40, 7])
        expected = [(float(5 + 2**40 + 7) / 3,)]
        for name, system in systems.items():
            assert system.execute("SELECT AVG(DISTINCT v) FROM t").rows == expected, name

    def test_large_sums_are_exact_and_avg_divides_the_exact_sum(self):
        values = [2**60 + 7 * k for k in range(7)]
        systems = self._systems(values)
        total = sum(values)
        for name, system in systems.items():
            assert system.execute("SELECT SUM(v) FROM t").rows == [(total,)], name
            assert system.execute("SELECT AVG(v) FROM t").rows == [
                (float(total) / len(values),)
            ], name



class TestAbsPastInt64:
    """``ABS`` of an integer whose magnitude leaves int64 is 22003 at DOP 1,
    at DOP 4, on a 4-shard cluster and in the row store — not a raw
    ``OverflowError`` and not a Python integer no BIGINT column holds."""

    _systems = staticmethod(TestIntegerSumsStayExact._systems)
    _outcome = staticmethod(TestIntegerSumsStayExact._outcome)

    def test_abs_of_minus_two_to_the_63_is_22003_everywhere(self):
        systems = self._systems([3, 1 - 2**63, -5])
        for name, system in systems.items():
            assert self._outcome(system, "SELECT ABS(v - 1) FROM t WHERE k = 1") == "22003", name
            assert self._outcome(system, "SELECT k, ABS(v) FROM t ORDER BY k") == [
                (0, 3), (1, 2**63 - 1), (2, 5)
            ], name

    def test_row_fallback_turns_an_out_of_range_result_into_22003(self):
        from repro.engine import Batch, ColumnRef
        from repro.engine.expression import FuncCall
        from repro.errors import NumericOverflowError
        from repro.storage.column import ColumnVector
        from repro.types import BIGINT

        batch = Batch.from_columns({"v": ColumnVector.from_boundary([1, 2], BIGINT)})
        call = FuncCall("TWICE_HUGE", [ColumnRef("v", BIGINT)],
                        scalar_fn=lambda args: args[0] * 2**63, dtype=BIGINT)
        with pytest.raises(NumericOverflowError, match="TWICE_HUGE") as raised:
            call.eval(batch)
        assert raised.value.sqlstate == "22003"

class TestSparkSchedulerEdges:
    def test_join_produces_two_shuffles(self):
        from repro.spark import SparkContext

        sc = SparkContext("j", default_parallelism=2)
        left = sc.parallelize([("k", 1)] * 8)
        right = sc.parallelize([("k", "v")] * 2)
        joined = left.join(right)
        assert joined.count() == 16
        metrics = sc.scheduler.last_metrics
        assert metrics.stages >= 3  # two sources + at least one shuffle stage
        assert metrics.shuffled_records >= 10

    def test_distinct_is_shuffle_based(self):
        from repro.spark import SparkContext

        sc = SparkContext("d")
        assert sorted(sc.parallelize([3, 1, 3, 2, 1]).distinct().collect()) == [1, 2, 3]
        assert sc.scheduler.last_metrics.shuffled_records == 5
