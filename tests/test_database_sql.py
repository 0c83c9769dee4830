"""End-to-end SQL execution through the Database."""

import datetime
import operator
from decimal import Decimal
from fractions import Fraction

import pytest

from repro.database import Database
from repro.errors import (
    ConstraintViolationError,
    ConversionError,
    DialectError,
    DuplicateObjectError,
    SQLError,
    UnknownObjectError,
)


@pytest.fixture()
def db():
    database = Database()
    s = database.connect("db2")
    s.execute(
        "CREATE TABLE emp (id INT PRIMARY KEY, name VARCHAR(20), dept VARCHAR(10),"
        " sal DECIMAL(10,2), mgr INT, hired DATE)"
    )
    s.execute(
        "INSERT INTO emp VALUES"
        " (1,'alice','eng',100.50,NULL,DATE '2015-01-02'),"
        " (2,'bob','eng',90.00,1,DATE '2015-02-03'),"
        " (3,'carol','sales',80.25,1,DATE '2016-03-04'),"
        " (4,'dan','sales',70.00,3,DATE '2016-04-05')"
    )
    return database


@pytest.fixture()
def s(db):
    return db.connect("db2")


class TestSelectBasics:
    def test_projection_and_filter(self, s):
        rows = s.execute("SELECT name FROM emp WHERE dept = 'eng' ORDER BY id").rows
        assert rows == [("alice",), ("bob",)]

    def test_expression_output(self, s):
        rows = s.execute("SELECT id * 10 + 1 FROM emp WHERE id = 2").rows
        assert rows == [(21,)]

    def test_star(self, s):
        r = s.execute("SELECT * FROM emp WHERE id = 1")
        assert r.columns == ["ID", "NAME", "DEPT", "SAL", "MGR", "HIRED"]
        assert r.rows[0][5] == datetime.date(2015, 1, 2)

    def test_distinct(self, s):
        rows = s.execute("SELECT DISTINCT dept FROM emp ORDER BY dept").rows
        assert rows == [("eng",), ("sales",)]

    def test_order_by_expression(self, s):
        rows = s.execute("SELECT name FROM emp ORDER BY sal * -1").rows
        assert rows[0] == ("alice",)

    def test_fetch_first(self, s):
        rows = s.execute("SELECT id FROM emp ORDER BY id FETCH FIRST 2 ROWS ONLY").rows
        assert rows == [(1,), (2,)]

    def test_date_predicate(self, s):
        rows = s.execute(
            "SELECT name FROM emp WHERE hired >= DATE '2016-01-01' ORDER BY id"
        ).rows
        assert rows == [("carol",), ("dan",)]

    def test_decimal_arithmetic_exact(self, s):
        value = s.execute("SELECT sal + 0.25 FROM emp WHERE id = 3").scalar()
        assert value == Decimal("80.50")

    def test_between_and_in(self, s):
        assert s.execute("SELECT COUNT(*) FROM emp WHERE sal BETWEEN 75 AND 95").scalar() == 2
        assert s.execute("SELECT COUNT(*) FROM emp WHERE dept IN ('eng','hr')").scalar() == 2

    def test_null_handling(self, s):
        assert s.execute("SELECT COUNT(*) FROM emp WHERE mgr IS NULL").scalar() == 1
        assert s.execute("SELECT COUNT(mgr) FROM emp").scalar() == 3
        assert s.execute("SELECT COUNT(*) FROM emp WHERE mgr = NULL").scalar() == 0

    def test_like(self, s):
        rows = s.execute("SELECT name FROM emp WHERE name LIKE '_a%' ORDER BY 1").rows
        assert rows == [("carol",), ("dan",)]

    def test_scalar_functions(self, s):
        row = s.execute(
            "SELECT UPPER(name), LENGTH(name), SUBSTR(name, 1, 3) FROM emp WHERE id=1"
        ).rows[0]
        assert row == ("ALICE", 5, "ali")

    def test_coalesce(self, s):
        rows = s.execute("SELECT COALESCE(mgr, -1) FROM emp ORDER BY id").rows
        assert rows == [(-1,), (1,), (1,), (3,)]

    def test_year_month(self, s):
        row = s.execute("SELECT YEAR(hired), MONTH(hired) FROM emp WHERE id=4").rows[0]
        assert row == (2016, 4)


class TestAggregation:
    def test_group_by(self, s):
        rows = s.execute(
            "SELECT dept, COUNT(*), SUM(sal), MIN(sal), MAX(sal) FROM emp"
            " GROUP BY dept ORDER BY dept"
        ).rows
        assert rows[0] == ("eng", 2, Decimal("190.50"), Decimal("90.00"), Decimal("100.50"))
        by_dept = {r[0]: r for r in rows}
        assert by_dept["eng"][3] == Decimal("90.00")
        assert by_dept["sales"][2] == Decimal("150.25")

    def test_avg_descaled(self, s):
        assert s.execute("SELECT AVG(sal) FROM emp WHERE dept='eng'").scalar() == pytest.approx(95.25)

    def test_having(self, s):
        rows = s.execute(
            "SELECT dept FROM emp GROUP BY dept HAVING SUM(sal) > 160 ORDER BY 1"
        ).rows
        assert rows == [("eng",)]

    def test_expression_over_aggregates(self, s):
        value = s.execute("SELECT SUM(sal) / COUNT(*) FROM emp").scalar()
        assert float(value) == pytest.approx(85.1875)

    def test_group_by_expression(self, s):
        rows = s.execute(
            "SELECT YEAR(hired), COUNT(*) FROM emp GROUP BY YEAR(hired) ORDER BY 1"
        ).rows
        assert rows == [(2015, 2), (2016, 2)]

    def test_group_by_ordinal(self, s):
        rows = s.execute("SELECT dept, COUNT(*) FROM emp GROUP BY 1 ORDER BY 1").rows
        assert rows == [("eng", 2), ("sales", 2)]

    def test_count_distinct(self, s):
        assert s.execute("SELECT COUNT(DISTINCT dept) FROM emp").scalar() == 2

    def test_statistics(self, s):
        row = s.execute(
            "SELECT VARIANCE(sal), STDDEV(sal) FROM emp WHERE dept='sales'"
        ).rows[0]
        # DB2 VARIANCE/STDDEV are the population forms.
        assert row[0] == pytest.approx(26.265625)
        assert row[1] == pytest.approx(5.125)

    def test_grouped_column_must_be_in_group_by(self, s):
        with pytest.raises(SQLError):
            s.execute("SELECT name, COUNT(*) FROM emp GROUP BY dept")


class TestJoinsAndSubqueries:
    def test_inner_join(self, s):
        rows = s.execute(
            "SELECT e.name, m.name FROM emp e JOIN emp m ON e.mgr = m.id ORDER BY e.id"
        ).rows
        assert rows == [("bob", "alice"), ("carol", "alice"), ("dan", "carol")]

    def test_left_join(self, s):
        rows = s.execute(
            "SELECT e.name, m.name FROM emp e LEFT JOIN emp m ON e.mgr = m.id"
            " ORDER BY e.id"
        ).rows
        assert rows[0] == ("alice", None)

    def test_comma_join_with_where(self, s):
        rows = s.execute(
            "SELECT e.name, m.name FROM emp e, emp m WHERE e.mgr = m.id ORDER BY e.id"
        ).rows
        assert len(rows) == 3

    def test_join_using(self, s):
        s.execute("CREATE TABLE dept_info (dept VARCHAR(10), head VARCHAR(20))")
        s.execute("INSERT INTO dept_info VALUES ('eng','alice'), ('sales','carol')")
        rows = s.execute(
            "SELECT e.name, d.head FROM emp e JOIN dept_info d USING (dept) ORDER BY e.id"
        ).rows
        assert rows[0] == ("alice", "alice")
        assert len(rows) == 4

    def test_scalar_subquery(self, s):
        rows = s.execute("SELECT name FROM emp WHERE sal = (SELECT MAX(sal) FROM emp)").rows
        assert rows == [("alice",)]

    def test_in_subquery(self, s):
        rows = s.execute(
            "SELECT name FROM emp WHERE id IN (SELECT mgr FROM emp WHERE mgr IS NOT NULL)"
            " ORDER BY 1"
        ).rows
        assert rows == [("alice",), ("carol",)]

    def test_exists(self, s):
        assert s.execute(
            "SELECT COUNT(*) FROM emp WHERE EXISTS (SELECT 1 FROM emp WHERE sal > 100)"
        ).scalar() == 4
        assert s.execute(
            "SELECT COUNT(*) FROM emp WHERE EXISTS (SELECT 1 FROM emp WHERE sal > 999)"
        ).scalar() == 0

    def test_from_subquery(self, s):
        rows = s.execute(
            "SELECT d, total FROM (SELECT dept AS d, SUM(sal) AS total FROM emp"
            " GROUP BY dept) t WHERE total > 160"
        ).rows
        assert rows == [("eng", Decimal("190.50"))]

    def test_cte(self, s):
        value = s.execute(
            "WITH seniors AS (SELECT * FROM emp WHERE hired < DATE '2016-01-01')"
            " SELECT COUNT(*) FROM seniors"
        ).scalar()
        assert value == 2

    def test_union_and_except(self, s):
        rows = s.execute(
            "SELECT dept FROM emp UNION SELECT 'hr' FROM emp ORDER BY 1"
        ).rows
        assert rows == [("eng",), ("hr",), ("sales",)]
        rows = s.execute(
            "SELECT dept FROM emp EXCEPT SELECT 'eng' FROM emp"
        ).rows
        assert rows == [("sales",)]

    def test_intersect(self, s):
        rows = s.execute(
            "SELECT dept FROM emp INTERSECT SELECT 'eng' FROM emp"
        ).rows
        assert rows == [("eng",)]


class TestDml:
    def test_insert_column_subset(self, s):
        s.execute("INSERT INTO emp (id, name) VALUES (9, 'zed')")
        row = s.execute("SELECT dept, sal FROM emp WHERE id = 9").rows[0]
        assert row == (None, None)

    def test_insert_from_select(self, s):
        s.execute("CREATE TABLE emp2 (id INT, name VARCHAR(20))")
        s.execute("INSERT INTO emp2 SELECT id, name FROM emp WHERE dept = 'eng'")
        assert s.execute("SELECT COUNT(*) FROM emp2").scalar() == 2

    def test_update(self, s):
        s.execute("UPDATE emp SET sal = sal + 10 WHERE dept = 'sales'")
        assert s.execute("SELECT SUM(sal) FROM emp").scalar() == Decimal("360.75")

    def test_update_all_rows(self, s):
        s.execute("UPDATE emp SET dept = 'all'")
        assert s.execute("SELECT COUNT(DISTINCT dept) FROM emp").scalar() == 1

    def test_delete(self, s):
        r = s.execute("DELETE FROM emp WHERE sal < 85")
        assert r.rowcount == 2
        assert s.execute("SELECT COUNT(*) FROM emp").scalar() == 2

    def test_delete_all(self, s):
        assert s.execute("DELETE FROM emp").rowcount == 4

    def test_truncate(self, s):
        s.execute("TRUNCATE TABLE emp IMMEDIATE")
        assert s.execute("SELECT COUNT(*) FROM emp").scalar() == 0

    def test_primary_key_enforced(self, s):
        with pytest.raises(ConstraintViolationError):
            s.execute("INSERT INTO emp VALUES (1,'dup','x',0,NULL,NULL)")

    def test_rowcounts(self, s):
        assert s.execute("INSERT INTO emp (id,name) VALUES (100,'x')").rowcount == 1
        assert s.execute("UPDATE emp SET name='y' WHERE id=100").rowcount == 1
        assert s.execute("DELETE FROM emp WHERE id=100").rowcount == 1


class TestDecimalOutOfRange:
    """A DECIMAL is a scaled int64: a value that does not fit used to be
    accepted by INSERT and then killed every later read of the table (and
    the WAL replay) with a raw OverflowError."""

    BIG = "99999999999999999999"

    @staticmethod
    def _durable():
        from repro.durability import DurabilityManager
        from repro.storage.filesystem import ClusterFileSystem

        database = Database(durability=DurabilityManager(ClusterFileSystem(), path="db"))
        session = database.connect("db2")
        session.execute("CREATE TABLE t (v VARCHAR(24), d DECIMAL(8,2))")
        session.execute("INSERT INTO t VALUES ('ok', 1.5)")
        return database, session

    def test_insert_is_rejected_and_the_table_stays_readable(self):
        from repro.workloads.tpcds import flush_tables

        database, session = self._durable()
        with pytest.raises(ConversionError, match="out of range") as caught:
            session.execute("INSERT INTO t VALUES ('x', %s.0)" % self.BIG)
        assert caught.value.sqlstate == "22018"
        assert session.execute("SELECT v, d FROM t").rows == [("ok", Decimal("1.50"))]
        flush_tables(database)
        # Crash and recover: the rejected row never reached the WAL.
        database.reopen(clean=False)
        rows = database.connect("db2").execute("SELECT v, d FROM t").rows
        assert rows == [("ok", Decimal("1.50"))]

    def test_cast_raises_a_conversion_error_not_a_raw_overflow(self):
        _database, session = self._durable()
        with pytest.raises(ConversionError, match="out of range"):
            session.execute("SELECT CAST('%s' AS DECIMAL(8,2)) FROM t" % self.BIG)
        # The largest scaled value that fits is still accepted.
        assert session.execute(
            "SELECT CAST('92233720368547758.07' AS DECIMAL(8,2)) FROM t"
        ).scalar() == Decimal("92233720368547758.07")

    def test_row_store_oracle_rejects_it_the_same_way(self):
        from repro.baselines.rowdb import RowDatabase

        rowdb = RowDatabase()
        rowdb.execute("CREATE TABLE t (v VARCHAR(24), d DECIMAL(8,2))")
        with pytest.raises(ConversionError, match="out of range"):
            rowdb.execute("INSERT INTO t VALUES ('x', %s.0)" % self.BIG)
        assert rowdb.execute("SELECT COUNT(*) FROM t").scalar() == 0


class TestWritesSurviveACrash:
    """Every write statement's effect is redo-logged: after a crash and
    recovery the engine holds what it committed.  (drop-wal mutants of
    UPDATE's re-insert, CTAS's rows and CREATE SEQUENCE survived a run
    whose three most specific test files had no durable engine.)"""

    @staticmethod
    def _recovered(*statements):
        from repro.durability import DurabilityManager
        from repro.storage.filesystem import ClusterFileSystem

        database = Database(durability=DurabilityManager(ClusterFileSystem(), path="db"))
        session = database.connect("db2")
        session.execute("CREATE TABLE t (k INT, v INT)")
        session.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        for statement in statements:
            session.execute(statement)
        database.reopen(clean=True)
        return database.connect("db2")

    def test_update(self):
        session = self._recovered("UPDATE t SET v = v + 5 WHERE k = 2")
        assert session.execute("SELECT k, v FROM t ORDER BY k").rows == [(1, 10), (2, 25)]

    def test_create_table_as_select(self):
        session = self._recovered("CREATE TABLE c AS (SELECT k, v FROM t WHERE k = 2)")
        assert session.execute("SELECT k, v FROM c").rows == [(2, 20)]

    def test_create_sequence(self):
        session = self._recovered("CREATE SEQUENCE seq START WITH 7")
        assert session.execute("VALUES NEXT VALUE FOR seq").scalar() == 7

    def test_truncate(self):
        # (a drop-wal mutant of TRUNCATE survived: recovery brought the rows back)
        session = self._recovered("TRUNCATE TABLE t", "INSERT INTO t VALUES (3, 30)")
        assert session.execute("SELECT k, v FROM t").rows == [(3, 30)]

    def test_delete_of_a_matched_row(self):
        session = self._recovered("DELETE FROM t WHERE v > 15", "UPDATE t SET v = 0 WHERE k = 9")
        assert session.execute("SELECT k, v FROM t").rows == [(1, 10)]


class TestInexactPushdownConstants:
    """A constant is pushed into the scan only when the column's physical
    domain holds it exactly.  ``_physical_for`` used to turn ``1.5`` against
    an INTEGER column into 15 (DECIMAL: the scaled int) or 1 (DOUBLE:
    truncated), and ``1.005`` against DECIMAL(7,2) into 1.00."""

    ROWS = "(1, 1, 1, 1, 1.00), (2, 2, 2, 2, 1.01), (3, 3, 3, 3, 2.50)"

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.baselines.rowdb import RowDatabase
        from repro.workloads.tpcds import flush_tables

        database = Database()
        systems = [database.connect("db2"), RowDatabase()]
        for system in systems:
            system.execute(
                "CREATE TABLE t (k INT, sm SMALLINT, v INTEGER, bg BIGINT, p DECIMAL(7,2))"
            )
            system.execute("INSERT INTO t VALUES " + self.ROWS)
        flush_tables(database)  # regions: pushed predicates run on codes
        return systems

    @staticmethod
    def _keys(system, predicate):
        return [r[0] for r in system.execute(
            "SELECT k FROM t WHERE %s ORDER BY k" % predicate
        ).rows]

    @pytest.mark.parametrize("predicate,want", [
        ("v > 1.5", [2, 3]),
        ("v < 1.5", [1]),
        ("v >= 1.5e0", [2, 3]),
        ("v BETWEEN 0.5 AND 1.5", [1]),
        ("sm > 1.5", [2, 3]),
        ("p >= 1.005", [2, 3]),
        ("p = 1.005", []),
        ("p < 1.009", [1]),
        ("v + 0 >= 1.5", [2, 3]),  # never pushed: was always right
        # BETWEEN bounds of two types aligned the operand to the first only.
        ("v + 0 BETWEEN 0.5 AND 1.5e0", [1]),
        ("v NOT BETWEEN 0.5 AND 1.25", [2, 3]),
        ("p + 0 BETWEEN 1 AND 1.015", [1, 2]),
    ])
    def test_the_reported_wrong_answers(self, pair, predicate, want):
        session, rowdb = pair
        assert self._keys(session, predicate) == want
        assert self._keys(rowdb, predicate) == want

    def _check(self, pair, values, predicate, holds):
        """*holds(x)* is the predicate over the exact column value, in Python:
        RowDatabase plans through the same pushdown, so it is no oracle here."""
        want = [k for k, x in values if holds(x)]
        for system in pair:
            assert self._keys(system, predicate) == want, (predicate, system)

    _OPS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}

    @pytest.mark.parametrize("column", ["sm", "v", "bg"])
    @pytest.mark.parametrize("literal", ["1.5", "1.5e0", "2.0", "2e0", "0.999", "-0.5e0"])
    def test_every_pushable_operator_on_integer_columns(self, pair, column, literal):
        values = [(1, 1), (2, 2), (3, 3)]
        c = Fraction(Decimal(literal))
        for op, fn in self._OPS.items():
            self._check(pair, values, "%s %s %s" % (column, op, literal),
                        lambda x: fn(x, c))
            self._check(pair, values, "%s %s %s" % (literal, op, column),
                        lambda x: fn(c, x))
        self._check(pair, values, "%s BETWEEN 0.5 AND %s" % (column, literal),
                    lambda x: Fraction(1, 2) <= x <= c)
        self._check(pair, values, "%s BETWEEN %s AND 2.5e0" % (column, literal),
                    lambda x: c <= x <= Fraction(5, 2))
        self._check(pair, values, "%s IN (%s, 3)" % (column, literal),
                    lambda x: x in (c, 3))
        self._check(pair, values, "%s NOT IN (%s, 3)" % (column, literal),
                    lambda x: x not in (c, 3))

    @pytest.mark.parametrize("literal", ["1.005", "1.009", "1.010", "1.005e0", "2.5e0", "1"])
    def test_a_decimal_column_against_a_constant_of_higher_scale(self, pair, literal):
        values = [(1, Fraction(100, 100)), (2, Fraction(101, 100)), (3, Fraction(250, 100))]
        c = Fraction(Decimal(literal))
        for op, fn in self._OPS.items():
            self._check(pair, values, "p %s %s" % (op, literal), lambda x: fn(x, c))
        self._check(pair, values, "p BETWEEN 1.001 AND %s" % literal,
                    lambda x: Fraction(1001, 1000) <= x <= c)
        self._check(pair, values, "p IN (%s, 2.50)" % literal,
                    lambda x: x in (c, Fraction(5, 2)))

    def test_exact_constants_still_push_and_skip_extents(self):
        from repro.workloads.tpcds import flush_tables

        database = Database(region_rows=8)
        session = database.connect("db2")
        session.execute("CREATE TABLE r (v INTEGER, p DECIMAL(7,2))")
        session.execute("INSERT INTO r VALUES " + ", ".join(
            "(%d, %d.25)" % (i, i) for i in range(64)
        ))
        flush_tables(database)

        def skipped(predicate):
            count = session.execute("SELECT COUNT(*) FROM r WHERE " + predicate).scalar()
            (scan,) = database.last_scans
            return count, scan.stats.extents_skipped, len(scan.pushed)

        assert skipped("v > 55") == (8, 7, 1)
        assert skipped("v > 55.0") == (8, 7, 1)  # a DECIMAL that is an integer
        assert skipped("v > 5.5e1") == (8, 7, 1)  # so is this DOUBLE
        assert skipped("p >= 56") == (8, 7, 1)
        assert skipped("p >= 56.250") == (8, 7, 1)  # scale 3, fits scale 2
        assert skipped("v > 55.5") == (8, 0, 0)  # residual: right, unskipped
        assert skipped("p >= 56.245") == (8, 0, 0)


class TestDdl:
    def test_create_drop(self, s):
        s.execute("CREATE TABLE t1 (a INT)")
        assert "T1" in s.database.table_names()
        s.execute("DROP TABLE t1")
        assert "T1" not in s.database.table_names()

    def test_duplicate_create_rejected(self, s):
        with pytest.raises(DuplicateObjectError):
            s.execute("CREATE TABLE emp (a INT)")

    def test_drop_missing(self, s):
        with pytest.raises(UnknownObjectError):
            s.execute("DROP TABLE missing")
        s.execute("DROP TABLE IF EXISTS missing")  # tolerated

    def test_create_table_as(self, s):
        s.execute("CREATE TABLE eng AS (SELECT id, name FROM emp WHERE dept='eng') WITH DATA")
        assert s.execute("SELECT COUNT(*) FROM eng").scalar() == 2

    def test_temp_table_is_session_scoped(self, db):
        s1 = db.connect("db2")
        s2 = db.connect("db2")
        s1.execute("DECLARE GLOBAL TEMPORARY TABLE tmp (a INT)")
        s1.execute("INSERT INTO SESSION.tmp VALUES (1)")
        assert s1.execute("SELECT COUNT(*) FROM tmp").scalar() == 1
        with pytest.raises(UnknownObjectError):
            s2.execute("SELECT COUNT(*) FROM tmp")

    def test_views(self, s):
        s.execute("CREATE VIEW eng_v AS SELECT name FROM emp WHERE dept = 'eng'")
        assert s.execute("SELECT COUNT(*) FROM eng_v").scalar() == 2
        s.execute("DROP VIEW eng_v")
        with pytest.raises(UnknownObjectError):
            s.execute("SELECT * FROM eng_v")

    def test_view_with_column_names(self, s):
        s.execute("CREATE VIEW v2 (who) AS SELECT name FROM emp WHERE id = 1")
        assert s.execute("SELECT who FROM v2").rows == [("alice",)]

    def test_alias(self, s):
        s.execute("CREATE ALIAS staff FOR emp")
        assert s.execute("SELECT COUNT(*) FROM staff").scalar() == 4

    def test_sequences(self, s):
        s.execute("CREATE SEQUENCE sq START WITH 100 INCREMENT BY 10")
        assert s.execute("VALUES NEXT VALUE FOR sq").scalar() == 100
        assert s.execute("VALUES NEXT VALUE FOR sq").scalar() == 110
        assert s.execute("VALUES PREVIOUS VALUE FOR sq").scalar() == 110
        s.execute("DROP SEQUENCE sq")
        with pytest.raises(UnknownObjectError):
            s.execute("VALUES NEXT VALUE FOR sq")


class TestMisc:
    def test_explain(self, s):
        r = s.execute("EXPLAIN SELECT name FROM emp WHERE id = 1")
        text = "\n".join(row[0] for row in r.rows)
        assert "TableScanOp" in text
        assert "WHERE ID =" in text
        assert "[plan=" in r.rows[0][0]  # where the plan came from: line one

    def test_anonymous_block(self, db):
        o = db.connect("oracle")
        o.execute("BEGIN INSERT INTO emp (id, name) VALUES (50, 'zz'); "
                  "UPDATE emp SET dept = 'x' WHERE id = 50; END")
        assert o.execute("SELECT dept FROM emp WHERE id = 50").scalar() == "x"

    def test_execute_script(self, s):
        results = s.execute_script(
            "INSERT INTO emp (id, name) VALUES (60, 'a'); SELECT COUNT(*) FROM emp;"
        )
        assert results[1].scalar() == 5

    def test_values_requires_db2(self, db):
        n = db.connect("netezza")
        with pytest.raises(DialectError):
            n.execute("VALUES (1)")

    def test_pretty_output(self, s):
        text = s.execute("SELECT id, name FROM emp ORDER BY id").pretty(max_rows=2)
        assert "ID" in text
        assert "(4 rows total)" in text

    def test_result_helpers(self, s):
        r = s.execute("SELECT id, name FROM emp ORDER BY id")
        assert r.column("NAME")[0] == "alice"
        assert r.to_dicts()[0]["ID"] == 1

    def test_statement_counter(self, db):
        before = db.statement_count
        db.connect("db2").execute("SELECT 1 FROM emp WHERE id = 1")
        assert db.statement_count == before + 1


class TestAggregateFinalizers:
    """Kill tests for surviving aggregate mutants (see BENCH_mutation.json)."""

    def test_covar_pop_descales_decimal_inputs(self):
        # constant@src/repro/engine/aggregate.py:565:17 survived: the
        # DECIMAL descale base (10 ** scale) drifting to 11 ** scale is
        # invisible unless a two-argument aggregate actually runs over a
        # DECIMAL column.
        database = Database()
        s = database.connect("db2")
        s.execute("CREATE TABLE pts (x DECIMAL(5,2), y DOUBLE)")
        s.execute("INSERT INTO pts VALUES (1.00, 2), (2.00, 4), (3.00, 6)")
        value = s.execute("SELECT COVAR_POP(x, y) FROM pts").scalar()
        assert value == pytest.approx(4.0 / 3.0)

    def test_covar_samp_divides_by_n_minus_one(self):
        # constant@src/repro/engine/aggregate.py:547:32 survived: the
        # sample denominator (n - 1) drifting to (n - 2) is invisible
        # while only COVAR_POP is ever run.
        s = Database().connect("db2")
        s.execute("CREATE TABLE pts (g INT, x DOUBLE, y DOUBLE)")
        s.execute("INSERT INTO pts VALUES (1, 1, 2), (1, 2, 4), (1, 3, 6), (2, 5, 5)")
        rows = s.query("SELECT g, COVAR_SAMP(x, y) FROM pts GROUP BY g ORDER BY g")
        assert rows[0] == (1, pytest.approx(2.0))  # pop 4/3 * 3 / (3 - 1)
        assert rows[1] == (2, None)  # one pair: no sample covariance

    def test_covar_samp_of_exactly_two_pairs_is_a_value(self):
        # constant@src/repro/engine/aggregate.py:370:31 survived: the
        # "too few pairs" NULL rule (count <= 1) drifting to count <= 2
        # is invisible unless some group holds exactly two pairs.
        s = Database().connect("db2")
        s.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)")
        s.execute("INSERT INTO pts VALUES (1, 2), (3, 6)")
        assert s.execute("SELECT COVAR_SAMP(x, y) FROM pts").scalar() == pytest.approx(4.0)

    def test_a_global_aggregate_reports_one_group(self):
        # constant@src/repro/engine/aggregate.py:186:32 survived: a grand
        # total's GroupStats.groups drifting from 1 is invisible to answers;
        # it is what EXPLAIN ANALYZE and the operator span report.
        from repro.monitor import Tracer

        database = Database(tracer=Tracer())
        s = database.connect("db2")
        s.execute("CREATE TABLE t (a INT)")
        s.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert s.execute("SELECT COUNT(*), SUM(a) FROM t").rows == [(3, 6)]
        (span,) = [
            span for span in database.tracer.find("statement")[-1].walk()
            if span.name == "operator:GroupByOp"
        ]
        assert span.attrs["stats"].groups == 1

    def test_empty_input_aggregate_over_case_keeps_its_columns(self):
        # boolean@src/repro/engine/aggregate.py:223:20 survived: a drained-
        # empty child loses its schema and the group-by rebuilds typed empty
        # columns for every reference — skipping the WHEN/THEN pairs of a
        # CASE is invisible unless a column is named nowhere else.
        s = Database().connect("db2")
        s.execute("CREATE TABLE t (a INT, b INT, c INT)")
        s.execute("INSERT INTO t VALUES (1, 2, 3)")
        rows = s.execute(
            "SELECT SUM(CASE WHEN a > 0 THEN b END), COUNT(*) FROM t WHERE c > 100"
        ).rows
        assert rows == [(None, 0)]


    def test_cume_dist_counts_rows_equal_to_the_value(self):
        # boundary@...::_compute_aggregate (members <= value -> <): the
        # hypothetical row ranks after the rows equal to it.
        o = Database().connect("oracle")
        o.execute("CREATE TABLE t (a INT)")
        o.execute("INSERT INTO t VALUES (1), (2), (3)")
        value = o.execute("SELECT CUME_DIST(2) WITHIN GROUP (ORDER BY a) FROM t").scalar()
        assert value == pytest.approx(0.75)  # (2 rows <= 2, + itself) / 4

    def test_sample_statistics_of_one_row_are_null(self):
        # boundary@...::_compute_aggregate (group_counts <= 1 -> < 1): one
        # row has no sample variance; a one-pair COVAR_POP is 0, not NULL
        # (constant@...::_covariance, counts == 0 -> == 1).
        s = Database().connect("db2")
        s.execute("CREATE TABLE t (g INT, x DOUBLE)")
        s.execute("INSERT INTO t VALUES (1, 1.5), (1, 2.5), (2, 4.0)")
        rows = s.query(
            "SELECT g, VAR_SAMP(x), STDDEV_SAMP(x), COVAR_POP(x, x) FROM t GROUP BY g ORDER BY g"
        )
        assert rows == [
            (1, pytest.approx(0.5), pytest.approx(0.5 ** 0.5), pytest.approx(0.25)),
            (2, None, None, 0.0),
        ]

    def test_sum_at_exactly_two_to_the_63_is_22003(self):
        # boundary@...::_exact_sums (bound >= 2**63 -> >): max|v| * n equal
        # to 2**63 must still take the exact check — 2**62 + 2**62 wraps.
        s = Database().connect("db2")
        s.execute("CREATE TABLE t (v BIGINT)")
        s.execute("INSERT INTO t VALUES (%d), (%d)" % (2**62, 2**62))
        with pytest.raises(SQLError) as raised:
            s.execute("SELECT SUM(v) FROM t")
        assert raised.value.sqlstate == "22003"
        assert s.execute("SELECT SUM(v) FROM t WHERE v < 0").scalar() is None

    def test_one_morsel_group_by_runs_one_pass_at_dop_4(self):
        # boundary@...::WorkerPool.models (tasks > 1 -> >= 1): a GROUP BY
        # over exactly one morsel records no run at DOP 4; over three
        # morsels its one pass is modelled as three tasks on three workers.
        from repro.parallel import MORSEL_ROWS

        sql = "SELECT g, SUM(a) FROM t GROUP BY g ORDER BY g"
        answers, lines = {}, {}
        for dop in (1, 4):
            s = Database(parallelism=dop).connect("db2")
            s.execute("CREATE TABLE t (g INT, a INT)")
            s.execute(
                "INSERT INTO t VALUES "
                + ", ".join("(%d, %d)" % (i % 3, i) for i in range(MORSEL_ROWS // 8))
            )
            for _ in range(3):
                s.execute("INSERT INTO t SELECT g, a FROM t")
            for step in ("one", "three"):
                if step == "three":
                    s.execute("INSERT INTO t SELECT g, a FROM t")
                    s.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)")
                assert s.execute("SELECT COUNT(*) FROM t").scalar() == {
                    "one": MORSEL_ROWS, "three": 2 * MORSEL_ROWS + 5}[step]
                answers[dop, step] = s.execute(sql).rows
                plan = [row[0] for row in s.execute("EXPLAIN ANALYZE " + sql).rows]
                lines[dop, step] = next(line for line in plan if "GroupByOp" in line)
        for step in ("one", "three"):
            assert answers[4, step] == answers[1, step]
            assert "[parallel" not in lines[1, step]
        assert "[parallel" not in lines[4, "one"], lines[4, "one"]
        assert "[parallel tasks=3 workers=3 " in lines[4, "three"], lines[4, "three"]

# -- set operations over branches of different types ---------------------------

_SETOP_DDL = [
    "CREATE TABLE a (p DECIMAL(8,2), i INT, c CHAR(3), n INT)",
    "CREATE TABLE b (p DECIMAL(9,3), d DOUBLE, v VARCHAR(5), q DECIMAL(6,1))",
]
# Python values as the engine returns them; 1.50 == 1.500, 7 == 7.000 ==
# 7.0 and 'xyz' == 'xyz' cross the tables, every other value is one-sided.
_SETOP_A = [
    (Decimal("1.50"), 7, "ab ", None),
    (Decimal("2.25"), 8, "xyz", 7),
    (Decimal("1.50"), 7, "ab ", 3),
    (Decimal("-0.75"), 2, "q  ", None),
]
_SETOP_B = [
    (Decimal("1.500"), 7.0, "ab", Decimal("7.0")),
    (Decimal("7.000"), 7.5, "hello", Decimal("9.5")),
    (Decimal("2.125"), 2.0, "xyz", Decimal("3.0")),
    (Decimal("7.000"), 7.0, "xyz", Decimal("9.5")),
]
_SETOP_INSERTS = [
    "INSERT INTO a VALUES (1.50, 7, 'ab', NULL), (2.25, 8, 'xyz', 7),"
    " (1.50, 7, 'ab', 3), (-0.75, 2, 'q', NULL)",
    "INSERT INTO b VALUES (1.500, 7.0, 'ab', 7.0), (7.000, 7.5, 'hello', 9.5),"
    " (2.125, 2.0, 'xyz', 3.0), (7.000, 7.0, 'xyz', 9.5)",
]


def _column(rows, index):
    return [row[index] for row in rows]


def _as_decimal(places):
    quantum = Decimal(1).scaleb(-places)
    return lambda v: None if v is None else Decimal(v).quantize(quantum)


def _as_float(v):
    return None if v is None else float(v)


# name -> (left SQL column, right SQL column, left values, right values,
#          conversion of either side's value to the common type)
_SETOP_PAIRS = {
    "decimal-scales": ("p FROM a", "p FROM b", _column(_SETOP_A, 0), _column(_SETOP_B, 0), _as_decimal(3)),
    "int-decimal": ("i FROM a", "p FROM b", _column(_SETOP_A, 1), _column(_SETOP_B, 0), _as_decimal(3)),
    "int-double": ("i FROM a", "d FROM b", _column(_SETOP_A, 1), _column(_SETOP_B, 1), _as_float),
    "char-varchar": ("c FROM a", "v FROM b", _column(_SETOP_A, 2), _column(_SETOP_B, 2), lambda v: v),
    "nulls-one-side": ("n FROM a", "q FROM b", _column(_SETOP_A, 3), _column(_SETOP_B, 3), _as_decimal(1)),
}


def _null_first(value):
    return (value is not None, value)


def _distinct_sorted(values):
    return sorted(set(values), key=_null_first)


def _expected_set_op(op, left, right):
    """The set operation in plain Python over already-converted values.
    A NULL never matches across branches (it is on one side only here)."""
    live_right = {v for v in right if v is not None}
    if op == "UNION ALL":
        return left + right
    if op == "UNION":
        return _distinct_sorted(left + right)
    if op == "INTERSECT":
        return _distinct_sorted(v for v in left if v in live_right)
    return _distinct_sorted(v for v in left if v not in live_right)


def _exact(values):
    """Type- and scale-sensitive form: 7 != 7.000 != 7.0 here."""
    return [repr(v) for v in values]


def _setop_session(make=Database, suffixes=("", "")):
    session = make().connect("db2")
    for ddl, suffix in zip(_SETOP_DDL, suffixes):
        session.execute(ddl + suffix)
    for insert in _SETOP_INSERTS:
        session.execute(insert)
    return session


def _setop_statements():
    """Every pair x operator x operand order, as SQL."""
    for lcol, rcol, _, _, _ in _SETOP_PAIRS.values():
        for op in ("UNION ALL", "UNION", "INTERSECT", "EXCEPT"):
            for first, second in ((lcol, rcol), (rcol, lcol)):
                yield "SELECT %s %s SELECT %s" % (first, op, second)


class TestSetOperationTypes:
    """Both branches of a set operation produce the column's common type:
    answers checked against plain Python, never against another engine
    (the row store plans set operations through the same function)."""

    @pytest.fixture(scope="class")
    def s(self):
        return _setop_session()

    @pytest.mark.parametrize("op", ["UNION ALL", "UNION", "INTERSECT", "EXCEPT"])
    @pytest.mark.parametrize("pair", sorted(_SETOP_PAIRS))
    def test_operator_over_mixed_types_both_orders(self, s, pair, op):
        lcol, rcol, lvals, rvals, convert = _SETOP_PAIRS[pair]
        lvals = [convert(v) for v in lvals]
        rvals = [convert(v) for v in rvals]
        for first, second, fvals, svals in (
            (lcol, rcol, lvals, rvals),
            (rcol, lcol, rvals, lvals),
        ):
            sql = "SELECT %s %s SELECT %s" % (first, op, second)
            got = _column(s.execute(sql).rows, 0)
            want = _expected_set_op(op, fvals, svals)
            if op != "UNION ALL":  # distinct output: compare as a sorted set
                got = sorted(got, key=_null_first)
            assert _exact(got) == _exact(want), sql

    def test_reported_cases(self, s):
        s.execute("CREATE TABLE ra (p DECIMAL(8,2), i INT)")
        s.execute("CREATE TABLE rb (p DECIMAL(9,3), d DOUBLE)")
        s.execute("INSERT INTO ra VALUES (1.50, 7)")
        s.execute("INSERT INTO rb VALUES (1.500, 7.5)")
        d = Decimal
        cases = {
            "SELECT p FROM ra UNION ALL SELECT p FROM rb": [d("1.500"), d("1.500")],
            "SELECT i FROM ra UNION ALL SELECT p FROM rb": [d("7.000"), d("1.500")],
            "SELECT p FROM ra INTERSECT SELECT p FROM rb": [d("1.500")],
            "SELECT p FROM ra EXCEPT SELECT p FROM rb": [],
            "SELECT p FROM ra UNION SELECT p FROM rb": [d("1.500")],
            "SELECT SUM(p) FROM (SELECT p FROM ra UNION ALL SELECT p FROM rb) AS u":
                [d("3.000")],
        }
        for sql, want in cases.items():
            assert _exact(_column(s.execute(sql).rows, 0)) == _exact(want), sql

    def test_three_branch_chains(self, s):
        to3 = _as_decimal(3)
        p_a = [to3(v) for v in _column(_SETOP_A, 0)]
        p_b = [to3(v) for v in _column(_SETOP_B, 0)]
        i_a = [to3(v) for v in _column(_SETOP_A, 1)]
        got = _column(
            s.execute(
                "SELECT p FROM a UNION ALL SELECT p FROM b UNION ALL SELECT i FROM a"
            ).rows,
            0,
        )
        assert _exact(got) == _exact(p_a + p_b + i_a)
        got = _column(
            s.execute(
                "SELECT i FROM a UNION SELECT p FROM a UNION SELECT p FROM b ORDER BY 1"
            ).rows,
            0,
        )
        assert _exact(got) == _exact(_distinct_sorted(i_a + p_a + p_b))
        # INT, then DECIMAL(9,3), then DOUBLE: the type widens per branch.
        got = _column(
            s.execute(
                "SELECT i FROM a UNION ALL SELECT p FROM b UNION ALL SELECT d FROM b"
            ).rows,
            0,
        )
        want = _column(_SETOP_A, 1) + _column(_SETOP_B, 0) + _column(_SETOP_B, 1)
        assert _exact(got) == _exact([float(v) for v in want])

    def test_order_by_ordinal_and_derived_sum(self, s):
        to3 = _as_decimal(3)
        merged = [to3(v) for v in _column(_SETOP_A, 0) + _column(_SETOP_B, 0)]
        got = _column(
            s.execute(
                "SELECT p FROM a UNION ALL SELECT p FROM b ORDER BY 1 DESC"
            ).rows,
            0,
        )
        assert _exact(got) == _exact(sorted(merged, reverse=True))
        total = s.execute(
            "SELECT SUM(p), COUNT(*) FROM"
            " (SELECT p FROM a UNION ALL SELECT p FROM b) AS u"
        ).rows
        assert total == [(sum(merged), len(merged))]
        assert repr(total[0][0]) == repr(to3(sum(merged)))

    def test_identical_types_plan_no_cast(self, s):
        from repro.engine.expression import ColumnRef
        from repro.sql.parser import parse_statement

        sql = "SELECT p FROM a UNION ALL SELECT p FROM a"
        left = s.database._planner(s).plan(parse_statement("SELECT p FROM a"))
        union = s.database._planner(s).plan(parse_statement(sql))
        left_branch, rename = union.op.children
        # The left branch is the plain query (no alignment project on top)
        # and the right's rename is column references only.
        assert type(left_branch) is type(left.op)
        assert len(left_branch.outputs) == len(left.op.outputs)
        assert all(isinstance(expr, ColumnRef) for _, expr in rename.outputs)
        assert union.dtypes == left.dtypes
        assert _exact(_column(s.execute(sql).rows, 0)) == _exact(
            _column(_SETOP_A, 0) * 2
        )

    def test_clean_under_plan_verification(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        verified = _setop_session()
        for sql in _setop_statements():
            verified.execute(sql)  # raises on any root-schema / dtype issue
        verified.execute("SELECT c FROM a UNION ALL SELECT c FROM a")
        verified.execute("SELECT p FROM a UNION SELECT p FROM a")

    def test_cluster_equals_single_node(self, s):
        from repro.cluster import Cluster, HardwareSpec

        small = HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)
        cluster = Cluster([small] * 2)
        assert len(cluster.shards) == 4
        cs = _setop_session(
            lambda: cluster,
            (" DISTRIBUTE BY HASH (i)", " DISTRIBUTE BY HASH (d)"),
        )
        for sql in _setop_statements():
            # Gathered rows arrive in shard order, not insert order.
            got = sorted(_column(cs.execute(sql).rows, 0), key=_null_first)
            want = sorted(_column(s.execute(sql).rows, 0), key=_null_first)
            assert _exact(got) == _exact(want), sql
            assert cluster.last_stats.mode == "gather-fallback", sql
            assert cluster.last_stats.fallback_reason == "set-op", sql


# -- set operations compare rows as DISTINCT does: NULL equals NULL ---------------

_NULLSET_DDL = [
    "CREATE TABLE na (x INT, s VARCHAR(4), p DECIMAL(8,2))",
    "CREATE TABLE nb (x INT, s VARCHAR(5), p DECIMAL(9,3))",
]
_NULLSET_A = [
    (None, None, None),
    (1, "a", Decimal("1.50")),
    (None, "b", Decimal("2.25")),
    (2, None, None),
    (1, "a", Decimal("1.50")),
    (5, "only", Decimal("0.25")),
]
_NULLSET_B = [
    (None, None, None),
    (1, "a", Decimal("1.500")),
    (None, "b", Decimal("9.000")),
    (3, None, None),
    (2, None, Decimal("7.125")),
    (None, None, None),
]
#: Column lists to run the operators over: one column of each type (with
#: all-NULL rows), NULL in one of two columns, all three.
_NULLSET_COLUMNS = ["x", "s", "p", "x, s", "s, p", "x, s, p"]


def _sql_tuple(row):
    return "(%s)" % ", ".join(
        "NULL" if v is None else repr(v) if isinstance(v, str) else str(v) for v in row
    )


def _nullset_session(make=Database, suffix=""):
    session = make().connect("db2")
    for ddl, rows in zip(_NULLSET_DDL, (_NULLSET_A, _NULLSET_B)):
        session.execute(ddl + suffix)
        session.execute(
            "INSERT INTO %s VALUES %s" % (ddl.split()[2], ", ".join(map(_sql_tuple, rows)))
        )
    return session


def _nullset_cases():
    """``(sql, expected rows)``: each column list x INTERSECT / EXCEPT x
    both operand orders, expectations from Python sets of tuples (where
    None == None, as in DISTINCT) with P at the common scale 3."""
    to3 = _as_decimal(3)
    index = {"x": 0, "s": 1, "p": 2}
    for columns in _NULLSET_COLUMNS:
        picks = [index[c.strip()] for c in columns.split(",")]

        def project(rows):
            return {
                tuple(to3(row[i]) if i == 2 else row[i] for i in picks) for row in rows
            }

        sides = {"na": project(_NULLSET_A), "nb": project(_NULLSET_B)}
        for first, second in (("na", "nb"), ("nb", "na")):
            for op, combine in (("INTERSECT", set.__and__), ("EXCEPT", set.__sub__)):
                sql = "SELECT %s FROM %s %s SELECT %s FROM %s" % (
                    columns, first, op, columns, second,
                )
                yield sql, combine(sides[first], sides[second])


def _row_order(row):
    return tuple(_null_first(v) for v in row)


class TestSetOperationNulls:
    """INTERSECT / EXCEPT plan as semi / anti joins; their keys must treat
    NULL as a value, where an ordinary join's NULL never matches."""

    @pytest.fixture(scope="class")
    def s(self):
        return _nullset_session()

    def test_reported_case(self, s):
        s.execute("CREATE TABLE ra2 (x INT)")
        s.execute("CREATE TABLE rb2 (x INT)")
        s.execute("INSERT INTO ra2 VALUES (NULL), (1)")
        s.execute("INSERT INTO rb2 VALUES (NULL), (1)")
        rows = s.execute("SELECT x FROM ra2 INTERSECT SELECT x FROM rb2").rows
        assert sorted(rows, key=_row_order) == [(None,), (1,)]
        assert s.execute("SELECT x FROM ra2 EXCEPT SELECT x FROM rb2").rows == []

    @pytest.mark.parametrize("columns", _NULLSET_COLUMNS)
    def test_null_equals_null_in_every_column_shape(self, s, columns):
        ran = 0
        for sql, want in _nullset_cases():
            if not sql.startswith("SELECT %s FROM" % columns):
                continue
            got = s.execute(sql).rows
            assert len(got) == len(set(got)), sql  # distinct output
            assert _exact(sorted(got, key=_row_order)) == _exact(
                sorted(want, key=_row_order)
            ), sql
            ran += 1
        assert ran == 4

    def test_ordinary_joins_still_never_match_null(self, s):
        assert s.execute(
            "SELECT COUNT(*) FROM na, nb WHERE na.x = nb.x"
        ).scalar() == 3  # (1, 1) twice and (2, 2); no NULL pairs
        assert s.execute(
            "SELECT COUNT(*) FROM na WHERE x IN (SELECT x FROM nb)"
        ).scalar() == 3
        assert s.execute(
            "SELECT COUNT(*) FROM na JOIN nb ON na.s = nb.s AND na.x = nb.x"
        ).scalar() == 2  # ('a', 1) twice; (NULL, 'b') pairs do not match

    def test_int_keys_without_nulls_keep_the_direct_probe(self, s):
        sql = "SELECT x FROM na WHERE x IS NOT NULL INTERSECT SELECT x FROM nb WHERE x > 0"
        lines = [r[0] for r in s.execute("EXPLAIN ANALYZE " + sql).rows]
        assert any("HashJoinOp [semi]" in line and "[path=direct]" in line for line in lines)
        assert sorted(s.execute(sql).rows) == [(1,), (2,)]

    def test_clean_under_plan_verification(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        verified = _nullset_session()
        for sql, want in _nullset_cases():
            assert len(verified.execute(sql).rows) == len(want), sql

    def test_cluster_equals_single_node(self, s):
        from repro.cluster import Cluster, HardwareSpec

        cluster = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2)
        assert len(cluster.shards) == 4
        cs = _nullset_session(lambda: cluster, " DISTRIBUTE BY HASH (x)")
        for sql, want in _nullset_cases():
            got = sorted(cs.execute(sql).rows, key=_row_order)
            assert _exact(got) == _exact(sorted(want, key=_row_order)), sql
            assert cluster.last_stats.fallback_reason == "set-op", sql


# -- COALESCE / CASE / NULLIF over DECIMALs of different scale -------------------

_SCALE_DDL = "CREATE TABLE sc (id INT, p DECIMAL(8,2), q DECIMAL(9,3), i INT)"
_SCALE_ROWS = [
    (1, None, Decimal("0.150"), 4),
    (2, Decimal("1.50"), Decimal("2.250"), None),
    (3, Decimal("2.25"), None, 2),
    (4, None, None, None),
    (5, Decimal("3.10"), Decimal("3.100"), 3),
    (6, Decimal("4.00"), Decimal("4.000"), 4),
    (7, Decimal("-0.75"), Decimal("-0.755"), -1),
]


def _first(*values):
    return next((v for v in values if v is not None), None)


def _unless_equal(a, b):
    return None if a is not None and b is not None and a == b else a


#: ``SQL expression -> (result scale or None for INT, Python over (p, q, i))``.
#: Scale up (P into Q's type), scale down never happens to a value — the
#: result takes the larger scale — INT mixed in, NULL first arm, both orders.
_SCALE_EXPRESSIONS = {
    "COALESCE(p, q)": (3, lambda p, q, i: _first(p, q)),
    "COALESCE(q, p)": (3, lambda p, q, i: _first(q, p)),
    "COALESCE(p, i)": (2, lambda p, q, i: _first(p, i)),
    "COALESCE(i, q)": (3, lambda p, q, i: _first(i, q)),
    "COALESCE(1.50, q)": (3, lambda p, q, i: Decimal("1.50")),
    "COALESCE(q, 1.5)": (3, lambda p, q, i: _first(q, Decimal("1.5"))),
    "COALESCE(NULL, p, q)": (3, lambda p, q, i: _first(p, q)),
    "COALESCE(p, q, i)": (3, lambda p, q, i: _first(p, q, i)),
    "CASE WHEN p IS NULL THEN q ELSE p END": (3, lambda p, q, i: q if p is None else p),
    "CASE WHEN i > 2 THEN p ELSE q END": (
        3, lambda p, q, i: p if i is not None and i > 2 else q),
    "CASE WHEN i > 2 THEN q WHEN i > 0 THEN p END": (
        3, lambda p, q, i: None if i is None else q if i > 2 else p if i > 0 else None),
    "CASE WHEN q IS NULL THEN i ELSE p END": (2, lambda p, q, i: i if q is None else p),
    "CASE WHEN id > 3 THEN NULL ELSE q END": (3, lambda p, q, i: q),  # id applied below
    "NULLIF(p, q)": (2, lambda p, q, i: _unless_equal(p, q)),
    "NULLIF(q, p)": (3, lambda p, q, i: _unless_equal(q, p)),
    "NULLIF(p, i)": (2, lambda p, q, i: _unless_equal(p, i)),
    "NULLIF(i, p)": (None, lambda p, q, i: _unless_equal(i, p)),
    "NULLIF(q, 2.25)": (3, lambda p, q, i: _unless_equal(q, Decimal("2.25"))),
}


def _scale_expected(expression):
    scale, reference = _SCALE_EXPRESSIONS[expression]
    convert = _as_decimal(scale) if scale is not None else (lambda v: v)
    out = []
    for row_id, p, q, i in _SCALE_ROWS:
        value = reference(p, q, i)
        if expression.startswith("CASE WHEN id > 3") and row_id > 3:
            value = None
        out.append((row_id, convert(value)))
    return out


def _scale_session(make=Database, dialect="db2", suffix="", session=None):
    session = session or make().connect(dialect)
    session.execute(_SCALE_DDL + suffix)
    session.execute("INSERT INTO sc VALUES " + ", ".join(map(_sql_tuple, _SCALE_ROWS)))
    return session


class TestDecimalScaleAlignment:
    """Arms of different DECIMAL scale reach one type by a real rescale —
    answers against Python ``Decimal``, type- and scale-exact."""

    @pytest.fixture(scope="class")
    def s(self):
        return _scale_session()

    def test_reported_cases(self, s):
        s.execute("CREATE TABLE t2 (p DECIMAL(8,2), q DECIMAL(9,3))")
        s.execute("INSERT INTO t2 VALUES (NULL, 0.150), (1.50, 2.250)")
        d = Decimal
        assert _exact(_column(s.execute("SELECT COALESCE(p, q) FROM t2").rows, 0)) == _exact(
            [d("0.150"), d("1.500")]
        )
        assert _exact(_column(s.execute("SELECT COALESCE(1.50, q) FROM t2").rows, 0)) == _exact(
            [d("1.500"), d("1.500")]
        )

    @pytest.mark.parametrize("expression", sorted(_SCALE_EXPRESSIONS))
    def test_expression_equals_python_decimal(self, s, expression):
        sql = "SELECT id, %s FROM sc ORDER BY id" % expression
        assert _exact(s.execute(sql).rows) == _exact(_scale_expected(expression)), sql

    def test_vector_and_row_engines_agree(self, s):
        from repro.baselines.rowdb import RowDatabase

        rowdb = _scale_session(session=RowDatabase())  # eval_row, not eval
        for expression in sorted(_SCALE_EXPRESSIONS):
            sql = "SELECT id, %s FROM sc ORDER BY 1" % expression
            assert _exact(rowdb.execute(sql).rows) == _exact(_scale_expected(expression)), sql

    def test_nvl_under_the_oracle_dialect(self):
        oracle = _scale_session(dialect="oracle")
        for arms, twin in (("p, q", "COALESCE(p, q)"), ("q, p", "COALESCE(q, p)"),
                           ("p, i", "COALESCE(p, i)"), ("i, q", "COALESCE(i, q)")):
            sql = "SELECT id, NVL(%s) FROM sc ORDER BY id" % arms
            assert _exact(oracle.execute(sql).rows) == _exact(_scale_expected(twin)), sql
        sql = "SELECT id, NVL2(i, p, q) FROM sc ORDER BY id"
        want = [
            (row_id, _as_decimal(3)(q if i is None else p))
            for row_id, p, q, i in _SCALE_ROWS
        ]
        assert _exact(oracle.execute(sql).rows) == _exact(want), sql

    def test_group_by_and_where_see_the_rescaled_value(self, s):
        rows = s.execute(
            "SELECT COALESCE(p, q) AS v, COUNT(*) FROM sc GROUP BY COALESCE(p, q) ORDER BY 1"
        ).rows
        values = [v for _, v in _scale_expected("COALESCE(p, q)")]
        want = sorted(
            {(v, values.count(v)) for v in values}, key=lambda r: (r[0] is not None, r[0])
        )
        # DB2 default: NULLs sort last ascending.
        want = [r for r in want if r[0] is not None] + [r for r in want if r[0] is None]
        assert _exact(rows) == _exact(want)
        assert s.execute("SELECT id FROM sc WHERE COALESCE(p, q) = 0.15").rows == [(1,)]

    def test_clean_under_plan_verification(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        verified = _scale_session()
        for expression in sorted(_SCALE_EXPRESSIONS):
            sql = "SELECT id, %s FROM sc ORDER BY id" % expression
            assert _exact(verified.execute(sql).rows) == _exact(_scale_expected(expression))

    def test_cluster_equals_python_decimal(self):
        from repro.cluster import Cluster, HardwareSpec

        cluster = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2)
        assert len(cluster.shards) == 4
        cs = _scale_session(lambda: cluster, suffix=" DISTRIBUTE BY HASH (id)")
        for expression in sorted(_SCALE_EXPRESSIONS):
            sql = "SELECT id, %s FROM sc ORDER BY id" % expression
            assert _exact(cs.execute(sql).rows) == _exact(_scale_expected(expression)), sql
