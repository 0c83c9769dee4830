"""Plan verifier: malformed hand-built plans fire; real plans stay clean.

Two halves.  The unit half constructs deliberately broken operator trees
(planners never emit these, so they can only be built by hand) and checks
that each issue class fires.  The sweep half plans the differential-test
query corpus against a real database and asserts :func:`verify_plan`
returns no issues for any of it — the same property the
``REPRO_VERIFY_PLANS=1`` CI leg enforces during execution.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.database import Database
from repro.engine.aggregate import AggregateSpec, GroupByOp
from repro.engine.expression import Batch, ColumnRef, Literal
from repro.engine.join import HashJoinOp
from repro.engine.operators import FilterOp, LimitOp, ProjectOp, VectorSourceOp
from repro.sql.parser import parse_statement
from repro.sql.planner import ChainOp
from repro.storage.column import ColumnVector
from repro.types.datatypes import DOUBLE, INTEGER, varchar_type
from repro.util.rng import derive_rng
from repro.verify.plan import PlanVerificationError, check_plan, verify_plan

from tests.test_differential import _build_rows, _random_query

VARCHAR4 = varchar_type(4)


def _source(schema: dict) -> VectorSourceOp:
    """An empty in-memory source advertising ``schema`` (name -> dtype).

    The verifier is static — it reads vector dtypes, never values — so
    zero-row columns are enough to model any input schema.
    """
    columns = {
        name: ColumnVector(dtype, np.zeros(0), None)
        for name, dtype in schema.items()
    }
    return VectorSourceOp(Batch.from_columns(columns))


def _codes(issues) -> list[str]:
    return sorted(i.code for i in issues)


# -- malformed hand-built plans ------------------------------------------------


class TestMalformedPlans:
    def test_clean_plan_has_no_issues(self):
        src = _source({"A": INTEGER, "B": DOUBLE})
        plan = ProjectOp(
            FilterOp(src, ColumnRef("A", INTEGER)),
            [("A", ColumnRef("A", INTEGER)), ("B2", ColumnRef("B", DOUBLE))],
        )
        assert verify_plan(plan) == []

    def test_projection_of_missing_column(self):
        plan = ProjectOp(
            _source({"A": INTEGER}), [("X", ColumnRef("X", INTEGER))]
        )
        issues = verify_plan(plan)
        assert _codes(issues) == ["unknown-column"]
        assert "'X'" in issues[0].message

    def test_filter_on_missing_column(self):
        plan = FilterOp(_source({"A": INTEGER}), ColumnRef("B", INTEGER))
        assert _codes(verify_plan(plan)) == ["unknown-column"]

    def test_duplicate_projection_alias(self):
        src = _source({"A": INTEGER})
        plan = ProjectOp(
            src, [("A", ColumnRef("A", INTEGER)), ("A", ColumnRef("A", INTEGER))]
        )
        assert _codes(verify_plan(plan)) == ["duplicate-column"]

    def test_negative_limit_and_offset(self):
        src = _source({"A": INTEGER})
        assert _codes(verify_plan(LimitOp(src, -1))) == ["bad-limit"]
        assert _codes(verify_plan(LimitOp(src, 5, offset=-2))) == ["bad-limit"]
        assert verify_plan(LimitOp(src, 0)) == []

    def test_union_branch_key_mismatch(self):
        plan = ChainOp([_source({"A": INTEGER}), _source({"B": INTEGER})])
        assert _codes(verify_plan(plan)) == ["union-mismatch"]

    def test_union_branch_type_mismatch(self):
        plan = ChainOp([_source({"A": INTEGER}), _source({"A": VARCHAR4})])
        assert _codes(verify_plan(plan)) == ["union-mismatch"]

    def test_union_comparable_branches_clean(self):
        plan = ChainOp([_source({"A": INTEGER}), _source({"A": DOUBLE})])
        assert verify_plan(plan) == []

    def test_join_arity_tamper(self):
        # The constructor itself rejects mismatched key lists, so the only
        # way to reach this state is post-construction mutation — which is
        # exactly the drift the static check exists to catch.
        op = HashJoinOp(
            _source({"A": INTEGER}), _source({"B": INTEGER}), ["A"], ["B"]
        )
        op.right_keys = ["B", "B"]
        assert "join-arity" in _codes(verify_plan(op))

    def test_join_key_not_produced(self):
        op = HashJoinOp(
            _source({"A": INTEGER}), _source({"B": INTEGER}), ["A"], ["B"]
        )
        op.left_keys = ["Z"]
        issues = verify_plan(op)
        assert "unknown-column" in _codes(issues)

    def test_join_key_type_mismatch(self):
        op = HashJoinOp(
            _source({"A": INTEGER}), _source({"B": VARCHAR4}), ["A"], ["B"]
        )
        assert _codes(verify_plan(op)) == ["join-type-mismatch"]

    def test_join_duplicate_output_column(self):
        op = HashJoinOp(
            _source({"A": INTEGER, "K": INTEGER}),
            _source({"A": INTEGER, "K": INTEGER}),
            ["K"],
            ["K"],
        )
        codes = _codes(verify_plan(op))
        assert codes.count("duplicate-column") == 2  # A and K both collide

    def test_groupby_duplicate_alias(self):
        src = _source({"A": INTEGER})
        op = GroupByOp(
            src,
            keys=[("A", ColumnRef("A", INTEGER))],
            aggregates=[AggregateSpec("COUNT", [], "A")],
        )
        assert "duplicate-column" in _codes(verify_plan(op))

    def test_root_schema_key_mismatch(self):
        planned = SimpleNamespace(
            op=_source({"A": INTEGER}), keys=["B"], dtypes=[INTEGER], names=["B"]
        )
        assert _codes(verify_plan(planned)) == ["root-schema"]

    def test_root_schema_dtype_mismatch(self):
        planned = SimpleNamespace(
            op=_source({"A": INTEGER}), keys=["A"], dtypes=[DOUBLE], names=["A"]
        )
        assert _codes(verify_plan(planned)) == ["root-schema"]

    def test_root_schema_name_count_mismatch(self):
        planned = SimpleNamespace(
            op=_source({"A": INTEGER}),
            keys=["A"],
            dtypes=[INTEGER],
            names=["A", "B"],
        )
        assert _codes(verify_plan(planned)) == ["root-schema"]

    def test_check_plan_raises_with_issue_list(self):
        plan = LimitOp(_source({"A": INTEGER}), -3)
        with pytest.raises(PlanVerificationError) as err:
            check_plan(plan)
        assert [i.code for i in err.value.issues] == ["bad-limit"]
        assert "bad-limit" in str(err.value)

    def test_unknown_operator_children_still_checked(self):
        broken = ProjectOp(
            _source({"A": INTEGER}), [("X", ColumnRef("X", INTEGER))]
        )
        mystery = SimpleNamespace(child=broken, execute=lambda: iter(()))
        assert _codes(verify_plan(mystery)) == ["unknown-column"]

    def test_literal_only_projection_clean(self):
        plan = ProjectOp(_source({"A": INTEGER}), [("ONE", Literal(1.0))])
        assert verify_plan(plan) == []


# -- real plans: cost-charge coverage -----------------------------------------


@pytest.fixture(scope="module")
def planned_db():
    db = Database()
    session = db.connect("db2")
    session.execute("CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))")
    session.execute("CREATE TABLE dim (c VARCHAR(4) PRIMARY KEY, w INT)")
    rows = _build_rows(1)[:1200]
    for start in range(0, len(rows), 600):
        session.execute(
            "INSERT INTO t VALUES " + ", ".join(rows[start : start + 600])
        )
    session.execute(
        "INSERT INTO dim VALUES "
        + ", ".join("('v%d', %d)" % (i, i * 10) for i in range(8))
    )
    yield db, session


def _plan(db, session, sql):
    """One execution of *sql*'s plan, its scans opened and registered —
    what ``Database._execute_select`` verifies before it runs."""
    db.last_scans = []
    planned = db._planner(session).plan(parse_statement(sql))
    return planned.bind(db.txn.snapshot(), on_scan=db.note_scan)


class TestCostChargeCoverage:
    def test_real_plan_verifies_clean(self, planned_db):
        db, session = planned_db
        planned = _plan(db, session, "SELECT a, b FROM t WHERE a > 10")
        assert verify_plan(planned, database=db) == []

    def test_bufferpool_bypass_detected(self, planned_db):
        db, session = planned_db
        planned = _plan(db, session, "SELECT a FROM t")
        db.last_scans[0].page_source = None
        issues = verify_plan(planned, database=db)
        assert "cost-charge" in _codes(issues)
        assert any("buffer pool" in i.message for i in issues)

    def test_session_temp_table_may_bypass_the_pool(self, planned_db):
        # Pool frames are keyed by table name; temp tables are not in the
        # catalog that keeps names unique, so they scan without the pool.
        db, session = planned_db
        session.execute("DECLARE GLOBAL TEMPORARY TABLE scratch (a INT)")
        session.execute("INSERT INTO scratch VALUES (1), (2)")
        planned = _plan(db, session, "SELECT a FROM scratch")
        assert db.last_scans[0].page_source is None
        assert verify_plan(planned, database=db) == []

    def test_unregistered_scan_detected(self, planned_db):
        db, session = planned_db
        planned = _plan(db, session, "SELECT a FROM t")
        db.last_scans = []  # simulate a scan the planner forgot to note
        issues = verify_plan(planned, database=db)
        assert any(
            i.code == "cost-charge" and "note_scan" in i.message for i in issues
        )

    def test_foreign_pool_detected(self, planned_db):
        from repro.parallel.pool import WorkerPool

        db, session = planned_db
        planned = _plan(db, session, "SELECT a FROM t")
        foreign = WorkerPool(parallelism=2, name="foreign")
        db.last_scans[0].pool = foreign
        issues = verify_plan(planned, database=db)
        assert any(
            i.code == "cost-charge" and "foreign" in i.message
            for i in issues
        )

    def test_execute_select_hook_invokes_verifier(self, planned_db, monkeypatch):
        import repro.verify.plan as plan_mod

        db, session = planned_db
        calls = []

        def recording_check(planned, database=None):
            calls.append((planned, database))

        monkeypatch.setattr(plan_mod, "check_plan", recording_check)
        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        session.execute("SELECT a FROM t WHERE a = 1")
        assert calls == []  # off by default
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        session.execute("SELECT a FROM t WHERE a = 1")
        assert len(calls) == 1
        assert calls[0][1] is db


_SHAPES = [
    ("db2", "WITH w AS (SELECT a, b FROM t WHERE a > 3) SELECT a, SUM(b) FROM w GROUP BY a",
     "_visit_cteop"),
    ("oracle", "SELECT a, b, LEVEL FROM t START WITH a = 1 CONNECT BY PRIOR b = a",
     "_visit_connectbyop"),
    ("oracle", "SELECT a, ROWNUM FROM t WHERE ROWNUM <= 5", "_visit_rownumberop"),
    ("db2", "SELECT t.a, dim.w FROM t JOIN dim ON t.b < dim.w", "_visit_nestedloopjoinop"),
]


@pytest.mark.parametrize(
    "dialect, sql, visitor", _SHAPES, ids=[visitor for _, _, visitor in _SHAPES]
)
def test_each_planned_shape_reaches_its_visitor_clean(planned_db, monkeypatch, dialect, sql, visitor):
    """A CTE, a CONNECT BY, a ROWNUM and a non-equi join each plan to the
    operator their visitor models, and the verifier passes it clean."""
    from repro.verify.plan import PlanVerifier

    db, _ = planned_db
    visits = []
    real = getattr(PlanVerifier, visitor)

    def noting(self, op):
        visits.append(type(op).__name__)
        return real(self, op)

    monkeypatch.setattr(PlanVerifier, visitor, noting)
    issues = verify_plan(_plan(db, db.connect(dialect), sql), database=db)
    assert visits and issues == [], [issue.render() for issue in issues]


# -- the differential corpus ---------------------------------------------------


class TestCorpusSweep:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_query_corpus_plans_clean(self, planned_db, seed):
        db, session = planned_db
        rng = derive_rng(seed, "diff-queries")
        for i in range(12):
            sql = _random_query(rng)
            planned = _plan(db, session, sql)
            issues = verify_plan(planned, database=db)
            assert issues == [], "plan issues (seed=%d, i=%d) for %s:\n%s" % (
                seed,
                i,
                sql,
                "\n".join("  - " + x.render() for x in issues),
            )
