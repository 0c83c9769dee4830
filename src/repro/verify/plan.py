"""Static verification of compiled physical plans.

:func:`verify_plan` walks an operator tree *before it executes* and
re-derives, operator by operator, what each node consumes and produces:

* **schema propagation** — every column an operator reads (predicate
  references, projection expressions, join keys, sort keys, aggregate
  arguments) must be produced by its child; every operator's output
  schema is re-computed independently of the planner;
* **arity / type checks** — join key lists must pair comparable types,
  UNION ALL branches must agree column-for-column, LIMIT/OFFSET must be
  sane, and the root must produce exactly the keys/dtypes the
  :class:`~repro.sql.planner.PlannedQuery` advertises;
* **cost-charge coverage** — when a :class:`~repro.database.Database` is
  supplied, every scan of a catalog table must route page fetches through
  the buffer pool (``page_source``), be registered for byte accounting
  (``note_scan``), and share the engine's worker pool, so no physical
  work escapes the simulated cost model.

The verifier is wired into ``Database._execute_select`` behind the
``REPRO_VERIFY_PLANS=1`` environment variable and swept over the entire
differential-test query corpus in ``tests/test_verify_plan.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.aggregate import GroupByOp
from repro.engine.join import HashJoinOp, NestedLoopJoinOp
from repro.engine.operators import (
    FilterOp,
    LimitOp,
    ProjectOp,
    TableScanOp,
    VectorSourceOp,
)
from repro.engine.sort import SortOp
from repro.errors import ReproError
from repro.types.datatypes import BIGINT, INTEGER, DataType, TypeKind


class PlanVerificationError(ReproError):
    """A compiled plan failed static verification."""

    #: a verified invariant failed inside the engine: system error, not a
    #: user SQL error — but it still crosses the public API, so it carries
    #: a SQLSTATE like every other engine error.
    sqlstate = "58004"

    def __init__(self, issues: list["PlanIssue"]):
        self.issues = issues
        super().__init__(
            "plan verification failed (%d issue(s)):\n%s"
            % (len(issues), "\n".join("  - " + i.render() for i in issues))
        )


@dataclass(frozen=True)
class PlanIssue:
    """One verification failure, anchored to an operator."""

    operator: str   # operator class name
    code: str       # stable machine-readable issue class
    message: str

    def render(self) -> str:
        return "[%s] %s: %s" % (self.code, self.operator, self.message)


#: Schema: ordered mapping of column key -> DataType.  ``None`` means the
#: verifier met an operator it cannot model and stops claiming anything
#: about columns above that point (children are still checked).
Schema = "dict[str, DataType] | None"


def _comparable(left: DataType, right: DataType) -> bool:
    """Can these two types meet in a join key / set-op column?"""
    if left == right:
        return True
    numeric = lambda dt: (
        dt.is_integer or dt.is_approximate or dt.kind is TypeKind.DECIMAL
    )
    if numeric(left) and numeric(right):
        return True
    if left.is_string and right.is_string:
        return True
    return left.kind is right.kind


class PlanVerifier:
    """One verification pass over one operator tree."""

    def __init__(self, database=None):
        self.database = database
        self.issues: list[PlanIssue] = []
        self.scans: list[TableScanOp] = []

    # -- issue helpers -----------------------------------------------------

    def _issue(self, op, code: str, message: str) -> None:
        self.issues.append(PlanIssue(type(op).__name__, code, message))

    def _check_refs(self, op, expr, schema, what: str) -> None:
        if schema is None or expr is None:
            return
        missing = sorted(expr.references() - set(schema))
        if missing:
            self._issue(
                op,
                "unknown-column",
                "%s references column(s) %s not produced by its input "
                "(available: %s)" % (what, missing, sorted(schema)),
            )

    # -- schema derivation -------------------------------------------------

    def visit(self, op):
        """Derive ``op``'s output schema, recording issues on the way."""
        # EXPLAIN ANALYZE wrappers are transparent.
        inner = getattr(op, "inner", None)
        if inner is not None and hasattr(inner, "execute"):
            return self.visit(inner)
        method = getattr(
            self, "_visit_%s" % type(op).__name__.lower(), None
        )
        if method is not None:
            return method(op)
        return self._visit_unknown(op)

    def _visit_unknown(self, op):
        # Walk children generically so subtrees below an unmodelled
        # operator are still verified; claim nothing about its output.
        for attr in ("child", "left", "right"):
            sub = getattr(op, attr, None)
            if sub is not None and hasattr(sub, "execute"):
                self.visit(sub)
        for sub in getattr(op, "children", None) or []:
            if hasattr(sub, "execute"):
                self.visit(sub)
        return None

    def _visit_tablescanop(self, op: TableScanOp):
        self.scans.append(op)
        table_columns = dict(op.table.schema.columns)
        schema: dict[str, DataType] = {}
        for name in op.columns:
            dtype = table_columns.get(name)
            if dtype is None:
                self._issue(
                    op,
                    "unknown-column",
                    "scan of %s projects %r which the table does not have"
                    % (op.table.schema.name, name),
                )
                continue
            schema[name] = dtype
        for pred in op.pushed:
            if pred.column not in table_columns:
                self._issue(
                    op,
                    "unknown-column",
                    "pushed predicate on %r which table %s does not have"
                    % (pred.column, op.table.schema.name),
                )
        if op.residual is not None:
            available = dict(table_columns)
            self._check_refs(op, op.residual, available, "residual predicate")
        if self.database is not None:
            self._check_scan_charging(op)
        return schema

    def _check_scan_charging(self, op: TableScanOp) -> None:
        db = self.database
        # Session temp tables are not in the catalog and scan without the
        # pool by design: frames are keyed by table name, which only the
        # catalog keeps unique.
        if op.page_source is None and any(
            getattr(obj, "table", None) is op.table
            for schema in db.catalog.schema_names()
            for _, obj in db.catalog.entries(schema)
        ):
            self._issue(
                op,
                "cost-charge",
                "scan of %s bypasses the buffer pool (page_source is None): "
                "its pages/bytes never reach the cost model"
                % op.table.schema.name,
            )
        noted = any(s is op for s in getattr(db, "last_scans", []))
        if not noted:
            self._issue(
                op,
                "cost-charge",
                "scan of %s was not registered via Database.note_scan: "
                "last_query_bytes() will under-report this query"
                % op.table.schema.name,
            )
        pool = getattr(db, "pool", None)
        if pool is not None and op.pool is not None and op.pool is not pool:
            self._issue(
                op,
                "cost-charge",
                "scan of %s runs on a foreign worker pool: its task spans "
                "will not charge this engine's clock or metrics"
                % op.table.schema.name,
            )

    def _visit_vectorsourceop(self, op: VectorSourceOp):
        return {
            key: vector.dtype for key, vector in op.batch.columns.items()
        }

    def _visit_cteop(self, op):
        schema = self.visit(op.child)
        if schema is not None:
            for key, source, dtype in op.outputs:
                if schema.get(source) != dtype:
                    self._issue(
                        op,
                        "unknown-column",
                        "CTE %s exposes %r as %s but its query produces %s"
                        % (op.name, source, dtype, schema.get(source)),
                    )
        return {key: dtype for key, _source, dtype in op.outputs}

    def _visit_connectbyop(self, op):
        schema = self.visit(op.child)
        for parent, child in op.pairs:
            self._check_refs(op, parent, schema, "CONNECT BY parent")
            self._check_refs(op, child, schema, "CONNECT BY child")
        self._check_refs(op, op.start_with, schema, "START WITH")
        if schema is None:
            return None
        out = dict(schema)
        out[op.LEVEL_KEY] = INTEGER
        return out

    def _visit_filterop(self, op: FilterOp):
        schema = self.visit(op.child)
        self._check_refs(op, op.predicate, schema, "filter predicate")
        return schema

    def _visit_projectop(self, op: ProjectOp):
        schema = self.visit(op.child)
        out: dict[str, DataType] = {}
        for alias, expr in op.outputs:
            self._check_refs(op, expr, schema, "projection %r" % alias)
            if alias in out:
                self._issue(
                    op,
                    "duplicate-column",
                    "projection emits %r twice" % alias,
                )
            out[alias] = expr.dtype
        return out

    def _visit_limitop(self, op: LimitOp):
        if op.limit is not None and op.limit < 0:
            self._issue(op, "bad-limit", "negative LIMIT %r" % op.limit)
        if op.offset < 0:
            self._issue(op, "bad-limit", "negative OFFSET %r" % op.offset)
        return self.visit(op.child)

    def _visit_sortop(self, op: SortOp):
        schema = self.visit(op.child)
        for i, key in enumerate(op.keys):
            self._check_refs(op, key.expr, schema, "sort key %d" % (i + 1))
        return schema

    def _visit_rownumberop(self, op):
        schema = self.visit(op.child)
        if schema is None:
            return None
        if op.key in schema:
            self._issue(
                op,
                "duplicate-column",
                "row-number key %r collides with an input column" % op.key,
            )
        out = dict(schema)
        out[op.key] = BIGINT
        return out

    def _visit_chainop(self, op):
        schemas = [self.visit(child) for child in op.children]
        known = [s for s in schemas if s is not None]
        if not known:
            return None
        first = known[0]
        for i, schema in enumerate(known[1:], start=2):
            if list(schema) != list(first):
                self._issue(
                    op,
                    "union-mismatch",
                    "UNION ALL branch %d emits %s but branch 1 emits %s"
                    % (i, list(schema), list(first)),
                )
                continue
            for key in first:
                if not _comparable(first[key], schema[key]):
                    self._issue(
                        op,
                        "union-mismatch",
                        "UNION ALL column %r: branch 1 is %s, branch %d is %s"
                        % (key, first[key], i, schema[key]),
                    )
        return first

    def _visit_hashjoinop(self, op: HashJoinOp):
        left = self.visit(op.left)
        right = self.visit(op.right)
        if len(op.left_keys) != len(op.right_keys):
            self._issue(
                op,
                "join-arity",
                "join key arity mismatch: %d left vs %d right"
                % (len(op.left_keys), len(op.right_keys)),
            )
        for lk, rk in zip(op.left_keys, op.right_keys):
            if left is not None and lk not in left:
                self._issue(
                    op,
                    "unknown-column",
                    "left join key %r not produced by the probe side "
                    "(available: %s)" % (lk, sorted(left)),
                )
            if right is not None and rk not in right:
                self._issue(
                    op,
                    "unknown-column",
                    "right join key %r not produced by the build side "
                    "(available: %s)" % (rk, sorted(right)),
                )
            if (
                left is not None
                and right is not None
                and lk in left
                and rk in right
                and not _comparable(left[lk], right[rk])
            ):
                self._issue(
                    op,
                    "join-type-mismatch",
                    "join keys %r (%s) and %r (%s) are not comparable"
                    % (lk, left[lk], rk, right[rk]),
                )
        if left is None or right is None:
            return None
        if op.join_type in ("semi", "anti"):
            out = dict(left)
        else:
            out = dict(left)
            for key, dtype in right.items():
                if key in out:
                    self._issue(
                        op,
                        "duplicate-column",
                        "both join sides produce column %r" % key,
                    )
                    continue
                out[key] = dtype
        self._check_refs(op, op.residual, {**left, **right}, "join residual")
        return out

    def _visit_nestedloopjoinop(self, op: NestedLoopJoinOp):
        left = self.visit(op.left)
        right = self.visit(op.right)
        if left is None or right is None:
            return None
        out = dict(left)
        for key, dtype in right.items():
            out.setdefault(key, dtype)
        self._check_refs(op, op.condition, out, "join condition")
        return out

    def _visit_groupbyop(self, op: GroupByOp):
        schema = self.visit(op.child)
        out: dict[str, DataType] = {}
        for alias, expr in op.keys:
            self._check_refs(op, expr, schema, "group key %r" % alias)
            out[alias] = expr.dtype
        for spec in op.aggregates:
            for arg in spec.args:
                self._check_refs(
                    op, arg, schema, "aggregate %s(%s)" % (spec.func, spec.alias)
                )
            if spec.alias in out:
                self._issue(
                    op,
                    "duplicate-column",
                    "aggregate alias %r collides with a group key" % spec.alias,
                )
            out[spec.alias] = spec.output_type()
        if self.database is not None:
            pool = getattr(self.database, "pool", None)
            if pool is not None and op.pool is not None and op.pool is not pool:
                self._issue(
                    op,
                    "cost-charge",
                    "group-by runs on a foreign worker pool: its task spans "
                    "will not charge this engine's clock or metrics",
                )
        return out


def verify_plan(planned, database=None) -> list[PlanIssue]:
    """Verify a plan; returns the list of issues (empty when clean).

    ``planned`` is either a :class:`~repro.sql.planner.PlannedQuery` (the
    root schema is then checked against its advertised keys/dtypes) or a
    bare operator.
    """
    verifier = PlanVerifier(database=database)
    op = getattr(planned, "op", planned)
    schema = verifier.visit(op)
    # Only a plan *wrapper* advertises a root schema; a bare operator's own
    # ``keys`` attribute (GroupByOp group keys, SortOp sort keys) is not one.
    keys = getattr(planned, "keys", None) if op is not planned else None
    if keys is not None and schema is not None:
        dtypes = list(getattr(planned, "dtypes", []) or [])
        names = list(getattr(planned, "names", []) or [])
        if list(schema) != list(keys):
            verifier._issue(
                op,
                "root-schema",
                "plan produces keys %s but the query advertises %s"
                % (list(schema), list(keys)),
            )
        else:
            for key, dtype in zip(keys, dtypes):
                if schema[key] != dtype:
                    verifier._issue(
                        op,
                        "root-schema",
                        "column %r: plan produces %s, query advertises %s"
                        % (key, schema[key], dtype),
                    )
        if names and len(names) != len(keys):
            verifier._issue(
                op,
                "root-schema",
                "query advertises %d names for %d columns"
                % (len(names), len(keys)),
            )
    return verifier.issues


def check_plan(planned, database=None) -> None:
    """Raise :class:`PlanVerificationError` when a plan fails to verify."""
    issues = verify_plan(planned, database=database)
    if issues:
        raise PlanVerificationError(issues)
