"""Query planning: bound AST -> physical operator tree.

The planner implements the classical pipeline (FROM -> WHERE -> GROUP BY ->
HAVING -> SELECT -> DISTINCT -> set ops -> ORDER BY -> LIMIT) on top of the
vectorised engine, with the optimisations the paper's engine relies on:

* **projection pruning** — scans fetch only referenced columns (II.B.3);
* **predicate pushdown** — constant conjuncts become
  :class:`~repro.engine.operators.SimplePredicate` evaluated on compressed
  data with synopsis skipping (II.B.2/4/6);
* **equi-join extraction** — explicit ON clauses, comma-join WHERE equality
  conjuncts, and Oracle ``(+)`` markers all become partitioned hash joins
  (II.B.7).

Dialect-specific planning: ROWNUM rewrites to LIMIT / a row-number column,
DUAL produces a one-row relation, CONNECT BY runs an iterative hierarchical
expansion, top-level VALUES is available to DB2 sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.aggregate import AggregateSpec, GroupByOp
from repro.engine.expression import (
    Batch,
    CaseExpr,
    Cast,
    ColumnRef,
    Compare,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Logical,
    Not,
    Between,
    selection_mask,
)
from repro.engine.join import HashJoinOp, NestedLoopJoinOp
from repro.engine.operators import (
    FilterOp,
    LimitOp,
    Operator,
    ProjectOp,
    SimplePredicate,
    TableScanOp,
    VectorSourceOp,
)
from repro.engine.sort import SortKey, SortOp
from repro.errors import (
    BindError,
    DialectError,
    SQLError,
    TypeCheckError,
    UnsupportedFeatureError,
)
from repro.monitor.instrument import _CHILD_ATTRS
from repro.sql import ast
from repro.sql.binder import (
    ExpressionBinder,
    LateConstant,
    LiteralSlots,
    Scope,
    ScopeColumn,
    SlotLiteral,
    _as_literal,
    _physical_for,
)
from repro.sql.dialects import Dialect, get_dialect
from repro.storage.column import ColumnVector
from repro.types.datatypes import BIGINT, BOOLEAN, INTEGER, DataType, TypeKind


@dataclass
class PlanLineage:
    """What one statement's planning resolved names against: what its answer
    depends on, and what decides whether the plan may be reused."""

    #: Base tables read (uppercase).  None once the plan read something the
    #: table-version clock cannot see: a session temp table, a federation
    #: nickname, a statement-scoped relation.
    tables: set[str] | None = field(default_factory=set)
    #: Catalog ``(schema, name)`` -> DDL stamp, for every name resolved.
    stamps: dict = field(default_factory=dict)
    #: Unqualified names that resolved in the catalog: a session temp table
    #: declared later under one of them would shadow it.
    names: set[str] = field(default_factory=set)
    #: Why the plan is this statement's alone (first reason met), if it is.
    bypass: str | None = None

    def single_use(self, reason: str, untracked: bool = False) -> None:
        if self.bypass is None:
            self.bypass = reason
        if untracked:
            self.tables = None

    def seal(self) -> "PlanLineage":
        """Freeze the name sets once planning is done: a sealed lineage is
        shared by every execution of its plan and every answer it gives."""
        if self.tables is not None:
            self.tables = frozenset(self.tables)
        self.names = frozenset(self.names)
        return self


@dataclass
class PlannedQuery:
    """A compiled SELECT: the operator tree plus its output schema.

    What the planner returns holds nothing of an execution — no snapshot,
    no captured table state, no statistics — so it can be kept and shared.
    :meth:`bind` makes one execution of it, a copy; :meth:`open` starts the
    one execution of a plan nobody will share, in place; :meth:`run` on a
    plan that is neither executes it in place against the latest
    committed-or-not state (the scans open themselves), which is what
    tests of bare plans want.
    """

    op: Operator
    names: list[str]
    keys: list[str]
    dtypes: list[DataType]
    #: The statement's literal slots, when it was planned for reuse.
    slots: LiteralSlots | None = None
    lineage: PlanLineage | None = None
    #: Of a bound plan: its scans, opened, in tree order.
    scans: tuple = ()
    #: How :meth:`bind` copies the tree (:func:`_copy_recipe`), made on first use.
    _recipe: list | None = field(default=None, repr=False, compare=False)

    def run(self) -> Batch:
        return self.op.run()

    def open(self, scans, snapshot=None, on_scan=None) -> "PlannedQuery":
        """Start the only execution this plan will have, in place: *scans*
        (the planner's record of the scans it built into the tree) are
        opened under *snapshot* and shown to ``on_scan``.  What
        :meth:`bind` does for a plan that is kept, without the copy."""
        self.scans = tuple(scans)
        for scan in self.scans:
            scan.open(snapshot)
            if on_scan is not None:
                on_scan(scan)
        return self

    def read_filters(self) -> dict | None:
        """Per base table this execution reads, what a row of it must pass
        to reach the answer: the pushed conjunction of each of the
        execution's scans of the table (bound, so late literals carry this
        execution's constants — every row a scan emits passes its own), or
        None for TRUE.  A table read any other way is TRUE: a scan with no
        pushed predicate, or a plan whose lineage took a bypass (a
        plan-time subquery's answer is folded into the plan).  None when
        the plan reads nothing commits announce."""
        lineage = self.lineage
        if lineage is None or not lineage.tables:
            return None
        if lineage.bypass is not None:
            return dict.fromkeys(lineage.tables)
        filters = dict.fromkeys(lineage.tables, ())
        for scan in self.scans:
            name = scan.table.schema.name.upper()
            held = filters.get(name)
            if held is not None:
                filters[name] = held + (tuple(scan.pushed),) if scan.pushed else None
        return {name: held or None for name, held in filters.items()}

    def bind(self, snapshot=None, tokens=None, on_scan=None) -> "PlannedQuery":
        """One execution of this plan: a copy of the operator tree that owns
        everything an execution varies — the MVCC *snapshot* and table
        captures of its scans, their statistics, the constants of literals
        bound late (read from *tokens*, the executing statement's), and
        whatever instrumentation wraps it afterwards.  ``on_scan(scan)``
        sees every opened scan.  Raises what a constant's conversion raises
        when a late literal's value does not fit where the planned one did.
        """
        if self._recipe is None:
            self._recipe = _copy_recipe(self.op, self.slots)
        clones: list[Operator] = []
        scans = []
        for op, links, late in self._recipe:
            clone = _shallow_copy(op)
            for attr, ref in links:
                setattr(
                    clone, attr,
                    clones[ref] if type(ref) is int else [clones[i] for i in ref],
                )
            for attr in late:
                setattr(clone, attr, _bound(getattr(op, attr), tokens))
            if isinstance(clone, TableScanOp):
                clone.open(snapshot)
                scans.append(clone)
                if on_scan is not None:
                    on_scan(clone)
            clones.append(clone)
        return PlannedQuery(
            clones[-1], self.names, self.keys, self.dtypes,
            lineage=self.lineage, scans=tuple(scans),
        )


def _shallow_copy(obj):
    """A new object sharing *obj*'s attributes (no ``__init__``, no
    ``__post_init__``: nothing is recomputed)."""
    copy = object.__new__(type(obj))
    copy.__dict__.update(obj.__dict__)
    return copy


def _copy_recipe(root: Operator, slots: LiteralSlots | None) -> list[tuple]:
    """How :meth:`PlannedQuery.bind` copies a tree: per operator, children
    first (a shared subtree once), ``(operator, [(attribute, index or
    indexes of the copied children)], [attributes holding a late literal])``."""
    index: dict[int, int] = {}
    recipe: list[tuple] = []

    def visit(op) -> int:
        at = index.get(id(op))
        if at is not None:
            return at
        links = []
        for attr in _CHILD_ATTRS:
            sub = getattr(op, attr, None)
            if isinstance(sub, Operator):
                links.append((attr, visit(sub)))
        children = getattr(op, "children", None)
        if children:
            links.append(("children", [visit(c) for c in children]))
        late = []
        if slots is not None and slots.late:
            linked = {attr for attr, _ in links}
            late = [
                attr for attr, value in vars(op).items()
                if attr not in linked and _holds_late(value)
            ]
        index[id(op)] = len(recipe)
        recipe.append((op, links, late))
        return index[id(op)]

    visit(root)
    return recipe


#: Plan-structure types a late literal can sit inside.
_PLAN_NODES = (Expr, SimplePredicate, SortKey, AggregateSpec)


def _holds_late(value) -> bool:
    """Whether a late-bound literal sits anywhere inside a plan value."""
    if isinstance(value, SlotLiteral):
        return value.late
    if isinstance(value, LateConstant):
        return True
    if isinstance(value, (list, tuple)):
        return any(_holds_late(v) for v in value)
    if isinstance(value, _PLAN_NODES):
        return any(_holds_late(v) for v in vars(value).values())
    return False


def _bound(value, tokens):
    """*value* with every late literal replaced by this execution's
    constant; the same object where it holds none."""
    if isinstance(value, SlotLiteral):
        return value.bound(tokens) if value.late else value
    if isinstance(value, LateConstant):
        return value.bound(tokens)
    if isinstance(value, (list, tuple)):
        items = [_bound(v, tokens) for v in value]
        if all(new is old for new, old in zip(items, value)):
            return value
        return type(value)(items)
    if isinstance(value, _PLAN_NODES):
        copy = None
        for attr, child in vars(value).items():
            new = _bound(child, tokens)
            if new is not child:
                if copy is None:
                    copy = _shallow_copy(value)
                copy.__dict__[attr] = new
        return value if copy is None else copy
    return value


# --------------------------------------------------------------------------
# Helper operators that live at the planner level
# --------------------------------------------------------------------------


class ChainOp(Operator):
    """Concatenate children (UNION ALL); children share output keys."""

    def __init__(self, children: list[Operator]):
        self.children = children

    def execute(self):
        for child in self.children:
            yield from child.execute()


class RowNumberOp(Operator):
    """Attach a 1-based running row number column."""

    def __init__(self, child: Operator, key: str):
        self.child = child
        self.key = key

    def execute(self):
        next_number = 1
        for batch in self.child.execute():
            numbers = np.arange(next_number, next_number + batch.n, dtype=np.int64)
            next_number += batch.n
            columns = dict(batch.columns)
            columns[self.key] = ColumnVector(BIGINT, numbers, None)
            yield Batch.from_columns(columns)


class CteOp(Operator):
    """A common table expression: its query runs once per execution, on
    first demand, and every reference replays that result under the
    relation's own column keys."""

    def __init__(self, child: Operator, outputs: list[tuple[str, str, DataType]], name: str):
        self.child = child
        self.outputs = outputs  # (key in the relation, the query's key, type)
        self.name = name
        self._batch: Batch | None = None  # this execution's result

    def execute(self):
        if self._batch is None:
            batch = self.child.run()
            self._batch = Batch.from_columns(
                {
                    key: batch.columns[source]
                    if batch.columns
                    else ColumnVector(dtype, np.empty(0, dtype=dtype.numpy_dtype), None)
                    for key, source, dtype in self.outputs
                }
            )
        if self._batch.n:
            yield self._batch


class ConnectByOp(Operator):
    """Iterative hierarchical expansion (Oracle CONNECT BY) of the child's
    rows, each tagged with its ``__LEVEL``.

    ``pairs`` are ``(parent_expr, child_expr)`` bound over the child: a row
    is a child of every row whose parent expression equals its child
    expression (``PRIOR empno = mgr``).
    """

    LEVEL_KEY = "__LEVEL"

    def __init__(self, child: Operator, pairs, start_with: Expr | None, nocycle: bool):
        self.child = child
        self.pairs = pairs
        self.start_with = start_with
        self.nocycle = nocycle

    def execute(self):
        base = self.child.run()
        if base.n == 0:
            return
        if self.start_with is not None:
            roots_mask = selection_mask(self.start_with, base)
        else:
            roots_mask = np.ones(base.n, dtype=bool)
        parent_cols = [p.eval(base) for p, _ in self.pairs]
        child_cols = [c.eval(base) for _, c in self.pairs]
        child_index: dict = {}
        for i in range(base.n):
            key = tuple(_unwrap(v.values[i]) if not v.null_mask()[i] else None for v in child_cols)
            child_index.setdefault(key, []).append(i)
        order: list[int] = []
        levels: list[int] = []
        frontier = [(i, 1) for i in np.nonzero(roots_mask)[0].tolist()]
        visited: set[tuple[int, int]] = set()
        while frontier:
            row, level = frontier.pop()
            if self.nocycle and (row, 0) in visited:
                continue
            visited.add((row, 0))
            order.append(row)
            levels.append(level)
            if level > base.n:  # cycle guard
                raise SQLError("CONNECT BY loop detected (use NOCYCLE)")
            key = tuple(
                _unwrap(v.values[row]) if not v.null_mask()[row] else None
                for v in parent_cols
            )
            for child in child_index.get(key, ()):  # children whose child expr = parent's value
                if self.nocycle and (child, 0) in visited:
                    continue
                frontier.append((child, level + 1))
        if not order:
            return
        result = base.take(np.array(order, dtype=np.int64))
        columns = dict(result.columns)
        columns[self.LEVEL_KEY] = ColumnVector(
            INTEGER, np.array(levels, dtype=np.int64), None
        )
        yield Batch.from_columns(columns)


# --------------------------------------------------------------------------
# FROM-item bookkeeping
# --------------------------------------------------------------------------


@dataclass
class BaseRel:
    """A scannable base table, finalised lazily for projection pruning."""

    alias: str
    table: object  # ColumnTable
    columns: list[ScopeColumn]
    pushed: list[SimplePredicate]
    outer_null_side: bool = False  # True when (+)-marked / outer-null side
    scan_options: dict | None = None  # feature flags (ablation baselines)

    pool: object = None  # WorkerPool for region-parallel scans
    built: list | None = None  # the planner's record of the scans it builds
    #: False for session temp tables: buffer-pool frames are keyed by table
    #: *name*, and two sessions' (or two successive) temp tables share one.
    pooled: bool = True

    def build(self, needed_keys: set[str], page_source) -> Operator:
        wanted = [c for c in self.columns if c.key in needed_keys]
        if not wanted:
            wanted = self.columns[:1]  # must scan something for row count
        scan = TableScanOp(
            self.table,
            [c.name for c in wanted],
            pushed=self.pushed,
            page_source=page_source if self.pooled else None,
            pool=self.pool,
            **(self.scan_options or {}),
        )
        if self.built is not None:
            self.built.append(scan)
        outputs = [(c.key, ColumnRef(c.name, c.dtype)) for c in wanted]
        return ProjectOp(scan, outputs)


@dataclass
class MaterialRel:
    """An already-planned relation (subquery, view, CTE, VALUES, nickname)."""

    alias: str
    op: Operator
    columns: list[ScopeColumn]

    def build(self, needed_keys: set[str], page_source) -> Operator:
        return self.op


def vector_relation(alias: str, names, dtypes, vectors) -> MaterialRel:
    """In-memory column vectors as a relation called *alias*: what a CTE
    materialises to, and how the MPP coordinator sees gathered partials."""
    columns = []
    batch_columns = {}
    for name, dtype, vector in zip(names, dtypes, vectors):
        key = "%s.%s" % (alias, name.upper())
        columns.append(ScopeColumn(key, name.upper(), alias, dtype))
        batch_columns[key] = vector
    source = VectorSourceOp(Batch.from_columns(batch_columns), name=alias)
    return MaterialRel(alias, source, columns)


@dataclass
class JoinEdge:
    left_key: str
    right_key: str


@dataclass
class PlannedJoinTree:
    """Recursive FROM-tree plan node."""

    kind: str  # "rel" | join kinds
    rel: object = None
    left: "PlannedJoinTree | None" = None
    right: "PlannedJoinTree | None" = None
    condition: Expr | None = None
    equi: list[JoinEdge] | None = None

    def aliases(self) -> set[str]:
        if self.kind == "rel":
            return {self.rel.alias}
        return self.left.aliases() | self.right.aliases()


class SelectPlanner:
    """Plans SELECT statements for one session."""

    def __init__(
        self, database, dialect: Dialect, page_source=None, session=None,
        relations: dict[str, MaterialRel] | None = None,
        snapshot=None, on_scan=None, slots: LiteralSlots | None = None,
    ):
        self.database = database
        self.dialect = dialect
        self.page_source = page_source
        self.session = session
        self.pool = getattr(database, "pool", None)
        #: For what planning itself executes (scalar / IN / EXISTS
        #: subqueries fold to constants here): the statement's MVCC
        #: snapshot and its scan registration.  A plan does not keep them.
        self.subquery_snapshot = snapshot
        self.on_scan = on_scan
        #: The statement's literal slots when planning for the plan cache.
        self.slots = slots
        self.lineage = PlanLineage()
        #: Every scan built into the statement's own tree, in build order.
        self.scans: list[TableScanOp] = []
        if relations:
            self.lineage.single_use("relations", untracked=True)
        #: Innermost-last name scopes searched before temp tables and the
        #: catalog.  *relations* (the statement's own, e.g. the partials an
        #: MPP coordinator gathered) is the outermost, so views planned in
        #: nested ``plan()`` calls resolve through it too.
        self._cte_frames: list[dict[str, MaterialRel]] = (
            [relations] if relations else []
        )
        self._rel_counter = 0

    def _pin(self, node) -> None:
        """Planning read a literal's spelling off the AST (an ordinal, a
        row limit): the plan holds for that value only."""
        if self.slots is not None:
            self.slots.pin(node.slot)

    # ==== public API =======================================================

    def plan(self, select: ast.Select, outer_scope: Scope | None = None) -> PlannedQuery:
        frame = {}
        self._cte_frames.append(frame)
        try:
            for name, cte_select, column_names in select.ctes:
                planned = self.plan(cte_select, outer_scope)
                frame[name.upper()] = self._cte_relation(
                    planned, name.upper(), column_names
                )
            return self._plan_body(select, outer_scope)
        finally:
            self._cte_frames.pop()

    # Subquery protocol used by the binder -------------------------------------

    def _run_now(self, select: ast.Select, limit: int | None = None):
        """Plan a subquery and execute it while planning: its answer is
        folded into the plan, which is therefore this statement's alone (and
        has no use for late literals)."""
        self.lineage.single_use("plan-time-subquery")
        saved, self.slots = self.slots, None
        mark = len(self.scans)
        try:
            planned = self.plan(select)
        finally:
            self.slots = saved
        if limit is not None:
            planned.op = LimitOp(planned.op, limit=limit)
        if self.subquery_snapshot is None:
            self.subquery_snapshot = self.database.txn.snapshot()
        # The subquery's scans are its own: not the enclosing statement's.
        scans, self.scans[mark:] = self.scans[mark:], []
        planned.open(scans, self.subquery_snapshot, self.on_scan)
        return planned, planned.run()

    def scalar_value(self, select: ast.Select, scope: Scope) -> Expr:
        planned, batch = self._run_now(select)
        if batch.n > 1:
            raise SQLError("scalar subquery returned %d rows" % batch.n)
        dtype = planned.dtypes[0]
        if batch.n == 0:
            return Literal(None, dtype)
        vector = batch.columns[planned.keys[0]]
        value = None if vector.null_mask()[0] else vector.values[0]
        if isinstance(value, np.generic):
            value = value.item()
        return Literal(value, dtype)

    def scalar_column(self, select: ast.Select, scope: Scope) -> list[Literal]:
        """An IN subquery's rows as constants of its output type, which
        the binder then reads like a literal list."""
        planned, batch = self._run_now(select)
        if len(planned.keys) != 1:
            raise SQLError("IN subquery must return exactly one column")
        if not batch.n:
            return []
        vector = batch.columns[planned.keys[0]]
        nulls = vector.null_mask()
        dtype = planned.dtypes[0]
        return [
            Literal(None if nulls[i] else _unwrap(vector.values[i]), dtype)
            for i in range(batch.n)
        ]

    def exists(self, select: ast.Select, scope: Scope) -> bool:
        limited = ast.Select(
            items=select.items,
            distinct=select.distinct,
            from_items=select.from_items,
            where=select.where,
            group_by=select.group_by,
            having=select.having,
        )
        return self._run_now(limited, limit=1)[1].n > 0

    # ==== core body planning ==================================================

    def _plan_body(self, select: ast.Select, outer_scope: Scope | None) -> PlannedQuery:
        planned = self._plan_query_block(select, outer_scope)
        if select.set_op is not None:
            planned = self._plan_set_op(planned, select.set_op, select.set_right, outer_scope)
        planned = self._apply_order_limit(planned, select, outer_scope)
        return planned

    # -- FROM ---------------------------------------------------------------------

    def _cte_relation(self, planned: PlannedQuery, alias: str, column_names=None) -> MaterialRel:
        """A CTE as a relation: one :class:`CteOp` however many references."""
        names = column_names or planned.names
        if len(names) != len(planned.keys):
            raise SQLError("column alias count mismatch for %s" % alias)
        columns = []
        outputs = []
        for name, key, dtype in zip(names, planned.keys, planned.dtypes):
            new_key = "%s.%s" % (alias, name.upper())
            columns.append(ScopeColumn(new_key, name.upper(), alias, dtype))
            outputs.append((new_key, key, dtype))
        return MaterialRel(alias, CteOp(planned.op, outputs, alias), columns)

    def _lazy_relation(self, planned: PlannedQuery, alias: str, column_names=None):
        """Wrap a planned query as a relation without materialising."""
        names = column_names or planned.names
        columns = []
        outputs = []
        for name, key, dtype in zip(names, planned.keys, planned.dtypes):
            new_key = "%s.%s" % (alias, name.upper())
            columns.append(ScopeColumn(new_key, name.upper(), alias, dtype))
            outputs.append((new_key, ColumnRef(key, dtype)))
        return MaterialRel(alias, ProjectOp(planned.op, outputs), columns)

    def _find_cte(self, name: str) -> MaterialRel | None:
        for frame in reversed(self._cte_frames):
            if name.upper() in frame:
                return frame[name.upper()]
        return None

    def _plan_from_item(self, item, outer_scope) -> PlannedJoinTree:
        if isinstance(item, ast.TableRef):
            return PlannedJoinTree(kind="rel", rel=self._plan_table_ref(item, outer_scope))
        if isinstance(item, ast.SubqueryRef):
            planned = self.plan(item.select, outer_scope)
            rel = self._lazy_relation(planned, item.alias.upper(), item.column_aliases)
            return PlannedJoinTree(kind="rel", rel=rel)
        if isinstance(item, ast.Join):
            left = self._plan_from_item(item.left, outer_scope)
            right = self._plan_from_item(item.right, outer_scope)
            return self._plan_join_node(item, left, right, outer_scope)
        raise UnsupportedFeatureError("unsupported FROM item %s" % type(item).__name__)

    def _plan_table_ref(self, ref: ast.TableRef, outer_scope):
        alias = (ref.alias or ref.name).upper()
        name = ref.name.upper()
        # DUAL (Oracle)
        if name == "DUAL" and ref.schema is None:
            if not self.dialect.allows_dual:
                raise DialectError("DUAL requires the Oracle dialect")
            batch = Batch.from_columns(
                {"%s.DUMMY" % alias: ColumnVector.from_boundary(["X"], _vchar(1))}
            )
            return MaterialRel(
                alias,
                VectorSourceOp(batch),
                [ScopeColumn("%s.DUMMY" % alias, "DUMMY", alias, _vchar(1))],
            )
        # CTE?
        cte = self._find_cte(name) if ref.schema is None else None
        if cte is not None:
            return self._realias(cte, alias)
        # Session temp table?
        if self.session is not None and ref.schema is None:
            temp = self.session.get_temp_table(name)
            if temp is not None:
                self.lineage.single_use("temp-table", untracked=True)
                return self._base_rel(alias, temp, pooled=False)
        lineage = self.lineage
        obj = self.database.catalog.resolve(name, ref.schema, lineage.stamps)
        if ref.schema is None:
            lineage.names.add(name)
        from repro.catalog.catalog import NicknameInfo, TableInfo, ViewInfo

        if isinstance(obj, TableInfo):
            if lineage.tables is not None:
                lineage.tables.add(obj.table.schema.name.upper())
            return self._base_rel(alias, obj.table)
        if isinstance(obj, ViewInfo):
            from repro.sql.parser import parse_statement

            view_select = parse_statement(obj.text)
            if not isinstance(view_select, ast.Select):
                raise SQLError("view %s does not contain a SELECT" % obj.name)
            saved = self.dialect, self.slots
            # Views compile under the dialect recorded at creation (II.C.2);
            # their literals are the definition's, not the statement's.
            self.dialect, self.slots = get_dialect(obj.dialect), None
            try:
                planned = self.plan(view_select)
            finally:
                self.dialect, self.slots = saved
            return self._lazy_relation(planned, alias, obj.column_names)
        if isinstance(obj, NicknameInfo):
            lineage.single_use("nickname", untracked=True)
            batch, columns = obj.connector.fetch_batch(obj.remote_table, alias)
            return MaterialRel(alias, VectorSourceOp(batch), columns)
        raise BindError("%s is not a table, view, or nickname" % name)

    def _base_rel(self, alias: str, table, pooled: bool = True) -> BaseRel:
        columns = [
            ScopeColumn("%s.%s" % (alias, cname.upper()), cname.upper(), alias, dtype)
            for cname, dtype in table.schema.columns
        ]
        options = getattr(self.database, "scan_options", None)
        return BaseRel(
            alias=alias, table=table, columns=columns, pushed=[],
            scan_options=options, pool=self.pool, built=self.scans, pooled=pooled,
        )

    def _realias(self, rel: MaterialRel, alias: str) -> MaterialRel:
        outputs = []
        columns = []
        for c in rel.columns:
            new_key = "%s.%s" % (alias, c.name)
            outputs.append((new_key, ColumnRef(c.key, c.dtype)))
            columns.append(ScopeColumn(new_key, c.name, alias, c.dtype))
        return MaterialRel(alias, ProjectOp(rel.op, outputs), columns)

    def _plan_join_node(self, join: ast.Join, left, right, outer_scope) -> PlannedJoinTree:
        if join.kind == "cross":
            return PlannedJoinTree(kind="cross", left=left, right=right)
        left_cols = _tree_columns(left)
        right_cols = _tree_columns(right)
        if join.using is not None:
            names = join.using
            if not names:  # NATURAL JOIN: common column names
                left_names = {c.name for c in left_cols}
                names = [c.name for c in right_cols if c.name in left_names]
                if not names:
                    raise BindError("NATURAL JOIN with no common columns")
            equi = []
            for name in names:
                lmatch = [c for c in left_cols if c.name == name.upper()]
                rmatch = [c for c in right_cols if c.name == name.upper()]
                if len(lmatch) != 1 or len(rmatch) != 1:
                    raise BindError("USING column %s not unique" % name)
                equi.append(JoinEdge(lmatch[0].key, rmatch[0].key))
            return PlannedJoinTree(kind=join.kind, left=left, right=right, equi=equi)
        scope = Scope(left_cols + right_cols)
        binder = self._make_binder(scope)
        equi, residual = self._split_join_condition(
            join.condition, binder, {c.key for c in left_cols}, {c.key for c in right_cols}
        )
        return PlannedJoinTree(
            kind=join.kind, left=left, right=right, condition=residual, equi=equi
        )

    def _split_join_condition(self, condition, binder, left_keys, right_keys):
        """Split an ON condition into equi edges + residual expression."""
        equi: list[JoinEdge] = []
        residual_parts: list[Expr] = []
        for conjunct in _conjuncts(condition):
            bound = binder.bind(conjunct)
            edge = _as_equi_edge(bound, left_keys, right_keys)
            if edge is not None:
                equi.append(edge)
            else:
                residual_parts.append(bound)
        residual = None
        if residual_parts:
            residual = residual_parts[0] if len(residual_parts) == 1 else Logical("AND", residual_parts)
        return equi, residual

    def _make_binder(self, scope: Scope, allow_aggregates=False) -> ExpressionBinder:
        binder = ExpressionBinder(
            scope, self.dialect, self.database, allow_aggregates=allow_aggregates,
            slots=self.slots,
        )
        binder.subquery_planner = self
        return binder

    # -- query block ------------------------------------------------------------------

    def _plan_query_block(self, select: ast.Select, outer_scope) -> PlannedQuery:
        if not select.from_items:
            return self._plan_fromless(select, outer_scope)
        trees = [self._plan_from_item(item, outer_scope) for item in select.from_items]
        all_columns = []
        for tree in trees:
            all_columns.extend(_tree_columns(tree))
        _check_duplicate_aliases(all_columns)
        scope = Scope(all_columns, parent=outer_scope)
        binder = self._make_binder(scope)

        uses_rownum = _ast_contains(select, ast.Rownum)
        rownum_limit = None
        where = select.where
        where_conjuncts = _conjuncts(where)

        # Oracle (+) markers and ROWNUM filters are peeled off first.
        marker_conditions: dict[str, list] = {}
        plain_conjuncts = []
        for conjunct in where_conjuncts:
            marked = _marked_alias(conjunct, scope)
            if marked is not None:
                if not self.dialect.allows_outer_marker:
                    raise DialectError("(+) requires the Oracle dialect")
                marker_conditions.setdefault(marked, []).append(conjunct)
                continue
            limit = self._rownum_limit(conjunct)
            if limit is not None:
                if not self.dialect.allows_rownum:
                    raise DialectError("ROWNUM requires the Oracle dialect")
                rownum_limit = limit if rownum_limit is None else min(rownum_limit, limit)
                continue
            plain_conjuncts.append(conjunct)

        # Classify plain conjuncts: pushdown / equi edge / residual.
        base_rels = {rel.alias: rel for rel in _tree_rels(trees) if isinstance(rel, BaseRel)}
        null_side_aliases = _null_side_aliases(trees) | set(marker_conditions)
        edges: list[JoinEdge] = []
        residual_parts: list[Expr] = []
        for conjunct in plain_conjuncts:
            pushed = self._try_pushdown(conjunct, scope, base_rels, null_side_aliases, binder)
            if pushed:
                continue
            bound = binder.bind(conjunct)
            edge = _as_cross_equi_edge(bound, trees)
            if edge is not None:
                edges.append(edge)
                continue
            residual_parts.append(bound)

        # SELECT list / aggregation — bound before the join tree is built so
        # scans can prune to the referenced columns (paper II.B.3).
        connect_by_active = select.connect_by is not None
        out_binder = self._make_binder(scope, allow_aggregates=True)
        out_binder.rownum_key = "__ROWNUM" if uses_rownum else None
        out_binder.level_key = "__LEVEL" if connect_by_active else None
        items = expand_stars(select.items, scope)
        bound_items: list[tuple[str, Expr]] = []
        for index, item in enumerate(items):
            expr = out_binder.bind(item.expr)
            name = item.alias or _default_name(item.expr, index)
            bound_items.append((name.upper(), expr))

        group_exprs = self._bind_group_by(select, bound_items, scope, out_binder)
        having_expr = None
        if select.having is not None:
            having_expr = out_binder.bind(select.having)

        # Projection pruning: every key any bound expression reads.
        needed: set[str] = set()
        reference_sources: list[Expr] = (
            [e for _, e in bound_items] + residual_parts + (group_exprs or [])
        )
        if having_expr is not None:
            reference_sources.append(having_expr)
        for spec in out_binder.aggregates:
            reference_sources.extend(spec.args)
        for expr in reference_sources:
            needed |= expr.references()
        for edge in edges:
            needed.add(edge.left_key)
            needed.add(edge.right_key)
        for conjuncts in marker_conditions.values():
            for conjunct in conjuncts:
                needed |= binder.bind(_strip_markers(conjunct)).references()
        if select.connect_by is not None:
            needed |= self._connect_by_references(select.connect_by, scope)
        if select.order_by and select.set_op is None:
            scratch = self._make_binder(scope, allow_aggregates=True)
            scratch.rownum_key = out_binder.rownum_key
            scratch.level_key = out_binder.level_key
            for item in select.order_by:
                if self._order_output_ref(
                    item.expr, ["?"] * len(bound_items),
                    [e.dtype for _, e in bound_items],
                    [n for n, _ in bound_items], bound_items,
                ) is None:
                    try:
                        needed |= scratch.bind(item.expr).references()
                    except (BindError, UnsupportedFeatureError, TypeCheckError):
                        pass

        op = self._join_all(trees, edges, marker_conditions, scope, binder, needed)

        if residual_parts:
            residual = (
                residual_parts[0]
                if len(residual_parts) == 1
                else Logical("AND", residual_parts)
            )
            op = FilterOp(op, residual)

        # CONNECT BY (hierarchical expansion) happens after base filtering.
        if select.connect_by is not None:
            if not self.dialect.allows_connect_by:
                raise DialectError("CONNECT BY requires the Oracle dialect")
            op = self._plan_connect_by(op, select.connect_by, binder)

        if uses_rownum:
            op = RowNumberOp(op, "__ROWNUM")
        if rownum_limit is not None:
            op = LimitOp(op, limit=rownum_limit)

        if out_binder.aggregates or group_exprs is not None:
            op, bound_items, having_expr = self._apply_grouping(
                op, bound_items, group_exprs or [], out_binder, having_expr
            )
        if having_expr is not None:
            op = FilterOp(op, having_expr)

        # Final projection (plus hidden sort columns when ORDER BY needs
        # expressions that are not plain outputs).
        names = [name for name, _ in bound_items]
        keys = ["__C%d" % i for i in range(len(bound_items))]
        dtypes = [expr.dtype for _, expr in bound_items]
        outputs = [(key, expr) for key, (_, expr) in zip(keys, bound_items)]

        sort_keys: list[SortKey] = []
        hidden: list[tuple[str, Expr]] = []
        if select.order_by and select.set_op is None:
            grouped = bool(out_binder.aggregates) or group_exprs is not None
            for index, item in enumerate(select.order_by):
                output_ref = self._order_output_ref(item.expr, keys, dtypes, names, bound_items)
                if output_ref is not None:
                    sort_keys.append(SortKey(output_ref, item.ascending, item.nulls_first))
                    continue
                if select.distinct:
                    raise UnsupportedFeatureError(
                        "SELECT DISTINCT can only ORDER BY output columns"
                    )
                expr = self._order_expr_in_block(
                    item.expr, bound_items, out_binder, group_exprs, grouped
                )
                hidden_key = "__S%d" % index
                hidden.append((hidden_key, expr))
                sort_keys.append(
                    SortKey(ColumnRef(hidden_key, expr.dtype), item.ascending, item.nulls_first)
                )

        op = ProjectOp(op, outputs + hidden)
        if select.distinct:
            op = GroupByOp(
                op,
                keys=[(k, ColumnRef(k, dt)) for k, dt in zip(keys, dtypes)],
                aggregates=[],
                pool=self.pool,
            )
        if sort_keys:
            op = SortOp(op, sort_keys)
        if hidden:
            op = ProjectOp(
                op, [(k, ColumnRef(k, dt)) for k, dt in zip(keys, dtypes)]
            )

        planned = PlannedQuery(op=op, names=names, keys=keys, dtypes=dtypes)
        planned._ordered = bool(sort_keys)  # type: ignore[attr-defined]
        planned._scope = scope  # type: ignore[attr-defined]
        return planned

    def _connect_by_references(self, connect: ast.ConnectBy, scope) -> set[str]:
        """Columns a CONNECT BY clause reads (for projection pruning)."""
        binder = self._make_binder(scope)
        refs: set[str] = set()
        for conjunct in _conjuncts(connect.condition):
            refs |= binder.bind(_strip_prior(conjunct)).references()
        if connect.start_with is not None:
            refs |= binder.bind(connect.start_with).references()
        return refs

    def _order_output_ref(self, expr, keys, dtypes, names, bound_items) -> Expr | None:
        """Resolve an ORDER BY item to an output-column reference, if it is
        an ordinal or an output alias."""
        if isinstance(expr, ast.NumberLit):
            self._pin(expr)
            index = ordinal_index(expr, len(bound_items), "ORDER BY")
            return ColumnRef(keys[index], dtypes[index])
        if isinstance(expr, ast.Identifier) and len(expr.parts) == 1:
            name = expr.parts[0].upper()
            for i, n in enumerate(names):
                if n == name:
                    return ColumnRef(keys[i], dtypes[i])
        return None

    def _order_expr_in_block(
        self, expr, bound_items, out_binder, group_exprs, grouped
    ) -> Expr:
        bound = out_binder.bind(expr)
        if grouped:
            signatures = {
                _expr_signature(g): ("__KEY%d" % i, g.dtype)
                for i, g in enumerate(group_exprs or [])
            }
            agg_aliases = {s.alias for s in out_binder.aggregates}
            bound = _rewrite_groups(bound, signatures, agg_aliases)
        return bound

    def _plan_fromless(self, select: ast.Select, outer_scope) -> PlannedQuery:
        """SELECT without FROM (DB2 allows via VALUES; we accept generally)."""
        scope = Scope([], parent=outer_scope)
        binder = self._make_binder(scope, allow_aggregates=False)
        items = select.items
        bound = []
        for index, item in enumerate(items):
            if isinstance(item.expr, ast.Star):
                raise BindError("* requires a FROM clause")
            expr = binder.bind(item.expr)
            name = item.alias or _default_name(item.expr, index)
            bound.append((name.upper(), expr))
        one_row = Batch.from_columns(
            {"__ONE": ColumnVector.from_boundary([1], INTEGER)}
        )
        op = ProjectOp(
            VectorSourceOp(one_row),
            [("__C%d" % i, expr) for i, (_, expr) in enumerate(bound)],
        )
        planned = PlannedQuery(
            op=op,
            names=[n for n, _ in bound],
            keys=["__C%d" % i for i in range(len(bound))],
            dtypes=[e.dtype for _, e in bound],
        )
        if select.where is not None:
            condition = binder.bind(select.where)
            planned = PlannedQuery(
                FilterOp(planned.op, condition), planned.names, planned.keys, planned.dtypes
            )
        return planned

    # -- pushdown ---------------------------------------------------------------------

    def _try_pushdown(self, conjunct, scope, base_rels, null_side_aliases, binder) -> bool:
        """Turn ``col <op> const`` conjuncts into compressed-scan predicates."""
        simple = _simple_predicate(conjunct, scope, binder, self.dialect)
        if simple is None:
            return False
        column, pred = simple
        rel = base_rels.get(column.qualifier)
        if rel is None or column.qualifier in null_side_aliases:
            return False
        rel.pushed.append(pred)
        return True

    # -- joins ------------------------------------------------------------------------

    def _join_all(self, trees, edges, marker_conditions, scope, binder, needed) -> Operator:
        """Join the FROM trees using equi edges; (+)-marked tables join LEFT."""
        built: list[tuple[set[str], Operator]] = []
        deferred_markers = []
        for tree in trees:
            aliases = tree.aliases()
            if len(trees) > 1 and aliases & set(marker_conditions):
                # Marked single tables join last as the null-producing side.
                if tree.kind == "rel" and tree.rel.alias in marker_conditions:
                    deferred_markers.append(tree)
                    continue
            built.append((aliases, self._build_tree(tree, scope, needed)))
        if not built and deferred_markers:
            built.append((deferred_markers[0].aliases(), self._build_tree(deferred_markers[0], scope, needed)))
            deferred_markers = deferred_markers[1:]

        current_aliases, current = built[0]
        remaining = built[1:]
        pending_edges = list(edges)
        while remaining:
            progressed = False
            for i, (aliases, op) in enumerate(remaining):
                usable = [
                    e
                    for e in pending_edges
                    if (_key_alias(e.left_key) in current_aliases and _key_alias(e.right_key) in aliases)
                    or (_key_alias(e.right_key) in current_aliases and _key_alias(e.left_key) in aliases)
                ]
                if usable:
                    lk, rk = [], []
                    for e in usable:
                        if _key_alias(e.left_key) in current_aliases:
                            lk.append(e.left_key)
                            rk.append(e.right_key)
                        else:
                            lk.append(e.right_key)
                            rk.append(e.left_key)
                        pending_edges.remove(e)
                    current = HashJoinOp(current, op, lk, rk, pool=self.pool)
                    current_aliases |= aliases
                    remaining.pop(i)
                    progressed = True
                    break
            if not progressed:
                aliases, op = remaining.pop(0)
                current = NestedLoopJoinOp(current, op, None, join_type="cross")
                current_aliases |= aliases
        # Any leftover edges act as filters (e.g. redundant equalities).
        for e in pending_edges:
            current = FilterOp(
                current,
                Compare("=", ColumnRef(e.left_key, _scope_dtype(scope, e.left_key)),
                        ColumnRef(e.right_key, _scope_dtype(scope, e.right_key))),
            )
        # Oracle (+) left joins.
        for tree in deferred_markers:
            alias = tree.rel.alias
            conjuncts = marker_conditions[alias]
            op = self._build_tree(tree, scope, needed)
            left_keys, right_keys, residual = self._marker_join_keys(
                conjuncts, alias, scope, binder
            )
            current = HashJoinOp(
                current, op, left_keys, right_keys, join_type="left",
                residual=residual, pool=self.pool,
            )
            current_aliases |= tree.aliases()
        return current

    def _marker_join_keys(self, conjuncts, marked_alias, scope, binder):
        left_keys, right_keys = [], []
        residual_parts = []
        for conjunct in conjuncts:
            stripped = _strip_markers(conjunct)
            bound = binder.bind(stripped)
            if (
                isinstance(bound, Compare)
                and bound.op == "="
                and isinstance(bound.left, ColumnRef)
                and isinstance(bound.right, ColumnRef)
            ):
                if _key_alias(bound.left.name) == marked_alias:
                    right_keys.append(bound.left.name)
                    left_keys.append(bound.right.name)
                    continue
                if _key_alias(bound.right.name) == marked_alias:
                    right_keys.append(bound.right.name)
                    left_keys.append(bound.left.name)
                    continue
            residual_parts.append(bound)
        if not left_keys:
            raise UnsupportedFeatureError(
                "(+) join requires at least one equality condition"
            )
        residual = None
        if residual_parts:
            residual = (
                residual_parts[0]
                if len(residual_parts) == 1
                else Logical("AND", residual_parts)
            )
        return left_keys, right_keys, residual

    def _build_tree(self, tree: PlannedJoinTree, scope, needed=None) -> Operator:
        if tree.kind == "rel":
            if needed is None:
                needed = {c.key for c in scope.columns}
            return tree.rel.build(needed, self.page_source)
        needed = set(needed or {c.key for c in scope.columns})
        if tree.equi:
            for e in tree.equi:
                needed.add(e.left_key)
                needed.add(e.right_key)
        if tree.condition is not None:
            needed |= tree.condition.references()
        left = self._build_tree(tree.left, scope, needed)
        right = self._build_tree(tree.right, scope, needed)
        if tree.kind == "cross":
            return NestedLoopJoinOp(left, right, None, join_type="cross")
        if tree.equi:
            return HashJoinOp(
                left,
                right,
                [e.left_key for e in tree.equi],
                [e.right_key for e in tree.equi],
                join_type=tree.kind,
                residual=tree.condition,
                pool=self.pool,
            )
        if tree.kind == "inner":
            return NestedLoopJoinOp(left, right, tree.condition, join_type="inner")
        if tree.kind == "left":
            return NestedLoopJoinOp(left, right, tree.condition, join_type="left")
        raise UnsupportedFeatureError(
            "%s join requires at least one equality condition" % tree.kind
        )

    # -- grouping -----------------------------------------------------------------------

    def _bind_group_by(self, select, bound_items, scope, binder) -> list[Expr] | None:
        if not select.group_by:
            return None
        exprs = []
        for g in select.group_by:
            if isinstance(g, ast.NumberLit):
                if not self.dialect.allows_group_by_ordinal:
                    raise DialectError("GROUP BY ordinal not allowed in this dialect")
                self._pin(g)
                index = ordinal_index(g, len(bound_items), "GROUP BY")
                exprs.append(bound_items[index][1])
                continue
            if isinstance(g, ast.Identifier) and len(g.parts) == 1:
                in_scope = scope.try_resolve(g.parts)
                if in_scope is None and self.dialect.allows_group_by_alias:
                    matches = [e for n, e in bound_items if n == g.parts[0].upper()]
                    if matches:
                        exprs.append(matches[0])
                        continue
                elif in_scope is None:
                    matches = [e for n, e in bound_items if n == g.parts[0].upper()]
                    if matches:
                        raise DialectError(
                            "GROUP BY output column name requires the Netezza dialect"
                        )
            exprs.append(binder.bind(g))
        return exprs

    def _apply_grouping(self, op, bound_items, group_exprs, binder, having_expr):
        keys = [("__KEY%d" % i, expr) for i, expr in enumerate(group_exprs)]
        group_op = GroupByOp(
            op, keys=keys, aggregates=binder.aggregates, pool=self.pool,
        )
        # Rewrite outputs/having: group-key subtrees -> key refs; aggregate
        # refs already point at their agg aliases.
        signatures = {
            _expr_signature(expr): ("__KEY%d" % i, expr.dtype)
            for i, expr in enumerate(group_exprs)
        }
        agg_aliases = {spec.alias for spec in binder.aggregates}
        new_items = []
        for name, expr in bound_items:
            new_items.append((name, _rewrite_groups(expr, signatures, agg_aliases)))
        if having_expr is not None:
            having_expr = _rewrite_groups(having_expr, signatures, agg_aliases)
        return group_op, new_items, having_expr

    # -- set operations ----------------------------------------------------------------

    def _plan_set_op(self, left: PlannedQuery, op: str, right_select, outer_scope) -> PlannedQuery:
        right = self._plan_body(right_select, outer_scope)
        if len(right.keys) != len(left.keys):
            raise SQLError("set operation column counts differ")
        # Both branches produce the common type of each column pair: the
        # right is renamed to the left's keys, and either side's column is
        # cast where its own type differs (DECIMAL scale, INT vs DOUBLE...).
        dtypes = [
            _common_type(l, r) for l, r in zip(left.dtypes, right.dtypes)
        ]
        left_op = left.op
        if left.dtypes != dtypes:
            left_op = _aligned(left, left.keys, dtypes)
        rename = _aligned(right, left.keys, dtypes)
        if op == "UNION ALL":
            combined = ChainOp([left_op, rename])
            return PlannedQuery(combined, left.names, left.keys, dtypes)
        if op == "UNION":
            combined = ChainOp([left_op, rename])
            return _distinct(PlannedQuery(combined, left.names, left.keys, dtypes))
        join_type = "semi" if op == "INTERSECT" else "anti"
        joined = HashJoinOp(
            left_op, rename, left.keys, left.keys, join_type=join_type,
            pool=self.pool, nulls_match=True,  # set operations compare like DISTINCT
        )
        return _distinct(PlannedQuery(joined, left.names, left.keys, dtypes))

    # -- ORDER BY / LIMIT ---------------------------------------------------------------

    def _apply_order_limit(self, planned: PlannedQuery, select: ast.Select, outer_scope) -> PlannedQuery:
        op = planned.op
        if select.order_by and not getattr(planned, "_ordered", False):
            # Set-operation results: ORDER BY may reference output columns.
            sort_keys = []
            scope = getattr(planned, "_scope", None)
            for item in select.order_by:
                expr = self._resolve_order_expr(item.expr, planned, scope)
                if expr is None:
                    raise UnsupportedFeatureError(
                        "ORDER BY over a set operation must use output columns or ordinals"
                    )
                sort_keys.append(SortKey(expr, item.ascending, item.nulls_first))
            op = SortOp(op, sort_keys)
        if select.limit_syntax == "limit" and not self.dialect.allows_limit:
            raise DialectError(
                "LIMIT/OFFSET requires the Netezza or PostgreSQL dialect"
            )
        limit = self._row_count(select.limit)
        offset = self._row_count(select.offset) or 0
        if select.limit is not None and limit is None:
            raise SQLError("LIMIT must be a constant")
        if limit is not None or offset:
            op = LimitOp(op, limit=limit, offset=offset)
        return PlannedQuery(op, planned.names, planned.keys, planned.dtypes)

    def _resolve_order_expr(self, expr, planned: PlannedQuery, scope) -> Expr | None:
        if isinstance(expr, ast.NumberLit):
            self._pin(expr)
            index = ordinal_index(expr, len(planned.keys), "ORDER BY")
            return ColumnRef(planned.keys[index], planned.dtypes[index])
        if isinstance(expr, ast.Identifier) and len(expr.parts) == 1:
            name = expr.parts[0].upper()
            for i, n in enumerate(planned.names):
                if n == name:
                    return ColumnRef(planned.keys[i], planned.dtypes[i])
        # Expression over output columns: rebind replacing output names.
        out_scope = Scope(
            [
                ScopeColumn(key, name, None, dtype)
                for name, key, dtype in zip(planned.names, planned.keys, planned.dtypes)
            ]
        )
        binder = self._make_binder(out_scope)
        try:
            return binder.bind(expr)
        except (BindError, UnsupportedFeatureError):
            return None

    # -- CONNECT BY -----------------------------------------------------------------------

    def _plan_connect_by(self, op: Operator, connect: ast.ConnectBy, binder) -> Operator:
        """Oracle CONNECT BY over *op*'s rows.

        Supports conditions that are conjunctions of equalities with exactly
        one PRIOR side, e.g. ``PRIOR empno = mgr``.
        """
        pairs = []  # (parent_expr, child_expr) bound over the base relation
        for conjunct in _conjuncts(connect.condition):
            if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
                raise UnsupportedFeatureError("CONNECT BY supports equality conditions only")
            left_prior = isinstance(conjunct.left, ast.Prior)
            right_prior = isinstance(conjunct.right, ast.Prior)
            if left_prior == right_prior:
                raise UnsupportedFeatureError("CONNECT BY needs exactly one PRIOR side")
            if left_prior:
                parent = binder.bind(conjunct.left.operand)
                child = binder.bind(conjunct.right)
            else:
                parent = binder.bind(conjunct.right.operand)
                child = binder.bind(conjunct.left)
            pairs.append((parent, child))
        start_with = None
        if connect.start_with is not None:
            start_with = binder.bind(connect.start_with)
        return ConnectByOp(op, pairs, start_with, connect.nocycle)

    def _rownum_limit(self, conjunct) -> int | None:
        """Recognise ROWNUM <= n / ROWNUM < n / ROWNUM = 1."""
        if not isinstance(conjunct, ast.BinaryOp):
            return None
        left_rownum = isinstance(conjunct.left, ast.Rownum)
        right_rownum = isinstance(conjunct.right, ast.Rownum)
        if not (left_rownum ^ right_rownum):
            return None
        other = conjunct.right if left_rownum else conjunct.left
        if not isinstance(other, ast.NumberLit):
            return None
        self._pin(other)
        n = int(float(other.text))
        op = conjunct.op
        if not left_rownum:
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if op == "<=":
            return max(n, 0)
        if op == "<":
            return max(n - 1, 0)
        if op == "=" and n == 1:
            return 1
        return None

    def _row_count(self, expr) -> int | None:
        """A LIMIT / OFFSET / FETCH FIRST count, read off the AST."""
        if expr is None:
            return None
        literal = expr.operand if isinstance(expr, ast.UnaryOp) else expr
        if isinstance(literal, ast.NumberLit):
            self._pin(literal)
        return _const_int(expr)


# --------------------------------------------------------------------------
# Module helpers
# --------------------------------------------------------------------------


def expand_stars(items, scope) -> list[ast.SelectItem]:
    """Select items with each ``*`` / ``t.*`` replaced by the columns it
    names in *scope*, each aliased by its own name."""
    out = []
    for item in items:
        if not isinstance(item.expr, ast.Star):
            out.append(item)
            continue
        for column in scope.columns_of(item.expr.qualifier):
            qualifier = [column.qualifier] if column.qualifier else []
            out.append(
                ast.SelectItem(ast.Identifier(qualifier + [column.name]), alias=column.name)
            )
    return out


def _vchar(n):
    from repro.types.datatypes import varchar_type

    return varchar_type(n)


def _unwrap(value):
    if isinstance(value, np.generic):
        return value.item()
    return value


def _conjuncts(expr) -> list:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _tree_rels(trees) -> list:
    out = []

    def walk(tree):
        if tree.kind == "rel":
            out.append(tree.rel)
        else:
            walk(tree.left)
            walk(tree.right)

    for tree in trees:
        walk(tree)
    return out


def _tree_columns(tree) -> list[ScopeColumn]:
    if tree.kind == "rel":
        return list(tree.rel.columns)
    return _tree_columns(tree.left) + _tree_columns(tree.right)


def _null_side_aliases(trees) -> set[str]:
    """Aliases on the null-producing side of an outer join (no pushdown)."""
    out: set[str] = set()

    def walk(tree):
        if tree.kind == "rel":
            return
        walk(tree.left)
        walk(tree.right)
        if tree.kind in ("left", "full"):
            out.update(tree.right.aliases())
        if tree.kind in ("right", "full"):
            out.update(tree.left.aliases())

    for tree in trees:
        walk(tree)
    return out


def _check_duplicate_aliases(columns: list[ScopeColumn]) -> None:
    """Two relations sharing an alias would produce colliding batch keys."""
    keys = [c.key for c in columns]
    if len(keys) != len(set(keys)):
        raise BindError("duplicate table alias in FROM clause")


def _key_alias(key: str) -> str:
    return key.split(".", 1)[0]


def _scope_dtype(scope: Scope, key: str) -> DataType:
    for c in scope.columns:
        if c.key == key:
            return c.dtype
    from repro.types.datatypes import DOUBLE

    return DOUBLE


def _as_equi_edge(bound: Expr, left_keys: set[str], right_keys: set[str]) -> JoinEdge | None:
    if (
        isinstance(bound, Compare)
        and bound.op == "="
        and isinstance(bound.left, ColumnRef)
        and isinstance(bound.right, ColumnRef)
    ):
        l, r = bound.left.name, bound.right.name
        if l in left_keys and r in right_keys:
            return JoinEdge(l, r)
        if r in left_keys and l in right_keys:
            return JoinEdge(r, l)
    return None


def _as_cross_equi_edge(bound: Expr, trees) -> JoinEdge | None:
    if (
        isinstance(bound, Compare)
        and bound.op == "="
        and isinstance(bound.left, ColumnRef)
        and isinstance(bound.right, ColumnRef)
    ):
        la = _key_alias(bound.left.name)
        ra = _key_alias(bound.right.name)
        if la != ra:
            return JoinEdge(bound.left.name, bound.right.name)
    return None


def _marked_alias(conjunct, scope) -> str | None:
    """Alias of the (+)-marked table in a WHERE conjunct, if any."""
    found: list[str] = []

    def walk(node):
        if isinstance(node, ast.OuterMarker):
            inner = node.operand
            if isinstance(inner, ast.Identifier):
                column = scope.try_resolve(inner.parts)
                if column is not None and column.qualifier:
                    found.append(column.qualifier)
            return
        for child in _ast_children(node):
            walk(child)

    walk(conjunct)
    return found[0] if found else None


def _strip_prior(node):
    if isinstance(node, ast.Prior):
        return _strip_prior(node.operand)
    if isinstance(node, ast.BinaryOp):
        return ast.BinaryOp(node.op, _strip_prior(node.left), _strip_prior(node.right))
    return node


def _strip_markers(node):
    if isinstance(node, ast.OuterMarker):
        return _strip_markers(node.operand)
    if isinstance(node, ast.BinaryOp):
        return ast.BinaryOp(node.op, _strip_markers(node.left), _strip_markers(node.right))
    return node


def _ast_children(node):
    if not hasattr(node, "__dataclass_fields__"):
        return
    for name in node.__dataclass_fields__:
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, ast.Node):
                            yield sub


def _ast_contains(node, node_type) -> bool:
    if isinstance(node, node_type):
        return True
    if isinstance(node, ast.Select):
        # Do not descend into subqueries for ROWNUM detection.
        children = (
            [i.expr for i in node.items]
            + ([node.where] if node.where else [])
            + list(node.group_by)
        )
        return any(_ast_contains(c, node_type) for c in children)
    return any(_ast_contains(c, node_type) for c in _ast_children(node))


def _simple_predicate(conjunct, scope, binder, dialect):
    """Recognise pushdown-able conjuncts, returning (column, SimplePredicate)."""
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in ("=", "<>", "<", "<=", ">", ">="):
        column, const, op = None, None, conjunct.op
        if isinstance(conjunct.left, ast.Identifier):
            column = scope.try_resolve(conjunct.left.parts)
            const = conjunct.right
        elif isinstance(conjunct.right, ast.Identifier):
            column = scope.try_resolve(conjunct.right.parts)
            const = conjunct.left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if column is None or isinstance(const, (ast.Identifier, ast.Rownum)):
            return None
        literal = _bind_constant(const, binder, column.dtype)
        if literal is None:
            return None
        return column, SimplePredicate(column.name, op, literal)
    if isinstance(conjunct, ast.BetweenExpr) and not conjunct.negated:
        if not isinstance(conjunct.operand, ast.Identifier):
            return None
        column = scope.try_resolve(conjunct.operand.parts)
        if column is None:
            return None
        lo = _bind_constant(conjunct.low, binder, column.dtype)
        hi = _bind_constant(conjunct.high, binder, column.dtype)
        if lo is None or hi is None:
            return None
        return column, SimplePredicate(column.name, "BETWEEN", (lo, hi))
    if isinstance(conjunct, ast.InExpr) and conjunct.items is not None and not conjunct.negated:
        if not isinstance(conjunct.operand, ast.Identifier):
            return None
        column = scope.try_resolve(conjunct.operand.parts)
        if column is None:
            return None
        values = []
        for item in conjunct.items:
            value = _bind_constant(item, binder, column.dtype)
            if value is None:
                return None
            values.append(value)
        return column, SimplePredicate(column.name, "IN", values)
    if isinstance(conjunct, ast.IsNullExpr) and isinstance(conjunct.operand, ast.Identifier):
        column = scope.try_resolve(conjunct.operand.parts)
        if column is None:
            return None
        op = "IS NOT NULL" if conjunct.negated else "IS NULL"
        return column, SimplePredicate(column.name, op)
    return None


def _bind_constant(node, binder, target_dtype):
    """Bind a constant AST node and convert to the column's physical domain."""
    try:
        bound = binder.bind(node)
    except (BindError, UnsupportedFeatureError, TypeCheckError):
        return None
    literal = _as_literal(bound)
    if literal is None:
        return None
    try:
        if isinstance(literal, SlotLiteral):
            return literal.pushed(target_dtype)
        if literal.value is None:
            return None
        return _physical_for(literal, target_dtype)
    except (TypeError, ValueError, ArithmeticError):
        # An inconvertible pushdown constant just means "no zone-map
        # pruning for this predicate"; anything else should propagate.
        return None


def ordinal_index(literal: ast.NumberLit, n_items: int, clause: str) -> int:
    """The 0-based select item a ``GROUP BY`` / ``ORDER BY`` position names;
    a position that is not an integer literal, or names no item, is the same
    :class:`BindError`."""
    if not literal.text.isdigit():
        raise BindError("%s position %s is not an integer" % (clause, literal.text))
    index = int(literal.text) - 1
    if not 0 <= index < n_items:
        raise BindError("%s position %s out of range" % (clause, literal.text))
    return index


def _default_name(expr, index: int) -> str:
    if isinstance(expr, ast.Identifier):
        return expr.parts[-1]
    if isinstance(expr, ast.FunctionCall):
        return expr.name
    if isinstance(expr, ast.Rownum):
        return "ROWNUM"
    if isinstance(expr, ast.LevelRef):
        return "LEVEL"
    return "%d" % (index + 1)


def _expr_signature(expr: Expr):
    """Structural signature for expression equality (ignores callables)."""
    if isinstance(expr, ColumnRef):
        return ("col", expr.name)
    if isinstance(expr, Literal):
        return ("lit", expr.value, str(expr.dtype))
    if isinstance(expr, Compare):
        return ("cmp", expr.op, _expr_signature(expr.left), _expr_signature(expr.right))
    if isinstance(expr, Logical):
        return ("logic", expr.op, tuple(_expr_signature(o) for o in expr.operands))
    if isinstance(expr, Not):
        return ("not", _expr_signature(expr.child))
    if isinstance(expr, Cast):
        return ("cast", str(expr.dtype), expr.scale_shift, _expr_signature(expr.child))
    if isinstance(expr, FuncCall):
        return ("fn", expr.name, tuple(_expr_signature(a) for a in expr.args))
    if isinstance(expr, IsNull):
        return ("isnull", expr.negated, _expr_signature(expr.child))
    if isinstance(expr, InList):
        return ("in", expr.negated, tuple(expr.values), _expr_signature(expr.child))
    if isinstance(expr, Between):
        return (
            "between",
            expr.negated,
            _expr_signature(expr.child),
            _expr_signature(expr.low),
            _expr_signature(expr.high),
        )
    if isinstance(expr, CaseExpr):
        return (
            "case",
            tuple((_expr_signature(c), _expr_signature(r)) for c, r in expr.whens),
            _expr_signature(expr.default) if expr.default else None,
        )
    if hasattr(expr, "op") and hasattr(expr, "left") and hasattr(expr, "right"):
        return (
            "arith",
            expr.op,
            _expr_signature(expr.left),
            _expr_signature(expr.right),
        )
    return ("opaque", id(expr))


def _rewrite_groups(expr: Expr, signatures: dict, agg_aliases: set[str]) -> Expr:
    if isinstance(expr, ColumnRef) and expr.name in agg_aliases:
        return expr
    signature = _expr_signature(expr)
    if signature in signatures:
        key, dtype = signatures[signature]
        return ColumnRef(key, expr.dtype)
    if isinstance(expr, ColumnRef):
        raise BindError(
            "column %s must appear in the GROUP BY clause" % expr.name
        )
    # Recurse into children.
    import copy

    clone = copy.copy(expr)
    for attr in ("left", "right", "child", "low", "high"):
        if hasattr(clone, attr):
            child = getattr(clone, attr)
            if isinstance(child, Expr):
                setattr(clone, attr, _rewrite_groups(child, signatures, agg_aliases))
    if hasattr(clone, "operands"):
        clone.operands = [
            _rewrite_groups(o, signatures, agg_aliases) for o in clone.operands
        ]
    if hasattr(clone, "args"):
        clone.args = [_rewrite_groups(a, signatures, agg_aliases) for a in clone.args]
    if hasattr(clone, "whens"):
        clone.whens = [
            (
                _rewrite_groups(c, signatures, agg_aliases),
                _rewrite_groups(r, signatures, agg_aliases),
            )
            for c, r in clone.whens
        ]
        if clone.default is not None:
            clone.default = _rewrite_groups(clone.default, signatures, agg_aliases)
    return clone


def _distinct(planned: PlannedQuery) -> PlannedQuery:
    keys = [
        (key, ColumnRef(key, dtype))
        for key, dtype in zip(planned.keys, planned.dtypes)
    ]
    op = GroupByOp(planned.op, keys=keys, aggregates=[])
    return PlannedQuery(op, planned.names, planned.keys, planned.dtypes)


def _aligned(planned: PlannedQuery, keys, dtypes) -> ProjectOp:
    """``planned``'s columns renamed to ``keys``, each cast to its entry of
    ``dtypes`` when its own type differs (set-operation branches)."""
    outputs = []
    for key, own_key, own, target in zip(keys, planned.keys, planned.dtypes, dtypes):
        expr: Expr = ColumnRef(own_key, own)
        if own != target:
            shift = 0  # DECIMAL -> DECIMAL rescales the physical integers
            if own.kind is TypeKind.DECIMAL and target.kind is TypeKind.DECIMAL:
                shift = target.scale - own.scale
            expr = Cast(expr, target, scale_shift=shift)
        outputs.append((key, expr))
    return ProjectOp(planned.op, outputs)


def _common_type(left: DataType, right: DataType) -> DataType:
    from repro.types.datatypes import promote

    if left == right:
        return left
    try:
        return promote(left, right)
    except TypeError:
        return left


def _const_int(expr) -> int | None:
    if expr is None:
        return None
    if isinstance(expr, ast.NumberLit):
        return int(float(expr.text))
    if isinstance(expr, ast.UnaryOp) and expr.op == "-" and isinstance(expr.operand, ast.NumberLit):
        return -int(float(expr.operand.text))
    return None
