"""Abstract syntax tree for the SQL dialects dashDB Local supports.

Nodes are plain dataclasses; the binder/planner interpret them under the
active dialect.  Dialect-specific constructs (ROWNUM, CONNECT BY, (+) outer
joins, ``::`` casts, LIMIT/OFFSET, VALUES, NEXT VALUE FOR, ...) all have
first-class representations here — which dialect may *use* them is enforced
later.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Node:
    pass


class ExprNode(Node):
    pass


@dataclass
class Identifier(ExprNode):
    """Possibly-qualified name: column, alias.column, schema.table.column."""

    parts: list[str]

    @property
    def name(self) -> str:
        return self.parts[-1]

    @property
    def qualifier(self) -> str | None:
        return self.parts[-2] if len(self.parts) > 1 else None


@dataclass
class Star(ExprNode):
    """``*`` or ``alias.*`` in a select list."""

    qualifier: str | None = None


def _slot():
    """Where a literal sits in its statement: the index of its NUMBER/STRING
    token (None for a literal no token spelled).  Statements that share a
    template have their literals at the same indexes, which is how a cached
    plan finds this statement's value for a literal it bound late.  Not
    part of a node's identity or printed form."""
    return field(default=None, repr=False, compare=False)


@dataclass
class NumberLit(ExprNode):
    text: str
    slot: int | None = _slot()


@dataclass
class StringLit(ExprNode):
    value: str
    slot: int | None = _slot()


@dataclass
class TypedLit(ExprNode):
    """DATE '...', TIME '...', TIMESTAMP '...'."""

    type_name: str
    value: str
    slot: int | None = _slot()


@dataclass
class NullLit(ExprNode):
    pass


@dataclass
class BoolLit(ExprNode):
    value: bool


@dataclass
class BinaryOp(ExprNode):
    op: str  # + - * / % || = <> < <= > >= AND OR
    left: ExprNode
    right: ExprNode


@dataclass
class UnaryOp(ExprNode):
    op: str  # - + NOT
    operand: ExprNode


@dataclass
class FunctionCall(ExprNode):
    name: str
    args: list[ExprNode]
    distinct: bool = False
    star: bool = False  # COUNT(*)


@dataclass
class CastExpr(ExprNode):
    """CAST(x AS type) and the PostgreSQL/Netezza ``x::type`` form."""

    operand: ExprNode
    type_name: str
    length: int = 0
    precision: int = 0
    scale: int = 0


@dataclass
class CaseWhen(ExprNode):
    """Searched or simple CASE (simple keeps ``operand`` non-None)."""

    operand: ExprNode | None
    whens: list[tuple[ExprNode, ExprNode]]
    default: ExprNode | None


@dataclass
class InExpr(ExprNode):
    operand: ExprNode
    items: list[ExprNode] | None = None
    subquery: "Select | None" = None
    negated: bool = False


@dataclass
class BetweenExpr(ExprNode):
    operand: ExprNode
    low: ExprNode
    high: ExprNode
    negated: bool = False


@dataclass
class LikeExpr(ExprNode):
    operand: ExprNode
    pattern: ExprNode
    negated: bool = False
    escape: ExprNode | None = None


@dataclass
class IsNullExpr(ExprNode):
    operand: ExprNode
    negated: bool = False


@dataclass
class IsBoolExpr(ExprNode):
    """IS TRUE / IS FALSE (and Netezza ISTRUE/ISFALSE postfix forms)."""

    operand: ExprNode
    value: bool
    negated: bool = False


@dataclass
class ExistsExpr(ExprNode):
    subquery: "Select"
    negated: bool = False


@dataclass
class ScalarSubquery(ExprNode):
    subquery: "Select"


@dataclass
class SequenceRef(ExprNode):
    """seq.NEXTVAL / seq.CURRVAL (Oracle) or NEXT|PREVIOUS VALUE FOR seq."""

    sequence: str
    op: str  # "NEXTVAL" | "CURRVAL"


@dataclass
class Rownum(ExprNode):
    """Oracle ROWNUM pseudo-column."""


@dataclass
class Prior(ExprNode):
    """PRIOR <expr> inside CONNECT BY."""

    operand: ExprNode


@dataclass
class LevelRef(ExprNode):
    """Oracle LEVEL pseudo-column inside hierarchical queries."""


@dataclass
class OuterMarker(ExprNode):
    """Oracle ``(+)`` outer-join marker attached to a column reference."""

    operand: ExprNode


# --------------------------------------------------------------------------
# FROM items and SELECT
# --------------------------------------------------------------------------


@dataclass
class TableRef(Node):
    parts: list[str]  # [table] or [schema, table]
    alias: str | None = None

    @property
    def name(self) -> str:
        return self.parts[-1]

    @property
    def schema(self) -> str | None:
        return self.parts[-2] if len(self.parts) > 1 else None


@dataclass
class SubqueryRef(Node):
    select: "Select"
    alias: str
    column_aliases: list[str] | None = None


@dataclass
class Join(Node):
    kind: str  # inner/left/right/full/cross
    left: Node
    right: Node
    condition: ExprNode | None = None
    using: list[str] | None = None


@dataclass
class OrderItem(Node):
    expr: ExprNode
    ascending: bool = True
    nulls_first: bool | None = None


@dataclass
class SelectItem(Node):
    expr: ExprNode
    alias: str | None = None


@dataclass
class ConnectBy(Node):
    """Oracle hierarchical query clause."""

    start_with: ExprNode | None
    condition: ExprNode
    nocycle: bool = False


@dataclass
class Select(Node):
    items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_items: list[Node] = field(default_factory=list)  # TableRef/SubqueryRef/Join
    where: ExprNode | None = None
    group_by: list[ExprNode] = field(default_factory=list)
    having: ExprNode | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: ExprNode | None = None
    limit_syntax: str | None = None  # "limit" (Netezza/PG) or "fetch" (DB2/ANSI)
    offset: ExprNode | None = None
    connect_by: ConnectBy | None = None
    ctes: list[tuple[str, "Select", list[str] | None]] = field(default_factory=list)
    set_op: str | None = None  # UNION / UNION ALL / INTERSECT / EXCEPT
    set_right: "Select | None" = None


# --------------------------------------------------------------------------
# Other statements
# --------------------------------------------------------------------------


@dataclass
class ColumnDef(Node):
    name: str
    type_name: str
    length: int = 0
    precision: int = 0
    scale: int = 0
    not_null: bool = False
    unique: bool = False
    primary_key: bool = False
    default: ExprNode | None = None


@dataclass
class CreateTable(Node):
    name: TableRef
    columns: list[ColumnDef]
    temporary: bool = False
    global_temporary: bool = False
    as_select: Select | None = None
    distribute_on: list[str] | None = None  # hash-distribution key columns
    replicated: bool = False  # DISTRIBUTE BY REPLICATION


@dataclass
class DropTable(Node):
    name: TableRef
    if_exists: bool = False


@dataclass
class TruncateTable(Node):
    name: TableRef


@dataclass
class CreateView(Node):
    name: TableRef
    select_text: str  # original text, recompiled under the stored dialect
    column_names: list[str] | None = None
    or_replace: bool = False


@dataclass
class DropView(Node):
    name: TableRef


@dataclass
class CreateSequence(Node):
    name: str
    start: int = 1
    increment: int = 1
    minvalue: int | None = None
    maxvalue: int | None = None
    cycle: bool = False


@dataclass
class DropSequence(Node):
    name: str


@dataclass
class CreateAlias(Node):
    name: TableRef
    target: TableRef


@dataclass
class Insert(Node):
    table: TableRef
    columns: list[str] | None = None
    rows: list[list[ExprNode]] | None = None
    select: Select | None = None


@dataclass
class Update(Node):
    table: TableRef
    assignments: list[tuple[str, ExprNode]] = field(default_factory=list)
    where: ExprNode | None = None


@dataclass
class Delete(Node):
    table: TableRef
    where: ExprNode | None = None


@dataclass
class ValuesStatement(Node):
    """DB2 top-level VALUES clause: VALUES (1,2), (3,4) or VALUES expr."""

    rows: list[list[ExprNode]]


@dataclass
class ExplainStatement(Node):
    """EXPLAIN [PLAN FOR] / EXPLAIN ANALYZE <statement>.

    ``analyze`` executes the statement and annotates the plan with actual
    per-operator row counts and timings.
    """

    statement: Node
    analyze: bool = False
    #: The explained statement's own text, so EXPLAIN can ask the plan
    #: cache exactly what executing that text would ask.
    text: str | None = field(default=None, repr=False, compare=False)


@dataclass
class SetStatement(Node):
    """SET <variable> = <value> (session dialect etc.)."""

    name: str
    value: str


@dataclass
class CallStatement(Node):
    """CALL procedure(args) — used for Spark submission stored procedures."""

    name: str
    args: list[ExprNode]


@dataclass
class AnonymousBlock(Node):
    """Oracle anonymous PL/SQL block: BEGIN ... END (statement list)."""

    statements: list[Node]
