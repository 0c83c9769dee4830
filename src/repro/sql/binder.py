"""Name resolution and expression binding.

Turns parsed AST expressions into typed engine expressions
(:mod:`repro.engine.expression`), resolving identifiers against a
:class:`Scope`, applying dialect gates and semantics (Oracle division,
empty-string-is-NULL, ``::`` casts, ROWNUM, sequences), and collecting
aggregate calls for the planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from repro.engine.aggregate import AggregateSpec
from repro.engine.expression import (
    Between,
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
    make_arith,
)
from repro.errors import (
    BindError,
    ConversionError,
    DialectError,
    SQLError,
    TypeCheckError,
    UnsupportedFeatureError,
)
from repro.sql import ast
from repro.sql.dialects import Dialect, resolve_type
from repro.sql.functions import BuildContext
from repro.sql.lexer import NUMBER
from repro.storage.column import to_physical_scalar
from repro.types.datatypes import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    DataType,
    INTEGER,
    TIME,
    TIMESTAMP,
    TypeKind,
    decimal_type,
    promote,
    varchar_type,
)
from repro.types.values import parse_date, parse_time, parse_timestamp


@dataclass
class ScopeColumn:
    """One visible column: its batch key, display name, and type."""

    key: str  # unique key inside batches, e.g. "T1.AMOUNT"
    name: str  # bare column name, e.g. "AMOUNT"
    qualifier: str | None  # table alias, e.g. "T1"
    dtype: DataType


class Scope:
    """Visible columns of the current query block, plus an optional parent
    (for correlated subqueries)."""

    def __init__(self, columns: list[ScopeColumn], parent: "Scope | None" = None):
        self.columns = columns
        self.parent = parent

    def resolve(self, parts: list[str]) -> ScopeColumn:
        name = parts[-1].upper()
        qualifier = parts[-2].upper() if len(parts) > 1 else None
        matches = [
            c
            for c in self.columns
            if c.name == name and (qualifier is None or c.qualifier == qualifier)
        ]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise BindError("ambiguous column reference %s" % ".".join(parts))
        if self.parent is not None:
            return self.parent.resolve(parts)
        raise BindError("column %s not found" % ".".join(parts))

    def try_resolve(self, parts: list[str]) -> ScopeColumn | None:
        try:
            return self.resolve(parts)
        except BindError:
            return None

    def columns_of(self, qualifier: str | None) -> list[ScopeColumn]:
        if qualifier is None:
            return list(self.columns)
        out = [c for c in self.columns if c.qualifier == qualifier.upper()]
        if not out:
            raise BindError("unknown table alias %s" % qualifier)
        return out


def _number_literal(text: str) -> Literal:
    if "e" in text.lower():
        return Literal(float(text), DOUBLE)
    if "." in text:
        dec = Decimal(text)
        scale = -dec.as_tuple().exponent
        precision = max(len(dec.as_tuple().digits), scale + 1)
        dtype = decimal_type(min(precision, 31), min(scale, 31))
        return Literal(int(dec.scaleb(dtype.scale)), dtype)
    value = int(text)
    if -(2**31) <= value < 2**31:
        return Literal(value, INTEGER)
    return Literal(value, BIGINT)


def _bound_number(text: str) -> Literal:
    """:func:`_number_literal` for a literal being bound: a value beyond the
    int64 its type is stored in raises the ConversionError (22018) that
    INSERT raises for it, not an ``OverflowError`` out of ``Literal.eval``."""
    literal = _number_literal(text)
    if not literal.dtype.is_approximate and not -(2**63) <= literal.value < 2**63:
        raise ConversionError("value %s out of range for %s" % (text, literal.dtype))
    return literal


def _number_value(text: str):
    return _bound_number(text).value


def literal_signature(token) -> object:
    """What of a NUMBER/STRING token's spelling decides the *type* the
    binder gives it: the inferred numeric type, or a string's length.  Two
    statements of one template whose literals agree on this plan alike,
    unless planning looks at a value (see :class:`LiteralSlots`)."""
    if token.kind == NUMBER:
        return _number_literal(token.value).dtype
    return len(token.value)


# -- literals a cached plan binds late -----------------------------------------


class LiteralSlots:
    """One planning run's record of the statement's literal tokens.

    The binder turns a literal that a token spelled into a
    :class:`SlotLiteral`.  Whatever planning then *reads* of its value —
    constant folding, a LIKE pattern, an IN list's conversion, a GROUP BY
    signature, ``FETCH FIRST n`` — pins the slot: the plan is only the plan
    of statements that spell the same value there.  A slot that was bound
    but never read is **late**: the plan is the same for every value of
    that type, and each execution supplies its own.  Slots the binder never
    saw (a CAST's length, a literal inside a clause planned from the AST)
    are pinned by default.
    """

    def __init__(self):
        self._bound: set[int] = set()
        self._read: set[int] = set()
        #: Set by :meth:`seal`: the slots executions bind late.
        self.late: frozenset[int] | None = None

    def literal(self, slot: int | None, literal: Literal, convert) -> Literal:
        """*literal* as the binder should hand it out: slot-tracked when a
        token spelled it (NULL never is: nothing to bind late)."""
        if slot is None or literal.value is None:
            return literal
        self._bound.add(slot)
        return SlotLiteral(self, slot, literal.value, literal.dtype, convert)

    def pin(self, slot: int | None) -> None:
        """Planning looked at this slot's value."""
        if slot is None:
            return
        if self.late is None:
            self._read.add(slot)
        elif slot in self.late:
            raise SQLError(
                "late-bound literal %d read outside its execution" % slot,
                sqlstate="58004",
            )

    def seal(self) -> frozenset[int]:
        """Planning is over: fix which slots are late."""
        self.late = frozenset(self._bound - self._read)
        return self.late


class SlotLiteral(Literal):
    """A literal of the statement being planned, known by its token slot.

    Reading ``value`` while planning pins the slot; once the plan is sealed
    a late slot has no value of its own — :meth:`bound` makes the constant
    of one execution from that statement's token."""

    def __init__(self, slots: LiteralSlots, slot: int, value, dtype, convert):
        self._slots = slots
        self.slot = slot
        self._value = value
        self.dtype = dtype
        self.convert = convert  # token spelling -> physical value

    @property
    def value(self):
        self._slots.pin(self.slot)
        return self._value

    @property
    def late(self) -> bool:
        return self.slot in self._slots.late

    def bound(self, tokens) -> Literal:
        return Literal(self.convert(tokens[self.slot].value), self.dtype)

    def pushed(self, target: DataType) -> "LateConstant":
        """This literal as a scan-predicate constant of *target*'s domain,
        converted per execution the way :func:`_physical_for` converts it
        now.  When the planned value does not convert, that decides the
        plan: the slot is pinned and the failure raised as for any literal."""
        try:
            _physical_for(Literal(self._value, self.dtype), target)
        except (TypeError, ValueError, ArithmeticError):
            self._slots.pin(self.slot)
            raise
        return LateConstant(self, target)


@dataclass(frozen=True)
class LateConstant:
    """A pushed-down constant whose value arrives with each execution."""

    literal: SlotLiteral
    target: DataType

    def bound(self, tokens):
        """The execution's value in the column's domain; raises (ValueError
        and friends) when this value, unlike the planned one, is not exact
        there — the plan does not fit the statement."""
        return _physical_for(self.literal.bound(tokens), self.target)


class ExpressionBinder:
    """Binds AST expressions within one query block."""

    def __init__(
        self,
        scope: Scope,
        dialect: Dialect,
        database=None,
        allow_aggregates: bool = False,
        slots: LiteralSlots | None = None,
    ):
        self.scope = scope
        self.dialect = dialect
        self.database = database
        self.allow_aggregates = allow_aggregates
        #: When planning for the plan cache: the statement's literal slots.
        self.slots = slots
        #: aggregates discovered while binding (alias -> AggregateSpec)
        self.aggregates: list[AggregateSpec] = []
        self._agg_counter = 0
        #: set by the planner when ROWNUM is available as a hidden column
        self.rownum_key: str | None = None
        self.level_key: str | None = None
        #: callback for subquery planning, set by the planner
        self.subquery_planner = None

    # -- entry point ---------------------------------------------------------

    def bind(self, node: ast.ExprNode) -> Expr:
        method = getattr(self, "_bind_%s" % type(node).__name__.lower(), None)
        if method is None:
            raise UnsupportedFeatureError(
                "unsupported expression %s" % type(node).__name__
            )
        return method(node)

    # -- literals -------------------------------------------------------------

    def _literal(self, node, literal: Literal, convert) -> Expr:
        if self.slots is None:
            return literal
        return self.slots.literal(node.slot, literal, convert)

    def _bind_numberlit(self, node: ast.NumberLit) -> Expr:
        return self._literal(node, _bound_number(node.text), _number_value)

    def _bind_stringlit(self, node: ast.StringLit) -> Expr:
        value = node.value
        if self.dialect.empty_string_is_null and value == "":
            return Literal(None, varchar_type())
        return self._literal(node, Literal(value, varchar_type(len(value))), str)

    def _bind_typedlit(self, node: ast.TypedLit) -> Expr:
        dtype, convert = _TYPED_LITERALS.get(
            node.type_name, (TIMESTAMP, _timestamp_value)
        )
        return self._literal(node, Literal(convert(node.value), dtype), convert)

    def _bind_nulllit(self, node: ast.NullLit) -> Expr:
        from repro.types.datatypes import NULLTYPE

        return Literal(None, NULLTYPE)

    def _bind_boollit(self, node: ast.BoolLit) -> Expr:
        return Literal(1 if node.value else 0, BOOLEAN)

    # -- identifiers -----------------------------------------------------------

    def _bind_identifier(self, node: ast.Identifier) -> Expr:
        column = self.scope.try_resolve(node.parts)
        if column is not None:
            return ColumnRef(column.key, column.dtype)
        # Unresolved single identifier might be a niladic function (SYSDATE,
        # CURRENT_DATE) in dialects that allow parentheses-free calls.
        if len(node.parts) == 1:
            builder = self.dialect.lookup_function(node.parts[0])
            if builder is not None and node.parts[0].upper() in (
                "SYSDATE", "CURRENT_DATE", "CURRENT_TIMESTAMP", "TODAY", "NOW",
            ):
                return builder([], BuildContext(self.dialect, self.database))
        raise BindError("column %s not found" % ".".join(node.parts))

    def _bind_rownum(self, node: ast.Rownum) -> Expr:
        if not self.dialect.allows_rownum:
            raise DialectError("ROWNUM requires the Oracle dialect")
        if self.rownum_key is None:
            raise UnsupportedFeatureError(
                "ROWNUM is only supported in WHERE (ROWNUM <= n) and the select list"
            )
        return ColumnRef(self.rownum_key, BIGINT)

    def _bind_levelref(self, node: ast.LevelRef) -> Expr:
        if self.level_key is None:
            raise UnsupportedFeatureError("LEVEL is only valid with CONNECT BY")
        return ColumnRef(self.level_key, INTEGER)

    def _bind_sequenceref(self, node: ast.SequenceRef) -> Expr:
        if self.database is None:
            raise BindError("sequences are not available in this context")
        sequence = self.database.catalog.get_sequence(node.sequence)
        if node.op == "NEXTVAL":
            scalar_fn = lambda values: sequence.nextval()
        else:
            scalar_fn = lambda values: sequence.currval()
        return FuncCall(node.op, [], scalar_fn=scalar_fn, dtype=BIGINT)

    # -- operators -------------------------------------------------------------

    def _bind_binaryop(self, node: ast.BinaryOp) -> Expr:
        if node.op in ("AND", "OR"):
            return Logical(node.op, [self.bind(node.left), self.bind(node.right)])
        left = self.bind(node.left)
        right = self.bind(node.right)
        if node.op in ("=", "<>", "<", "<=", ">", ">="):
            left, right = self._align_comparison(left, right)
            return Compare(node.op, left, right)
        if node.op == "/" and not self.dialect.integer_division_exact:
            # Oracle: integer / integer produces a non-integral NUMBER.
            if left.dtype.is_integer and right.dtype.is_integer:
                left = Cast(left, DOUBLE)
                right = Cast(right, DOUBLE)
        if node.op != "||":  # concatenation keeps strings as strings
            left, right = self._coerce_arith_strings(left, right)
        return make_arith(node.op, left, right)

    def _coerce_arith_strings(self, left: Expr, right: Expr):
        """'5' + 1 works in most dialects: cast string operands for math."""
        if left.dtype.is_string and right.dtype.is_numeric:
            left = Cast(left, DOUBLE)
        elif right.dtype.is_string and left.dtype.is_numeric:
            right = Cast(right, DOUBLE)
        return left, right

    def _align_comparison(self, left: Expr, right: Expr):
        lt, rt = left.dtype, right.dtype
        if lt.kind is TypeKind.NULL or rt.kind is TypeKind.NULL:
            return left, right
        if lt.is_string and not rt.is_string:
            return Cast(left, rt), right
        if rt.is_string and not lt.is_string:
            return left, Cast(right, lt)
        if lt.kind is TypeKind.DECIMAL and rt.kind is TypeKind.DECIMAL and lt.scale != rt.scale:
            target = max(lt.scale, rt.scale)
            if lt.scale < target:
                left = Cast(left, decimal_type(31, target), scale_shift=target - lt.scale)
            if rt.scale < target:
                right = Cast(right, decimal_type(31, target), scale_shift=target - rt.scale)
            return left, right
        if lt.kind is TypeKind.DECIMAL and rt.is_integer:
            return left, Cast(right, decimal_type(31, lt.scale))
        if rt.kind is TypeKind.DECIMAL and lt.is_integer:
            return Cast(left, decimal_type(31, rt.scale)), right
        # Decimal vs approximate: descale the decimal side to a true value.
        if lt.kind is TypeKind.DECIMAL and rt.is_approximate:
            return Cast(left, DOUBLE), right
        if rt.kind is TypeKind.DECIMAL and lt.is_approximate:
            return left, Cast(right, DOUBLE)
        return left, right

    def _bind_unaryop(self, node: ast.UnaryOp) -> Expr:
        if node.op == "NOT":
            return Not(self.bind(node.operand))
        operand = self.bind(node.operand)
        if node.op == "-":
            zero = Literal(0, operand.dtype if operand.dtype.is_numeric else INTEGER)
            return make_arith("-", zero, operand)
        return operand

    # -- predicates ---------------------------------------------------------------

    def _bind_isnullexpr(self, node: ast.IsNullExpr) -> Expr:
        return IsNull(self.bind(node.operand), negated=node.negated)

    def _bind_isboolexpr(self, node: ast.IsBoolExpr) -> Expr:
        operand = self.bind(node.operand)
        if node.value:
            truth = CaseExpr(
                whens=[(operand, Literal(1, BOOLEAN))],
                default=Literal(0, BOOLEAN),
                dtype=BOOLEAN,
            )
        else:
            known = IsNull(operand, negated=True)
            is_false = Logical("AND", [known, Not(operand)])
            truth = CaseExpr(
                whens=[(is_false, Literal(1, BOOLEAN))],
                default=Literal(0, BOOLEAN),
                dtype=BOOLEAN,
            )
        if node.negated:
            return Not(truth)
        return truth

    def _bind_betweenexpr(self, node: ast.BetweenExpr) -> Expr:
        operand = self.bind(node.operand)
        low = self.bind(node.low)
        high = self.bind(node.high)
        operand_l, low = self._align_comparison(operand, low)
        operand_h, high = self._align_comparison(operand, high)
        if operand_l.dtype == operand_h.dtype:
            return Between(operand_l, low, high, negated=node.negated)
        # Bounds of different types (0.5 AND 1.5e0, 0.5 AND 0.999) align
        # the operand two ways: each bound compares in its own domain.
        both = Logical(
            "AND", [Compare(">=", operand_l, low), Compare("<=", operand_h, high)]
        )
        return Not(both) if node.negated else both

    def _bind_likeexpr(self, node: ast.LikeExpr) -> Expr:
        operand = self.bind(node.operand)
        pattern = self.bind(node.pattern)
        if not isinstance(pattern, Literal) or pattern.value is None:
            raise UnsupportedFeatureError("LIKE requires a constant pattern")
        escape = None
        if node.escape is not None:
            escape_expr = self.bind(node.escape)
            if not isinstance(escape_expr, Literal):
                raise UnsupportedFeatureError("ESCAPE requires a constant")
            escape = str(escape_expr.value)
        return Like(operand, str(pattern.value), negated=node.negated, escape=escape)

    def _bind_inexpr(self, node: ast.InExpr) -> Expr:
        operand = self.bind(node.operand)
        if node.subquery is not None:
            if self.subquery_planner is None:
                raise UnsupportedFeatureError("IN (subquery) not available here")
            values = self.subquery_planner.scalar_column(node.subquery, self.scope)
            return InList(operand, values, negated=node.negated)
        items = [self.bind(item) for item in node.items]
        values = _exact_constants(items, operand.dtype)
        if values is not None:
            return InList(operand, values, negated=node.negated)
        # A member that is not a constant of the operand's own domain:
        # compare each in the promoted type instead.
        comparisons = [
            Compare("=", *self._align_comparison(operand, i)) for i in items
        ]
        chain = Logical("OR", comparisons) if len(comparisons) > 1 else comparisons[0]
        return Not(chain) if node.negated else chain

    def _bind_casewhen(self, node: ast.CaseWhen) -> Expr:
        whens = []
        if node.operand is not None:
            operand = self.bind(node.operand)
            for condition, result in node.whens:
                bound_cond = Compare(
                    "=", *self._align_comparison(operand, self.bind(condition))
                )
                whens.append((bound_cond, self.bind(result)))
        else:
            whens = [(self.bind(c), self.bind(r)) for c, r in node.whens]
        default = self.bind(node.default) if node.default is not None else None
        dtype = whens[0][1].dtype
        for _, result in whens[1:]:
            dtype = promote(dtype, result.dtype)
        if default is not None:
            dtype = promote(dtype, default.dtype)
        aligned = [
            (c, Cast(r, dtype) if r.dtype != dtype else r) for c, r in whens
        ]
        if default is not None and default.dtype != dtype:
            default = Cast(default, dtype)
        return CaseExpr(whens=aligned, default=default, dtype=dtype)

    def _bind_castexpr(self, node: ast.CastExpr) -> Expr:
        operand = self.bind(node.operand)
        target = resolve_type(node.type_name, node.length, node.precision, node.scale)
        return Cast(operand, target)

    # -- functions / aggregates ------------------------------------------------------

    def _bind_functioncall(self, node: ast.FunctionCall) -> Expr:
        name = node.name.upper()
        engine_agg = self.dialect.resolve_aggregate(name)
        if engine_agg is not None:
            if self.allow_aggregates or node.star:
                return self._bind_aggregate(node, engine_agg)
            raise TypeCheckError(
                "aggregate %s is not allowed in this clause" % name
            )
        builder = self.dialect.lookup_function(name)
        if builder is None:
            # Tolerate the paper's own misspellings of the Oracle aggregates.
            typo_map = {"PRECENTILE_DISC": "PERCENTILE_DISC", "PRECENTILE_CONT": "PERCENTILE_CONT"}
            if name in typo_map:
                node = ast.FunctionCall(typo_map[name], node.args, node.distinct, node.star)
                return self._bind_functioncall(node)
            raise BindError("unknown function %s in dialect %s" % (name, self.dialect.name))
        args = [self.bind(a) for a in node.args]
        return builder(args, BuildContext(self.dialect, self.database))

    def _bind_aggregate(self, node: ast.FunctionCall, engine_func: str) -> Expr:
        if not self.allow_aggregates:
            raise TypeCheckError(
                "aggregate %s not allowed in this clause" % node.name
            )
        self._agg_counter += 1
        alias = "__AGG%d" % self._agg_counter
        param = None
        if engine_func in ("PERCENTILE_CONT", "PERCENTILE_DISC", "CUME_DIST"):
            if len(node.args) != 2:
                raise TypeCheckError(
                    "%s expects a constant plus WITHIN GROUP (ORDER BY expr)"
                    % node.name
                )
            fraction = self.bind(node.args[0])
            literal = _as_literal(fraction)
            if literal is None:
                raise TypeCheckError("%s fraction must be constant" % node.name)
            param = float(_physical_for(literal, DOUBLE))
            args = [self.bind(node.args[1])]
        elif node.star:
            args = []
        else:
            args = [self.bind(a) for a in node.args]
        spec = AggregateSpec(
            func=engine_func,
            args=args,
            alias=alias,
            distinct=node.distinct,
            param=param,
        )
        self.aggregates.append(spec)
        return ColumnRef(alias, spec.output_type())

    # -- subqueries -------------------------------------------------------------------

    def _bind_scalarsubquery(self, node: ast.ScalarSubquery) -> Expr:
        if self.subquery_planner is None:
            raise UnsupportedFeatureError("scalar subquery not available here")
        return self.subquery_planner.scalar_value(node.subquery, self.scope)

    def _bind_existsexpr(self, node: ast.ExistsExpr) -> Expr:
        if self.subquery_planner is None:
            raise UnsupportedFeatureError("EXISTS not available here")
        exists = self.subquery_planner.exists(node.subquery, self.scope)
        value = Literal(1 if exists else 0, BOOLEAN)
        return Not(value) if node.negated else value

    def _bind_outermarker(self, node: ast.OuterMarker) -> Expr:
        raise UnsupportedFeatureError(
            "(+) may only appear in simple WHERE equality conditions"
        )

    def _bind_prior(self, node: ast.Prior) -> Expr:
        raise UnsupportedFeatureError("PRIOR may only appear in CONNECT BY")

    def _bind_star(self, node: ast.Star) -> Expr:
        raise BindError("* is only valid in the select list")


def _date_value(text: str):
    return to_physical_scalar(parse_date(text), DATE)


def _time_value(text: str):
    return to_physical_scalar(parse_time(text), TIME)


def _timestamp_value(text: str):
    return to_physical_scalar(parse_timestamp(text), TIMESTAMP)


_TYPED_LITERALS = {"DATE": (DATE, _date_value), "TIME": (TIME, _time_value)}


def _as_literal(expr: Expr) -> Literal | None:
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Cast) and isinstance(expr.child, Literal):
        lit = expr.child
        # Evaluate the cast eagerly for constant folding.
        value = expr.eval_row({})
        return Literal(value, expr.dtype)
    return None


def _exact_constants(items: list[Expr], target: DataType) -> list | None:
    """The items as physical constants of *target*'s domain, or None when
    one is not constant or not exactly a value of that domain."""
    values = []
    for item in items:
        literal = _as_literal(item)
        if literal is None:
            return None
        try:
            values.append(_physical_for(literal, target))
        except ValueError:
            return None
    return values


def _physical_for(literal: Literal, target: DataType):
    """The literal's value in the target column's physical domain, exactly.

    Raises :class:`ValueError` when the domain cannot hold the value
    (``1.5`` against an INTEGER column, ``1.005`` against DECIMAL(7,2)):
    any rounding here would change what a comparison with the column
    means, so the caller must compare in the promoted type instead.
    """
    if literal.value is None:
        return None
    source = literal.dtype
    if source == target:
        return literal.value
    if target.is_integer or target.kind is TypeKind.DECIMAL:
        # Integer codes: the value times 10**scale has to be whole.
        if source.is_integer:
            return literal.value * (10 ** target.scale)
        if source.kind is TypeKind.DECIMAL or source.is_approximate:
            exact = Fraction(literal.value) * 10 ** target.scale / 10 ** source.scale
            if exact.denominator != 1:
                raise ValueError(
                    "%r is not a value of %s" % (literal.value, target)
                )
            return exact.numerator
    if source.kind is TypeKind.DECIMAL and target.is_approximate:
        return literal.value / (10 ** source.scale)
    if source.is_integer and target.is_approximate:
        return float(literal.value)
    if target.is_string and not source.is_string:
        # ``char_col = 1`` compares in the number's domain (the column is
        # cast, row by row): a number is no constant of a string domain.
        raise ValueError("%r is not a value of %s" % (literal.value, target))
    if source.is_string and not target.is_string:
        from repro.types.values import cast_value

        boundary = cast_value(literal.value, target)
        return to_physical_scalar(boundary, target)
    return literal.value
