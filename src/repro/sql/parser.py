"""Recursive-descent SQL parser covering the dialect surface of the paper.

The parser is deliberately permissive: it accepts the union of the Oracle,
Netezza/PostgreSQL, DB2, and ANSI constructs (II.C.1); the *binder* rejects
constructs not available in the active session dialect.
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.lexer import EOF, IDENT, NUMBER, QIDENT, STRING, Token, tokenize

_RESERVED_STOPPERS = {
    "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "FETCH",
    "UNION", "INTERSECT", "EXCEPT", "MINUS", "ON", "USING", "JOIN", "INNER",
    "LEFT", "RIGHT", "FULL", "CROSS", "AND", "OR", "NOT", "AS", "CONNECT",
    "START", "WHEN", "THEN", "ELSE", "END", "SET", "VALUES", "INTO", "BY",
    "ASC", "DESC", "NULLS", "WITH", "FOR", "SELECT", "INSERT", "UPDATE",
    "DELETE", "NATURAL", "CASE", "BETWEEN", "IN", "LIKE", "IS", "ONLY",
}

#: What can continue a predicate after its left operand; any other token
#: ends it without walking the keyword ladder.
_COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_PREDICATE_STARTS = _COMPARISONS | {
    "NOT", "IS", "ISNULL", "NOTNULL", "ISTRUE", "ISFALSE", "BETWEEN", "IN", "LIKE",
}

#: What ends an expression that is a single literal.
_LITERAL_ENDS = frozenset({",", ")"})

#: Keywords that, before a STRING, spell a typed literal.
_TYPED_LITERALS = frozenset({"DATE", "TIME", "TIMESTAMP"})

_TYPE_NAMES = {
    "INT", "INTEGER", "BIGINT", "SMALLINT", "INT2", "INT4", "INT8",
    "FLOAT", "FLOAT4", "FLOAT8", "REAL", "DOUBLE", "DECIMAL", "NUMERIC",
    "DEC", "NUMBER", "VARCHAR", "VARCHAR2", "CHAR", "CHARACTER", "BPCHAR",
    "GRAPHIC", "VARGRAPHIC", "BOOLEAN", "BOOL", "DATE", "TIME", "TIMESTAMP",
    "DECFLOAT", "TEXT", "CLOB",
}


def parse_statement(text: str, tokens: tuple[Token, ...] | None = None) -> ast.Node:
    """Parse exactly one statement; *tokens* is ``tokenize(text)`` when the
    caller already has it (the serving caches lex for their key first)."""
    statements = Parser(text, tokens).parse_script()
    if len(statements) != 1:
        raise SQLSyntaxError("expected exactly one statement, got %d" % len(statements))
    return statements[0]


def parse_statements(text: str) -> list[ast.Node]:
    """Parse a script of ';'-separated statements."""
    return Parser(text).parse_script()


class Parser:
    def __init__(self, text: str, tokens: tuple[Token, ...] | None = None):
        self.text = text
        self.tokens = tokenize(text) if tokens is None else tokens
        self.pos = 0

    # -- token plumbing ---------------------------------------------------------
    #
    # Keyword and operator tests compare ``Token.key`` (see the lexer): a
    # word can only equal an IDENT's key, an operator only an OP's.

    def _peek(self, offset: int = 0) -> Token:
        """The token *offset* ahead; look past the current token only when
        it is known not to be EOF (EOF is last)."""
        return self.tokens[self.pos + offset]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != EOF:
            self.pos += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        token = self._peek()
        return SQLSyntaxError(
            "%s (near %r)" % (message, token.value or "<end>"),
            line=token.line,
            column=token.column,
        )

    def _at_keyword(self, *words: str) -> bool:
        pos = self.pos
        for word in words:
            if self.tokens[pos].key != word:
                return False
            pos += 1
        return True

    def _accept_keyword(self, *words: str) -> bool:
        if self._at_keyword(*words):
            self.pos += len(words)
            return True
        return False

    def _expect_keyword(self, *words: str) -> None:
        if not self._accept_keyword(*words):
            raise self._error("expected %s" % " ".join(words))

    def _at_op(self, op: str) -> bool:
        return self.tokens[self.pos].key == op

    def _accept_op(self, op: str) -> bool:
        if self.tokens[self.pos].key == op:
            self.pos += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            raise self._error("expected %r" % op)

    def _identifier(self) -> str:
        token = self._peek()
        if token.kind == IDENT:
            self.pos += 1
            return token.key
        if token.kind == QIDENT:
            self.pos += 1
            return token.value
        raise self._error("expected an identifier")

    def _optional_alias(self) -> str | None:
        """``[AS] alias``: a bare alias is any identifier that is not a
        reserved stopper (quoted ones are compared folded, too)."""
        if self._accept_keyword("AS") or self._at_bare_alias():
            return self._identifier()
        return None

    def _at_bare_alias(self) -> bool:
        token = self.tokens[self.pos]
        return token.kind in (IDENT, QIDENT) and token.value.upper() not in _RESERVED_STOPPERS

    def _qualified_name(self) -> list[str]:
        parts = [self._identifier()]
        while self._at_op("."):
            self._advance()
            parts.append(self._identifier())
        return parts

    def _integer(self) -> int:
        token = self._peek()
        if token.kind != NUMBER:
            raise self._error("expected an integer")
        self._advance()
        return int(token.value)

    # -- script / statement dispatch ------------------------------------------------

    def parse_script(self) -> list[ast.Node]:
        statements = []
        while True:
            while self._accept_op(";"):
                pass
            if self._peek().kind == EOF:
                return statements
            statements.append(self.parse_one())

    def parse_one(self) -> ast.Node:
        token = self._peek()
        if token.kind != IDENT:
            raise self._error("expected a statement")
        keyword = token.key
        if keyword in ("SELECT", "WITH"):
            return self.parse_select()
        if keyword == "INSERT":
            return self.parse_insert()
        if keyword == "UPDATE":
            return self.parse_update()
        if keyword == "DELETE":
            return self.parse_delete()
        if keyword == "CREATE":
            return self.parse_create()
        if keyword == "DECLARE":
            return self.parse_declare_gtt()
        if keyword == "DROP":
            return self.parse_drop()
        if keyword == "TRUNCATE":
            return self.parse_truncate()
        if keyword == "EXPLAIN":
            self._advance()
            analyze = self._accept_keyword("ANALYZE")
            self._accept_keyword("PLAN")
            self._accept_keyword("FOR")
            start_offset = self._peek().offset
            statement = self.parse_one()
            text = self.text[start_offset : self._peek().offset]
            return ast.ExplainStatement(statement, analyze, text)
        if keyword == "SET":
            return self.parse_set()
        if keyword == "CALL":
            return self.parse_call()
        if keyword == "VALUES":
            return self.parse_values_statement()
        if keyword == "BEGIN":
            return self.parse_anonymous_block()
        raise self._error("unsupported statement %s" % keyword)

    # -- SELECT ---------------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        ctes = []
        if self._accept_keyword("WITH"):
            while True:
                name = self._identifier()
                columns = None
                if self._accept_op("("):
                    columns = [self._identifier()]
                    while self._accept_op(","):
                        columns.append(self._identifier())
                    self._expect_op(")")
                self._expect_keyword("AS")
                self._expect_op("(")
                cte_select = self.parse_select()
                self._expect_op(")")
                ctes.append((name, cte_select, columns))
                if not self._accept_op(","):
                    break
        select = self._parse_select_body()
        select.ctes = ctes
        return select

    def _parse_select_body(self) -> ast.Select:
        # Set-operation chaining happens inside _parse_select_core (the chain
        # hangs off the left select's set_op/set_right fields).
        select = self._parse_select_core()
        return self._parse_select_trailers(select)

    def _parse_select_trailers(self, select: ast.Select) -> ast.Select:
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            select.order_by = [self._parse_order_item()]
            while self._accept_op(","):
                select.order_by.append(self._parse_order_item())
        # LIMIT / OFFSET (Netezza & PostgreSQL)
        if self._accept_keyword("LIMIT"):
            select.limit = self.parse_expr()
            select.limit_syntax = "limit"
            if self._accept_keyword("OFFSET"):
                select.offset = self.parse_expr()
                self._accept_keyword("ROWS") or self._accept_keyword("ROW")
        elif self._accept_keyword("OFFSET"):
            select.offset = self.parse_expr()
            self._accept_keyword("ROWS") or self._accept_keyword("ROW")
            if self._accept_keyword("LIMIT"):
                select.limit = self.parse_expr()
                select.limit_syntax = "limit"
        # FETCH FIRST n ROWS ONLY (DB2 / ANSI)
        if self._accept_keyword("FETCH"):
            if not (self._accept_keyword("FIRST") or self._accept_keyword("NEXT")):
                raise self._error("expected FIRST or NEXT after FETCH")
            if self._peek().kind == NUMBER:
                select.limit = ast.NumberLit(self._peek().value, self.pos)
                self.pos += 1
            else:
                select.limit = ast.NumberLit("1")
            select.limit_syntax = "fetch"
            self._accept_keyword("ROWS") or self._accept_keyword("ROW")
            self._expect_keyword("ONLY")
        return select

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self._accept_keyword("ASC"):
            ascending = True
        elif self._accept_keyword("DESC"):
            ascending = False
        nulls_first = None
        if self._accept_keyword("NULLS"):
            if self._accept_keyword("FIRST"):
                nulls_first = True
            elif self._accept_keyword("LAST"):
                nulls_first = False
            else:
                raise self._error("expected FIRST or LAST after NULLS")
        return ast.OrderItem(expr, ascending, nulls_first)

    def _parse_select_core(self) -> ast.Select:
        if self._accept_op("("):
            inner = self._parse_select_body()
            self._expect_op(")")
            return inner
        self._expect_keyword("SELECT")
        select = ast.Select()
        if self._accept_keyword("DISTINCT"):
            select.distinct = True
        else:
            self._accept_keyword("ALL")
        select.items = [self._parse_select_item()]
        while self._accept_op(","):
            select.items.append(self._parse_select_item())
        if self._accept_keyword("FROM"):
            select.from_items = [self._parse_from_item()]
            while self._accept_op(","):
                select.from_items.append(self._parse_from_item())
        if self._accept_keyword("WHERE"):
            select.where = self.parse_expr()
        select.connect_by = self._parse_connect_by()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            select.group_by = [self.parse_expr()]
            while self._accept_op(","):
                select.group_by.append(self.parse_expr())
        if self._accept_keyword("HAVING"):
            select.having = self.parse_expr()
        if select.connect_by is None:
            select.connect_by = self._parse_connect_by()
        # Set operations bind tighter than ORDER BY.
        if self._at_keyword("UNION") or self._at_keyword("INTERSECT") or self._at_keyword("EXCEPT") or self._at_keyword("MINUS"):
            if self._accept_keyword("UNION"):
                op = "UNION ALL" if self._accept_keyword("ALL") else "UNION"
            elif self._accept_keyword("INTERSECT"):
                op = "INTERSECT"
            else:
                self._advance()
                op = "EXCEPT"
            right = self._parse_select_core()
            select.set_op = op
            select.set_right = right
        return select

    def _parse_connect_by(self) -> ast.ConnectBy | None:
        start_with = None
        if self._at_keyword("START", "WITH"):
            self._advance()
            self._advance()
            start_with = self.parse_expr()
            self._expect_keyword("CONNECT")
            self._expect_keyword("BY")
            nocycle = self._accept_keyword("NOCYCLE")
            condition = self.parse_expr()
            return ast.ConnectBy(start_with, condition, nocycle)
        if self._at_keyword("CONNECT", "BY"):
            self._advance()
            self._advance()
            nocycle = self._accept_keyword("NOCYCLE")
            condition = self.parse_expr()
            if self._accept_keyword("START"):
                self._expect_keyword("WITH")
                start_with = self.parse_expr()
            return ast.ConnectBy(start_with, condition, nocycle)
        return None

    def _parse_select_item(self) -> ast.SelectItem:
        if self._at_op("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # alias.* form
        if (
            self._peek().kind in (IDENT, QIDENT)
            and self._peek(1).key == "."
            and self._peek(2).key == "*"
        ):
            qualifier = self._identifier()
            self._advance()  # .
            self._advance()  # *
            return ast.SelectItem(ast.Star(qualifier=qualifier))
        expr = self.parse_expr()
        return ast.SelectItem(expr, self._optional_alias())

    # -- FROM ---------------------------------------------------------------------

    def _parse_from_item(self) -> ast.Node:
        left = self._parse_from_primary()
        while True:
            natural = self._accept_keyword("NATURAL")
            if self._accept_keyword("CROSS"):
                self._expect_keyword("JOIN")
                right = self._parse_from_primary()
                left = ast.Join("cross", left, right)
                continue
            kind = None
            if self._accept_keyword("INNER"):
                kind = "inner"
            elif self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                kind = "left"
            elif self._accept_keyword("RIGHT"):
                self._accept_keyword("OUTER")
                kind = "right"
            elif self._accept_keyword("FULL"):
                self._accept_keyword("OUTER")
                kind = "full"
            elif self._at_keyword("JOIN"):
                kind = "inner"
            if kind is None:
                if natural:
                    raise self._error("NATURAL must be followed by a join")
                return left
            self._expect_keyword("JOIN")
            right = self._parse_from_primary()
            condition = None
            using = None
            if natural:
                using = []  # resolved by the binder from common columns
            elif self._accept_keyword("ON"):
                condition = self.parse_expr()
            elif self._accept_keyword("USING"):
                self._expect_op("(")
                using = [self._identifier()]
                while self._accept_op(","):
                    using.append(self._identifier())
                self._expect_op(")")
            elif kind != "cross":
                raise self._error("join requires ON or USING")
            left = ast.Join(kind, left, right, condition, using)

    def _parse_from_primary(self) -> ast.Node:
        if self._accept_op("("):
            if self._at_keyword("SELECT") or self._at_keyword("WITH"):
                select = self.parse_select()
                self._expect_op(")")
                alias = None
                column_aliases = None
                self._accept_keyword("AS")
                if self._at_bare_alias():
                    alias = self._identifier()
                    if self._accept_op("("):
                        column_aliases = [self._identifier()]
                        while self._accept_op(","):
                            column_aliases.append(self._identifier())
                        self._expect_op(")")
                if alias is None:
                    alias = "_SUBQ%d" % self.pos
                return ast.SubqueryRef(select, alias, column_aliases)
            inner = self._parse_from_item()
            self._expect_op(")")
            return inner
        parts = self._qualified_name()
        return ast.TableRef(parts, self._optional_alias())

    # -- expressions ------------------------------------------------------------------

    def parse_expr(self) -> ast.ExprNode:
        # A literal that a ',' or ')' ends (a VALUES row, an IN list, a
        # call's arguments) is built as the node the descent below builds
        # for it, without the descent: those two tokens end every level.
        tokens, pos = self.tokens, self.pos
        token = tokens[pos]
        kind, key = token.kind, token.key
        if kind == NUMBER or kind == STRING:
            if tokens[pos + 1].key in _LITERAL_ENDS:
                self.pos = pos + 1
                if kind == NUMBER:
                    return ast.NumberLit(token.value, pos)
                return ast.StringLit(token.value, pos)
        elif key == "NULL":
            if tokens[pos + 1].key in _LITERAL_ENDS:
                self.pos = pos + 1
                return ast.NullLit()
        elif key == "-":
            operand = tokens[pos + 1]
            if operand.kind == NUMBER and tokens[pos + 2].key in _LITERAL_ENDS:
                self.pos = pos + 2
                return ast.UnaryOp("-", ast.NumberLit(operand.value, pos + 1))
        elif key in _TYPED_LITERALS:
            operand = tokens[pos + 1]
            if operand.kind == STRING and tokens[pos + 2].key in _LITERAL_ENDS:
                self.pos = pos + 2
                return ast.TypedLit(key, operand.value, pos + 1)
        return self._parse_or()

    def _parse_or(self) -> ast.ExprNode:
        left = self._parse_and()
        while self.tokens[self.pos].key == "OR":
            self.pos += 1
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.ExprNode:
        left = self._parse_not()
        while self.tokens[self.pos].key == "AND":
            self.pos += 1
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.ExprNode:
        if self.tokens[self.pos].key == "NOT":
            self.pos += 1
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.ExprNode:
        left = self._parse_additive()
        while self.tokens[self.pos].key in _PREDICATE_STARTS:
            negated = False
            if self._at_keyword("NOT") and self._peek(1).key in ("IN", "BETWEEN", "LIKE"):
                self._advance()
                negated = True
            if self._accept_keyword("IS"):
                is_negated = self._accept_keyword("NOT")
                if self._accept_keyword("NULL"):
                    left = ast.IsNullExpr(left, negated=is_negated)
                elif self._accept_keyword("TRUE"):
                    left = ast.IsBoolExpr(left, True, negated=is_negated)
                elif self._accept_keyword("FALSE"):
                    left = ast.IsBoolExpr(left, False, negated=is_negated)
                else:
                    raise self._error("expected NULL, TRUE, or FALSE after IS")
                continue
            if self._accept_keyword("ISNULL"):
                left = ast.IsNullExpr(left)
                continue
            if self._accept_keyword("NOTNULL"):
                left = ast.IsNullExpr(left, negated=True)
                continue
            if self._accept_keyword("ISTRUE"):
                left = ast.IsBoolExpr(left, True)
                continue
            if self._accept_keyword("ISFALSE"):
                left = ast.IsBoolExpr(left, False)
                continue
            if self._accept_keyword("BETWEEN"):
                low = self._parse_additive()
                self._expect_keyword("AND")
                high = self._parse_additive()
                left = ast.BetweenExpr(left, low, high, negated)
                continue
            if self._accept_keyword("IN"):
                left = self._parse_in_tail(left, negated)
                continue
            if self._accept_keyword("LIKE"):
                pattern = self._parse_additive()
                escape = None
                if self._accept_keyword("ESCAPE"):
                    escape = self._parse_additive()
                left = ast.LikeExpr(left, pattern, negated, escape)
                continue
            # SQL's infix (s1,e1) OVERLAPS (s2,e2) is exposed through the
            # 4-argument OVERLAPS(...) function form (see functions_netezza).
            op = self.tokens[self.pos].key
            if op in _COMPARISONS:
                self._advance()
                right = self._parse_additive()
                left = ast.BinaryOp("<>" if op == "!=" else op, left, right)
                continue
            break  # a NOT that negates none of IN / BETWEEN / LIKE
        return left

    def _parse_in_tail(self, left: ast.ExprNode, negated: bool) -> ast.ExprNode:
        self._expect_op("(")
        if self._at_keyword("SELECT") or self._at_keyword("WITH"):
            subquery = self.parse_select()
            self._expect_op(")")
            return ast.InExpr(left, subquery=subquery, negated=negated)
        items = [self.parse_expr()]
        while self._accept_op(","):
            items.append(self.parse_expr())
        self._expect_op(")")
        return ast.InExpr(left, items=items, negated=negated)

    def _parse_additive(self) -> ast.ExprNode:
        left = self._parse_multiplicative()
        while True:
            op = self.tokens[self.pos].key
            if op not in ("+", "-", "||"):
                return left
            self.pos += 1
            left = ast.BinaryOp(op, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.ExprNode:
        left = self._parse_unary()
        while True:
            op = self.tokens[self.pos].key
            if op not in ("*", "/", "%"):
                return left
            self.pos += 1
            left = ast.BinaryOp(op, left, self._parse_unary())

    def _parse_unary(self) -> ast.ExprNode:
        key = self.tokens[self.pos].key
        if key not in ("-", "+", "PRIOR"):
            return self._parse_postfix()
        self.pos += 1
        operand = self._parse_unary()
        if key == "-":
            return ast.UnaryOp("-", operand)
        return ast.Prior(operand) if key == "PRIOR" else operand

    def _parse_postfix(self) -> ast.ExprNode:
        expr = self._parse_primary()
        while True:
            key = self.tokens[self.pos].key
            if key == "::":
                self.pos += 1
                type_name, length, precision, scale = self._parse_type()
                expr = ast.CastExpr(expr, type_name, length, precision, scale)
            elif key == "(+)":
                self.pos += 1
                expr = ast.OuterMarker(expr)
            else:
                return expr

    def _parse_type(self):
        name = self._identifier().upper()
        if name == "DOUBLE" and self._accept_keyword("PRECISION"):
            name = "DOUBLE"
        if name == "CHARACTER" and self._accept_keyword("VARYING"):
            name = "VARCHAR"
        length = precision = scale = 0
        if self._accept_op("("):
            first = self._integer()
            if self._accept_op(","):
                precision, scale = first, self._integer()
            elif name in ("DECIMAL", "NUMERIC", "DEC", "NUMBER", "DECFLOAT"):
                precision = first
            else:
                length = first
            self._expect_op(")")
        return name, length, precision, scale

    def _parse_primary(self) -> ast.ExprNode:
        token = self._peek()
        if token.kind == NUMBER:
            self.pos += 1
            return ast.NumberLit(token.value, self.pos - 1)
        if token.kind == STRING:
            self.pos += 1
            return ast.StringLit(token.value, self.pos - 1)
        if self._accept_op("("):
            if self._at_keyword("SELECT") or self._at_keyword("WITH"):
                subquery = self.parse_select()
                self._expect_op(")")
                return ast.ScalarSubquery(subquery)
            expr = self.parse_expr()
            self._expect_op(")")
            return expr
        if token.kind not in (IDENT, QIDENT):
            raise self._error("expected an expression")
        keyword = token.key  # None for a quoted identifier
        if keyword in _RESERVED_STOPPERS and keyword not in (
            "CASE", "VALUES", "NOT", "BETWEEN", "IN", "LIKE", "IS",
        ):
            raise self._error("unexpected keyword %s in expression" % keyword)
        if keyword == "NULL":
            self._advance()
            return ast.NullLit()
        if keyword == "TRUE":
            self._advance()
            return ast.BoolLit(True)
        if keyword == "FALSE":
            self._advance()
            return ast.BoolLit(False)
        if keyword == "ROWNUM":
            self._advance()
            return ast.Rownum()
        if keyword == "LEVEL":
            self._advance()
            return ast.LevelRef()
        if keyword == "CASE":
            return self._parse_case()
        if keyword == "CAST":
            self._advance()
            self._expect_op("(")
            operand = self.parse_expr()
            self._expect_keyword("AS")
            type_name, length, precision, scale = self._parse_type()
            self._expect_op(")")
            return ast.CastExpr(operand, type_name, length, precision, scale)
        if keyword in ("NEXT", "PREVIOUS") and self._peek(1).key == "VALUE":
            self._advance()
            self._advance()
            self._expect_keyword("FOR")
            sequence = ".".join(self._qualified_name())
            op = "NEXTVAL" if keyword == "NEXT" else "CURRVAL"
            return ast.SequenceRef(sequence, op)
        if keyword == "EXISTS" and self._peek(1).key == "(":
            self._advance()
            self._expect_op("(")
            subquery = self.parse_select()
            self._expect_op(")")
            return ast.ExistsExpr(subquery)
        if keyword == "CURRENT" and self._peek(1).key in ("DATE", "TIME", "TIMESTAMP"):
            # DB2's two-word special registers: CURRENT DATE is CURRENT_DATE
            self.pos += 2
            return ast.Identifier(["CURRENT_" + self._peek(-1).key])
        if keyword in _TYPED_LITERALS and self._peek(1).kind == STRING:
            self.pos += 2
            return ast.TypedLit(keyword, self._peek(-1).value, self.pos - 1)
        # Function call?
        if self._peek(1).key == "(" and (
            token.kind == QIDENT or keyword not in _RESERVED_STOPPERS
        ):
            name = self._identifier()
            return self._parse_function_call(name)
        # Identifier (possibly qualified); trailing NEXTVAL/CURRVAL becomes a
        # sequence reference.
        parts = self._qualified_name()
        if len(parts) >= 2 and parts[-1] in ("NEXTVAL", "CURRVAL"):
            return ast.SequenceRef(".".join(parts[:-1]), parts[-1])
        return ast.Identifier(parts)

    def _parse_function_call(self, name: str) -> ast.ExprNode:
        self._expect_op("(")
        if self._accept_op(")"):
            return self._maybe_within_group(ast.FunctionCall(name, []))
        if self._at_op("*"):
            self._advance()
            self._expect_op(")")
            return ast.FunctionCall(name, [], star=True)
        distinct = False
        if self._accept_keyword("DISTINCT"):
            distinct = True
        else:
            self._accept_keyword("ALL")
        args = [self.parse_expr()]
        while self._accept_op(","):
            args.append(self.parse_expr())
        self._expect_op(")")
        return self._maybe_within_group(ast.FunctionCall(name, args, distinct=distinct))

    def _maybe_within_group(self, call: ast.FunctionCall) -> ast.FunctionCall:
        """Hypothetical-set / ordered-set aggregates:
        ``fn(args) WITHIN GROUP (ORDER BY expr)`` — the ORDER BY expression
        is appended to the argument list (PERCENTILE_CONT, CUME_DIST)."""
        if not self._at_keyword("WITHIN", "GROUP"):
            return call
        self._advance()
        self._advance()
        self._expect_op("(")
        self._expect_keyword("ORDER")
        self._expect_keyword("BY")
        order_expr = self.parse_expr()
        self._accept_keyword("ASC") or self._accept_keyword("DESC")
        self._expect_op(")")
        call.args.append(order_expr)
        return call

    def _parse_case(self) -> ast.ExprNode:
        self._expect_keyword("CASE")
        operand = None
        if not self._at_keyword("WHEN"):
            operand = self.parse_expr()
        whens = []
        while self._accept_keyword("WHEN"):
            condition = self.parse_expr()
            self._expect_keyword("THEN")
            result = self.parse_expr()
            whens.append((condition, result))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        default = None
        if self._accept_keyword("ELSE"):
            default = self.parse_expr()
        self._expect_keyword("END")
        return ast.CaseWhen(operand, whens, default)

    # -- DML ---------------------------------------------------------------------------

    def parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = ast.TableRef(self._qualified_name())
        columns = None
        if self._at_op("(") and not self._at_keyword("SELECT"):
            # Could be a column list or "(SELECT" — look ahead.
            save = self.pos
            self._advance()
            if self._at_keyword("SELECT") or self._at_keyword("WITH"):
                self.pos = save
            else:
                columns = [self._identifier()]
                while self._accept_op(","):
                    columns.append(self._identifier())
                self._expect_op(")")
        if self._accept_keyword("VALUES"):
            rows = [self._parse_value_row()]
            while self._accept_op(","):
                rows.append(self._parse_value_row())
            return ast.Insert(table, columns, rows=rows)
        select = self.parse_select()
        return ast.Insert(table, columns, select=select)

    def _parse_value_row(self) -> list[ast.ExprNode]:
        self._expect_op("(")
        row = [self.parse_expr()]
        while self._accept_op(","):
            row.append(self.parse_expr())
        self._expect_op(")")
        return row

    def parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = ast.TableRef(self._qualified_name())
        if self._peek().kind in (IDENT, QIDENT) and not self._at_keyword("SET"):
            table.alias = self._identifier()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_op(","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Update(table, assignments, where)

    def _parse_assignment(self) -> tuple[str, ast.ExprNode]:
        column = self._identifier()
        self._expect_op("=")
        return column, self.parse_expr()

    def parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._accept_keyword("FROM")
        table = ast.TableRef(self._qualified_name())
        if self._peek().kind in (IDENT, QIDENT) and not self._at_keyword("WHERE"):
            table.alias = self._identifier()
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Delete(table, where)

    # -- DDL ---------------------------------------------------------------------------

    def parse_create(self) -> ast.Node:
        self._expect_keyword("CREATE")
        or_replace = self._accept_keyword("OR", "REPLACE")
        if self._accept_keyword("GLOBAL"):
            self._expect_keyword("TEMPORARY")
            self._expect_keyword("TABLE")
            return self._parse_create_table(temporary=True, global_temporary=True)
        if self._accept_keyword("TEMPORARY") or self._accept_keyword("TEMP"):
            self._expect_keyword("TABLE")
            return self._parse_create_table(temporary=True)
        if self._accept_keyword("TABLE"):
            return self._parse_create_table()
        if self._accept_keyword("VIEW"):
            return self._parse_create_view(or_replace)
        if self._accept_keyword("SEQUENCE"):
            return self._parse_create_sequence()
        if self._accept_keyword("ALIAS"):
            name = ast.TableRef(self._qualified_name())
            self._expect_keyword("FOR")
            target = ast.TableRef(self._qualified_name())
            return ast.CreateAlias(name, target)
        raise self._error("unsupported CREATE statement")

    def _parse_create_table(self, temporary=False, global_temporary=False) -> ast.CreateTable:
        name = ast.TableRef(self._qualified_name())
        if self._accept_keyword("AS"):
            self._expect_op("(")
            select = self.parse_select()
            self._expect_op(")")
            self._accept_keyword("WITH", "DATA") or self._accept_keyword("WITH", "NO", "DATA")
            return ast.CreateTable(name, [], temporary, global_temporary, as_select=select)
        self._expect_op("(")
        columns = [self._parse_column_def()]
        while self._accept_op(","):
            if self._at_keyword("PRIMARY") or self._at_keyword("UNIQUE") or self._at_keyword("CONSTRAINT"):
                self._parse_table_constraint(columns)
            else:
                columns.append(self._parse_column_def())
        self._expect_op(")")
        create = ast.CreateTable(name, columns, temporary, global_temporary)
        # Physical clauses: DISTRIBUTE is captured (the MPP layer needs it);
        # ORGANIZE BY / ON COMMIT / partitioning clauses are ignored.
        while self._peek().key in (
            "ORGANIZE", "DISTRIBUTE", "ON", "NOT", "IN", "PARTITION", "WITH",
        ):
            if self._at_keyword("DISTRIBUTE"):
                self._advance()
                self._parse_distribute_clause(create)
            else:
                self._skip_physical_clause()
        return create

    def _parse_distribute_clause(self, create: ast.CreateTable) -> None:
        """DB2: DISTRIBUTE BY HASH (cols) | BY REPLICATION;
        Netezza: DISTRIBUTE ON (cols) | ON RANDOM."""
        if self._accept_keyword("BY"):
            if self._accept_keyword("REPLICATION"):
                create.replicated = True
                return
            self._expect_keyword("HASH")
        else:
            self._expect_keyword("ON")
            if self._accept_keyword("RANDOM"):
                create.distribute_on = []
                return
        self._expect_op("(")
        columns = [self._identifier()]
        while self._accept_op(","):
            columns.append(self._identifier())
        self._expect_op(")")
        create.distribute_on = columns

    def _skip_physical_clause(self) -> None:
        depth = 0
        while self._peek().kind != EOF:
            if self._at_op("("):
                depth += 1
            elif self._at_op(")"):
                if depth == 0:
                    return
                depth -= 1
            elif self._at_op(";") and depth == 0:
                return
            self._advance()

    def _parse_table_constraint(self, columns: list[ast.ColumnDef]) -> None:
        if self._accept_keyword("CONSTRAINT"):
            self._identifier()
        if self._accept_keyword("PRIMARY"):
            self._expect_keyword("KEY")
            self._expect_op("(")
            names = [self._identifier()]
            while self._accept_op(","):
                names.append(self._identifier())
            self._expect_op(")")
            for column in columns:
                if column.name in names:
                    column.primary_key = True
                    column.not_null = True
        elif self._accept_keyword("UNIQUE"):
            self._expect_op("(")
            names = [self._identifier()]
            while self._accept_op(","):
                names.append(self._identifier())
            self._expect_op(")")
            for column in columns:
                if column.name in names:
                    column.unique = True
        else:
            raise self._error("unsupported table constraint")

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._identifier()
        type_name, length, precision, scale = self._parse_type()
        column = ast.ColumnDef(name, type_name, length, precision, scale)
        while True:
            if self._accept_keyword("NOT", "NULL"):
                column.not_null = True
            elif self._accept_keyword("NULL"):
                pass
            elif self._accept_keyword("PRIMARY", "KEY"):
                column.primary_key = True
                column.not_null = True
            elif self._accept_keyword("UNIQUE"):
                column.unique = True
            elif self._accept_keyword("DEFAULT"):
                column.default = self.parse_expr()
            else:
                return column

    def _parse_create_view(self, or_replace: bool) -> ast.CreateView:
        name = ast.TableRef(self._qualified_name())
        column_names = None
        if self._accept_op("("):
            column_names = [self._identifier()]
            while self._accept_op(","):
                column_names.append(self._identifier())
            self._expect_op(")")
        self._expect_keyword("AS")
        # Capture the original statement text for dialect-pinned recompiles.
        start_offset = self._peek().offset
        self.parse_select()  # validates syntax now
        text = self.text[start_offset : self._peek().offset].strip()
        if text.endswith(";"):
            text = text[:-1]
        return ast.CreateView(name, text, column_names, or_replace)

    def _parse_create_sequence(self) -> ast.CreateSequence:
        name = ".".join(self._qualified_name())
        seq = ast.CreateSequence(name)
        while True:
            if self._accept_keyword("START"):
                self._accept_keyword("WITH")
                seq.start = self._signed_integer()
            elif self._accept_keyword("INCREMENT"):
                self._accept_keyword("BY")
                seq.increment = self._signed_integer()
            elif self._accept_keyword("MINVALUE"):
                seq.minvalue = self._signed_integer()
            elif self._accept_keyword("MAXVALUE"):
                seq.maxvalue = self._signed_integer()
            elif self._accept_keyword("NOMINVALUE") or self._accept_keyword("NOMAXVALUE") or self._accept_keyword("NOCACHE") or self._accept_keyword("NOCYCLE") or self._accept_keyword("NO"):
                if self.tokens[self.pos - 1].key == "NO":
                    self._advance()  # NO CYCLE / NO CACHE second word
            elif self._accept_keyword("CYCLE"):
                seq.cycle = True
            elif self._accept_keyword("CACHE"):
                self._integer()
            else:
                return seq

    def _signed_integer(self) -> int:
        negative = self._accept_op("-")
        value = self._integer()
        return -value if negative else value

    def parse_declare_gtt(self) -> ast.CreateTable:
        self._expect_keyword("DECLARE")
        self._expect_keyword("GLOBAL")
        self._expect_keyword("TEMPORARY")
        self._expect_keyword("TABLE")
        table = self._parse_create_table(temporary=True, global_temporary=True)
        return table

    def parse_drop(self) -> ast.Node:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            if_exists = self._accept_keyword("IF", "EXISTS")
            name = ast.TableRef(self._qualified_name())
            if not if_exists:
                if_exists = self._accept_keyword("IF", "EXISTS")
            return ast.DropTable(name, if_exists)
        if self._accept_keyword("VIEW"):
            return ast.DropView(ast.TableRef(self._qualified_name()))
        if self._accept_keyword("SEQUENCE"):
            return ast.DropSequence(".".join(self._qualified_name()))
        if self._accept_keyword("ALIAS"):
            return ast.DropTable(ast.TableRef(self._qualified_name()))
        raise self._error("unsupported DROP statement")

    def parse_truncate(self) -> ast.TruncateTable:
        self._expect_keyword("TRUNCATE")
        self._accept_keyword("TABLE")
        name = ast.TableRef(self._qualified_name())
        # Ignore DB2 trailer: IMMEDIATE / DROP STORAGE etc.
        while self._peek().key in (
            "IMMEDIATE", "DROP", "REUSE", "STORAGE", "IGNORE", "RESTRICT",
            "DELETE", "TRIGGERS", "CONTINUE", "IDENTITY",
        ):
            self._advance()
        return ast.TruncateTable(name)

    # -- misc statements -------------------------------------------------------------

    def parse_set(self) -> ast.SetStatement:
        """SET <name words> [=] <value> — e.g. SET SQL_COMPAT = 'NPS',
        SET CURRENT SCHEMA = FOO, SET SCHEMA FOO."""
        self._expect_keyword("SET")
        words = [self._identifier()]
        value = None
        while True:
            if self._accept_op("="):
                token = self._peek()
                if token.kind not in (IDENT, QIDENT, STRING, NUMBER):
                    raise self._error("expected a value in SET")
                self._advance()
                value = token.value
                break
            token = self._peek()
            if token.kind in (STRING, NUMBER):
                self._advance()
                value = token.value
                break
            if token.kind in (IDENT, QIDENT):
                after = self._peek(1)
                if after.kind == EOF or after.key == ";":
                    self._advance()
                    value = token.value
                    break
                words.append(self._identifier())
                continue
            raise self._error("expected a value in SET")
        return ast.SetStatement(" ".join(w.upper() for w in words), value)

    def parse_call(self) -> ast.CallStatement:
        self._expect_keyword("CALL")
        name = ".".join(self._qualified_name())
        args = []
        if self._accept_op("("):
            if not self._accept_op(")"):
                args.append(self.parse_expr())
                while self._accept_op(","):
                    args.append(self.parse_expr())
                self._expect_op(")")
        return ast.CallStatement(name, args)

    def parse_values_statement(self) -> ast.ValuesStatement:
        self._expect_keyword("VALUES")
        rows = []
        if self._at_op("("):
            rows.append(self._parse_value_row())
            while self._accept_op(","):
                rows.append(self._parse_value_row())
        else:
            rows.append([self.parse_expr()])
            while self._accept_op(","):
                rows.append([self.parse_expr()])
        return ast.ValuesStatement(rows)

    def parse_anonymous_block(self) -> ast.AnonymousBlock:
        self._expect_keyword("BEGIN")
        statements = []
        while not self._at_keyword("END"):
            if self._peek().kind == EOF:
                raise self._error("unterminated BEGIN block")
            statements.append(self.parse_one())
            while self._accept_op(";"):
                pass
        self._expect_keyword("END")
        self._accept_op(";")
        return ast.AnonymousBlock(statements)
