"""Lexer and parser."""

import json
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.plancache import PlanCache
from repro.errors import SQLSyntaxError
from repro.serving.normalize import statement_key
from repro.sql import ast
from repro.sql.lexer import EOF, IDENT, NUMBER, OP, QIDENT, STRING, tokenize
from repro.sql.parser import Parser, parse_statement, parse_statements


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a, 42 FROM t")
        kinds = [t.kind for t in tokens]
        assert kinds == [IDENT, IDENT, OP, NUMBER, IDENT, IDENT, EOF]

    def test_string_with_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].kind == STRING
        assert tokens[0].value == "it's"

    def test_quoted_identifier(self):
        tokens = tokenize('"MixedCase"')
        assert tokens[0].kind == QIDENT
        assert tokens[0].value == "MixedCase"

    def test_numbers(self):
        values = [t.value for t in tokenize("1 2.5 .5 1e3 1.5E-2") if t.kind == NUMBER]
        assert values == ["1", "2.5", ".5", "1e3", "1.5E-2"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- trailing\n/* block\ncomment */ + 2")
        assert [t.value for t in tokens if t.kind != EOF] == ["SELECT", "1", "+", "2"]

    def test_multichar_operators(self):
        ops = [t.value for t in tokenize("a <= b <> c :: d || e >= f != g")
               if t.kind == OP]
        assert ops == ["<=", "<>", "::", "||", ">=", "!="]

    def test_oracle_outer_marker(self):
        ops = [t.value for t in tokenize("a.x = b.y (+)") if t.value == "(+)"]
        assert ops == ["(+)"]

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_unterminated_comment(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("/* never ends")

    def test_position_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[1].line == 2
        assert tokens[1].column == 3


def _shape(text):
    """``[(kind, value), ...]`` without the EOF token."""
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]


class TestLexerEdges:
    """The rules a regex tokenizer gets wrong first, each pinned."""

    @pytest.mark.parametrize("text, expected", [
        # "1." is one NUMBER only at the end of the text.
        ("1.", [(NUMBER, "1.")]),
        ("1. ", [(NUMBER, "1"), (OP, ".")]),
        ("1.x", [(NUMBER, "1"), (OP, "."), (IDENT, "x")]),
        ("1.2.3", [(NUMBER, "1.2"), (NUMBER, ".3")]),
        ("1e5.3", [(NUMBER, "1e5"), (NUMBER, ".3")]),
        ("1.e5", [(NUMBER, "1"), (OP, "."), (IDENT, "e5")]),
        (".5", [(NUMBER, ".5")]),
        (".5e-2x", [(NUMBER, ".5e-2"), (IDENT, "x")]),
        ("1e+", [(NUMBER, "1"), (IDENT, "e"), (OP, "+")]),
        ("t.c", [(IDENT, "t"), (OP, "."), (IDENT, "c")]),
        # Comment starts win over the operators they begin with.
        ("a--b\n-c", [(IDENT, "a"), (OP, "-"), (IDENT, "c")]),
        ("a/b/**/*c", [(IDENT, "a"), (OP, "/"), (IDENT, "b"), (OP, "*"), (IDENT, "c")]),
        ("/***/x/* * / **/", [(IDENT, "x")]),
        ("-- only a comment", []),
        ("(+) ( + )", [(OP, "(+)"), (OP, "("), (OP, "+"), (OP, ")")]),
        ("a**b<>c", [(IDENT, "a"), (OP, "**"), (IDENT, "b"), (OP, "<>"), (IDENT, "c")]),
        # Quote doubling, in strings and in quoted identifiers.
        ("''''", [(STRING, "'")]),
        ("'a''b' 'c'", [(STRING, "a'b"), (STRING, "c")]),
        ("'a'''", [(STRING, "a'")]),
        ('"x""y" ""', [(QIDENT, 'x"y'), (QIDENT, "")]),
        ("'--' '/*'", [(STRING, "--"), (STRING, "/*")]),
        # Identifiers: letters of any script start one, $ and # continue it.
        ("_a$#1 é1 a²", [(IDENT, "_a$#1"), (IDENT, "é1"), (IDENT, "a²")]),
        # Decimal digits of any script are digits, as int() accepts them.
        ("٣", [(NUMBER, "٣")]),
    ])
    def test_tokens(self, text, expected):
        assert _shape(text) == expected

    @pytest.mark.parametrize("text, message, line, column", [
        # Unterminated constructs report the END of the text ...
        ("'oops", "unterminated string literal", 1, 6),
        ("SELECT 'a\nb", "unterminated string literal", 2, 2),
        # ... and a failed string never backtracks into a shorter one.
        ("'a''", "unterminated string literal", 1, 5),
        ("x 'a'' y\n", "unterminated string literal", 2, 1),
        ('"a""', "unterminated quoted identifier", 1, 5),
        ("a /* never\nends *", "unterminated block comment", 2, 7),
        ("/*/", "unterminated block comment", 1, 4),
        # ... an unexpected character its own position.
        ("a\n  @", "unexpected character '@'", 2, 3),
        ("-- c\n/* c */ !x", "unexpected character '!'", 2, 9),
        ("a | b", "unexpected character '|'", 1, 3),
        ("a\x0cb", "unexpected character '\\x0c'", 1, 2),
        # Digits that are not decimal (superscripts, fractions) are neither a
        # number nor the start of a word: rejected where they stand.
        ("²", "unexpected character '²'", 1, 1),
        ("x = 1²", "unexpected character '²'", 1, 6),
        ("½x", "unexpected character '½'", 1, 1),
    ])
    def test_errors(self, text, message, line, column):
        with pytest.raises(SQLSyntaxError) as caught:
            tokenize(text)
        assert str(caught.value).startswith(message)
        assert (caught.value.line, caught.value.column) == (line, column)

    def test_positions_are_derived_from_the_offset(self):
        text = "SELECT a,\n  'x\ny' AS \"q\"\n FROM t -- end"
        tokens = tokenize(text)
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("SELECT", 1, 1), ("a", 1, 8), (",", 1, 9), ("x\ny", 2, 3),
            ("AS", 3, 4), ("q", 3, 7), ("FROM", 4, 2), ("t", 4, 7), ("", 4, 15),
        ]
        assert [text[t.offset] for t in tokens[:6]] == ["S", "a", ",", "'", "A", '"']
        assert tokens[-1].offset == len(text)

    def test_tokens_are_immutable_and_carry_their_folded_key(self):
        select, quoted, op, number, eof = tokenize('select "select" <= 1')
        assert (select.key, quoted.key, op.key, number.key, eof.key) == (
            "SELECT", None, "<=", None, None
        )
        with pytest.raises(AttributeError):
            select.value = "x"
        assert isinstance(tokenize("a"), tuple)

    def test_long_statements_lex_in_linear_time(self):
        def seconds(text):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                try:
                    tokenize(text)
                except SQLSyntaxError:
                    pass
                best = min(best, time.perf_counter() - start)
            return best

        def insert(rows):
            return "INSERT INTO t VALUES " + ", ".join(
                "(%d, 'row''%d', %d.5)" % (i, i, i) for i in range(rows)
            )

        def unterminated(pairs):
            return "SELECT 'a" + "''b" * pairs

        assert len(insert(10_000)) > 200_000
        assert len(tokenize(insert(10_000))) == 10_000 * 8 + 4
        assert len(unterminated(33_000)) > 99_000
        with pytest.raises(SQLSyntaxError, match="unterminated string literal"):
            tokenize(unterminated(33_000))
        for build, small, large in ((insert, 2_500, 10_000), (unterminated, 8_250, 33_000)):
            # 4x the text: quadratic work would be 16x the time.
            assert seconds(build(large)) < 9 * max(seconds(build(small)), 1e-4)


# -- generative round trip ---------------------------------------------------

_OPERATORS = ["(+)", "<=", ">=", "<>", "!=", "::", "||", "**"] + list("+-*/%(),.;<>=?[]:")
_NUMBERS = ["0", "1", "42", "2.5", ".5", "1e3", "1.5E-2", "007", "3.14e+10"]
_WORD_START = "abcxyzABCXYZ_é"
_WORD_REST = _WORD_START + "0123456789$#"
_TEXT = st.text("ab'\"-/* \n;", max_size=8)


def _quoted(value, quote):
    return quote + value.replace(quote, quote * 2) + quote


#: ``((kind, value), spelling)`` — a token and one way to write it.
_TOKENS = st.one_of(
    st.builds(
        str.__add__, st.sampled_from(_WORD_START), st.text(_WORD_REST, max_size=6)
    ).map(lambda v: ((IDENT, v), v)),
    st.sampled_from(_NUMBERS).map(lambda v: ((NUMBER, v), v)),
    st.sampled_from(_OPERATORS).map(lambda v: ((OP, v), v)),
    _TEXT.map(lambda v: ((STRING, v), _quoted(v, "'"))),
    _TEXT.map(lambda v: ((QIDENT, v), _quoted(v, '"'))),
)
_COMMENT = st.one_of(
    _TEXT.filter(lambda body: "*/" not in body).map(lambda body: "/*%s*/" % body),
    _TEXT.filter(lambda body: "\n" not in body).map(lambda body: "--%s\n" % body),
)
# Noise starts with whitespace so that "-" then "--c" cannot read "---c".
_NOISE = st.builds(
    lambda space, comments: space + "".join(comments),
    st.sampled_from([" ", "\n", "\t", "\r\n", "  \n "]),
    st.lists(_COMMENT, max_size=2),
)


class TestLexerRoundTrip:
    """Random token sequences, rendered with random noise between them,
    tokenise back to the sequence — no reference lexer involved."""

    @given(
        tokens=st.lists(_TOKENS, max_size=12),
        noise=st.lists(_NOISE, min_size=13, max_size=13),
        lead=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_render_then_tokenize_is_identity(self, tokens, noise, lead):
        text = noise[-1] if lead else ""
        offsets = []
        for (_expected, spelling), gap in zip(tokens, noise):
            offsets.append(len(text))
            text += spelling + gap
        got = tokenize(text)
        assert [(t.kind, t.value) for t in got[:-1]] == [e for e, _s in tokens]
        assert [t.offset for t in got[:-1]] == offsets
        assert got[-1].kind == EOF and got[-1].offset == len(text)
        for token in got:
            assert token.key == {
                IDENT: token.value.upper(), OP: token.value
            }.get(token.kind)

    @given(tokens=st.lists(_TOKENS, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_commas_and_semicolons_need_no_space(self, tokens):
        rendered = ",".join(spelling for _e, spelling in tokens) + ";"
        expected = []
        for e, _s in tokens:
            expected += [e, (OP, ",")]
        expected[-1] = (OP, ";")
        assert _shape(rendered) == expected


# -- golden corpus -----------------------------------------------------------


def _golden():
    path = Path(__file__).parent / "data" / "lexer_golden.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestGoldenCorpus:
    """``tests/make_lexer_golden.py`` recorded what the character-loop lexer
    (and the parser on top of it) made of every statement text the repo
    ships; the regex tokenizer must reproduce all of it."""

    def test_replay(self):
        from tests.make_lexer_golden import describe

        for entry in _golden():
            assert describe(entry["sql"]) == entry, entry["sql"]

    def test_statement_key_carries_the_same_normal_forms(self):
        for entry in _golden():
            key = statement_key(entry["sql"])
            if key.bypass is None:
                assert (key.text, key.template) == (entry["normal"], entry["template"])
            elif isinstance(entry["tokens"], dict):
                assert key.bypass == "lex-error" and key.tokens is None
            else:
                assert key.bypass in ("not-a-read", "volatile")
                assert key.tokens == tokenize(entry["sql"])

    def test_a_memoised_key_equals_a_fresh_one(self):
        memo = PlanCache("golden")
        reads = set()
        for entry in _golden():
            sql = entry["sql"]
            statement_key(sql, memo)
            memoised, fresh = statement_key(sql, memo), statement_key(sql)
            assert (memoised.tokens, memoised.bypass, memoised.text) == (
                fresh.tokens, fresh.bypass, fresh.text
            ), sql
            if fresh.tokens is not None:
                assert (memoised.template, memoised.slots) == (fresh.template, fresh.slots)
            if fresh.bypass is None:
                reads.add(sql)
        texts = memo.report()["texts"]
        assert texts["entries"] == len(reads) and texts["evictions"] == 0

    def test_handed_over_tokens_parse_like_the_text(self):
        for entry in _golden():
            sql = entry["sql"]
            if isinstance(entry["ast"], int):
                handed = repr(Parser(sql, tokenize(sql)).parse_script())
                assert zlib.crc32(handed.encode()) == entry["ast"], sql


class TestParseSelect:
    def test_simple(self):
        node = parse_statement("SELECT a, b AS bee FROM t WHERE a > 1")
        assert isinstance(node, ast.Select)
        assert len(node.items) == 2
        assert node.items[1].alias == "BEE"
        assert isinstance(node.where, ast.BinaryOp)

    def test_star_and_qualified_star(self):
        node = parse_statement("SELECT *, t.* FROM t")
        assert isinstance(node.items[0].expr, ast.Star)
        assert node.items[1].expr.qualifier == "T"

    def test_joins(self):
        node = parse_statement(
            "SELECT 1 FROM a INNER JOIN b ON a.x = b.x LEFT OUTER JOIN c USING (y)"
        )
        join = node.from_items[0]
        assert isinstance(join, ast.Join)
        assert join.kind == "left"
        assert join.using == ["Y"]
        assert join.left.kind == "inner"

    def test_comma_joins(self):
        node = parse_statement("SELECT 1 FROM a, b, c")
        assert len(node.from_items) == 3

    def test_subquery_in_from(self):
        node = parse_statement("SELECT x FROM (SELECT 1 AS x FROM t) sub")
        assert isinstance(node.from_items[0], ast.SubqueryRef)
        assert node.from_items[0].alias == "SUB"

    def test_group_having_order(self):
        node = parse_statement(
            "SELECT d, COUNT(*) FROM t GROUP BY d HAVING COUNT(*) > 1 "
            "ORDER BY 2 DESC NULLS FIRST"
        )
        assert len(node.group_by) == 1
        assert node.having is not None
        assert node.order_by[0].ascending is False
        assert node.order_by[0].nulls_first is True

    def test_limit_offset(self):
        node = parse_statement("SELECT a FROM t LIMIT 5 OFFSET 10")
        assert node.limit.text == "5"
        assert node.offset.text == "10"

    def test_fetch_first(self):
        node = parse_statement("SELECT a FROM t FETCH FIRST 7 ROWS ONLY")
        assert node.limit.text == "7"

    def test_ctes(self):
        node = parse_statement(
            "WITH x AS (SELECT 1 FROM t), y (c) AS (SELECT 2 FROM t) SELECT * FROM x, y"
        )
        assert [c[0] for c in node.ctes] == ["X", "Y"]
        assert node.ctes[1][2] == ["C"]

    def test_set_operations(self):
        node = parse_statement("SELECT a FROM t UNION ALL SELECT b FROM u")
        assert node.set_op == "UNION ALL"
        assert isinstance(node.set_right, ast.Select)

    def test_minus_is_except(self):
        node = parse_statement("SELECT a FROM t MINUS SELECT b FROM u")
        assert node.set_op == "EXCEPT"

    def test_connect_by(self):
        node = parse_statement(
            "SELECT name FROM emp START WITH mgr IS NULL CONNECT BY PRIOR id = mgr"
        )
        assert node.connect_by is not None
        assert node.connect_by.start_with is not None

    def test_case_forms(self):
        node = parse_statement(
            "SELECT CASE WHEN a=1 THEN 'x' ELSE 'y' END, CASE b WHEN 2 THEN 3 END FROM t"
        )
        searched = node.items[0].expr
        simple = node.items[1].expr
        assert searched.operand is None
        assert simple.operand is not None

    def test_predicates(self):
        node = parse_statement(
            "SELECT 1 FROM t WHERE a BETWEEN 1 AND 2 AND b NOT IN (1,2) "
            "AND c LIKE 'x%' ESCAPE '!' AND d IS NOT NULL AND e ISNULL"
        )
        kinds = [type(c).__name__ for c in _conjuncts(node.where)]
        assert "BetweenExpr" in kinds
        assert "InExpr" in kinds
        assert "LikeExpr" in kinds

    def test_in_subquery(self):
        node = parse_statement("SELECT 1 FROM t WHERE a IN (SELECT b FROM u)")
        in_expr = node.where
        assert in_expr.subquery is not None

    def test_exists(self):
        node = parse_statement("SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u)")
        assert isinstance(node.where, ast.ExistsExpr)

    def test_typed_literals(self):
        node = parse_statement("SELECT DATE '2016-01-01', TIMESTAMP '2016-01-01 10:00:00' FROM t")
        assert node.items[0].expr.type_name == "DATE"

    def test_double_colon_cast(self):
        node = parse_statement("SELECT x::bigint FROM t")
        assert isinstance(node.items[0].expr, ast.CastExpr)

    def test_sequence_refs(self):
        node = parse_statement("SELECT seq.NEXTVAL, NEXT VALUE FOR seq2 FROM dual")
        assert isinstance(node.items[0].expr, ast.SequenceRef)
        assert node.items[1].expr.sequence == "SEQ2"

    def test_operator_precedence(self):
        node = parse_statement("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert node.where.op == "OR"
        assert node.where.right.op == "AND"

    def test_arith_precedence(self):
        expr = parse_statement("SELECT 1 + 2 * 3 FROM t").items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_syntax_error_reported_with_location(self):
        with pytest.raises(SQLSyntaxError) as err:
            parse_statement("SELECT FROM t")
        assert err.value.sqlstate == "42601"


class TestParseOtherStatements:
    def test_insert_values(self):
        node = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert node.columns == ["A", "B"]
        assert len(node.rows) == 2

    def test_insert_select(self):
        node = parse_statement("INSERT INTO t SELECT * FROM u")
        assert node.select is not None

    def test_update(self):
        node = parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE c = 2")
        assert len(node.assignments) == 2
        assert node.where is not None

    def test_delete(self):
        node = parse_statement("DELETE FROM t WHERE a = 1")
        assert node.table.name == "T"

    def test_create_table(self):
        node = parse_statement(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, v VARCHAR(10), "
            "amt DECIMAL(10,2) DEFAULT 0, UNIQUE (v))"
        )
        assert node.columns[0].primary_key
        assert node.columns[1].unique
        assert node.columns[2].precision == 10

    def test_create_table_as(self):
        node = parse_statement("CREATE TABLE t AS (SELECT a FROM u) WITH DATA")
        assert node.as_select is not None

    def test_temp_tables(self):
        node = parse_statement("CREATE TEMP TABLE t (a INT)")
        assert node.temporary
        node2 = parse_statement("DECLARE GLOBAL TEMPORARY TABLE gt (a INT)")
        assert node2.global_temporary
        node3 = parse_statement("CREATE GLOBAL TEMPORARY TABLE ot (a INT)")
        assert node3.global_temporary

    def test_create_view(self):
        node = parse_statement("CREATE VIEW v (a) AS SELECT x FROM t")
        assert node.column_names == ["A"]
        assert "SELECT x FROM t" in node.select_text

    def test_create_sequence(self):
        node = parse_statement(
            "CREATE SEQUENCE s START WITH 5 INCREMENT BY 2 MAXVALUE 100 CYCLE"
        )
        assert node.start == 5
        assert node.increment == 2
        assert node.maxvalue == 100
        assert node.cycle

    def test_create_alias(self):
        node = parse_statement("CREATE ALIAS a FOR t")
        assert node.target.name == "T"

    def test_drop_variants(self):
        assert isinstance(parse_statement("DROP TABLE t"), ast.DropTable)
        assert parse_statement("DROP TABLE IF EXISTS t").if_exists
        assert isinstance(parse_statement("DROP VIEW v"), ast.DropView)
        assert isinstance(parse_statement("DROP SEQUENCE s"), ast.DropSequence)

    def test_truncate(self):
        node = parse_statement("TRUNCATE TABLE t IMMEDIATE")
        assert node.name.name == "T"

    def test_explain(self):
        node = parse_statement("EXPLAIN SELECT 1 FROM t")
        assert isinstance(node.statement, ast.Select)

    def test_set(self):
        node = parse_statement("SET SQL_COMPAT = 'NPS'")
        assert node.name == "SQL_COMPAT"
        assert node.value == "NPS"
        node2 = parse_statement("SET CURRENT SCHEMA = FOO")
        assert node2.name == "CURRENT SCHEMA"

    def test_call(self):
        node = parse_statement("CALL my_proc(1, 'x')")
        assert node.name == "MY_PROC"
        assert len(node.args) == 2

    def test_values_statement(self):
        node = parse_statement("VALUES (1, 2), (3, 4)")
        assert len(node.rows) == 2

    def test_anonymous_block(self):
        node = parse_statement("BEGIN INSERT INTO t VALUES (1); DELETE FROM t; END")
        assert len(node.statements) == 2

    def test_script(self):
        nodes = parse_statements("SELECT 1 FROM t; SELECT 2 FROM t;")
        assert len(nodes) == 2

    def test_unsupported_statement(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("GRANT ALL TO bob")


def _conjuncts(expr):
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]
