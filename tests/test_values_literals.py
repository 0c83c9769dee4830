"""A literal in a VALUES row is a value: the parser builds its node without
the expression descent, and ``Database.evaluate_rows`` takes its value
from :func:`repro.sql.binder.literal_value` instead of binding it.  Both
must give exactly what the binder route gives — the same nodes, the same
boundary values (class and ``repr``), the same errors, so the same WAL
bytes and the same shard placement."""

from __future__ import annotations

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rowdb import RowDatabase
from repro.cluster import Cluster, HardwareSpec
from repro.cluster.shard import hash_value_to_shard
from repro.database import Database
from repro.durability import DurabilityManager
from repro.errors import BindError, ConversionError, ReproError, SQLError
from repro.sql import ast
from repro.sql.binder import ExpressionBinder, Scope
from repro.sql.dialects import get_dialect
from repro.sql.parser import Parser, parse_statement
from repro.storage.column import to_boundary_scalar
from repro.storage.filesystem import ClusterFileSystem

# -- literal texts at and next to the bounds --------------------------------------

_INT_EDGES = [2**31, 2**63]
INTEGERS = st.integers(-(10**20), 10**20).map(str) | st.sampled_from(
    [("-" if s < 0 else "") + str(e + d) for e in _INT_EDGES for d in (-1, 0, 1) for s in (1, -1)]
)
ZEROS = st.sampled_from(
    ["0", "-0", "00", "0.0", "-0.0", "0.000", "-0.000", "0e0", "-0e0", "0E5", "-0.0e-3", ".0"]
)


@st.composite
def decimals(draw):
    """0-33 fraction digits, up to 33 digits in all, leading zeros kept."""
    whole = draw(st.text("0123456789", min_size=0, max_size=33))
    fraction = draw(st.text("0123456789", min_size=0, max_size=33))
    if not whole and not fraction:
        whole = "0"
    sign = draw(st.sampled_from(["", "-"]))
    # A point must be followed by a digit: '12.' before ')' lexes as 12 and '.'.
    return sign + whole + ("." + fraction if fraction else "")


WIDE = st.sampled_from(
    ["1" * n + "." + "5" * k for n in (29, 30, 31, 32, 33) for k in (1, 3)]
    + ["1" * n for n in (29, 30, 31, 32, 33)]
    + ["0." + "9" * k for k in (29, 30, 31, 32, 33)]
    + ["00012.50", ".5", "-.5", "92233720368547758.07", "9223372036854775.808"]
)
EXPONENTS = st.sampled_from(
    ["1e400", "-1e400", "1.5e-7", "2E+3", ".5e1", "1e-400", "-2.5E10", "9" * 40 + "e0"]
)
STRINGS = st.sampled_from(["''", "'a'", "'it''s'", "''''", "'  '", "'x,y)'", "'NULL'"])
TYPED = st.sampled_from(
    [
        "DATE '0001-01-01'", "DATE '9999-12-31'", "DATE '2016-02-29'", "DATE '2016-02-30'",
        "DATE 'abc'", "DATE ''", "TIME '10:30:15'", "TIME '25:00:00'",
        "TIMESTAMP '2016-01-01 10:30:00'", "TIMESTAMP 'x'",
    ]
)  # fmt: skip
#: Not plain literals: these take the binder route in both.
EXPRESSIONS = st.sampled_from(["2+3", "- - 1", "1::INT", "-'5'", "(7)", "+4", "CAST('1' AS INT)"])
LITERALS = INTEGERS | ZEROS | decimals() | WIDE | EXPONENTS | STRINGS | TYPED | st.just("NULL")
DIALECTS = ["db2", "oracle", "ansi", "netezza"]


def _outcome(compute):
    try:
        value = compute()
    except (ReproError, ArithmeticError, TypeError, ValueError) as error:
        return ("error", type(error), getattr(error, "sqlstate", None), str(error))
    return ("ok", type(value), repr(value))


def _descent(text: str) -> ast.ExprNode:
    """The node the eight-level expression descent builds for *text*."""
    parser = Parser(text)
    return parser._parse_or()


def _binder_route(texts, dialect, database):
    """A row through ``bind`` -> ``eval_row`` -> ``to_boundary_scalar``, one
    node at a time: the first failure wins."""
    binder = ExpressionBinder(Scope([]), get_dialect(dialect), database)
    row = []
    for text in texts:
        expr = binder.bind(_descent(text))
        row.append(to_boundary_scalar(expr.eval_row({}), expr.dtype))
    return tuple(row)


class TestEvaluateRowsEqualsTheBinder:
    @pytest.fixture(scope="class")
    def database(self):
        return Database()

    @settings(max_examples=600, deadline=None)
    @given(st.lists(LITERALS | EXPRESSIONS, min_size=1, max_size=4), st.sampled_from(DIALECTS))
    def test_same_values_or_same_first_error(self, database, texts, dialect):
        statement = parse_statement("VALUES (%s)" % ", ".join(texts))
        session = database.connect(dialect)
        want = _outcome(lambda: _binder_route(texts, dialect, database))
        got = _outcome(lambda: database.evaluate_rows(statement.rows, session)[0])
        # A tuple's repr holds each value's class and repr: 0 / 0.0 /
        # Decimal('0.0') / '0' all differ.
        assert got == want, (texts, dialect)

    @settings(max_examples=300, deadline=None)
    @given(LITERALS | EXPRESSIONS)
    def test_the_parser_builds_the_descents_node(self, text):
        parser = Parser("%s)" % text)
        node, descent = parser.parse_expr(), _descent("%s)" % text)
        assert node == descent and _slots(node) == _slots(descent), text

    @pytest.mark.parametrize(
        "text,want",
        [
            ("-0.0", Decimal("0.0")), ("-0e0", 0.0), ("00012.50", Decimal("12.50")),
            (".5", Decimal("0.5")), ("1e400", float("inf")), ("-1e400", float("-inf")),
            ("0." + "0" * 30 + "123", Decimal("1E-31")), ("-2147483648", -(2**31)),
            ("DATE '0001-01-01'", datetime.date(1, 1, 1)), ("'it''s'", "it's"),
        ],
    )  # fmt: skip
    def test_pinned_values(self, database, text, want):
        (row,) = database.evaluate_rows(parse_statement("VALUES (%s)" % text).rows)
        assert (type(row[0]), repr(row[0])) == (type(want), repr(want))

    @pytest.mark.parametrize("text", ["9223372036854775808", "-9223372036854775808"])
    def test_past_int64_is_a_conversion_error(self, database, text):
        with pytest.raises(ConversionError) as raised:
            database.evaluate_rows(parse_statement("VALUES (%s)" % text).rows)
        assert raised.value.sqlstate == "22018"
        assert str(raised.value) == "value 9223372036854775808 out of range for BIGINT"

    def test_empty_string_is_null_only_where_the_dialect_says_so(self, database):
        rows = parse_statement("VALUES ('', 'a')").rows
        assert database.evaluate_rows(rows, database.connect("oracle")) == [(None, "a")]
        assert database.evaluate_rows(rows, database.connect("db2")) == [("", "a")]

    def test_a_bad_literal_in_an_earlier_row_wins_over_a_later_width_mismatch(self, database):
        rows = parse_statement(
            "VALUES (1, 2), (3, 4), (DATE 'x', 6), (7, 8), (9, 10), (11, 12), (13)"
        ).rows
        with pytest.raises(ConversionError):
            database.evaluate_rows(rows)

    def test_within_a_row_the_leftmost_failure_wins(self, database):
        rows = parse_statement("VALUES (nope, DATE 'x')").rows
        with pytest.raises(BindError, match="column NOPE not found"):
            database.evaluate_rows(rows)


def _slots(node):
    """Every literal's slot in *node*, in walk order (slots are not part of
    node equality)."""
    out = []
    stack = [node]
    while stack:
        item = stack.pop()
        if hasattr(item, "slot"):
            out.append((type(item).__name__, item.slot))
        for value in getattr(item, "__dict__", {}).values():
            if isinstance(value, ast.Node):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, ast.Node))
    return out


# -- the parser: literal-only rows and mixed rows ------------------------------------


class TestValuesRowsParse:
    def test_a_literal_only_row(self):
        node = parse_statement("INSERT INTO t VALUES (1, 'a''b', NULL, -4.50, DATE '2016-01-01')")
        # tokens: INSERT INTO t VALUES ( 1 , 'a''b' , NULL , - 4.50 , DATE '...' )
        #         0      1    2 3      4 5 6 7      8 9    10 11 12 13 14  15    16
        want = [
            ast.NumberLit("1"), ast.StringLit("a'b"), ast.NullLit(),
            ast.UnaryOp("-", ast.NumberLit("4.50")), ast.TypedLit("DATE", "2016-01-01"),
        ]  # fmt: skip
        assert node.rows == [want]
        (row,) = node.rows
        assert [row[0].slot, row[1].slot, row[3].operand.slot, row[4].slot] == [5, 7, 12, 15]

    def test_a_mixed_row(self):
        node = parse_statement(
            "INSERT INTO t VALUES (1, 2+3, -4, -x, 1::INT, NULL, DATE '2016-01-01')"
        )
        # INSERT INTO t VALUES ( 1 , 2 + 3 , - 4  , -  x  ,  1  :: INT ,  NULL ,  DATE '..' )
        # 0      1    2 3      4 5 6 7 8 9 10 11 12 13 14 15 16 17 18  19  20 21   22 23   24   25
        want = [
            ast.NumberLit("1"),
            ast.BinaryOp("+", ast.NumberLit("2"), ast.NumberLit("3")),
            ast.UnaryOp("-", ast.NumberLit("4")),
            ast.UnaryOp("-", ast.Identifier(["X"])),
            ast.CastExpr(ast.NumberLit("1"), "INT", 0, 0, 0),
            ast.NullLit(),
            ast.TypedLit("DATE", "2016-01-01"),
        ]
        assert node.rows == [want]
        (row,) = node.rows
        slots = [row[0].slot, row[1].left.slot, row[1].right.slot, row[2].operand.slot,
                 row[4].operand.slot, row[6].slot]  # fmt: skip
        assert slots == [5, 7, 9, 12, 17, 24]

    def test_a_literal_that_continues_takes_the_descent(self):
        for text, want in [
            ("(- - 1)", ast.UnaryOp("-", ast.UnaryOp("-", ast.NumberLit("1")))),
            ("(-1 * 2)", ast.BinaryOp("*", ast.UnaryOp("-", ast.NumberLit("1")), ast.NumberLit("2"))),
            ("('a' || 'b')", ast.BinaryOp("||", ast.StringLit("a"), ast.StringLit("b"))),
            ("(NULL IS NULL)", ast.IsNullExpr(ast.NullLit())),
            ("(DATE)", ast.Identifier(["DATE"])),
        ]:
            assert parse_statement("VALUES " + text).rows == [[want]], text


# -- the WAL and every engine hold the binder route's rows ---------------------------

_DDL = (
    "CREATE TABLE v (k DECIMAL(5,1), i INT, b BIGINT, d DECIMAL(12,4), f DOUBLE,"
    " s VARCHAR(10), dt DATE) DISTRIBUTE BY HASH (k)"
)
_ROWS = [
    "(-0.0, 1, 9223372036854775807, -12.5, -0e0, 'a''b', DATE '0001-01-01')",
    "(2.5, -2147483648, -9223372036854775807, 7, 1.5e3, '', DATE '9999-12-31')",
    "(-3, 2+3, NULL, -0.0001, -2, NULL, NULL)",
    "(4.0, -7, 12, 00012.50, .5, 'x', DATE '2016-02-29')",
]
_INSERT = "INSERT INTO v VALUES " + ", ".join(_ROWS)
_NAMES = ["K", "I", "B", "D", "F", "S", "DT"]


def _binder_rows():
    """The statement's rows through the binder route (no text in ``_ROWS``
    has a comma inside a literal)."""
    return [_binder_route([t.strip() for t in row[1:-1].split(",")], "db2", None) for row in _ROWS]


def _typed(rows):
    return sorted((tuple((type(v).__name__, repr(v)) for v in row) for row in rows), key=repr)


class TestEveryEngineHoldsTheBinderRoutesRows:
    def test_the_wal_insert_record_is_the_binder_routes_rows(self):
        db = Database(durability=DurabilityManager(ClusterFileSystem(), group_commit=1))
        session = db.connect()
        session.execute(_DDL.split(" DISTRIBUTE")[0])
        session.execute(_INSERT)
        (record,) = [r for r in db.durability.wal.records() if r.kind == "insert"]
        table, rows = record.payload
        assert table == (None, "V")
        assert [tuple((type(v), repr(v)) for v in row) for row in rows] == [
            tuple((type(v), repr(v)) for v in row) for row in _binder_rows()
        ]

    def test_single_node_cluster_and_row_store_hold_the_same_rows(self):
        single = Database().connect()
        single.execute(_DDL.split(" DISTRIBUTE")[0])
        single.execute(_INSERT)
        rowdb = RowDatabase()
        rowdb.execute(_DDL.split(" DISTRIBUTE")[0])
        rowdb.execute(_INSERT)
        cluster = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2)
        assert cluster.n_shards == 4
        session = cluster.connect()
        session.execute(_DDL)
        session.execute(_INSERT)
        select = "SELECT %s FROM v" % ", ".join(_NAMES)
        want = _typed(rowdb.execute(select).rows)
        assert _typed(single.execute(select).rows) == want
        assert _typed(session.execute(select).rows) == want
        # The DECIMAL key written -0.0 is Decimal('0.0'): it lands where that
        # value hashes, not where Decimal('-0.0') would.
        home = hash_value_to_shard(Decimal("0.0"), cluster.n_shards)
        assert home != hash_value_to_shard(Decimal("-0.0"), cluster.n_shards)
        held = {
            sid: shard.engine.connect().execute("SELECT i FROM v WHERE k = 0").rows
            for sid, shard in cluster.shards.items()
        }
        assert held.pop(home) == [(1,)] and all(rows == [] for rows in held.values())

    def test_a_column_list_fills_the_rest_with_null_on_both_engines(self):
        single = Database().connect()
        single.execute(_DDL.split(" DISTRIBUTE")[0])
        cluster = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2)
        session = cluster.connect()
        session.execute(_DDL)
        for system in (single, session):
            system.execute("INSERT INTO v (s, k) VALUES ('a', 1.5), ('b', -0.0)")
            assert sorted(system.execute("SELECT k, i, s FROM v").rows) == [
                (Decimal("0.0"), None, "b"), (Decimal("1.5"), None, "a"),
            ]  # fmt: skip
            with pytest.raises(SQLError, match="column NOPE not in table V"):
                system.execute("INSERT INTO v (nope) VALUES (1)")
