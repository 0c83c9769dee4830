"""One Result form: a query's answer is its column vectors, and its rows are
built from them once, on first read.

(i) rows built lazily equal, value for value in class and ``repr``, what the
eager builder they replace produced, over batches of every physical type —
so an answer's checksum cannot move; (ii) a result's vectors never alias
storage a later write can change; (iii) a result-cache hit hands out rows
the caller owns, and a cached entry pins no vectors.
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.database.result import result_from_batch
from repro.engine.expression import Batch
from repro.serving import ServingGateway
from repro.storage.column import ColumnVector, to_boundary
from repro.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    REAL,
    SMALLINT,
    TIME,
    TIMESTAMP,
    decimal_type,
    varchar_type,
)

# -- (i) lazy rows ≡ the eager builder ------------------------------------------

_DAY_MICROS = 86_400 * 10**6
_MIN_DAYS = (datetime.date(1, 1, 1) - datetime.date(1970, 1, 1)).days
_MAX_DAYS = (datetime.date(9999, 12, 31) - datetime.date(1970, 1, 1)).days
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 2.5, -2.5, 1e308, 5e-324, float("nan"), float("inf"), float("-inf")]
)

#: (type, strategy of its physical values).  The integer kinds draw their
#: bounds; DECIMAL is the scaled int64; DATE / TIME / TIMESTAMP are days,
#: seconds and microseconds from the epoch.
PHYSICAL = [
    (SMALLINT, st.integers(-(2**15), 2**15 - 1)),
    (INTEGER, st.integers(-(2**31), 2**31 - 1)),
    (BIGINT, st.integers(-(2**63), 2**63 - 1)),
    (decimal_type(10, 2), st.integers(-(10**10) + 1, 10**10 - 1)),
    (decimal_type(18, 0), st.integers(-(10**18) + 1, 10**18 - 1)),
    (decimal_type(31, 6), st.integers(-(2**63), 2**63 - 1)),
    (DOUBLE, _FLOATS),
    (REAL, _FLOATS),
    (BOOLEAN, st.integers(0, 1)),
    (DATE, st.integers(_MIN_DAYS, _MAX_DAYS)),
    (TIME, st.integers(0, 86_399)),
    (TIMESTAMP, st.integers(_MIN_DAYS * _DAY_MICROS, (_MAX_DAYS + 1) * _DAY_MICROS - 1)),
    (varchar_type(8), st.text(max_size=8)),
]


@st.composite
def _vectors(draw, n: int):
    """One vector of *n* rows of a drawn type: plain or dictionary-coded
    (strings), with no, some or only NULLs."""
    dtype, values = draw(st.sampled_from(PHYSICAL))
    nulls = draw(st.sampled_from(["none", "some", "all"]))
    mask = None
    if nulls == "all":
        mask = np.ones(n, dtype=bool)
    elif nulls == "some":
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    if dtype.is_string and draw(st.booleans()):
        dictionary = draw(st.lists(values, min_size=1, max_size=4))
        codes = draw(st.lists(st.integers(0, len(dictionary) - 1), min_size=n, max_size=n))
        array = np.empty(len(dictionary), dtype=object)
        array[:] = dictionary
        return ColumnVector.coded(dtype, np.array(codes, dtype=np.int64), array, mask)
    array = np.empty(n, dtype=dtype.numpy_dtype)
    array[:] = draw(st.lists(values, min_size=n, max_size=n))
    return ColumnVector(dtype, array, mask)


@st.composite
def _batches(draw):
    n = draw(st.integers(0, 6))
    vectors = draw(st.lists(_vectors(n), min_size=1, max_size=5))
    keys = ["c%d" % i for i in range(len(vectors))]
    return Batch.from_columns(dict(zip(keys, vectors))), keys


def _eager_rows(batch, keys, dtypes) -> list[tuple]:
    """The builder a result's rows came from before they were built on
    read: every column converted, then one tuple per row."""
    columns = []
    for key, dtype in zip(keys, dtypes):
        vector = batch.columns.get(key)
        columns.append([] if vector is None else to_boundary(vector.values, vector.nulls, dtype))
    n = batch.n if batch.columns else 0
    return [tuple(col[i] for col in columns) for i in range(n)]


def _same(got: list[tuple], want: list[tuple]) -> None:
    """Equal in class and ``repr`` value for value (NaN included)."""
    assert repr(got) == repr(want)
    assert [[type(v) for v in row] for row in got] == [[type(v) for v in row] for row in want]


class TestRowsOnRead:
    @settings(max_examples=300, deadline=None)
    @given(_batches())
    def test_rows_equal_the_eager_builder(self, drawn):
        batch, keys = drawn
        dtypes = [batch.columns[k].dtype for k in keys]
        result = result_from_batch(batch, keys, keys, dtypes)
        assert result.rowcount == batch.n
        assert [len(v) for v in result.vectors] == [batch.n] * len(keys)
        _same(result.rows, _eager_rows(batch, keys, dtypes))
        assert result.rows is result.rows  # built once, then kept

    def test_an_empty_batch_answers_typed_empty_vectors(self):
        dtypes = [INTEGER, varchar_type(3), decimal_type(9, 2)]
        result = result_from_batch(Batch({}, 0), ["a", "b", "c"], ["a", "b", "c"], dtypes)
        assert result.rows == [] and result.rowcount == 0
        assert [v.dtype for v in result.vectors] == dtypes
        assert [v.values.dtype for v in result.vectors] == [np.int64, object, np.int64]

    def test_rows_are_built_with_the_result_types(self):
        """The planned column type decides the boundary form (a DECIMAL's
        scale), as the eager builder's did, whatever the vector carries."""
        vector = ColumnVector(BIGINT, np.array([12345], dtype=np.int64))
        result = result_from_batch(
            Batch({"x": vector}, 1), ["x"], ["x"], [decimal_type(9, 2)]
        )
        assert repr(result.rows) == "[(Decimal('123.45'),)]"


# -- (ii) answers are the statement's snapshot, whenever they are read ----------

#: What runs between the SELECT and the first read of its rows.
_LATER = {
    "insert": ["INSERT INTO t VALUES (4, 'd'), (5, 'e')"],
    "update": ["UPDATE t SET k = k + 100, s = 'u'"],
    "delete": ["DELETE FROM t WHERE k < 3"],
    "truncate": ["TRUNCATE TABLE t IMMEDIATE", "INSERT INTO t VALUES (7, 'x'), (8, 'y'), (9, 'z')"],
    "flush": ["flush", "INSERT INTO t VALUES (7, 'x'), (8, 'y'), (9, 'z')"],
}


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("sealed", [False, True], ids=["tail", "sealed"])
@pytest.mark.parametrize("later", sorted(_LATER))
@pytest.mark.parametrize("sql,want", [
    ("SELECT k, s FROM t", [(1, "a"), (2, None), (3, "c")]),
    ("SELECT k, s FROM t WHERE k >= 2", [(2, None), (3, "c")]),
    ("SELECT k, s FROM t ORDER BY k DESC", [(3, "c"), (2, None), (1, "a")]),
])
def test_rows_read_after_a_write_are_the_statements_snapshot(
    parallelism, sealed, later, sql, want
):
    """Tail vectors are views of the table's typed tail arrays and sealed
    ones may be a region's decoded arrays: a result holding them must read
    the same rows after any later write or flush of the table."""
    db = Database(parallelism=parallelism)
    session = db.connect()
    session.execute("CREATE TABLE t (k INT, s VARCHAR(4))")
    session.execute("INSERT INTO t VALUES (1, 'a'), (2, NULL), (3, 'c')")
    table = db.catalog.get_table("T").table
    if sealed:
        table.flush()
    result = session.execute(sql)
    for step in _LATER[later]:
        if step == "flush":
            table.flush()
        else:
            session.execute(step)
    assert result.vectors is not None
    assert result.rows == want


# -- (iii) the result cache ------------------------------------------------------


def test_a_cache_hit_hands_out_rows_the_caller_owns_and_pins_no_vectors():
    db = Database()
    session = db.connect()
    session.execute("CREATE TABLE t (k INT, s VARCHAR(4))")
    session.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    gateway = ServingGateway(db)
    cache = gateway.result_cache
    sql = "SELECT k, s FROM t ORDER BY k"
    miss = cache.fetch(sql, session)
    assert not miss.hit and miss.result.vectors is not None
    (entry,) = cache._entries.values()
    assert entry.result.vectors is None
    first = cache.fetch(sql, session)
    assert first.hit and first.result.vectors is None
    first.result.rows.append((9, "z"))
    first.result.rows[0] = (0, "?")
    miss.result.rows.clear()
    second = cache.fetch(sql, session)
    assert second.hit and second.result.rows == [(1, "a"), (2, "b")]
    assert second.result.rows is not first.result.rows
    assert entry.result.rows == [(1, "a"), (2, "b")]
