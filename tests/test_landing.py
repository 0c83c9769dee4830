"""The columnar landing path: column conversion ≡ scalar conversion, one
batch ≡ many one-row batches ≡ the row-at-a-time load's recorded output,
and the typed tail's reader contract."""

from __future__ import annotations

import datetime
import json
import pickle
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.durability import DurabilityManager
from repro.durability.checkpoint import _rebuild_table, _table_state
from repro.errors import ConstraintViolationError, ConversionError, SQLError
from repro.mvcc import ANCIENT_TXID, Snapshot, visible_rows
from repro.storage import ColumnTable, ColumnVector, TableSchema
from repro.storage.column import (
    LandingStats,
    physical_column,
    to_boundary,
    to_physical,
    to_physical_scalar,
)
from repro.storage.filesystem import ClusterFileSystem
from repro.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DECFLOAT,
    DOUBLE,
    INTEGER,
    REAL,
    SMALLINT,
    TIME,
    TIMESTAMP,
    char_type,
    decimal_type,
    graphic_type,
    varchar_type,
)
from tests import make_landing_fixture as fixture

DATA = Path(__file__).parent / "data"

# -- (i) one column converter, proven equal to the per-value cast ---------------

STORABLE = [
    SMALLINT, INTEGER, BIGINT, decimal_type(10, 2), decimal_type(18, 0),
    decimal_type(31, 6), REAL, DOUBLE, DECFLOAT, varchar_type(5), varchar_type(0),
    char_type(4), graphic_type(3), BOOLEAN, DATE, TIME, TIMESTAMP,
]  # fmt: skip

_EDGES = [2**15, 2**31, 2**63, 10**17, 10**30]
INTS = st.integers(-300, 300) | st.sampled_from(
    [s * (e + d) for e in _EDGES for d in (-1, 0) for s in (1, -1)]
)
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 2.5, -2.5, 1e30, float("inf"), float("-inf"), float("nan")]
)
DECIMALS = st.decimals(allow_nan=False, allow_infinity=False, places=2, min_value=-10**6, max_value=10**6) | st.sampled_from(
    [Decimal(t) for t in (
        "0", "-0.00", "1.005", "2.675", "0.125", "-0.125", "1E+3", "1.5E-7", "12345678.9",
        "92233720368547758.07", "92233720368547758.08", "-92233720368547758.08",
        "1" * 29, "0." + "3" * 40, "NaN", "sNaN", "Infinity", "-Infinity",
    )]
)  # fmt: skip
TEXTS = st.sampled_from(
    ["", " ", "12", " 12 ", "-7", "1e3", "2.5", " 2.50 ", "abc", "NaN", "Infinity", "true",
     "2016-02-29", "2016-02-30", "2016/03/01", "10:30", "10:30:15", "2016-01-01 10:30:00",
     "abcde", "abcdef", "abcde   ", "ab   ", "x" * 9, "9" * 25]
) | st.text(alphabet="ab 19.", max_size=7)  # fmt: skip
DATES = st.dates(datetime.date(1, 1, 1), datetime.date(9999, 12, 31))
DATETIMES = st.datetimes(datetime.datetime(1900, 1, 1), datetime.datetime(2200, 1, 1))
TIMES = st.times()
CLASSES = [INTS, st.booleans(), FLOATS, DECIMALS, TEXTS, DATES, DATETIMES, TIMES]
#: Ints at the int64 edges, at scale 0 and at scale 18 (|v| * 10**18).
MIXED_DECIMAL_INTS = st.integers(-300, 300) | st.sampled_from(
    [s * (e + d) for e in (2**63, 9, 10) for d in (-1, 0, 1) for s in (1, -1)]
)


@st.composite
def typed_columns(draw):
    """A storable type and a column for it: one class throughout (with or
    without NULLs — the shape a typed loop takes or refuses whole) or a
    free mix of every class."""
    dt = draw(st.sampled_from(STORABLE))
    if draw(st.booleans()):
        element = draw(st.sampled_from(CLASSES))
    else:
        element = st.one_of(CLASSES)
    if draw(st.booleans()):
        element = st.none() | element
    return dt, draw(st.lists(element, max_size=6))


def _outcome(convert):
    """What a conversion did: its values, or the error as data."""
    try:
        return ("ok", convert())
    except Exception as error:  # lint-ok: broad-except (the error *is* the outcome)
        return ("error", type(error), getattr(error, "sqlstate", None), str(error))


def _scalar_column(values, dt):
    return [to_physical_scalar(v, dt) for v in values]


def _column_column(values, dt):
    array, nulls = to_physical(values, dt)
    assert array.dtype == dt.numpy_dtype and array.shape == (len(values),)
    if nulls is None:
        return array.tolist()
    assert nulls.any() and nulls.dtype == bool
    assert all(filler in (0, "") for filler in array[nulls].tolist())
    return [None if null else v for v, null in zip(array.tolist(), nulls.tolist())]


def _same(a, b) -> bool:
    """Equal, with NaN nowhere (it is never stored) and 0.0 == -0.0 told apart."""
    return repr(a) == repr(b)


class TestColumnConverterEqualsScalarCast:
    @settings(max_examples=400, deadline=None)
    @given(typed_columns())
    def test_same_values_or_same_first_error(self, column):
        dt, values = column
        want = _outcome(lambda: _scalar_column(values, dt))
        got = _outcome(lambda: _column_column(values, dt))
        assert _same(got, want), (dt, values)

    @settings(max_examples=150, deadline=None)
    @given(typed_columns(), st.booleans())
    def test_a_table_lands_the_column_or_raises_the_first_row_error(self, column, not_null):
        dt, values = column
        schema = TableSchema("p", (("k", INTEGER), ("v", dt)))
        constraint = ("v",) if not_null else ()
        rows = [(i, v) for i, v in enumerate(values)]
        batch = ColumnTable(schema, region_rows=4, not_null_columns=constraint)
        got = _outcome(lambda: batch.insert_rows(rows))
        singly = ColumnTable(schema, region_rows=4, not_null_columns=constraint)
        want = _outcome(lambda: sum(singly.insert_rows([row]) for row in rows))
        assert _same(got, want), (dt, values)
        if want[0] == "error":
            assert batch.n_rows_physical() == 0  # all or nothing
        else:
            assert fixture.digest(batch) == fixture.digest(singly)

    def test_natural_classes_take_the_typed_loop_and_everything_else_the_cast(self):
        today = datetime.date(2016, 6, 1)
        typed = [
            (SMALLINT, [1, None, -3]), (INTEGER, [2**31 - 1]), (BIGINT, [-(2**63)]),
            (decimal_type(8, 2), [Decimal("1.005"), None]), (DOUBLE, [1.5, float("inf")]),
            (REAL, [None]), (varchar_type(3), ["abc", ""]), (varchar_type(0), ["x" * 99]),
            (DATE, [today, None]), (INTEGER, []), (DATE, [None, None]),
            (decimal_type(8, 2), [1]), (decimal_type(8, 2), [Decimal("1.5"), None, -7]),
        ]  # fmt: skip
        cast = [
            (INTEGER, [1, True]), (INTEGER, ["7"]), (INTEGER, [1, 2.0]), (INTEGER, [2**31]),
            (SMALLINT, [-(2**15) - 1]), (decimal_type(8, 2), [True]), (decimal_type(8, 2), [1.5]),
            (DOUBLE, [1]), (DOUBLE, [Decimal(1)]), (varchar_type(3), ["abc   "]),
            (char_type(3), ["ab"]), (DATE, [datetime.datetime(2016, 6, 1, 12)]),
            (DATE, ["2016-06-01"]), (BOOLEAN, [True]), (TIMESTAMP, [datetime.datetime(2016, 6, 1)]),
        ]  # fmt: skip
        for dt, values in typed:
            stats = LandingStats()
            physical_column(values, dt, stats)
            assert (stats.values_typed, stats.values_cast) == (len(values), 0), (dt, values)
        for dt, values in cast:
            stats = LandingStats()
            try:
                physical_column(values, dt, stats)
            except ConversionError:
                pass  # a failed whole-column check is re-run by the cast, which raises
            assert (stats.values_typed, stats.values_cast) == (0, len(values)), (dt, values)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([decimal_type(18, 0), decimal_type(18, 18), decimal_type(31, 18),
                         decimal_type(10, 2)]),
        st.lists(st.none() | MIXED_DECIMAL_INTS | DECIMALS, max_size=6),
    )  # fmt: skip
    def test_mixed_int_and_decimal_columns_take_the_typed_loop(self, dt, values):
        # An integer literal in a VALUES row of a DECIMAL column is an int:
        # the typed loop scales it exactly, and a column that leaves int64
        # falls back to the cast, which raises the same first error.
        want = _outcome(lambda: _scalar_column(values, dt))
        got = _outcome(lambda: _column_column(values, dt))
        assert _same(got, want), (dt, values)
        if got[0] == "ok":  # only a column the cast rejects too leaves the typed loop
            stats = LandingStats()
            physical_column(values, dt, stats)
            assert (stats.values_typed, stats.values_cast) == (len(values), 0), (dt, values)

    def test_a_cluster_load_lands_store_sales_decimals_typed(self):
        from repro.cluster import Cluster, HardwareSpec
        from repro.workloads import tpcds

        data = tpcds.generate(scale=0.05, seed=11)
        prices = [row[5] for row in data.store_sales] + [row[6] for row in data.store_sales]
        assert any(p == p.to_integral_value() for p in prices)  # rendered "12": an int
        cluster = Cluster([HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2)
        tpcds.load_into(cluster.connect(), data)
        landings = [
            shard.engine.catalog.get_table("STORE_SALES").table.landing
            for shard in cluster.shards.values()
        ]
        assert sum(stats.values_typed for stats in landings) == 7 * len(data.store_sales)
        assert [stats.values_cast for stats in landings] == [0] * len(landings)

    @pytest.mark.parametrize(
        "dt,inside,outside",
        [
            (SMALLINT, [-(2**15), 2**15 - 1], [2**15]),
            (SMALLINT, [-(2**15), 2**15 - 1], [-(2**15) - 1]),
            (INTEGER, [-(2**31), 2**31 - 1], [2**31]),
            (BIGINT, [-(2**63), 2**63 - 1], [-(2**63) - 1]),
            (decimal_type(18, 2), [Decimal("92233720368547758.07")], [Decimal("92233720368547758.08")]),
            (decimal_type(18, 2), [Decimal("-92233720368547758.08")], [Decimal("-92233720368547758.09")]),
            (varchar_type(3), ["abc"], ["abcd"]),
        ],
    )  # fmt: skip
    def test_whole_column_check_boundaries(self, dt, inside, outside):
        array, _ = to_physical(inside, dt)
        assert array.tolist() == [to_physical_scalar(v, dt) for v in inside]
        with pytest.raises(ConversionError) as raised:
            to_physical(inside + outside, dt)
        with pytest.raises(ConversionError) as scalar:
            to_physical_scalar(outside[0], dt)
        assert str(raised.value) == str(scalar.value)


class TestFirstOffendingRowDecides:
    """A batch raises what a row-at-a-time load would have stopped at."""

    def _table(self, **constraints):
        schema = TableSchema(
            "o", (("id", INTEGER), ("amount", decimal_type(8, 2)), ("state", varchar_type(2)))
        )
        return ColumnTable(schema, region_rows=4, **constraints)

    def test_lowest_row_wins_across_columns(self):
        t = self._table()
        rows = [(1, Decimal(1), "ca"), (2, Decimal(2), "toolong"), ("x", Decimal(3), "ny")]
        with pytest.raises(ConversionError, match="too long"):
            t.insert_rows(rows)
        with pytest.raises(ConversionError, match="'x'"):
            t.insert_rows([rows[0], rows[2], rows[1]])
        assert t.n_rows_physical() == 0

    def test_within_a_row_the_leftmost_column_wins(self):
        t = self._table(not_null_columns=("amount",))
        with pytest.raises(ConversionError, match="'x'"):
            t.insert_rows([("x", None, "toolong")])
        with pytest.raises(ConstraintViolationError, match="AMOUNT|amount"):
            t.insert_rows([(1, None, "toolong")])

    def test_arity_is_checked_in_row_order_too(self):
        t = self._table()
        with pytest.raises(ConversionError, match="'x'"):
            t.insert_rows([("x", Decimal(1), "ca"), (1, 2)])
        with pytest.raises(SQLError, match="row has 2 values"):
            t.insert_rows([(1, Decimal(1), "ca"), (1, 2), ("x", Decimal(1), "ca")])
        assert t.n_rows_physical() == 0

    def test_duplicate_below_a_bad_value_of_the_same_unique_column(self):
        t = self._table(unique_columns=("id",))
        t.insert_rows([(5, None, None)])
        with pytest.raises(ConstraintViolationError, match="duplicate value 5"):
            t.insert_rows([(1, None, None), (5, None, None), ("x", None, None)])
        with pytest.raises(ConstraintViolationError, match="duplicate value 1"):
            t.insert_rows([(1, None, None), (1, None, None), ("x", None, None)])
        with pytest.raises(ConversionError, match="'x'"):
            t.insert_rows([(1, None, None), ("x", None, None), (1, None, None)])
        assert t._unique_seen == {"id": {5}} and t.n_rows_physical() == 1

    def test_unique_violation_against_a_conversion_error_in_a_later_row(self):
        t = self._table(unique_columns=("state",))
        with pytest.raises(ConstraintViolationError, match="duplicate value 'ca'"):
            t.insert_rows([(1, None, "ca"), (2, None, "ca"), ("x", None, "ny")])
        with pytest.raises(ConversionError, match="'x'"):
            t.insert_rows([(1, None, "ca"), ("x", None, "ny"), (2, None, "ca")])


# -- (ii) one batch ≡ many one-row batches ≡ the recorded row-at-a-time load -----


class TestSameRegionsSameBytes:
    RECORDED = json.loads((DATA / "landing_fixture.json").read_text())

    @pytest.mark.parametrize("n", fixture.BATCH_SIZES)
    def test_batch_and_single_rows_build_what_the_row_loop_built(self, n):
        rows = [fixture.row(fixture.TAIL_BEFORE + i) for i in range(n)]
        batch = fixture.fresh_table()
        assert batch.insert_rows(rows, txid=fixture.BATCH_TXID) == n
        singly = fixture.fresh_table()
        for row in rows:
            singly.insert_rows([row], txid=fixture.BATCH_TXID)
        by_vectors = fixture.fresh_table()
        by_vectors.append_vectors(
            [ColumnVector.from_boundary(column, dt)
             for column, (_, dt) in zip(zip(*rows), fixture.SCHEMA.columns)],
            txid=fixture.BATCH_TXID,
        )  # fmt: skip
        want = self.RECORDED[str(n)]
        for table in (batch, singly, by_vectors):
            got = json.loads(json.dumps(fixture.digest(table)))
            assert got == want
        assert (batch.landing.batches, singly.landing.batches) == (2, n + 1)
        total = fixture.TAIL_BEFORE + n
        assert len(batch.regions) == total // fixture.REGION_ROWS
        assert batch.tail_rows == total % fixture.REGION_ROWS


# -- (iii) the typed tail ------------------------------------------------------


def _int_table(**kwargs):
    schema = TableSchema("t", (("id", INTEGER), ("tag", varchar_type(4))))
    return ColumnTable(schema, **kwargs)


def _tail_rows(capture):
    ids, tags = capture.tail["id"], capture.tail["tag"]
    keep = range(capture.tail_rows)
    if capture.tail_mask is not None:
        keep = np.flatnonzero(capture.tail_mask).tolist()
    return [(ids.to_boundary()[i], tags.to_boundary()[i]) for i in keep]


class TestTypedTail:
    def test_a_capture_keeps_reading_its_prefix(self):
        t = _int_table(region_rows=64)
        t.insert_rows([(i, "t%d" % i) for i in range(3)])
        before = t.capture()
        want = [(0, "t0"), (1, "t1"), (2, "t2")]
        assert _tail_rows(before) == want
        t.insert_rows([(3, None)])  # an append
        assert _tail_rows(before) == want
        capacity = t._tail_values[0].size
        t.insert_rows([(10 + i, "g") for i in range(capacity)])  # a growth reallocation
        assert t._tail_values[0].size > capacity
        assert _tail_rows(before) == want
        t.apply_deletes(t.column_vector("id").values == 1, txid=9)  # a tombstone
        assert _tail_rows(before) == want
        now = _tail_rows(t.capture())
        assert now[:3] == [(0, "t0"), (2, "t2"), (3, None)] and len(now) == 3 + capacity
        t.flush()  # a seal swaps the arrays out from under the capture
        t.insert_rows([(99, "zz")] * 3)
        assert _tail_rows(before) == want
        t.truncate()
        assert _tail_rows(before) == want

    def test_captured_views_are_read_only(self):
        t = _int_table()
        t.insert_rows([(1, None), (2, "b")])
        capture = t.capture()
        for vector in capture.tail.values():
            with pytest.raises(ValueError, match="read-only"):
                vector.values[0] = vector.values[1]
        with pytest.raises(ValueError, match="read-only"):
            capture.tail["tag"].nulls[0] = False
        assert t.column_vector("id").values.flags.writeable  # a copy, the caller's own

    def test_rows_land_in_arrays_of_the_column_type(self):
        t = _int_table()
        t.insert_rows([(1, "a"), (None, None)], txid=5)
        assert [a.dtype for a in t._tail_values] == [np.int64, object]
        assert t._tail_xmin.dtype == t._tail_xmax.dtype == np.int64
        assert t._tail_xmin[:2].tolist() == [5, 5] and not t._tail_xmax[:2].any()
        assert t._tail_any_null == [True, True]
        assert t.tail_vector("id").nulls.tolist() == [False, True]

    def test_rollback_of_an_insert_and_a_delete(self):
        t = _int_table(region_rows=4)
        t.insert_rows([(i, "r%d" % i) for i in range(4)])  # region 0, ancient
        t.insert_rows([(i, "m%d" % i) for i in range(4, 9)], txid=8)  # region 1 + a tail row
        mask = np.zeros(9, dtype=bool)
        mask[0] = True
        t.apply_deletes(mask, txid=9)  # another transaction's delete
        mask[:] = False
        mask[[1, 5, 8]] = True  # an ancient row and two of txn 8's own
        assert t.apply_deletes(mask, txid=8) == 3
        assert t.n_rows == 5
        t.rollback_txn(8)
        first, second = t.regions
        assert first.xmin is None and first.xmax.tolist() == [9, 0, 0, 0]
        assert second.xmin.tolist() == [8] * 4 and second.xmax.tolist() == [ANCIENT_TXID] * 4
        assert second.xmax_hi >= ANCIENT_TXID
        assert t._tail_xmin[:1].tolist() == [8] and t._tail_xmax[:1].tolist() == [ANCIENT_TXID]
        assert t.n_rows == 3
        assert [r[0] for r in visible_rows(t, Snapshot(high=99))] == [1, 2, 3]
        t.rollback_txn(9)
        assert first.xmax.tolist() == [0, 0, 0, 0] and t.n_rows == 4

    def test_tail_capacity_doubles_from_sixteen_up_to_a_region(self):
        t = _int_table(region_rows=40)
        assert [a.size for a in t._tail_values + t._tail_nulls] == [0] * 4
        assert t._tail_xmin.size == t._tail_xmax.size == 0
        sizes = []
        for _ in range(40):
            t.insert_rows([(1, "a")])
            sizes.append(t._tail_xmax.size)
        # Full arrays are not grown; a seal starts from nothing again.
        assert sizes == [16] * 16 + [32] * 16 + [40] * 7 + [0]
        t.insert_rows([(1, "a")] * 33)  # a batch gets what it needs at once
        assert t._tail_values[0].size == t._tail_nulls[1].size == 33
        t.truncate()
        assert t._tail_values[0].size == 0

    def test_rows_may_come_from_a_generator(self):
        t = _int_table()
        assert t.insert_rows((i, None) for i in range(3)) == 3
        assert t.column_vector("id").to_boundary() == [0, 1, 2]

    def test_append_vectors_stamps_ancient_by_default(self):
        t = _int_table(region_rows=2)
        vectors = [t_.take(slice(None)) for t_ in (
            ColumnVector.from_boundary([1, 2, 3], INTEGER),
            ColumnVector.from_boundary(["a", None, "c"], varchar_type(4)),
        )]
        assert t.append_vectors(vectors) == 3
        assert t.regions[0].xmin is None and not t._tail_xmin[:1].any()
        assert t.landing.batches == 1

    def test_conflicting_tail_delete_stamps_nothing(self):
        from repro.errors import TransactionConflictError

        t = _int_table()
        t.insert_rows([(i, None) for i in range(4)])
        t.apply_deletes(np.array([False, True, False, False]), txid=5)
        with pytest.raises(TransactionConflictError, match="txn 5"):
            t.apply_deletes(np.array([True, True, True, False]), txid=6)
        assert t._tail_xmax[:4].tolist() == [0, 5, 0, 0]
        # The ancient txid (recovery) re-deletes silently.
        assert t.apply_deletes(np.array([True, True, False, False])) == 1

    def test_null_only_and_empty_string_columns(self):
        t = _int_table(region_rows=4)
        t.insert_rows([(None, "")] * 6)
        assert t.column_vector("id").to_boundary() == [None] * 6
        assert t.column_vector("tag").to_boundary() == [""] * 6
        assert t.regions[0].columns["id"].nulls.all()
        capture = t.capture()
        assert capture.tail["id"].nulls.tolist() == [True, True]
        assert capture.tail["tag"].nulls is None

    def test_tail_only_table_scans_and_counts(self):
        session = Database().connect()
        session.execute("CREATE TABLE z (a INT, b VARCHAR(3))")
        session.execute("INSERT INTO z VALUES (1, 'x'), (2, NULL), (3, 'x')")
        session.execute("DELETE FROM z WHERE a = 2")
        session.execute("UPDATE z SET b = 'y' WHERE a = 3")
        assert session.execute("SELECT a, b FROM z ORDER BY a").rows == [(1, "x"), (3, "y")]
        assert session.execute("SELECT COUNT(*) FROM z WHERE b = 'x'").scalar() == 1


class TestCheckpointKeepsItsEncoding:
    def _durable(self):
        fs = ClusterFileSystem()
        return Database(durability=DurabilityManager(fs, path="db")), fs

    def test_checkpoint_crash_recover_with_a_tail(self):
        db, _ = self._durable()
        s = db.connect()
        s.execute("CREATE TABLE c (k INT PRIMARY KEY, v DECIMAL(8,2), tag VARCHAR(4))")
        s.execute("INSERT INTO c VALUES (1, 1.50, 'a'), (2, NULL, ''), (3, 3.25, NULL)")
        s.execute("DELETE FROM c WHERE k = 2")
        db.checkpoint()
        s.execute("INSERT INTO c VALUES (4, 4.00, 'd')")
        db.reopen(clean=False)
        s = db.connect()
        table = db.catalog.get_table("C").table
        assert table.tail_rows == 4 and not table.regions
        assert table._tail_xmax[:4].tolist() == [0, ANCIENT_TXID, 0, 0]
        assert not table._tail_xmin[:4].any()
        assert s.execute("SELECT k, v, tag FROM c ORDER BY k").rows == [
            (1, Decimal("1.50"), "a"), (3, Decimal("3.25"), None), (4, Decimal("4.00"), "d"),
        ]  # fmt: skip
        assert table._unique_seen == {"K": {1, 3, 4}}
        s.execute("INSERT INTO c VALUES (2, 2.00, 'b')")  # the deleted key is free again
        with pytest.raises(ConstraintViolationError):
            s.execute("INSERT INTO c VALUES (4, 0, 'x')")

    def test_the_tail_is_written_in_the_list_form(self):
        t = _int_table(region_rows=64)
        t.insert_rows([(1, "a"), (None, None), (3, "")], txid=5)
        t.apply_deletes(np.array([True, False, False]), txid=6)
        state = _table_state("PUBLIC", t)
        assert state["tail"] == [[1, None, 3], ["a", None, ""]]
        assert state["tail_xmin"] == [5, 5, 5] and state["tail_xmax"] == [6, 0, 0]
        assert all(type(v) is int for v in state["tail_xmin"] + [1, 3])
        assert state["tail_rows"] == 3
        again = _rebuild_table(pickle.loads(pickle.dumps(state)))
        assert again.column_vector("id").to_boundary() == [1, None, 3]
        assert again.column_vector("tag").to_boundary() == ["a", None, ""]
        assert again.live_mask().tolist() == [False, True, True]

    def test_an_image_written_by_the_row_loop_still_loads(self):
        """``checkpoint_table.pkl``: one table blob as commit 84a552f wrote it."""
        state = pickle.loads((DATA / "checkpoint_table.pkl").read_bytes())
        assert isinstance(state["tail"][0], list) and isinstance(state["tail_xmax"], list)
        table = _rebuild_table(state)
        expected = [fixture.row(i) for i in range(fixture.TAIL_BEFORE + 9)]
        for at, (name, dt) in enumerate(fixture.SCHEMA.columns):
            vector = table.column_vector(name)
            nulls = vector.null_mask().tolist()
            got = [None if null else v for v, null in zip(vector.values.tolist(), nulls)]
            assert got == _scalar_column([r[at] for r in expected], dt)
        live = [True] * 12
        live[2] = live[-1] = False
        assert table.live_mask().tolist() == live
        assert [r.n_rows for r in table.regions] == [8] and table.tail_rows == 4
        # ...and what it writes back is byte for byte what it read.
        assert pickle.dumps(_table_state("PUBLIC", table)["tail"]) == pickle.dumps(state["tail"])

    def test_an_image_from_before_mvcc_has_no_stamps(self):
        state = pickle.loads((DATA / "checkpoint_table.pkl").read_bytes())
        del state["tail_xmin"], state["tail_xmax"]
        table = _rebuild_table(state)
        assert table.live_mask().tolist()[8:] == [True] * 4

    def test_checkpoint_bytes_do_not_depend_on_how_the_rows_arrived(self):
        sizes = []
        for batches in ([0, 40], [0, 1, 2, 3, 40], list(range(41))):
            db, fs = self._durable()
            s = db.connect()
            s.execute("CREATE TABLE c (k INT, v DECIMAL(8,2), tag VARCHAR(4))")
            table = db.catalog.get_table("C").table
            rows = [(i, Decimal(i) / 4, "t%d" % (i % 3)) for i in range(40)]
            for lo, hi in zip(batches, batches[1:]):
                table.insert_rows(rows[lo:hi])
            db.checkpoint()
            sizes.append(fs.used_bytes())
        assert len(set(sizes)) == 1


def test_to_physical_round_trips_through_to_boundary():
    values = [Decimal("1.25"), None, Decimal("-3.00")]
    array, nulls = to_physical(values, decimal_type(8, 2))
    assert to_boundary(array, nulls, decimal_type(8, 2)) == values
