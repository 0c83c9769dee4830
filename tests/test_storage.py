"""Column tables, row tables, physical conversion."""

import datetime
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operators import TableScanOp
from repro.errors import ConstraintViolationError, SQLError
from repro.storage import ColumnTable, ColumnVector, RowTable, TableSchema
from repro.storage.column import to_boundary, to_physical
from repro.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    SMALLINT,
    TIMESTAMP,
    char_type,
    decimal_type,
    varchar_type,
)


def make_schema(name="t"):
    return TableSchema(
        name=name,
        columns=(
            ("id", INTEGER),
            ("amount", decimal_type(10, 2)),
            ("day", DATE),
            ("state", varchar_type(2)),
        ),
    )


def sample_rows(n=10):
    return [
        (i, Decimal("1.50") * i, datetime.date(2016, 1, 1) + datetime.timedelta(days=i), "ca" if i % 2 else "ny")
        for i in range(n)
    ]


class TestPhysicalConversion:
    def test_roundtrip_integers(self):
        arr, nulls = to_physical([1, None, 3], INTEGER)
        assert list(arr) == [1, 0, 3]
        assert list(nulls) == [False, True, False]
        assert to_boundary(arr, nulls, INTEGER) == [1, None, 3]

    def test_roundtrip_decimal_scaled(self):
        dt = decimal_type(10, 2)
        arr, nulls = to_physical([Decimal("12.34")], dt)
        assert arr[0] == 1234
        assert to_boundary(arr, None, dt) == [Decimal("12.34")]
        # An int (a VALUES row's integer literal) scales by the same 10**2.
        arr, nulls = to_physical([7, None, -3], dt)
        assert list(arr) == [700, 0, -300]
        assert to_boundary(arr, nulls, dt) == [Decimal("7.00"), None, Decimal("-3.00")]

    def test_roundtrip_dates(self):
        d = datetime.date(2016, 3, 1)
        arr, _ = to_physical([d], DATE)
        assert to_boundary(arr, None, DATE) == [d]

    def test_strings_stay_objects(self):
        arr, _ = to_physical(["ab", "cd"], varchar_type(5))
        assert arr.dtype == object

    def test_no_nulls_mask_is_none(self):
        _, nulls = to_physical([1, 2], INTEGER)
        assert nulls is None

    @pytest.mark.parametrize(
        "dt,value",
        [
            (INTEGER, 7), (decimal_type(8, 2), Decimal("1.50")), (DOUBLE, 2.5),
            (DATE, datetime.date(2016, 3, 1)), (varchar_type(4), "ab"), (BOOLEAN, True),
            (char_type(2), "x"), (TIMESTAMP, datetime.datetime(2016, 3, 1)),
        ],
    )  # fmt: skip
    def test_null_slots_hold_zero_or_the_empty_string(self, dt, value):
        """Whichever loop converts the column, the filler is the same."""
        array, nulls = to_physical([None, value, None], dt)
        assert nulls.tolist() == [True, False, True]
        filler = "" if dt.numpy_dtype is object else 0
        assert array.tolist()[0] == array.tolist()[2] == filler
        assert type(array.tolist()[0]) is type(array.tolist()[1])

    def test_a_generator_of_values_is_a_column_too(self):
        array, nulls = to_physical((v for v in (1, None, 3)), INTEGER)
        assert array.tolist() == [1, 0, 3] and nulls.tolist() == [False, True, False]

    def test_landing_stats_start_at_zero_and_count_values(self):
        from repro.storage.column import LandingStats, physical_column

        stats = LandingStats()
        assert (stats.values_typed, stats.values_cast, stats.batches) == (0, 0, 0)
        physical_column([1, None], INTEGER, stats)
        physical_column(["1", None, "2"], INTEGER, stats)
        physical_column([-(2**31), 2**31 - 1], INTEGER, stats)  # both bounds fit
        assert (stats.values_typed, stats.values_cast, stats.batches) == (4, 3, 0)


class TestColumnVector:
    def test_take_and_filter(self):
        v = ColumnVector.from_boundary([10, None, 30, 40], INTEGER)
        taken = v.take(np.array([2, 0]))
        assert taken.to_boundary() == [30, 10]
        filtered = v.filter(np.array([True, True, False, False]))
        assert filtered.to_boundary() == [10, None]

    def test_concat(self):
        a = ColumnVector.from_boundary([1, 2], INTEGER)
        b = ColumnVector.from_boundary([None], INTEGER)
        c = ColumnVector.concat([a, b])
        assert c.to_boundary() == [1, 2, None]
        # Coded parts whose dictionaries are no larger than their rows keep
        # those dictionaries and codes.
        x = ColumnVector.coded(INTEGER, np.array([1, 0]), np.array([5, 6]))
        y = ColumnVector.coded(INTEGER, np.array([0]), np.array([7]))
        xy = ColumnVector.concat([x, y])
        assert xy.dictionary.tolist() == [5, 6, 7]
        assert xy.codes.tolist() == [1, 0, 2]
        assert xy.to_boundary() == [6, 5, 7]

    def test_concat_empty_list_rejected(self):
        with pytest.raises(ValueError):
            ColumnVector.concat([])


class TestColumnTable:
    def test_insert_and_count(self):
        t = ColumnTable(make_schema())
        assert t.insert_rows(sample_rows(5)) == 5
        assert t.n_rows == 5

    def test_tail_seals_into_region(self):
        t = ColumnTable(make_schema(), region_rows=4)
        t.insert_rows(sample_rows(10))
        assert len(t.regions) == 2
        assert t.tail_rows == 2

    def test_flush(self):
        t = ColumnTable(make_schema())
        t.insert_rows(sample_rows(3))
        t.flush()
        assert t.tail_rows == 0
        assert len(t.regions) == 1

    def test_column_vector_roundtrip(self):
        t = ColumnTable(make_schema(), region_rows=4)
        rows = sample_rows(10)
        t.insert_rows(rows)
        got = t.column_vector("id").to_boundary()
        assert got == [r[0] for r in rows]
        states = t.column_vector("state").to_boundary()
        assert states == [r[3] for r in rows]

    def test_nulls_roundtrip_through_region(self):
        t = ColumnTable(make_schema(), region_rows=2)
        t.insert_rows([(1, None, None, None), (2, Decimal("3.00"), datetime.date(2016, 1, 1), "tx")])
        assert t.column_vector("amount").to_boundary() == [None, Decimal("3.00")]
        assert t.column_vector("day").to_boundary()[0] is None

    def test_wrong_arity_rejected(self):
        t = ColumnTable(make_schema())
        with pytest.raises(SQLError):
            t.insert_rows([(1, 2)])

    def test_deletes_region_and_tail(self):
        t = ColumnTable(make_schema(), region_rows=4)
        t.insert_rows(sample_rows(6))
        mask = np.zeros(6, dtype=bool)
        mask[0] = True   # region row
        mask[5] = True   # tail row
        assert t.apply_deletes(mask) == 2
        assert t.n_rows == 4
        live = t.live_mask()
        ids = t.column_vector("id").filter(live).to_boundary()
        assert ids == [1, 2, 3, 4]

    def test_delete_mask_size_checked(self):
        t = ColumnTable(make_schema())
        t.insert_rows(sample_rows(3))
        with pytest.raises(SQLError):
            t.apply_deletes(np.zeros(2, dtype=bool))

    def test_truncate(self):
        t = ColumnTable(make_schema(), region_rows=2)
        t.insert_rows(sample_rows(5))
        t.truncate()
        assert t.n_rows == 0
        assert len(t.regions) == 0

    def test_unique_constraint(self):
        t = ColumnTable(make_schema(), unique_columns=("id",))
        t.insert_rows(sample_rows(3))
        with pytest.raises(ConstraintViolationError):
            t.insert_rows([(1, Decimal("0.00"), datetime.date(2016, 1, 1), "ca")])

    def test_unique_allows_reuse_after_delete(self):
        t = ColumnTable(make_schema(), unique_columns=("id",))
        t.insert_rows(sample_rows(3))
        mask = np.array([True, False, False])
        t.apply_deletes(mask)
        t.insert_rows([(0, Decimal("0.00"), datetime.date(2016, 1, 1), "ca")])
        assert t.n_rows == 3

    def _unique_table(self):
        """ids 0..5: 0-3 sealed in a region, 4-5 in the tail; unique id, state."""
        t = ColumnTable(make_schema(), region_rows=4, unique_columns=("id", "state"))
        t.insert_rows(
            [(i, Decimal("1.00"), datetime.date(2016, 1, 1), "s%d" % i) for i in range(6)]
        )
        assert len(t.regions) == 1 and t.tail_rows == 2
        return t

    def _seen_is_exact(self, t):
        seen = {name: set(values) for name, values in t._unique_seen.items()}
        t._rebuild_unique_sets()
        assert seen == t._unique_seen

    def test_delete_forgets_exactly_the_tombstoned_unique_values(self):
        t = self._unique_table()
        row = lambda i, state: (i, Decimal("2.00"), datetime.date(2016, 1, 2), state)
        mask = np.zeros(6, dtype=bool)
        mask[[1, 5]] = True  # one region row, one tail row
        assert t.apply_deletes(mask, txid=7) == 2
        self._seen_is_exact(t)
        assert t._unique_seen["id"] == {0, 2, 3, 4}
        # An UPDATE re-inserts the keys it just tombstoned, same txn.
        t.insert_rows([row(1, "s1"), row(5, "s5")], txid=7)
        self._seen_is_exact(t)
        for taken in (row(0, "nw"), row(4, "nw"), row(1, "nw")):
            with pytest.raises(ConstraintViolationError):
                t.insert_rows([taken])
        # Deleting an already dead row again forgets nothing.
        assert t.apply_deletes(np.concatenate([mask, [False, False]])) == 0
        self._seen_is_exact(t)
        assert 1 in t._unique_seen["id"] and "s5" in t._unique_seen["state"]

    def test_aborted_delete_keeps_the_unique_value_taken(self):
        t = self._unique_table()
        mask = np.zeros(6, dtype=bool)
        mask[[2, 4]] = True
        t.apply_deletes(mask, txid=9)
        t.rollback_txn(9)
        self._seen_is_exact(t)
        for i in (2, 4):
            with pytest.raises(ConstraintViolationError):
                t.insert_rows([(i, Decimal("0.00"), datetime.date(2016, 1, 1), "zz")])

    def test_nulls_in_a_unique_column_are_never_seen(self):
        t = ColumnTable(make_schema(), region_rows=2, unique_columns=("id",))
        day = datetime.date(2016, 1, 1)
        t.insert_rows([(None, None, day, "a"), (1, None, day, "b"), (None, None, day, "c")])
        assert len(t.regions) == 1 and t.tail_rows == 1
        assert t.apply_deletes(np.array([True, False, True])) == 2  # both NULLs
        self._seen_is_exact(t)
        assert t._unique_seen["id"] == {1}
        t.insert_rows([(None, None, day, "d")])
        with pytest.raises(ConstraintViolationError):
            t.insert_rows([(1, None, day, "e")])

    @pytest.mark.parametrize("unique", [("id", "state"), ("id", "amount", "state")])
    def test_rejected_row_leaves_no_unique_value_behind(self, unique):
        t = ColumnTable(make_schema(), region_rows=4, unique_columns=unique)
        day = datetime.date(2016, 1, 1)
        t.insert_rows([(i, Decimal(i), day, "s%d" % i) for i in range(3)])
        # Fresh id (and amount), but the *last* unique column conflicts.
        with pytest.raises(ConstraintViolationError, match="state"):
            t.insert_rows([(7, Decimal(7), day, "s1")])
        self._seen_is_exact(t)
        assert 7 not in t._unique_seen["id"]
        # No rollback ran: the retry with a fresh last value just works.
        assert t.insert_rows([(7, Decimal(7), day, "s7")]) == 1
        self._seen_is_exact(t)
        assert t.n_rows == 4

    def test_failing_row_lands_nothing_of_its_batch(self):
        t = ColumnTable(make_schema(), region_rows=4, unique_columns=("id", "state"))
        day = datetime.date(2016, 1, 1)
        t.insert_rows([(0, Decimal(0), day, "s0")])
        batch = [(1, Decimal(1), day, "s1"), (2, Decimal(2), day, "s0"), (3, Decimal(3), day, "s3")]
        with pytest.raises(ConstraintViolationError, match="state"):
            t.insert_rows(batch)
        # Validation precedes landing: not even the good row 1 is there.
        assert t.n_rows == t.n_rows_physical() == 1
        assert t._unique_seen == {"id": {0}, "state": {"s0"}}
        self._seen_is_exact(t)
        with pytest.raises(SQLError, match="cannot cast"):
            t.insert_rows(batch[:1] + [("x", Decimal(9), day, "s9")])
        assert t.n_rows_physical() == 1 and t._unique_seen["id"] == {0}
        batch[1] = (2, Decimal(2), day, "s2")
        assert t.insert_rows(batch) == 3
        self._seen_is_exact(t)
        assert t.column_vector("id").to_boundary() == [0, 1, 2, 3]

    def test_not_null_constraint(self):
        t = ColumnTable(make_schema(), not_null_columns=("id",))
        with pytest.raises(ConstraintViolationError):
            t.insert_rows([(None, Decimal("1.00"), datetime.date(2016, 1, 1), "ca")])

    def test_compression_ratio_reported(self):
        t = ColumnTable(make_schema(), region_rows=1000)
        rows = [
            (i, Decimal("9.99"), datetime.date(2016, 1, 1), "ca")
            for i in range(2000)
        ]
        t.insert_rows(rows)
        assert t.compression_ratio() > 2.0

    def test_schema_duplicate_column_rejected(self):
        with pytest.raises(SQLError):
            TableSchema("bad", (("a", INTEGER), ("a", DOUBLE)))


class TestRowTable:
    def test_insert_scan(self):
        t = RowTable(make_schema())
        t.insert_rows(sample_rows(4))
        assert t.n_rows == 4
        assert len(list(t.scan())) == 4

    def test_index_lookup(self):
        t = RowTable(make_schema())
        t.insert_rows(sample_rows(100))
        t.create_index("id")
        assert t.index_lookup("id", 42) == [42]
        assert t.index_lookup("id", 4242) == []

    def test_index_range(self):
        t = RowTable(make_schema())
        t.insert_rows(sample_rows(50))
        t.create_index("id")
        assert sorted(t.index_range("id", 10, 12)) == [10, 11, 12]

    def test_index_range_on_dates(self):
        t = RowTable(make_schema())
        t.insert_rows(sample_rows(30))
        t.create_index("day")
        got = t.index_range("day", datetime.date(2016, 1, 3), datetime.date(2016, 1, 5))
        assert sorted(got) == [2, 3, 4]

    def test_delete_maintains_index(self):
        t = RowTable(make_schema())
        t.insert_rows(sample_rows(10))
        t.create_index("id")
        assert t.delete_ids([3]) == 1
        assert t.index_lookup("id", 3) == []
        assert t.n_rows == 9

    def test_update_in_place(self):
        t = RowTable(make_schema())
        t.insert_rows(sample_rows(5))
        t.create_index("state")
        t.update_row(0, {"state": "wa"})
        assert 0 in t.index_lookup("state", "wa")
        assert 0 not in t.index_lookup("state", "ny")

    def test_duplicate_index_rejected(self):
        t = RowTable(make_schema())
        t.create_index("id")
        with pytest.raises(SQLError):
            t.create_index("id")

    def test_truncate_resets_indexes(self):
        t = RowTable(make_schema())
        t.insert_rows(sample_rows(5))
        t.create_index("id")
        t.truncate()
        assert t.n_rows == 0
        assert t.index_lookup("id", 1) == []

    def test_column_store_compresses_better_than_row_store(self):
        # The multiplicative density effect from paper II.B.3.
        rows = [
            (i, Decimal("9.99"), datetime.date(2016, 1, 1), "ca")
            for i in range(5000)
        ]
        col = ColumnTable(make_schema(), region_rows=5000)
        col.insert_rows(rows)
        col.flush()
        row = RowTable(make_schema())
        row.insert_rows(rows)
        assert col.compressed_nbytes() < row.nbytes() / 5


class TestRegionVersionStamps:
    """Kill tests for surviving Region mutants (see BENCH_mutation.json)."""

    def _sealed_region(self, txid=0):
        table = ColumnTable(
            TableSchema(name="r", columns=(("id", INTEGER),)), region_rows=4
        )
        table.insert_rows([[i] for i in range(4)], txid=txid)
        return table.regions[0]

    def test_live_mask_sees_deletes_on_ancient_regions(self):
        # swap-xmin-xmax@src/repro/storage/table.py:95:11 survived:
        # short-circuiting live_mask on ``xmin is None`` instead of
        # ``xmax is None`` resurrects every deleted row of an
        # ancient-created region (the common bulk-load shape: all-zero
        # xmin is elided to None, then rows get deleted).
        region = self._sealed_region()
        assert region.xmin is None  # ancient creators are elided
        region.mark_deleted(np.array([True, False, False, False]))
        mask = region.live_mask()
        assert mask is not None
        assert mask.tolist() == [False, True, True, True]
        assert region.live_count() == 3

    def test_visible_mask_fast_path_keys_on_deleter_stamps(self):
        # swap-xmin-xmax@src/repro/storage/table.py:118:19 survived: the
        # "every deleter committed long ago" fast path keyed on xmin_hi
        # instead of xmax_hi treats an *in-flight* deleter as ancient
        # whenever the region's creators are ancient — the deleted row
        # vanishes from snapshots that should still see it.
        from repro.mvcc import Snapshot

        region = self._sealed_region()
        region.mark_deleted(np.array([True, False, False, False]), txid=7)
        # A snapshot from before the deleter began must see all 4 rows.
        assert region.visible_mask(Snapshot(high=5)) is None
        # A snapshot after the deleter committed must not see row 0.
        newer = region.visible_mask(Snapshot(high=8))
        assert newer is not None
        assert newer.tolist() == [False, True, True, True]
        # boundary@table.py:165 survived: the lowest in-flight txid *is* the
        # low-water mark — a deleter stamped with exactly it has not
        # committed, so `xmax_hi < lowater` must stay strict.
        assert region.visible_mask(Snapshot(high=9, active=(7,))) is None


# -- append_vectors: insert_rows for rows that are already physical ------------

_TEXT = st.text(alphabet="abcXYZ 09", max_size=6)
_TYPED_VALUES = [
    (INTEGER, st.integers(-(2**31), 2**31 - 1)),
    (BIGINT, st.integers(-(2**62), 2**62)),
    (SMALLINT, st.integers(-(2**15), 2**15 - 1)),
    (decimal_type(10, 2), st.decimals(-99999, 99999, places=2)),
    (DOUBLE, st.floats(allow_nan=False, allow_infinity=False, width=64)),
    (varchar_type(6), _TEXT),
    (char_type(6), _TEXT),
    (DATE, st.dates(datetime.date(1900, 1, 1), datetime.date(2100, 1, 1))),
    (TIMESTAMP, st.datetimes(datetime.datetime(1970, 1, 2), datetime.datetime(2100, 1, 1))),
    (BOOLEAN, st.booleans()),
]
_SCHEMA = TableSchema("v", tuple(("c%d" % i, dt) for i, (dt, _) in enumerate(_TYPED_VALUES)))


@st.composite
def _columns(draw):
    """One list of boundary values per _SCHEMA column: 0 rows up to three
    regions of 8, each column with no, some or only NULLs."""
    n = draw(st.integers(0, 20))
    columns = []
    for _, values in _TYPED_VALUES:
        nulls = draw(st.sampled_from(["none", "some", "all"]))
        element = {"none": values, "some": st.none() | values, "all": st.none()}[nulls]
        columns.append(draw(st.lists(element, min_size=n, max_size=n)))
    return columns


def _bytes(array):
    return array.tolist() if array.dtype == object else array.tobytes()


def _same_vector(a, b):
    assert a.dtype == b.dtype and a.values.dtype == b.values.dtype
    assert _bytes(a.values) == _bytes(b.values)
    assert (a.nulls is None) == (b.nulls is None)
    assert a.nulls is None or a.nulls.tobytes() == b.nulls.tobytes()


class TestAppendVectors:
    @settings(max_examples=60, deadline=None)
    @given(_columns())
    def test_equals_insert_rows(self, columns):
        by_rows = ColumnTable(_SCHEMA, region_rows=8)
        by_rows.insert_rows(list(zip(*columns)))
        by_rows.flush()
        by_vectors = ColumnTable(_SCHEMA, region_rows=8)
        n = by_vectors.append_vectors(
            [ColumnVector.from_boundary(c, dt) for c, (_, dt) in zip(columns, _SCHEMA.columns)]
        )
        assert n == len(columns[0]) == by_vectors.n_rows == by_rows.n_rows
        assert by_vectors.tail_rows == n % 8
        by_vectors.flush()
        assert by_vectors.raw_nbytes() == by_rows.raw_nbytes()
        assert by_vectors.compressed_nbytes() == by_rows.compressed_nbytes()
        assert [r.n_rows for r in by_vectors.regions] == [r.n_rows for r in by_rows.regions]
        names = _SCHEMA.column_names
        scans = [TableScanOp(t, names).run() for t in (by_vectors, by_rows)]
        for name in names:
            _same_vector(by_vectors.column_vector(name), by_rows.column_vector(name))
            if n:
                _same_vector(scans[0].columns[name], scans[1].columns[name])
            for got, want in zip(by_vectors.regions, by_rows.regions):
                assert got.column_raw_nbytes[name] == want.column_raw_nbytes[name]
                for field in ("mins", "maxs", "null_counts", "row_counts"):
                    a = getattr(got.synopses[name], field)
                    b = getattr(want.synopses[name], field)
                    assert a.dtype == b.dtype and _bytes(a) == _bytes(b)

    def test_regions_are_published_under_the_capture_lock(self):
        """A scan's capture() copies the region list and the tail prefix
        under the capture lock; a seal that swaps them outside it lets a
        concurrent capture see the sealed rows twice (or not at all)."""

        class Lock:
            held = False

            def __init__(self, inner):
                self.inner = inner

            def __enter__(self):
                self.inner.__enter__()
                self.held = True

            def __exit__(self, *exc):
                self.held = False
                return self.inner.__exit__(*exc)

        class Regions(list):
            held_at_append = []

            def append(self, region):
                self.held_at_append.append(lock.held)
                super().append(region)

        t = ColumnTable(make_schema(), region_rows=2)
        lock = t._capture_lock = Lock(t._capture_lock)
        t.regions = Regions()
        t.insert_rows(sample_rows(3))  # seals one region, one row in the tail
        t.append_vectors(self._vectors())  # fills the tail, then 2 more rows
        t.flush()
        assert Regions.held_at_append == [True] * 3
        assert [r.n_rows for r in t.regions] == [2, 2, 2]

    def test_lands_behind_the_tail(self):
        t = ColumnTable(make_schema(), region_rows=4)
        rows = sample_rows(6)
        t.insert_rows(rows[:2])
        vectors = [
            ColumnVector.from_boundary([r[i] for r in rows[2:]], dt)
            for i, (_, dt) in enumerate(t.schema.columns)
        ]
        assert t.append_vectors(vectors, txid=5) == 4
        # Same regions as six inserted rows: the tail is topped up, not sealed short.
        assert [r.n_rows for r in t.regions] == [4] and t.tail_rows == 2
        assert t.regions[0].xmin.tolist() == [0, 0, 5, 5]
        assert t._tail_xmin[:2].tolist() == [5, 5]
        assert t.column_vector("id").to_boundary() == [r[0] for r in rows]

    def _vectors(self, **replace):
        vectors = {
            name: ColumnVector.from_boundary([r[i] for r in sample_rows(3)], dt)
            for i, (name, dt) in enumerate(make_schema().columns)
        }
        vectors.update(replace)
        return list(vectors.values())

    def test_sql_type_mismatch_raises(self):
        t = ColumnTable(make_schema())
        wrong = ColumnVector.from_boundary(["ca", "ny", "tx"], varchar_type(3))
        with pytest.raises(SQLError, match="VARCHAR"):
            t.append_vectors(self._vectors(state=wrong))

    def test_numpy_dtype_mismatch_raises_rather_than_coerces(self):
        t = ColumnTable(make_schema())
        wrong = ColumnVector(INTEGER, np.arange(3, dtype=np.int32))
        with pytest.raises(SQLError, match="int32"):
            t.append_vectors(self._vectors(id=wrong))
        assert t.n_rows == 0

    def test_length_and_arity_mismatch_raise(self):
        t = ColumnTable(make_schema())
        short = ColumnVector.from_boundary([1, 2], INTEGER)
        with pytest.raises(SQLError, match="rows"):
            t.append_vectors(self._vectors(id=short))
        with pytest.raises(SQLError, match="vectors"):
            t.append_vectors(self._vectors()[:3])

    def test_not_null_checked_on_the_mask(self):
        t = ColumnTable(make_schema(), not_null_columns=("id",))
        with_null = ColumnVector.from_boundary([1, None, 3], INTEGER)
        with pytest.raises(ConstraintViolationError):
            t.append_vectors(self._vectors(id=with_null))
        assert t.append_vectors(self._vectors()) == 3

    def test_unique_columns_are_checked(self):
        t = ColumnTable(make_schema(), unique_columns=("id",))
        assert t.append_vectors(self._vectors()) == 3
        assert t._unique_seen["id"] == {0, 1, 2}
        with pytest.raises(ConstraintViolationError, match="duplicate value 0"):
            t.append_vectors(self._vectors())
        twice = ColumnVector.from_boundary([7, 8, 7], INTEGER)
        with pytest.raises(ConstraintViolationError, match="duplicate value 7"):
            t.append_vectors(self._vectors(id=twice))
        assert t.n_rows == 3 and t._unique_seen["id"] == {0, 1, 2}
        nulls = ColumnVector.from_boundary([None, 9, None], INTEGER)
        assert t.append_vectors(self._vectors(id=nulls)) == 3
        assert t._unique_seen["id"] == {0, 1, 2, 9}
