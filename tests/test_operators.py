"""Scan (with skipping + compressed predicates), filter, project, limit."""

import contextlib
import datetime
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Batch,
    ColumnRef,
    Compare,
    FilterOp,
    LimitOp,
    Literal,
    ProjectOp,
    SimplePredicate,
    TableScanOp,
    VectorSourceOp,
)
from repro.engine import operators
from repro.engine.expression import make_arith
from repro.mvcc.txn import TxnManager, visible_rows
from repro.parallel import WorkerPool
from repro.storage import ColumnTable, TableSchema
from repro.storage.column import ColumnVector
from repro.types import DATE, INTEGER, varchar_type
from repro.types.values import date_to_days


def build_table(n=5000, region_rows=2000, stride=100, flush=True):
    schema = TableSchema(
        "sales",
        (
            ("id", INTEGER),
            ("day", DATE),
            ("state", varchar_type(2)),
            ("qty", INTEGER),
        ),
    )
    t = ColumnTable(schema, region_rows=region_rows, synopsis_stride=stride)
    base = datetime.date(2010, 1, 1)
    rows = []
    for i in range(n):
        rows.append(
            (
                i,
                base + datetime.timedelta(days=i // 10),
                ["ca", "ny", "tx", "wa"][i % 4],
                i % 100,
            )
        )
    t.insert_rows(rows)
    if flush:
        t.flush()
    return t


class TestTableScan:
    def test_full_scan(self):
        t = build_table(n=100, region_rows=40)
        scan = TableScanOp(t, ["id"])
        batch = scan.run()
        assert batch.n == 100
        assert sorted(batch.columns["id"].values.tolist()) == list(range(100))

    def test_pushed_equality(self):
        t = build_table()
        scan = TableScanOp(t, ["id", "qty"], pushed=[SimplePredicate("id", "=", 4321)])
        batch = scan.run()
        assert batch.n == 1
        assert batch.columns["qty"].values[0] == 4321 % 100

    def test_data_skipping_on_date(self):
        t = build_table()
        # Last ~10 days of data only: most extents skippable on sorted day.
        lo = date_to_days(datetime.date(2011, 5, 1))
        scan = TableScanOp(t, ["id"], pushed=[SimplePredicate("day", ">=", lo)])
        batch = scan.run()
        expected = [i for i in range(5000) if i // 10 >= (datetime.date(2011, 5, 1) - datetime.date(2010, 1, 1)).days]
        assert batch.n == len(expected)
        assert scan.stats.extents_skipped > scan.stats.extents_total * 0.5

    def test_skipping_disabled_scans_everything(self):
        t = build_table()
        lo = date_to_days(datetime.date(2011, 5, 1))
        scan = TableScanOp(
            t, ["id"], pushed=[SimplePredicate("day", ">=", lo)], use_skipping=False
        )
        scan.run()
        assert scan.stats.extents_skipped == 0

    def test_between_pushdown(self):
        t = build_table()
        scan = TableScanOp(
            t, ["id"], pushed=[SimplePredicate("id", "BETWEEN", (100, 110))]
        )
        assert scan.run().n == 11

    def test_in_pushdown(self):
        t = build_table()
        scan = TableScanOp(
            t, ["id"], pushed=[SimplePredicate("state", "IN", ["ca", "tx"])]
        )
        assert scan.run().n == 2500

    def test_conjunctive_pushdown(self):
        t = build_table()
        scan = TableScanOp(
            t,
            ["id"],
            pushed=[
                SimplePredicate("state", "=", "ca"),
                SimplePredicate("qty", "<", 10),
            ],
        )
        batch = scan.run()
        expected = [i for i in range(5000) if i % 4 == 0 and i % 100 < 10]
        assert sorted(batch.columns["id"].values.tolist()) == expected

    def test_residual_predicate(self):
        t = build_table(n=200, region_rows=100)
        residual = Compare(
            "=",
            make_arith("%", ColumnRef("id", INTEGER), Literal(7, INTEGER)),
            Literal(0, INTEGER),
        )
        scan = TableScanOp(t, ["id"], residual=residual)
        batch = scan.run()
        assert sorted(batch.columns["id"].values.tolist()) == [i for i in range(200) if i % 7 == 0]

    def test_tail_rows_scanned(self):
        t = build_table(n=100, region_rows=70, flush=False)  # 70 sealed + 30 tail
        assert t.tail_rows == 30
        scan = TableScanOp(t, ["id"], pushed=[SimplePredicate("id", ">=", 95)])
        assert scan.run().n == 5

    def test_deleted_rows_invisible(self):
        t = build_table(n=100, region_rows=50)
        mask = np.zeros(100, dtype=bool)
        mask[10:20] = True
        t.apply_deletes(mask)
        scan = TableScanOp(t, ["id"])
        ids = sorted(scan.run().columns["id"].values.tolist())
        assert len(ids) == 90
        assert 15 not in ids

    def test_stride_emission(self):
        t = build_table(n=1000, region_rows=1000)
        scan = TableScanOp(t, ["id"], stride_rows=128)
        batches = list(scan.execute())
        assert all(b.n <= 128 for b in batches)
        assert sum(b.n for b in batches) == 1000

    def test_compressed_vs_decoded_eval_agree(self):
        t = build_table()
        pushed = [SimplePredicate("qty", ">=", 50)]
        fast = TableScanOp(t, ["id"], pushed=pushed).run()
        slow = TableScanOp(t, ["id"], pushed=pushed, use_compressed_eval=False).run()
        assert sorted(fast.columns["id"].values.tolist()) == sorted(
            slow.columns["id"].values.tolist()
        )

    def test_page_source_hook(self):
        t = build_table(n=100, region_rows=50)
        fetches = []

        def page_source(table, column, region, loader):
            fetches.append((table, column, region))
            return loader()

        TableScanOp(
            t, ["id"], pushed=[SimplePredicate("qty", ">", -1)], page_source=page_source
        ).run()
        assert ("sales", "qty", 0) in fetches
        assert ("sales", "id", 1) in fetches


class TestFilterProjectLimit:
    def make_source(self, n=10):
        from repro.storage.column import ColumnVector

        batch = Batch.from_columns(
            {"v": ColumnVector.from_boundary(list(range(n)), INTEGER)}
        )
        return VectorSourceOp(batch)

    def test_filter(self):
        op = FilterOp(self.make_source(), Compare(">", ColumnRef("v", INTEGER), Literal(6, INTEGER)))
        assert op.run().columns["v"].values.tolist() == [7, 8, 9]

    def test_project(self):
        op = ProjectOp(
            self.make_source(3),
            [("double_v", make_arith("*", ColumnRef("v", INTEGER), Literal(2, INTEGER)))],
        )
        batch = op.run()
        assert list(batch.columns) == ["double_v"]
        assert batch.columns["double_v"].values.tolist() == [0, 2, 4]

    def test_limit(self):
        op = LimitOp(self.make_source(10), limit=3)
        assert op.run().columns["v"].values.tolist() == [0, 1, 2]

    def test_limit_with_offset(self):
        op = LimitOp(self.make_source(10), limit=3, offset=5)
        assert op.run().columns["v"].values.tolist() == [5, 6, 7]

    def test_offset_beyond_input(self):
        op = LimitOp(self.make_source(5), limit=3, offset=10)
        assert op.run().n == 0

    def test_limit_none_means_offset_only(self):
        op = LimitOp(self.make_source(5), limit=None, offset=2)
        assert op.run().columns["v"].values.tolist() == [2, 3, 4]

    def test_limit_across_batches(self):
        t = build_table(n=300, region_rows=100)
        op = LimitOp(TableScanOp(t, ["id"]), limit=150)
        assert op.run().n == 150

    def test_batch_validation(self):
        from repro.storage.column import ColumnVector

        with pytest.raises(ValueError):
            Batch.from_columns(
                {
                    "a": ColumnVector.from_boundary([1], INTEGER),
                    "b": ColumnVector.from_boundary([1, 2], INTEGER),
                }
            )


# -- a sparse selection is row ids: positions == mask at the scan ---------------

STAT_FIELDS = (
    "regions_scanned", "extents_total", "extents_skipped", "rows_scanned",
    "rows_matched", "pages_read", "bytes_scanned", "raw_bytes_scanned",
)


@contextlib.contextmanager
def forced_dense():
    """Every selection a mask: no hit count is under a density of zero."""
    saved = operators.POSITIONS_MAX_DENSITY
    operators.POSITIONS_MAX_DENSITY = 0.0
    try:
        yield
    finally:
        operators.POSITIONS_MAX_DENSITY = saved


def run_scan(table, columns, pushed, residual=None, snapshot=None, pool=None, **options):
    """``(rows in emission order, the eight accounting counters, ScanStats)``."""
    fetches = []

    def page_source(name, column, region_idx, loader):
        fetches.append((column, region_idx))
        return loader()

    scan = TableScanOp(
        table, columns, pushed=pushed, residual=residual, pool=pool,
        page_source=page_source, **options
    )
    scan.open(snapshot)
    rows = []
    for batch in scan.execute():
        assert set(batch.columns) >= set(columns)
        rows.extend(zip(*(batch.columns[c].to_boundary() for c in columns)))
    counters = tuple(getattr(scan.stats, f) for f in STAT_FIELDS)
    return rows, counters + (sorted(fetches),), scan.stats


MVCC_SCHEMA = TableSchema(
    "facts",
    (("id", INTEGER), ("u", INTEGER), ("k", INTEGER), ("s", varchar_type(4)), ("v", INTEGER)),
)


def build_mvcc_table(rng, region_rows, stride, n_regions, tail_rows):
    """Sealed regions + tail over sorted ``id`` (so synopses skip) and
    shuffled ``u`` (so they cannot), NULL-heavy ``k`` / ``s``; one region
    all-NULL in ``k``; rows deleted by a committed
    transaction, by one still in flight, and a region inserted by one still
    in flight.  Returns the table and the snapshots worth reading under."""
    mgr = TxnManager("selection-forms")
    table = ColumnTable(MVCC_SCHEMA, region_rows=region_rows, synopsis_stride=stride)
    n = region_rows * n_regions + tail_rows
    ids = np.sort(rng.integers(0, n // 2 + 1, n)).tolist()
    shuffled = rng.permutation(n).tolist()

    def row(i):
        all_null_region = i // region_rows == 1
        k = None if all_null_region or rng.random() < 0.4 else int(rng.integers(0, 6))
        s = None if rng.random() < 0.5 else "s%d" % rng.integers(0, 4)
        return (ids[i], shuffled[i], k, s, int(rng.integers(-50, 50)))

    rows = [row(i) for i in range(n)]
    sealed = region_rows * (n_regions - 1)
    loader = mgr.begin()
    loader.insert(table, rows[:sealed])
    loader.commit()
    table.flush()
    before_deletes = mgr.snapshot()
    committed = mgr.begin()
    committed.delete(table, rng.random(table.n_rows_physical()) < 0.15)
    committed.commit()
    after_commit = mgr.snapshot()
    in_flight = mgr.begin()
    mask = (rng.random(table.n_rows_physical()) < 0.15) & table.visible_mask(in_flight.snapshot)
    in_flight.delete(table, mask)
    late = mgr.begin()  # its region seals with in-flight xmin stamps
    late.insert(table, rows[sealed : sealed + region_rows])
    table.flush()
    tail_writer = mgr.begin()
    tail_writer.insert(table, rows[sealed + region_rows :])
    tail_writer.commit()
    snapshots = [None, before_deletes, after_commit, mgr.snapshot(), late.snapshot]
    return table, snapshots, ids


def random_pushed(rng, ids, region_rows):
    """One to three pushed predicates; the lead is selective two times in three."""
    def some_id():
        return int(ids[rng.integers(0, len(ids))])

    def two_ends_of_a_region():
        # both ids in one region, far apart: the window spans the skipped
        # extents between them, and the hits in it are few
        first = int(rng.integers(0, 3)) * region_rows
        near, far = int(rng.integers(0, 8)), region_rows - 1 - int(rng.integers(0, 8))
        return [ids[first + near], ids[first + far]]

    selective = [
        lambda: SimplePredicate("id", "=", some_id()),
        lambda: SimplePredicate("id", "IN", two_ends_of_a_region()),
        lambda: SimplePredicate("id", "BETWEEN", (lo := some_id(), lo + int(rng.integers(0, 12)))),
        lambda: SimplePredicate("u", "=", int(rng.integers(0, len(ids)))),
        lambda: SimplePredicate("u", "IN", rng.integers(-5, len(ids) + 5, 4).tolist()),
        lambda: SimplePredicate("u", "BETWEEN", (lo := int(rng.integers(0, len(ids))), lo + 3)),
        lambda: SimplePredicate("s", "=", "zz"),
    ]
    broad = [
        lambda: SimplePredicate("id", str(rng.choice(["<", "<=", ">", ">=", "<>"])), some_id()),
        lambda: SimplePredicate("u", str(rng.choice(["<", ">=", "<>"])), int(rng.integers(0, len(ids)))),
        lambda: SimplePredicate("k", str(rng.choice(["=", "<>", "<", ">="])), int(rng.integers(-1, 7))),
        lambda: SimplePredicate("s", "=", "s%d" % rng.integers(0, 4)),
        lambda: SimplePredicate("k", "IS NULL"),
        lambda: SimplePredicate("s", "IS NOT NULL"),
        lambda: SimplePredicate("v", ">=", int(rng.integers(-50, 50))),
    ]
    pick = lambda pool: pool[rng.integers(0, len(pool))]()
    lead = pick(selective if rng.random() < 2 / 3 else broad)
    return [lead] + [pick(selective + broad) for _ in range(rng.integers(0, 3))]


class TestSelectionForms:
    @settings(max_examples=int(os.environ.get("REPRO_SCAN_EXAMPLES", "30")), deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        region_rows=st.sampled_from([96, 160, 250]),
        stride=st.sampled_from([16, 32]),
        tail_rows=st.integers(0, 30),
    )
    def test_property_positions_scan_equals_dense_scan(self, seed, region_rows, stride, tail_rows):
        # hypothesis draws the shape and a seed; the seed's stream draws the
        # rest, so a derandomised run still sees varied predicates
        rng = np.random.default_rng(seed)
        table, snapshots, ids = build_mvcc_table(
            rng, region_rows, stride, n_regions=3, tail_rows=tail_rows
        )
        column_sets = [["id"], ["u", "s"], ["s", "k", "v", "id"]]
        pool = WorkerPool(parallelism=4)
        for _ in range(6):
            pushed = random_pushed(rng, ids, region_rows)
            columns = column_sets[rng.integers(0, 3)]
            residual = None
            if rng.random() < 0.5:
                residual = Compare(">", ColumnRef("v", INTEGER), Literal(-10, INTEGER))
            snapshot = snapshots[rng.integers(0, len(snapshots))]
            got = run_scan(table, columns, pushed, residual, snapshot)
            with forced_dense():
                dense = run_scan(table, columns, pushed, residual, snapshot)
                assert dense[2].regions_positional == 0
            assert got[:2] == dense[:2], (pushed, columns, snapshot)
            parallel = run_scan(table, columns, pushed, residual, snapshot, pool=pool)
            assert parallel[:2] == dense[:2], (pushed, columns, snapshot)
            for ablation in ({"use_skipping": False}, {"use_compressed_eval": False}):
                assert run_scan(table, columns, pushed, residual, snapshot, **ablation)[0] == dense[0]
            if snapshot is not None:  # and both equal the row-at-a-time oracle
                names = list(MVCC_SCHEMA.column_names)
                expected = [
                    tuple(r[names.index(c)] for c in columns)
                    for r in visible_rows(table, snapshot)
                    if all(p.eval_row_value(r[names.index(p.column)]) for p in pushed)
                    and (residual is None or r[names.index("v")] > -10)
                ]
                assert got[0] == expected, (pushed, columns)

    @pytest.mark.parametrize("hits, form", [(39, "positions"), (40, "mask")])
    def test_switch_sits_at_one_sixteenth_of_the_window(self, hits, form):
        # one region of 640 rows: 40 hits is a density of exactly 1/16
        n = 640
        schema = TableSchema("t", (("id", INTEGER), ("flag", INTEGER)))
        table = ColumnTable(schema, region_rows=n, synopsis_stride=64)
        marked = set(range(5, 5 + 16 * hits, 16))
        table.insert_rows([(i, 1 if i in marked else 0) for i in range(n)])
        table.flush()
        pushed = [SimplePredicate("flag", "=", 1)]
        rows, counters, stats = run_scan(table, ["id"], pushed)
        assert [r[0] for r in rows] == sorted(marked)
        assert stats.regions_positional == (1 if form == "positions" else 0)
        # rows unpacked: the hits alone, or the whole region
        assert stats.rows_decoded == (hits if form == "positions" else n)
        with forced_dense():
            assert run_scan(table, ["id"], pushed)[:2] == (rows, counters)

    def test_holes_inside_the_window_stay_excluded(self):
        # ids 0..999 in one region, 10 extents; IN (50, 950) keeps extents
        # 0 and 9, and the kernel runs over the window between them.  The
        # second id is also present in a skipped extent's row via `other`.
        schema = TableSchema("t", (("id", INTEGER), ("other", INTEGER)))
        table = ColumnTable(schema, region_rows=1000, synopsis_stride=100)
        table.insert_rows([(i, 50 if i == 500 else i) for i in range(1000)])
        table.flush()
        pushed = [SimplePredicate("id", "IN", [50, 950]), SimplePredicate("other", ">=", 0)]
        rows, counters, stats = run_scan(table, ["id", "other"], pushed)
        assert rows == [(50, 50), (950, 950)]
        assert stats.extents_skipped == 8 and stats.rows_scanned == 200
        assert stats.regions_positional == 1 and stats.rows_decoded == 2 + 2 * 2
        with forced_dense():
            assert run_scan(table, ["id", "other"], pushed)[:2] == (rows, counters)
        # 500 lies inside extent 5's min/max of `other` but no row holds it:
        # the emptied selection stops the region before `id` is fetched
        rows, counters, stats = run_scan(
            table, ["id"], [SimplePredicate("other", "=", 500), SimplePredicate("id", ">=", 0)]
        )
        assert rows == [] and stats.extents_skipped == 9
        assert stats.pages_read == 1 and stats.regions_positional == 1
        with forced_dense():
            assert run_scan(
                table, ["id"], [SimplePredicate("other", "=", 500), SimplePredicate("id", ">=", 0)]
            )[:2] == (rows, counters)

    def test_sanitizer_checks_the_positional_selection(self, monkeypatch):
        from repro.verify import sanitizer

        good = np.array([0, 3, 9], dtype=np.int64)
        sanitizer.check_positions(good, 10, 3)
        sanitizer.check_positions(good[:0], 10, 0)
        for bad in (good.astype(np.int32), np.array([3, 3], dtype=np.int64),
                    np.array([4, 2], dtype=np.int64), np.array([0, 10], dtype=np.int64),
                    np.array([-1, 2], dtype=np.int64)):
            with pytest.raises(sanitizer.VectorInvariantError):
                sanitizer.check_positions(bad, 10, bad.size)
        with pytest.raises(sanitizer.VectorInvariantError, match="2 rows emitted for 3"):
            sanitizer.check_positions(good, 10, 2)
        # at the scan boundary: a kernel that hands back unsorted ids is caught
        monkeypatch.setattr(sanitizer, "ENABLED", True)
        table = build_table(n=400, region_rows=400)
        pushed = [SimplePredicate("id", "IN", [7, 300])]
        assert TableScanOp(table, ["id"], pushed=pushed).run().n == 2
        from repro.compression.codec import CompressedColumn

        monkeypatch.setattr(
            CompressedColumn, "words_positions",
            lambda self, words: np.array([300, 7], dtype=np.int64),
        )
        with pytest.raises(sanitizer.VectorInvariantError, match="strictly increasing"):
            TableScanOp(table, ["id"], pushed=pushed).run()


class TestSimplePredicateOperators:
    """One comparison per evaluation — and the right one."""

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_eval_vector_and_row_value_agree_with_python(self, op):
        import operator as py

        truth = {"=": py.eq, "<>": py.ne, "<": py.lt, "<=": py.le, ">": py.gt, ">=": py.ge}[op]
        values = [3, None, 5, 7, 5]
        vector = ColumnVector.from_boundary(values, INTEGER)
        pred = SimplePredicate("x", op, 5)
        expected = [v is not None and truth(v, 5) for v in values]
        assert pred.eval_vector(vector).tolist() == expected
        assert [pred.eval_row_value(v) for v in values] == expected

    def test_only_the_requested_comparison_runs(self):
        class Once:
            """Supports ``==`` alone: any other comparison is a TypeError."""

            def __eq__(self, other):
                return True

            __hash__ = None

        assert SimplePredicate("x", "=", 1).eval_row_value(Once()) is True
        strings = ColumnVector.from_boundary(["a", "b", None], varchar_type(2))
        assert SimplePredicate("x", "<", "b").eval_vector(strings).tolist() == [True, False, False]


class TestRunHandsBackTheLoneBatch:
    """``Operator.run()`` returns a lone batch as it is — a source's own
    arrays — so every consumer must build new vectors, never write into
    the batch it drained.  The sources here hand out read-only arrays: a
    consumer that wrote in place would raise, at DOP 1 and at DOP 4."""

    STATEMENTS = [
        "SELECT k, s, d FROM r ORDER BY s DESC, k",
        "SELECT s, COUNT(*), SUM(k), MIN(d), COUNT(DISTINCT g) FROM r GROUP BY s ORDER BY s",
        "SELECT DISTINCT g, s FROM r ORDER BY g, s",
        "SELECT a.k, b.k FROM r a JOIN r b ON a.g = b.k WHERE a.k < 9 ORDER BY a.k, b.k",
        "SELECT a.k, b.s FROM r a LEFT JOIN r b ON a.k = b.g + 30 ORDER BY a.k, b.s",
        "SELECT g FROM r WHERE k < 20 INTERSECT SELECT g FROM r WHERE k > 10 ORDER BY g",
        "SELECT k FROM r WHERE s = 'b' UNION SELECT g FROM r WHERE s IS NULL ORDER BY 1",
        "SELECT k, CASE WHEN s IS NULL THEN 'none' ELSE s || '!' END, -k FROM r ORDER BY k",
        "WITH c AS (SELECT g, COUNT(*) AS n FROM r GROUP BY g)"
        " SELECT x.g, y.n FROM c x JOIN c y ON x.g = y.g ORDER BY x.g",
        "SELECT g, MEDIAN(k), STDDEV(k) FROM r GROUP BY g HAVING COUNT(*) > 5 ORDER BY g",
        "SELECT COUNT(*), SUM(k), MAX(s) FROM r",
    ]

    @staticmethod
    def _rows():
        return [
            (i, i % 7, None if i % 5 == 0 else "abc"[i % 3], datetime.date(2016, 1, 1 + i % 9))
            for i in range(40)
        ]

    def test_one_batch_is_not_copied_and_two_are_concatenated(self):
        batch = Batch.from_columns({"a": ColumnVector.from_boundary([3, None, 2], INTEGER)})
        assert VectorSourceOp(batch).run() is batch

        class Twice(VectorSourceOp):
            def execute(self):
                yield self.batch
                yield self.batch

        both = Twice(batch).run()
        assert both.n == 6 and both.columns["a"].to_boundary() == [3, None, 2] * 2

    @pytest.mark.parametrize("dop", [1, 4])
    def test_no_consumer_writes_into_a_tail_or_region_batch(self, dop):
        from repro.database import Database

        db = Database(parallelism=dop)
        session = db.connect()
        session.execute("CREATE TABLE r (k INT, g INT, s VARCHAR(3), d DATE)")
        db.catalog.get_table("R").table.insert_rows(self._rows())
        # Tail only: the scan's single batch is the tail's read-only views.
        fresh = [session.execute(sql).rows for sql in self.STATEMENTS]
        assert [session.execute(sql).rows for sql in self.STATEMENTS] == fresh  # cached plans
        db.catalog.get_table("R").table.flush()  # one sealed region, no tail
        assert [session.execute(sql).rows for sql in self.STATEMENTS] == fresh
        reference = Database(parallelism=1).connect()
        reference.execute("CREATE TABLE r (k INT, g INT, s VARCHAR(3), d DATE)")
        for row in self._rows():  # row by row: 40 batches' worth of nothing shared
            reference.database.catalog.get_table("R").table.insert_rows([row])
        reference.database.catalog.get_table("R").table.flush()
        assert [reference.execute(sql).rows for sql in self.STATEMENTS] == fresh

    @pytest.mark.parametrize("dop", [1, 4])
    def test_no_consumer_writes_into_a_vector_source(self, dop):
        from repro.database import Database
        from repro.sql.parser import parse_statement
        from repro.sql.planner import vector_relation

        schema = (("K", INTEGER), ("G", INTEGER), ("S", varchar_type(3)), ("D", DATE))
        vectors = [
            ColumnVector.from_boundary(column, dt)
            for column, (_, dt) in zip(zip(*self._rows()), schema)
        ]
        for vector in vectors:
            vector.values.flags.writeable = False
            if vector.nulls is not None:
                vector.nulls.flags.writeable = False
        before = [v.to_boundary() for v in vectors]
        relation = vector_relation(
            "R", [n for n, _ in schema], [dt for _, dt in schema], vectors
        )
        db = Database(parallelism=dop)
        session = db.connect()
        table = Database().connect()
        table.execute("CREATE TABLE r (k INT, g INT, s VARCHAR(3), d DATE)")
        table.database.catalog.get_table("R").table.insert_rows(self._rows())
        for sql in self.STATEMENTS:
            for _ in range(2):
                got = db.execute_ast(parse_statement(sql), session, relations={"R": relation})
                assert got.rows == table.execute(sql).rows, sql
        assert [v.to_boundary() for v in vectors] == before


def _vector_of_kind(kind, rng, n):
    """One vector of ``n`` rows: plain int, NULL-bearing double, coded
    string (its dictionary repeats an entry), or plain object strings."""
    from repro.types import DOUBLE

    if kind == "plain":
        return ColumnVector(INTEGER, rng.integers(-50, 50, n))
    if kind == "nulls":
        return ColumnVector(DOUBLE, rng.normal(size=n), rng.random(n) < 0.3)
    words = np.array(["x", "yy", "x", "zzz"], dtype=object)
    if kind == "object":
        return ColumnVector(varchar_type(3), words[rng.integers(0, 4, n)])
    words.flags.writeable = False
    return ColumnVector.coded(varchar_type(3), rng.integers(0, 4, n), words, rng.random(n) < 0.2)


class TestSelectionIsRowIds:
    """A selection gathers by row ids; a mask is only a predicate's output,
    and one that keeps every row copies nothing."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["plain", "nulls", "coded", "object"]),
        density=st.sampled_from([0.0, 1 / 64, 1 / 2, 1.0]),
        n=st.integers(0, 300),
        seed=st.integers(0, 2**16),
    )
    def test_filter_keeps_the_mask_semantics(self, kind, density, n, seed):
        rng = np.random.default_rng(seed)
        vector = _vector_of_kind(kind, rng, n)
        mask = rng.random(n) < density if density < 1 else np.ones(n, dtype=bool)
        want_values = vector.values[mask].tolist()
        want_nulls = vector.null_mask()[mask].tolist()
        for got in (vector.filter(mask), Batch.from_columns({"v": vector}).filter(mask).columns["v"]):
            assert got.values.tolist() == want_values
            assert got.null_mask().tolist() == want_nulls
            assert (got.codes is None) == (vector.codes is None)
            if mask.all():
                assert got is vector  # kept every row: nothing copied
        batch = Batch.from_columns({"v": vector}).filter(mask)
        assert batch.n == int(mask.sum())

    def test_concat_of_one_batch_is_that_batch(self):
        batch = Batch.from_columns({"a": ColumnVector.from_boundary([1, None], INTEGER)})
        assert Batch.concat([batch]) is batch

    @pytest.fixture()
    def raw_doubles(self, monkeypatch):
        """Regions small enough for a test whose DOUBLE column stays raw."""
        from repro.compression import codec

        monkeypatch.setattr(codec, "DICTIONARY_CARDINALITY_LIMIT", 16)

    @staticmethod
    def _fill(table, n=600):
        rng = np.random.default_rng(3)
        table.insert_rows([
            (i, None if i % 7 == 0 else float(rng.normal()), "ab"[i % 2]) for i in range(n)
        ])
        table.flush()
        x = table.schema.column_names[1]
        assert all(region.columns[x].codec.name == "raw" for region in table.regions)
        return table

    def _double_table(self):
        from repro.types import DOUBLE

        schema = TableSchema("m", (("id", INTEGER), ("x", DOUBLE), ("s", varchar_type(2))))
        return self._fill(ColumnTable(schema, region_rows=200, synopsis_stride=50))

    def test_a_keep_every_row_scan_hands_out_the_stored_arrays_read_only(self, raw_doubles):
        table = self._double_table()
        before = [region.columns["x"].raw.copy() for region in table.regions]
        scan = TableScanOp(table, ["x", "s"], pushed=[SimplePredicate("id", ">=", 0)])
        with forced_dense():
            batches = list(scan.execute())
        assert scan.stats.regions_positional == 0 and len(batches) == len(table.regions)
        for batch, region in zip(batches, table.regions):
            x = batch.columns["x"]
            stored = region.columns["x"]
            assert np.shares_memory(x.values, stored.raw)  # passed through, not copied
            assert not x.values.flags.writeable and not x.nulls.flags.writeable
            with pytest.raises(ValueError):
                x.values[0] = 99.0
            with pytest.raises(ValueError):
                x.nulls[0] = not x.nulls[0]
        assert all(
            np.array_equal(r.columns["x"].raw, b) for r, b in zip(table.regions, before)
        )

    def test_a_checkpoint_image_unpickles_read_only(self, raw_doubles):
        import pickle

        column = self._double_table().regions[0].columns["x"]
        restored = pickle.loads(pickle.dumps(column))
        assert not restored.raw.flags.writeable and not restored.nulls.flags.writeable

    BATTERY = [
        "SELECT s, COUNT(*), SUM(x), AVG(x), COUNT(DISTINCT x) FROM m GROUP BY s ORDER BY s",
        "SELECT CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE s END AS band,"
        " COUNT(*) FROM m GROUP BY CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE s END"
        " ORDER BY 1",
        "SELECT a.id, b.x FROM m a JOIN m b ON a.id = b.id WHERE a.s = 'a' ORDER BY b.x, a.id",
        "SELECT a.id, b.id FROM m a LEFT JOIN m b ON a.id = b.id + 300 ORDER BY a.id",
        "SELECT id FROM m WHERE x IS NULL AND id IN (SELECT id FROM m WHERE s = 'b')",
        "SELECT id, x FROM m ORDER BY x DESC, id FETCH FIRST 20 ROWS ONLY",
        "SELECT id, -x, COALESCE(x, 0.5) FROM m WHERE id < 100 ORDER BY id",
    ]

    @pytest.mark.parametrize("dop", [1, 4])
    def test_reads_leave_every_sealed_region_byte_identical(self, dop, raw_doubles):
        from repro.database import Database

        db = Database(parallelism=dop, region_rows=200)
        session = db.connect()
        session.execute("CREATE TABLE m (id INT, x DOUBLE, s VARCHAR(2))")
        table = self._fill(db.catalog.get_table("M").table)

        def image():
            out = []
            for region in table.regions:
                for name, column in sorted(region.columns.items()):
                    parts = (column.raw, column.nulls, column.packed and column.packed.words)
                    out.append((name, [None if p is None else p.tobytes() for p in parts]))
            return out

        before = image()
        for sql in self.BATTERY:
            assert session.execute(sql).rows is not None
            with forced_dense():
                db.plan_cache.clear()
                session.execute(sql)
        assert image() == before
