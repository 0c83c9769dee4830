"""Property tests: GROUP BY at DOP 4 == GROUP BY at DOP 1.

The GROUP BY is one pass (``repro.engine.aggregate._group``) at every DOP;
a parallel pool only models it, splitting the measured pass into morsel
tasks by row share.  Its contract is byte identity with the DOP-1 pass, so
these tests drive both over hypothesis-random inputs — including all-NULL
key columns, empty inputs, filters that drain most rows, and mixed-codec
regions — and require *ordered* equality (NULL first, then ascending, per
key column), and over more than one morsel a modelled run with
min(DOP, tasks) workers whose busiest carries the makespan.  The group
coding itself (``repro.engine.fused.group_codes``) is checked against an
``np.unique`` reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AggregateSpec,
    Batch,
    ColumnRef,
    Compare,
    GroupByOp,
    Literal,
    VectorSourceOp,
)
from repro.engine import fused
from repro.engine.operators import FilterOp, ProjectOp
from repro.parallel import MORSEL_ROWS, WorkerPool
from repro.simd import factorize
from repro.storage.column import ColumnVector
from repro.types import BIGINT, DOUBLE, INTEGER, varchar_type

from tests.test_parallel import _modelled

_VARCHAR = varchar_type(4)

_INTS = st.one_of(st.none(), st.integers(-50, 50))
_STRS = st.one_of(st.none(), st.sampled_from(["aa", "bb", "cc", "v1", "v2"]))

_KEY_CHOICES = {
    "none": [],
    "int": [("kg", ColumnRef("g", INTEGER))],
    "str": [("ks", ColumnRef("s", _VARCHAR))],
    "int+str": [("kg", ColumnRef("g", INTEGER)), ("ks", ColumnRef("s", _VARCHAR))],
    "str+int": [("ks", ColumnRef("s", _VARCHAR)), ("kg", ColumnRef("g", INTEGER))],
}

_AGG_CHOICES = {
    "count_star": AggregateSpec("COUNT", [], "a_rows"),
    "count_x": AggregateSpec("COUNT", [ColumnRef("x", INTEGER)], "a_cnt"),
    "sum_x": AggregateSpec("SUM", [ColumnRef("x", INTEGER)], "a_sum"),
    "avg_x": AggregateSpec("AVG", [ColumnRef("x", INTEGER)], "a_avg"),
    "min_x": AggregateSpec("MIN", [ColumnRef("x", INTEGER)], "a_min"),
    "max_x": AggregateSpec("MAX", [ColumnRef("x", INTEGER)], "a_max"),
    "min_s": AggregateSpec("MIN", [ColumnRef("s", _VARCHAR)], "a_smin"),
    "max_s": AggregateSpec("MAX", [ColumnRef("s", _VARCHAR)], "a_smax"),
}


@st.composite
def _cases(draw):
    n = draw(st.integers(0, 120))
    if draw(st.booleans()):  # all-NULL key column case
        g = [None] * n
    else:
        g = draw(st.lists(_INTS, min_size=n, max_size=n))
    s = draw(st.lists(_STRS, min_size=n, max_size=n))
    x = draw(st.lists(_INTS, min_size=n, max_size=n))
    keys = _KEY_CHOICES[draw(st.sampled_from(sorted(_KEY_CHOICES)))]
    agg_names = draw(
        st.lists(st.sampled_from(sorted(_AGG_CHOICES)), min_size=1,
                 max_size=4, unique=True)
    )
    aggregates = [_AGG_CHOICES[name] for name in agg_names]
    # Optional predicate: g/x thresholds; can eliminate every row so the
    # group-by sees an empty (but schema-bearing) batch.
    predicate = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["g", "x"]),
                st.sampled_from(["<", ">=", "="]),
                st.integers(-60, 60),
            ),
        )
    )
    return n, g, s, x, keys, aggregates, predicate


def _source(g, s, x):
    return VectorSourceOp(
        Batch.from_columns(
            {
                "g": ColumnVector.from_boundary(g, INTEGER),
                "s": ColumnVector.from_boundary(s, _VARCHAR),
                "x": ColumnVector.from_boundary(x, INTEGER),
            }
        )
    )


def _child(g, s, x, predicate):
    op = _source(g, s, x)
    if predicate is not None:
        column, cmp_op, value = predicate
        op = FilterOp(op, Compare(cmp_op, ColumnRef(column, INTEGER), Literal(value, INTEGER)))
    return op


def _rows(batch, aliases):
    columns = [batch.columns[alias].to_boundary() for alias in aliases]
    return list(zip(*columns)) if columns else []


@pytest.fixture(scope="module")
def pool():
    p = WorkerPool(4, name="fused-test")
    yield p


def _assert_modelled(op):
    """``op`` ran over more than one morsel: one modelled task per morsel."""
    assert op.parallel_run.tasks == -(-op.stats.input_rows // MORSEL_ROWS)
    _modelled(op.parallel_run)


@given(case=_cases())
@settings(max_examples=120, deadline=None)
def test_fused_reduce_matches_serial(case, pool):
    n, g, s, x, keys, aggregates, predicate = case
    # Repeat the drawn rows past one morsel, so DOP 4 has a pass to model.
    reps = MORSEL_ROWS // max(n, 1) + 1
    g, s, x = g * reps, s * reps, x * reps
    serial_op = GroupByOp(_child(g, s, x, predicate), keys=keys, aggregates=aggregates)
    fused_op = GroupByOp(
        _child(g, s, x, predicate),
        keys=keys,
        aggregates=aggregates,
        pool=pool,
    )
    aliases = [alias for alias, _ in keys] + [spec.alias for spec in aggregates]
    expected = _rows(serial_op.run(), aliases)
    got = _rows(fused_op.run(), aliases)
    assert got == expected
    if fused_op.stats.input_rows > MORSEL_ROWS:
        _assert_modelled(fused_op)
    else:
        assert fused_op.parallel_run is None


@given(
    values=st.lists(st.integers(-10_000, 10_000), min_size=0, max_size=200),
    null_bits=st.lists(st.booleans(), min_size=0, max_size=200),
)
@settings(max_examples=120, deadline=None)
def test_factorize_contract(values, null_bits):
    """NULL -> code 0; live values -> dense codes 1..k in ascending order."""
    n = min(len(values), len(null_bits))
    array = np.asarray(values[:n], dtype=np.int64)
    nulls = np.asarray(null_bits[:n], dtype=bool)
    codes, uniques = factorize(array, nulls if nulls.any() else None)
    live = array[~nulls] if nulls.any() else array
    assert uniques.tolist() == sorted(set(live.tolist()))
    expected_rank = {v: i + 1 for i, v in enumerate(uniques.tolist())}
    for i in range(n):
        if nulls[i]:
            assert codes[i] == 0
        else:
            assert codes[i] == expected_rank[int(array[i])]


def test_empty_input_matches_serial(pool):
    keys = _KEY_CHOICES["int+str"]
    aggregates = [_AGG_CHOICES["count_star"], _AGG_CHOICES["sum_x"]]
    serial = GroupByOp(_source([], [], []), keys=keys, aggregates=aggregates).run()
    par = GroupByOp(
        _source([], [], []), keys=keys, aggregates=aggregates, pool=pool,
    ).run()
    aliases = ["kg", "ks", "a_rows", "a_sum"]
    assert _rows(par, aliases) == _rows(serial, aliases) == []


def test_projected_chain_matches_serial(pool):
    """A project step between filter and group-by (computed column)."""
    g = [i % 5 for i in range(90)]
    x = [i * 3 - 40 for i in range(90)]
    from repro.engine.expression import make_arith

    def build(pool_arg):
        src = _source(g, ["aa"] * 90, x)
        filt = FilterOp(src, Compare(">", ColumnRef("x", INTEGER), Literal(-20, INTEGER)))
        proj = ProjectOp(
            filt,
            [
                ("g", ColumnRef("g", INTEGER)),
                ("y", make_arith("+", ColumnRef("x", INTEGER), Literal(7, INTEGER))),
            ],
        )
        return GroupByOp(
            proj,
            keys=[("kg", ColumnRef("g", INTEGER))],
            aggregates=[
                AggregateSpec("SUM", [ColumnRef("y", INTEGER)], "a_sum"),
                AggregateSpec("AVG", [ColumnRef("y", INTEGER)], "a_avg"),
            ],
            pool=pool_arg,
        )

    aliases = ["kg", "a_sum", "a_avg"]
    assert _rows(build(pool).run(), aliases) == _rows(build(None).run(), aliases)


def test_filter_keeping_one_row_of_many_morsels_matches_serial(pool):
    """A filter that keeps one row of three morsels: the group-by sees the
    drained row, not the morsels it came from, answers as DOP 1 and has
    nothing to model."""
    n = 2 * MORSEL_ROWS + 40
    g = [1] * (n - 1) + [2]
    x = list(range(n))
    predicate = ("x", ">=", n - 1)
    serial_op = GroupByOp(
        _child(g, ["aa"] * n, x, predicate),
        keys=[("kg", ColumnRef("g", INTEGER))],
        aggregates=[_AGG_CHOICES["count_star"]],
    )
    fused_op = GroupByOp(
        _child(g, ["aa"] * n, x, predicate),
        keys=[("kg", ColumnRef("g", INTEGER))],
        aggregates=[_AGG_CHOICES["count_star"]],
        pool=pool,
    )
    aliases = ["kg", "a_rows"]
    assert _rows(fused_op.run(), aliases) == _rows(serial_op.run(), aliases) == [(2, 1)]
    assert fused_op.parallel_run is None


def _wide_key_columns(n=600, width=7):
    """Seven ~600-distinct columns: the radix combine multiplies per-column
    cardinalities (+1 for NULL), so the packed code passes 2**62."""
    rng = np.random.default_rng(3)
    return {
        "k%d" % i: ColumnVector.from_boundary(
            rng.integers(0, 1_000_000, size=n).tolist(), BIGINT
        )
        for i in range(width)
    }


def test_radix_overflow_compacts_and_stays_fused(pool):
    """Huge key domains overflow the radix combine; the group coding must
    compact the packed codes and go on — same answer at every DOP, the
    DOP-4 pass modelled over its morsels, nothing wrapped around."""
    columns = _wide_key_columns(n=2 * MORSEL_ROWS + 600)
    names = sorted(columns)
    n = len(columns[names[0]])
    columns["x"] = ColumnVector.from_boundary(list(range(n)), INTEGER)

    def build(pool_arg):
        return GroupByOp(
            VectorSourceOp(Batch.from_columns(dict(columns))),
            keys=[(name, ColumnRef(name, BIGINT)) for name in names],
            aggregates=[_AGG_CHOICES["sum_x"]],
            pool=pool_arg,
        )

    aliases = names + ["a_sum"]
    # Every row is its own group: the expected answer needs no engine.
    expected = sorted(
        zip(*[columns[name].values.tolist() for name in names], range(n))
    )
    assert len(set(expected)) == n
    serial_op, fused_op = build(None), build(pool)
    assert _rows(serial_op.run(), aliases) == expected
    assert _rows(fused_op.run(), aliases) == expected
    _assert_modelled(fused_op)


# -- group coding vs an np.unique reference ---------------------------------------


def _reference_group_ids(key_pairs):
    """The sort-based coding the engine used before ``group_codes`` became
    the only routine: ``np.unique`` per column (NULL = code 0), then
    ``np.unique`` over the code rows (lexicographic, so no radix to
    overflow).  Returns ``(ids, first row of each group, k)``."""
    encoded = []
    for values, nulls in key_pairs:
        _, inverse = np.unique(values, return_inverse=True)
        codes = inverse.astype(np.int64) + 1
        if nulls is not None:
            codes[nulls] = 0
        encoded.append(codes)
    _, first_index, inverse = np.unique(
        np.stack(encoded, axis=1), axis=0, return_index=True, return_inverse=True
    )
    return inverse.reshape(-1).astype(np.int64), first_index, first_index.size


_KEY_TYPES = {np.dtype(np.int64): BIGINT, np.dtype(object): varchar_type(),
              np.dtype(np.float64): DOUBLE}


def _assert_group_coding_matches_reference(key_pairs):
    ids, key_cols, k = fused.group_codes(
        [ColumnVector(_KEY_TYPES[v.dtype], v, m) for v, m in key_pairs]
    )
    ref_ids, first, ref_k = _reference_group_ids(key_pairs)
    assert k == ref_k
    assert ids.dtype == np.int64 and ids.tolist() == ref_ids.tolist()
    for (values, nulls), group in zip(key_pairs, key_cols):
        group_values, group_nulls = group.values, group.nulls
        expected_nulls = (
            np.zeros(k, dtype=bool) if nulls is None else nulls[first]
        )
        got_nulls = np.zeros(k, dtype=bool) if group_nulls is None else group_nulls
        assert got_nulls.tolist() == expected_nulls.tolist()
        expected = values[first]
        expected[expected_nulls] = "" if values.dtype == object else 0
        assert group_values.dtype == values.dtype
        if values.dtype == object:
            assert group_values.tolist() == expected.tolist()
        else:  # bit for bit: -0.0 and 0.0 share a group, the first row names it
            assert group_values.tobytes() == expected.tobytes()


_KEY_COLUMNS = {
    "int": (np.int64, st.integers(-40, 40)),
    "wide-int": (np.int64, st.integers(-(2**62), 2**62)),
    "str": (object, st.sampled_from(["", "a", "aa", "b", "B", "v1", "v10", "v2"])),
    "float": (np.float64, st.sampled_from([-1.5, -0.0, 0.0, 2.0, 1e300, float("inf")])),
}


@st.composite
def _key_pairs(draw):
    n = draw(st.integers(1, 80))
    pairs = []
    for kind in draw(st.lists(st.sampled_from(sorted(_KEY_COLUMNS)), min_size=1, max_size=3)):
        np_dtype, elements = _KEY_COLUMNS[kind]
        values = np.empty(n, dtype=np_dtype)
        values[:] = draw(st.lists(elements, min_size=n, max_size=n))
        null_mode = draw(st.sampled_from(["none", "some", "all"]))
        if null_mode == "none":
            nulls = None
        elif null_mode == "all":
            nulls = np.ones(n, dtype=bool)
        else:
            nulls = np.asarray(
                draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
            )
        pairs.append((values, nulls))
    return pairs


@given(key_pairs=_key_pairs())
@settings(max_examples=200, deadline=None)
def test_group_codes_match_unique_reference(key_pairs):
    """Same ids, same group count, same key columns (the group's first
    row, filler under NULL) as sorting would give — for int, string and
    float keys, NULL-free, NULL-sprinkled and all-NULL columns; whatever
    sits under a NULL slot must not open a group."""
    _assert_group_coding_matches_reference(key_pairs)


def test_group_codes_match_unique_reference_on_radix_overflow():
    columns = _wide_key_columns()
    nulls = np.zeros(600, dtype=bool)
    nulls[::7] = True
    pairs = [(columns[name].values, None) for name in sorted(columns)]
    pairs[3] = (pairs[3][0], nulls)
    _assert_group_coding_matches_reference(pairs)
    # Duplicate every row: the compaction must keep equal keys together.
    doubled = [
        (np.concatenate([v, v]), None if m is None else np.concatenate([m, m]))
        for v, m in pairs
    ]
    _assert_group_coding_matches_reference(doubled)
    assert fused.group_codes(
        [ColumnVector(BIGINT, v, m) for v, m in doubled]
    )[2] == 600


# -- MIN / MAX scatter vs a row loop ----------------------------------------------


def _reference_min_max(func, values, nulls, ids, k):
    out = [None] * k
    for value, null, g in zip(values.tolist(), nulls.tolist(), ids.tolist()):
        if null:
            continue
        if out[g] is None or (value < out[g] if func == "MIN" else value > out[g]):
            out[g] = value
    return out


_INT64 = np.iinfo(np.int64)


@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.one_of(
                st.none(),
                st.sampled_from([_INT64.min, _INT64.max, -1, 0, 1]),
                st.integers(-1000, 1000),
            ),
        ),
        min_size=1,
        max_size=60,
    ),
    as_double=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_min_max_scatter_matches_row_loop(rows, as_double):
    """Numeric MIN/MAX through the ``ufunc.at`` scatter: int64 extremes
    are values, never sentinels, and an all-NULL group is NULL."""
    dtype = DOUBLE if as_double else BIGINT
    g = [row[0] for row in rows]
    x = [None if row[1] is None else (float(row[1]) if as_double else row[1]) for row in rows]
    batch = Batch.from_columns(
        {
            "g": ColumnVector.from_boundary(g, INTEGER),
            "x": ColumnVector.from_boundary(x, dtype),
        }
    )
    op = GroupByOp(
        VectorSourceOp(batch),
        keys=[("kg", ColumnRef("g", INTEGER))],
        aggregates=[
            AggregateSpec("MIN", [ColumnRef("x", dtype)], "lo"),
            AggregateSpec("MAX", [ColumnRef("x", dtype)], "hi"),
        ],
    )
    out = op.run()
    groups = sorted(set(g))
    ids = np.array([groups.index(v) for v in g])
    vector = batch.columns["x"]
    for func, alias in (("MIN", "lo"), ("MAX", "hi")):
        expected = _reference_min_max(
            func, vector.values, vector.null_mask(), ids, len(groups)
        )
        assert out.columns[alias].to_boundary() == expected
        assert out.columns[alias].values.dtype == vector.values.dtype
    assert out.columns["kg"].to_boundary() == groups


def test_mixed_codec_regions_agree():
    """The DOP-4 scan and group-by over regions whose columns compress
    with *different* codecs (constant, low-cardinality dictionary,
    sequential, wide-random) must match the serial engine exactly."""
    from repro.database import Database
    from repro.workloads.tpcds import flush_tables

    ddl = (
        "CREATE TABLE mix (konst INT, tag VARCHAR(4), seq INT, wide INT, val INT)"
    )
    rng = np.random.default_rng(11)
    rows = []
    for i in range(4000):
        tag = "NULL" if i % 37 == 0 else "'t%d'" % (i % 6)
        wide = int(rng.integers(-(10 ** 8), 10 ** 8))
        val = "NULL" if i % 23 == 0 else str(int(rng.integers(-500, 500)))
        rows.append("(7, %s, %d, %d, %s)" % (tag, i, wide, val))
    serial = Database(region_rows=512).connect("db2")
    par_db = Database(parallelism=4, region_rows=512)
    par = par_db.connect("db2")
    for system in (serial, par):
        system.execute(ddl)
        for start in range(0, len(rows), 500):
            system.execute(
                "INSERT INTO mix VALUES " + ", ".join(rows[start : start + 500])
            )
        for _ in range(3):  # 32,000 rows: four morsels
            system.execute("INSERT INTO mix SELECT * FROM mix")
        flush_tables(system.database)
    table = par.database.catalog.get_table("MIX").table
    codecs = {
        name: type(compressed.codec).__name__
        for name, compressed in table.regions[0].columns.items()
    }
    assert len(set(codecs.values())) >= 2, "regions are not mixed-codec: %s" % codecs
    queries = [
        "SELECT tag, COUNT(*), SUM(val), MIN(wide), MAX(seq), AVG(val)"
        " FROM mix GROUP BY tag ORDER BY 1",
        "SELECT konst, COUNT(val) FROM mix GROUP BY konst",
        "SELECT COUNT(*), MIN(tag), MAX(tag) FROM mix WHERE seq >= 1000",
        "SELECT tag, AVG(seq) FROM mix WHERE wide > 0 AND val < 250"
        " GROUP BY tag ORDER BY 1",
    ]
    for sql in queries:
        assert serial.execute(sql).rows == par.execute(sql).rows, sql
    plan = "\n".join(
        row[0] for row in par.execute("EXPLAIN ANALYZE " + queries[0]).rows
    )
    group_by = next(line for line in plan.splitlines() if "GroupByOp" in line)
    assert "[parallel tasks=4 workers=4 " in group_by, plan
    assert any(
        "TableScanOp" in line and "[parallel tasks=" in line
        for line in plan.splitlines()
    ), plan
