"""Hash join, grouping, sorting."""

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
    HashJoinOp,
    Literal,
    SortKey,
    SortOp,
    VectorSourceOp,
)
from repro.engine.join import NestedLoopJoinOp
from repro.storage.column import ColumnVector
from repro.types import DOUBLE, INTEGER, varchar_type


def source(**cols):
    columns = {}
    for name, values in cols.items():
        non_null = [v for v in values if v is not None]
        if non_null and isinstance(non_null[0], str):
            dt = varchar_type(10)
        elif any(isinstance(v, float) for v in non_null):
            dt = DOUBLE
        else:
            dt = INTEGER
        columns[name] = ColumnVector.from_boundary(values, dt)
    return VectorSourceOp(Batch.from_columns(columns))


class TestHashJoin:
    def test_inner_join(self):
        left = source(k=[1, 2, 3, 4], lv=[10, 20, 30, 40])
        right = source(k=[2, 4, 6], rv=[200, 400, 600])
        op = HashJoinOp(left, right, ["k"], ["k"])
        batch = op.run()
        got = sorted(zip(batch.columns["k"].values.tolist(), batch.columns["rv"].values.tolist()))
        assert got == [(2, 200), (4, 400)]

    def test_duplicate_build_keys_multiply(self):
        left = source(k=[1, 1], lv=[10, 11])
        right = source(k=[1, 1], rv=[100, 101])
        assert HashJoinOp(left, right, ["k"], ["k"]).run().n == 4

    def test_null_keys_never_match(self):
        left = source(k=[None, 1], lv=[0, 1])
        right = source(k=[None, 1], rv=[0, 1])
        batch = HashJoinOp(left, right, ["k"], ["k"]).run()
        assert batch.n == 1

    def test_left_outer(self):
        left = source(k=[1, 2, 3], lv=[10, 20, 30])
        right = source(k=[2], rv=[200])
        batch = HashJoinOp(left, right, ["k"], ["k"], join_type="left").run()
        rows = sorted(
            zip(
                batch.columns["k"].values.tolist(),
                batch.columns["rv"].to_boundary(),
            )
        )
        assert rows == [(1, None), (2, 200), (3, None)]

    def test_right_outer(self):
        left = source(k=[2], lv=[20])
        right = source(k=[1, 2], rv=[100, 200])
        batch = HashJoinOp(left, right, ["k"], ["k"], join_type="right").run()
        rows = sorted(
            zip(batch.columns["rv"].values.tolist(), batch.columns["lv"].to_boundary())
        )
        assert rows == [(100, None), (200, 20)]

    def test_full_outer(self):
        left = source(k=[1, 2], lv=[10, 20])
        right = source(k=[2, 3], rv=[200, 300])
        batch = HashJoinOp(left, right, ["k"], ["k"], join_type="full").run()
        assert batch.n == 3

    def test_semi_and_anti(self):
        left = source(k=[1, 2, 3, 4], lv=[1, 2, 3, 4])
        right = source(k=[2, 4, 4], rv=[0, 0, 0])
        semi = HashJoinOp(left, right, ["k"], ["k"], join_type="semi").run()
        assert sorted(semi.columns["k"].values.tolist()) == [2, 4]
        anti = HashJoinOp(left, right, ["k"], ["k"], join_type="anti").run()
        assert sorted(anti.columns["k"].values.tolist()) == [1, 3]

    def test_multi_key(self):
        left = source(a=[1, 1, 2], b=[1, 2, 1], lv=[11, 12, 21])
        right = source(a=[1, 2], b=[2, 1], rv=[100, 200])
        batch = HashJoinOp(left, right, ["a", "b"], ["a", "b"]).run()
        got = sorted(zip(batch.columns["lv"].values.tolist(), batch.columns["rv"].values.tolist()))
        assert got == [(12, 100), (21, 200)]

    def test_residual_condition(self):
        left = source(k=[1, 1], lv=[5, 15])
        right = source(k=[1], rv=[10])
        residual = Compare(">", ColumnRef("lv", INTEGER), ColumnRef("rv", INTEGER))
        batch = HashJoinOp(left, right, ["k"], ["k"], residual=residual).run()
        assert batch.columns["lv"].values.tolist() == [15]

    def test_partitioned_matches_monolithic(self):
        # A DOP-4 probe, modelled as three morsel tasks, pairs rows exactly
        # like the probe with no pool and like a dict of build rows by key.
        from repro.parallel import MORSEL_ROWS, WorkerPool

        rng = np.random.default_rng(0)
        n = 2 * MORSEL_ROWS + 100
        lk = rng.integers(0, 500, n).tolist()
        rk = rng.integers(0, 500, 1000).tolist()
        left = lambda: source(k=lk, lv=list(range(n)))
        right = lambda: source(k=rk, rv=list(range(1000)))
        op = HashJoinOp(left(), right(), ["k"], ["k"], pool=WorkerPool(4, name="partitioned"))
        part = op.run()
        mono = HashJoinOp(left(), right(), ["k"], ["k"]).run()
        key = lambda b: sorted(zip(b.columns["lv"].values.tolist(), b.columns["rv"].values.tolist()))
        build = {}
        for r, k in enumerate(rk):
            build.setdefault(k, []).append(r)
        expected = sorted((i, r) for i, k in enumerate(lk) for r in build.get(k, []))
        assert key(part) == key(mono) == expected
        assert op.parallel_run.tasks == 3

    def test_validation(self):
        left = source(k=[1])
        right = source(k=[1])
        with pytest.raises(ValueError):
            HashJoinOp(left, right, ["k"], ["k"], join_type="sideways")
        with pytest.raises(ValueError):
            HashJoinOp(left, right, [], [])

    def test_empty_sides(self):
        left = source(k=[], lv=[])
        right = source(k=[1], rv=[1])
        assert HashJoinOp(left, right, ["k"], ["k"]).run().n == 0
        assert HashJoinOp(right, left, ["k"], ["k"], join_type="left").run().n == 1


class TestDirectLookupProbe:
    """The direct-address probe runs at every DOP whenever its own shape
    test passes; the sorted probe is the reference (forced by making the
    shape test fail), and the two must agree byte for byte."""

    JOIN_TYPES = ["inner", "left", "right", "full", "semi", "anti"]

    @staticmethod
    def _run(left_cols, right_cols, join_type, monkeypatch=None, pool=None):
        op = HashJoinOp(
            source(**left_cols), source(**right_cols), ["k"], ["k"],
            join_type=join_type, pool=pool,
        )
        if monkeypatch is not None:
            monkeypatch.setattr(
                op, "_direct_lookup_join", lambda *args: None, raising=True
            )
        batch = op.run()
        columns = {
            name: (vector.values.tolist(), vector.null_mask().tolist())
            for name, vector in batch.columns.items()
        }
        return op.stats, columns

    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    def test_matches_sorted_probe_on_a_foreign_key_join(self, join_type, monkeypatch):
        fact = {"k": [3, 1, None, 7, 3, 9, 2, 1, 40, None], "lv": list(range(10))}
        dim = {"k": [1, 2, 3, None, 5, 9], "rv": [10, 20, 30, 40, 50, 90]}
        stats, direct = self._run(fact, dim, join_type)
        assert stats.path == "direct"
        ref_stats, reference = self._run(fact, dim, join_type, monkeypatch)
        assert ref_stats.path == "sorted"
        assert direct == reference
        assert stats.matched_pairs == ref_stats.matched_pairs == 6

    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    def test_duplicate_build_keys_take_the_sorted_probe(self, join_type, monkeypatch):
        left = {"k": [1, 2, 1, 3], "lv": [0, 1, 2, 3]}
        right = {"k": [1, 1, 3, 4], "rv": [10, 11, 30, 40]}
        stats, got = self._run(left, right, join_type)
        assert stats.path == "sorted" and stats.matched_pairs == 5
        assert got == self._run(left, right, join_type, monkeypatch)[1]

    def test_sparse_build_domain_takes_the_sorted_probe(self):
        left = {"k": [1, 2_000_000_000, 5], "lv": [0, 1, 2]}
        right = {"k": [1, 2_000_000_000], "rv": [10, 20]}
        stats, got = self._run(left, right, "inner")
        assert stats.path == "sorted"
        assert got["rv"][0] == [10, 20]

    def test_string_and_multi_column_keys_take_the_sorted_probe(self):
        stats, _ = self._run({"k": ["a", "b"]}, {"k": ["b"], "rv": [1]}, "inner")
        assert stats.path == "sorted"
        op = HashJoinOp(
            source(a=[1, 2], b=[1, 2]), source(a=[1, 2], b=[1, 3], rv=[7, 8]),
            ["a", "b"], ["a", "b"],
        )
        assert op.run().n == 1 and op.stats.path == "sorted"

    def test_all_null_or_out_of_range_probe_keys(self):
        stats, got = self._run({"k": [None, None]}, {"k": [1, 2], "rv": [1, 2]}, "left")
        assert stats.path == "direct" and stats.matched_pairs == 0
        assert got["rv"][1] == [True, True]
        stats, got = self._run({"k": [-5, 99]}, {"k": [1, 2], "rv": [1, 2]}, "anti")
        assert stats.path == "direct" and got["k"][0] == [-5, 99]

    def test_serial_pool_records_no_run_and_parallel_pool_agrees(self):
        from repro.parallel import WorkerPool

        rng = np.random.default_rng(5)
        # Three morsels of probe rows: a single one would probe inline.
        fact = {"k": rng.integers(0, 300, size=20000).tolist(), "lv": list(range(20000))}
        dim = {"k": list(range(0, 300, 2)), "rv": list(range(150))}
        serial_pool = WorkerPool(1, name="join-serial")
        stats, serial = self._run(fact, dim, "inner", pool=serial_pool)
        assert stats.path == "direct"
        assert serial_pool.runs_total == 0  # one inline whole-column probe
        parallel_pool = WorkerPool(4, name="join-parallel")
        par_stats, parallel = self._run(fact, dim, "inner", pool=parallel_pool)
        assert par_stats.path == "direct" and parallel_pool.runs_total == 1
        assert parallel == serial == self._run(fact, dim, "inner", pool=None)[1]


class TestSortedProbeSpans:
    """The sorted probe is one kernel, called once over the whole column at
    every DOP; at DOP > 1 the pool models that call over its morsels."""

    @pytest.mark.parametrize("join_type", ["inner", "left", "full", "semi", "anti"])
    def test_duplicate_build_keys_across_spans_keep_pair_order(self, join_type):
        from repro.parallel import MORSEL_ROWS, WorkerPool
        from tests.test_parallel import _modelled

        rng = np.random.default_rng(11)
        # Every build key repeats (1-4 times), probe keys recur in every
        # morsel, some probe keys have no match and some are NULL.
        n = 2 * MORSEL_ROWS + 700
        build_k = np.repeat(np.arange(0, 40), rng.integers(1, 5, size=40))
        rng.shuffle(build_k)
        probe_k = rng.integers(0, 50, size=n).tolist()
        for i in range(0, n, 37):
            probe_k[i] = None
        left = {"k": probe_k, "lv": list(range(n))}  # lv == probe row (li)
        right = {"k": build_k.tolist(), "rv": list(range(build_k.size))}  # rv == ri

        def run(pool):
            op = HashJoinOp(
                source(**left), source(**right), ["k"], ["k"],
                join_type=join_type, pool=pool,
            )
            batch = op.run()
            assert op.stats.path == "sorted"
            return op, {
                name: (vector.values.tolist(), vector.null_mask().tolist())
                for name, vector in batch.columns.items()
            }

        serial_pool = WorkerPool(1, name="sorted-serial")
        serial_op, serial = run(serial_pool)
        assert serial_pool.runs_total == 0 and serial_op.parallel_run is None
        parallel_pool = WorkerPool(4, name="sorted-parallel")
        parallel_op, parallel = run(parallel_pool)
        assert parallel_pool.runs_total == 1
        # ceil(16,622 live probe rows / 8,192) = 3 morsels on 3 workers
        assert parallel_op.parallel_run.tasks == 3
        _modelled(parallel_op.parallel_run)
        assert parallel == serial == run(None)[1]
        assert serial_op.stats.matched_pairs == parallel_op.stats.matched_pairs > n


class TestNestedLoopJoin:
    def test_cross_join(self):
        left = source(a=[1, 2])
        right = source(b=[10, 20, 30])
        batch = NestedLoopJoinOp(left, right, None, join_type="cross").run()
        assert batch.n == 6

    def test_non_equi_condition(self):
        left = source(a=[1, 5])
        right = source(b=[2, 3, 9])
        cond = Compare("<", ColumnRef("a", INTEGER), ColumnRef("b", INTEGER))
        batch = NestedLoopJoinOp(left, right, cond).run()
        pairs = sorted(zip(batch.columns["a"].values.tolist(), batch.columns["b"].values.tolist()))
        assert pairs == [(1, 2), (1, 3), (1, 9), (5, 9)]

    def test_left_with_condition(self):
        left = source(a=[1, 100])
        right = source(b=[2])
        cond = Compare("<", ColumnRef("a", INTEGER), ColumnRef("b", INTEGER))
        batch = NestedLoopJoinOp(left, right, cond, join_type="left").run()
        rows = sorted(zip(batch.columns["a"].values.tolist(), batch.columns["b"].to_boundary()))
        assert rows == [(1, 2), (100, None)]


class TestGroupBy:
    def agg(self, func, column, alias, distinct=False, dt=INTEGER):
        return AggregateSpec(func, [ColumnRef(column, dt)], alias, distinct)

    def test_sum_count_avg(self):
        src = source(g=["a", "b", "a", "b", "a"], v=[1, 2, 3, 4, 5])
        op = GroupByOp(
            src,
            keys=[("g", ColumnRef("g", varchar_type(1)))],
            aggregates=[
                self.agg("SUM", "v", "s"),
                AggregateSpec("COUNT", [], "c"),
                self.agg("AVG", "v", "a"),
            ],
        )
        batch = op.run()
        rows = {
            g: (s, c, a)
            for g, s, c, a in zip(
                batch.columns["g"].values.tolist(),
                batch.columns["s"].values.tolist(),
                batch.columns["c"].values.tolist(),
                batch.columns["a"].values.tolist(),
            )
        }
        assert rows["a"] == (9, 3, 3.0)
        assert rows["b"] == (6, 2, 3.0)

    def test_min_max_strings(self):
        src = source(g=[1, 1, 2], s=["pear", "apple", "fig"])
        op = GroupByOp(
            src,
            keys=[("g", ColumnRef("g", INTEGER))],
            aggregates=[
                self.agg("MIN", "s", "lo", dt=varchar_type(5)),
                self.agg("MAX", "s", "hi", dt=varchar_type(5)),
            ],
        )
        batch = op.run()
        rows = dict(zip(batch.columns["g"].values.tolist(),
                        zip(batch.columns["lo"].values.tolist(), batch.columns["hi"].values.tolist())))
        assert rows[1] == ("apple", "pear")
        assert rows[2] == ("fig", "fig")

    def test_nulls_ignored_by_aggregates(self):
        src = source(g=[1, 1, 1], v=[10, None, 20])
        op = GroupByOp(
            src,
            keys=[("g", ColumnRef("g", INTEGER))],
            aggregates=[self.agg("SUM", "v", "s"), self.agg("COUNT", "v", "c"),
                        AggregateSpec("COUNT", [], "star")],
        )
        batch = op.run()
        assert batch.columns["s"].values[0] == 30
        assert batch.columns["c"].values[0] == 2
        assert batch.columns["star"].values[0] == 3

    def test_all_null_group_yields_null_sum(self):
        src = source(g=[1], v=[None])
        op = GroupByOp(src, keys=[("g", ColumnRef("g", INTEGER))],
                       aggregates=[self.agg("SUM", "v", "s")])
        assert op.run().columns["s"].to_boundary() == [None]

    def test_null_key_forms_group(self):
        src = source(g=[None, None, 1], v=[1, 2, 3])
        op = GroupByOp(src, keys=[("g", ColumnRef("g", INTEGER))],
                       aggregates=[self.agg("SUM", "v", "s")])
        batch = op.run()
        assert batch.n == 2
        sums = sorted(batch.columns["s"].values.tolist())
        assert sums == [3, 3]

    def test_count_distinct(self):
        src = source(g=[1, 1, 1, 2], v=[5, 5, 7, 5])
        op = GroupByOp(src, keys=[("g", ColumnRef("g", INTEGER))],
                       aggregates=[self.agg("COUNT", "v", "d", distinct=True)])
        batch = op.run()
        rows = dict(zip(batch.columns["g"].values.tolist(), batch.columns["d"].values.tolist()))
        assert rows == {1: 2, 2: 1}

    def test_grand_total_without_keys(self):
        src = source(v=[1.0, 2.0, 3.0, 4.0])
        op = GroupByOp(src, keys=[], aggregates=[
            self.agg("AVG", "v", "m", dt=DOUBLE),
            self.agg("VAR_POP", "v", "vp", dt=DOUBLE),
            self.agg("STDDEV_SAMP", "v", "sd", dt=DOUBLE),
            self.agg("MEDIAN", "v", "md", dt=DOUBLE),
        ])
        batch = op.run()
        assert batch.n == 1
        assert batch.columns["m"].values[0] == pytest.approx(2.5)
        assert batch.columns["vp"].values[0] == pytest.approx(1.25)
        assert batch.columns["sd"].values[0] == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert batch.columns["md"].values[0] == pytest.approx(2.5)

    def test_covariance(self):
        src = source(x=[1.0, 2.0, 3.0], y=[2.0, 4.0, 6.0])
        spec = AggregateSpec("COVAR_POP", [ColumnRef("x", DOUBLE), ColumnRef("y", DOUBLE)], "c")
        batch = GroupByOp(src, keys=[], aggregates=[spec]).run()
        assert batch.columns["c"].values[0] == pytest.approx(np.cov([1, 2, 3], [2, 4, 6], bias=True)[0, 1])

    def test_var_samp_singleton_is_null(self):
        src = source(g=[1], v=[5.0])
        spec = AggregateSpec("VAR_SAMP", [ColumnRef("v", DOUBLE)], "vs")
        batch = GroupByOp(src, keys=[("g", ColumnRef("g", INTEGER))], aggregates=[spec]).run()
        assert batch.columns["vs"].to_boundary() == [None]

    def test_empty_input_with_keys(self):
        src = source(g=[], v=[])
        op = GroupByOp(src, keys=[("g", ColumnRef("g", INTEGER))],
                       aggregates=[self.agg("SUM", "v", "s")])
        assert op.run().n == 0

    def test_empty_input_grand_total(self):
        src = source(v=[])
        op = GroupByOp(src, keys=[], aggregates=[AggregateSpec("COUNT", [], "c")])
        batch = op.run()
        assert batch.columns["c"].values.tolist() == [0]


class TestStitchIdentity:
    """``_stitch`` passes the probe columns through, ungathered, exactly
    when the match pairs are the identity: every probe row matched once,
    in order."""

    @staticmethod
    def _columns(batch):
        return {
            name: (v.values.tolist(), v.null_mask().tolist()) for name, v in batch.columns.items()
        }

    def test_a_foreign_key_onto_a_complete_dimension_passes_the_probe_through(self):
        fact = source(k=[3, 1, 2, 1], lv=[10, None, 12, 13])
        dim = source(k=[1, 2, 3], rv=[100, 200, 300])
        op = HashJoinOp(fact, dim, ["k"], ["k"])
        batch = op.run()
        assert op.stats.path == "direct"
        for name in ("k", "lv"):
            assert batch.columns[name] is fact.batch.columns[name]
        assert self._columns(batch)["rv"] == ([300, 100, 200, 100], [False] * 4)

    def test_a_row_matched_twice_and_a_row_matched_never_is_gathered(self):
        # Duplicate build keys take the sorted probe: probe row 0 matches
        # twice and row 1 never, so li = [0, 0, 2] has the probe's size.
        fact = source(k=[1, 5, 2], lv=[10, 11, 12])
        dim = source(k=[1, 1, 2], rv=[100, 101, 200])
        op = HashJoinOp(fact, dim, ["k"], ["k"])
        batch = op.run()
        assert op.stats.path == "sorted"
        assert batch.n == fact.batch.n == 3
        assert batch.columns["lv"] is not fact.batch.columns["lv"]
        assert self._columns(batch) == {
            "k": ([1, 1, 2], [False] * 3),
            "lv": ([10, 10, 12], [False] * 3),
            "rv": ([100, 101, 200], [False] * 3),
        }

    def test_only_the_identity_passes_through(self):
        probe = source(lv=[10, 11, 12]).batch
        build = source(rv=[1, 2, 3]).batch
        op = HashJoinOp(source(lv=[]), source(rv=[]), ["lv"], ["rv"])
        ri = np.array([0, 1, 2])
        for li in ([0, 0, 2], [0, 2, 2], [1, 0, 2], [0, 1, 1]):
            out = op._stitch(probe, build, np.array(li), ri)
            assert out.columns["lv"].values.tolist() == [[10, 11, 12][i] for i in li]
        assert op._stitch(probe, build, np.arange(3), ri).columns["lv"] is probe.columns["lv"]


class TestDistinctAggregates:
    """COUNT / SUM / AVG (DISTINCT) dedupe (group, value) pairs in one
    vectorised pass; the per-row set they replaced is the reference."""

    @staticmethod
    def _reference(ids, values):
        seen, keep = set(), []
        for i, pair in enumerate(zip(ids.tolist(), values.tolist())):
            if pair not in seen:
                seen.add(pair)
                keep.append(i)
        return ids[keep], values[keep]

    def _group(self, g, v, func, dt=DOUBLE):
        op = GroupByOp(
            source(g=g, v=v),
            keys=[("g", ColumnRef("g", INTEGER))],
            aggregates=[AggregateSpec(func, [ColumnRef("v", dt)], "x", True)],
        )
        batch = op.run()
        x = batch.columns["x"]
        return dict(zip(batch.columns["g"].values.tolist(), x.to_boundary()))

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from([0.1, 0.2, 0.3, -0.0, 0.0, 1e16, -1e16, 7.7, 3]),
            ),
            max_size=80,
        )
    )
    def test_pairs_equal_the_row_loop_bit_for_bit(self, pairs):
        from repro.engine.aggregate import _distinct_pairs

        ids = np.array([g for g, _ in pairs], dtype=np.int64)
        for values in (
            np.array([v for _, v in pairs], dtype=np.float64),
            np.array([int(v * 10) for _, v in pairs], dtype=np.int64),
            np.array(["%.1f" % v for _, v in pairs], dtype=object),
        ):
            got_ids, got_values = _distinct_pairs(ids, values)
            want_ids, want_values = self._reference(ids, values)
            assert got_ids.tolist() == want_ids.tolist()
            if values.dtype == np.float64:  # bit for bit: -0.0 is not 0.0
                got_values, want_values = got_values.view(np.int64), want_values.view(np.int64)
            assert got_values.tolist() == want_values.tolist()

    def test_zero_and_negative_zero_are_one_value(self):
        got = self._group([1, 1, 1, 2], [0.0, -0.0, 2.5, -0.0], "COUNT")
        assert got == {1: 2, 2: 1}
        sums = self._group([1, 1, 1, 2], [-0.0, 0.0, 2.5, -0.0], "SUM")
        assert sums == {1: 2.5, 2: -0.0}

    def test_null_only_groups_count_zero_and_sum_null(self):
        g, v = [1, 1, 2, 2, 3], [None, None, 4, 4, None]
        assert self._group(g, v, "COUNT", INTEGER) == {1: 0, 2: 1, 3: 0}
        assert self._group(g, v, "SUM", INTEGER) == {1: None, 2: 4, 3: None}
        assert self._group(g, v, "AVG", INTEGER) == {1: None, 2: 4.0, 3: None}

    def test_a_coded_argument_dedupes_on_dictionary_ranks_without_its_strings(self):
        # The dictionary holds "b" twice; no row's string is gathered.
        dictionary = np.array(["b", "a", "b", "z"], dtype=object)
        dictionary.flags.writeable = False
        v = ColumnVector.coded(
            varchar_type(1), np.array([0, 2, 1, 0, 2, 1]), dictionary,
            np.array([False, False, False, False, False, True]),
        )
        g = ColumnVector.from_boundary([1, 1, 1, 2, 2, 2], INTEGER)
        batch = Batch.from_columns({"g": g, "v": v})
        op = GroupByOp(
            VectorSourceOp(batch),
            keys=[("g", ColumnRef("g", INTEGER))],
            aggregates=[AggregateSpec("COUNT", [ColumnRef("v", varchar_type(1))], "x", True)],
        )
        out = op.run()
        assert out.columns["x"].values.tolist() == [2, 1]
        assert "values" not in vars(v)


class TestSort:
    def test_single_key_asc(self):
        src = source(v=[3, 1, 2])
        batch = SortOp(src, [SortKey(ColumnRef("v", INTEGER))]).run()
        assert batch.columns["v"].values.tolist() == [1, 2, 3]

    def test_desc(self):
        src = source(v=[3, 1, 2])
        batch = SortOp(src, [SortKey(ColumnRef("v", INTEGER), ascending=False)]).run()
        assert batch.columns["v"].values.tolist() == [3, 2, 1]

    def test_nulls_last_on_asc_by_default(self):
        src = source(v=[3, None, 1])
        batch = SortOp(src, [SortKey(ColumnRef("v", INTEGER))]).run()
        assert batch.columns["v"].to_boundary() == [1, 3, None]

    def test_nulls_first_on_desc_by_default(self):
        src = source(v=[3, None, 1])
        batch = SortOp(src, [SortKey(ColumnRef("v", INTEGER), ascending=False)]).run()
        assert batch.columns["v"].to_boundary() == [None, 3, 1]

    def test_explicit_nulls_first(self):
        src = source(v=[3, None, 1])
        batch = SortOp(src, [SortKey(ColumnRef("v", INTEGER), nulls_first=True)]).run()
        assert batch.columns["v"].to_boundary() == [None, 1, 3]

    def test_multi_key(self):
        src = source(a=[1, 2, 1, 2], b=[9, 8, 7, 6])
        batch = SortOp(
            src,
            [SortKey(ColumnRef("a", INTEGER)), SortKey(ColumnRef("b", INTEGER), ascending=False)],
        ).run()
        pairs = list(zip(batch.columns["a"].values.tolist(), batch.columns["b"].values.tolist()))
        assert pairs == [(1, 9), (1, 7), (2, 8), (2, 6)]

    def test_string_sort(self):
        src = source(s=["pear", "apple", "fig"])
        batch = SortOp(src, [SortKey(ColumnRef("s", varchar_type(5)))]).run()
        assert batch.columns["s"].values.tolist() == ["apple", "fig", "pear"]

    def test_stability_preserves_ties(self):
        src = source(a=[1, 1, 1], b=[30, 10, 20])
        batch = SortOp(src, [SortKey(ColumnRef("a", INTEGER))]).run()
        assert batch.columns["b"].values.tolist() == [30, 10, 20]

    def test_empty_input(self):
        src = source(v=[])
        assert SortOp(src, [SortKey(ColumnRef("v", INTEGER))]).run().n == 0

    def test_no_keys_rejected(self):
        with pytest.raises(ValueError):
            SortOp(source(v=[1]), [])
