"""Compression codecs: dictionaries, frequency partitions, minus, prefix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    FrequencyEncoding,
    MinusEncoding,
    OrderPreservingDictionary,
    common_prefix,
    compress_column,
    prefix_compress,
    prefix_decompress,
)
from repro.compression.codec import CompressedColumn, _codes_to_ranges
from repro.compression.prefix import prefix_savings


class TestOrderPreservingDictionary:
    def test_codes_follow_value_order(self):
        d = OrderPreservingDictionary(np.array([30, 10, 20, 10]))
        assert d.cardinality == 3
        assert list(d.encode(np.array([10, 20, 30]))) == [0, 1, 2]

    def test_roundtrip(self):
        values = np.array(["pear", "apple", "fig", "apple"], dtype=object)
        d = OrderPreservingDictionary(values)
        codes = d.encode(values)
        assert list(d.decode(codes)) == ["pear", "apple", "fig", "apple"]

    def test_order_preservation_property(self):
        values = np.array([5, 1, 9, 3, 7])
        d = OrderPreservingDictionary(values)
        for a in values:
            for b in values:
                if a < b:
                    assert d.code_for(a) < d.code_for(b)

    def test_unknown_value(self):
        d = OrderPreservingDictionary(np.array([1, 2, 3]))
        assert d.code_for(99) is None
        with pytest.raises(KeyError):
            d.encode(np.array([99]))

    def test_code_range(self):
        d = OrderPreservingDictionary(np.array([10, 20, 30, 40]))
        assert d.code_range(15, 35) == (1, 2)
        assert d.code_range(20, 30) == (1, 2)
        assert d.code_range(20, 30, lo_open=True) == (2, 2)
        assert d.code_range(20, 30, hi_open=True) == (1, 1)
        assert d.code_range(21, 29) is None
        assert d.code_range(None, None) == (0, 3)

    def test_width(self):
        d = OrderPreservingDictionary(np.arange(5))
        assert d.code_width == 3


class TestFrequencyEncoding:
    def test_hottest_values_get_smallest_codes(self):
        values = np.array([7] * 100 + [3] * 90 + list(range(100, 130)))
        enc = FrequencyEncoding(values)
        # partition 0 holds the two most frequent values (3 and 7, sorted)
        assert enc.code_for(3) == 0
        assert enc.code_for(7) == 1
        assert enc.partition_of(enc.code_for(3)) == 0
        assert enc.partition_of(enc.code_for(105)) >= 1

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        values = rng.choice([1, 2, 3, 50, 60, 70, 800], size=500)
        enc = FrequencyEncoding(values)
        assert np.array_equal(enc.decode(enc.encode(values)), values)

    def test_order_preserving_within_partition(self):
        values = np.array([5] * 50 + [2] * 40 + [9, 9, 9] + [1, 8])
        enc = FrequencyEncoding(values)
        # 5 and 2 share partition 0 -> codes ordered by value
        assert enc.code_for(2) < enc.code_for(5)

    def test_code_ranges_cover_exactly_the_interval(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 200, size=2000)
        enc = FrequencyEncoding(values)
        ranges = enc.code_ranges(50, 150)
        selected = set()
        for lo, hi in ranges:
            selected.update(range(lo, hi + 1))
        for v in np.unique(values):
            code = enc.code_for(v)
            assert (code in selected) == (50 <= v <= 150)

    def test_expected_bits_reflect_skew(self):
        hot = np.array([1] * 990 + list(range(10, 20)))
        uniform = np.arange(1000)
        enc_hot = FrequencyEncoding(hot)
        enc_uni = FrequencyEncoding(uniform)
        assert enc_hot.expected_bits_per_value(hot) < enc_uni.expected_bits_per_value(
            uniform
        )

    def test_one_bit_claim(self):
        # Paper: "compress data as small as one bit" — two hot values.
        values = np.array(["Y"] * 600 + ["N"] * 400, dtype=object)
        enc = FrequencyEncoding(values)
        assert enc.expected_bits_per_value(values) == 1.0

    def test_unknown_value(self):
        enc = FrequencyEncoding(np.array([1, 2, 3]))
        assert enc.code_for(4) is None

    def test_empty_column(self):
        enc = FrequencyEncoding(np.array([], dtype=np.int64))
        assert enc.cardinality == 0
        assert enc.code_ranges(1, 2) == []


class TestMinusEncoding:
    def test_roundtrip(self):
        values = np.array([1_000_000, 1_000_507, 1_000_001])
        enc = MinusEncoding(values)
        assert enc.base == 1_000_000
        assert np.array_equal(enc.decode(enc.encode(values)), values)

    def test_width_tracks_spread_not_magnitude(self):
        enc = MinusEncoding(np.array([10**12, 10**12 + 255]))
        assert enc.code_width == 8

    def test_negative_values(self):
        values = np.array([-50, -10, -30])
        enc = MinusEncoding(values)
        assert np.array_equal(enc.decode(enc.encode(values)), values)

    def test_code_ranges_clamped(self):
        enc = MinusEncoding(np.array([100, 163]))
        assert enc.code_ranges(0, 120) == [(0, 20)]
        assert enc.code_ranges(200, 300) == []
        assert enc.code_ranges(None, None) == [(0, 63)]

    def test_open_bounds(self):
        enc = MinusEncoding(np.array([10, 20]))
        assert enc.code_ranges(10, 20, lo_open=True) == [(1, 10)]
        assert enc.code_ranges(10, 20, hi_open=True) == [(0, 9)]

    def test_out_of_domain_encode_rejected(self):
        enc = MinusEncoding(np.array([10, 20]))
        with pytest.raises(ValueError):
            enc.encode(np.array([9]))


class TestPrefix:
    def test_common_prefix(self):
        assert common_prefix(["ORDER_01", "ORDER_02"]) == "ORDER_0"
        assert common_prefix([]) == ""
        assert common_prefix(["abc"]) == "abc"

    def test_roundtrip(self):
        strings = ["cust_north", "cust_south", "cust_east"]
        prefix, suffixes = prefix_compress(strings)
        assert prefix == "cust_"
        assert prefix_decompress(prefix, suffixes) == strings

    def test_savings(self):
        assert prefix_savings(["aa1", "aa2", "aa3"]) == 2 * 3 - 2
        assert prefix_savings(["x", "y"]) == 0


class TestCompressColumn:
    def test_low_cardinality_ints_use_dictionary(self):
        values = np.tile(np.array([100, 10**9]), 500)
        col = compress_column(values)
        assert col.codec.name == "dictionary"
        assert col.packed.width == 1

    def test_high_cardinality_ints_use_minus(self):
        values = np.arange(100_000, 300_000, 2)
        col = compress_column(values)
        assert col.codec.name == "minus"

    def test_strings_use_dictionary(self):
        values = np.array(["a", "b", "a"], dtype=object)
        col = compress_column(values)
        assert col.codec.name == "dictionary"

    def test_high_cardinality_floats_raw(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=100_000)
        col = compress_column(values)
        assert col.codec.name == "raw"

    def test_force_override(self):
        values = np.arange(1000)
        col = compress_column(values, force="dictionary")
        assert col.codec.name == "dictionary"

    def test_decode_roundtrip(self):
        values = np.array([5, 3, 5, 9, 3])
        col = compress_column(values)
        decoded, nulls = col.decode()
        assert np.array_equal(decoded, values)
        assert nulls is None

    def test_nulls_preserved(self):
        values = np.array([1, 0, 3, 0])
        nulls = np.array([False, True, False, True])
        col = compress_column(values, nulls)
        decoded, mask = col.decode()
        assert np.array_equal(mask, nulls)
        assert list(decoded[~mask]) == [1, 3]

    def test_all_false_null_mask_dropped(self):
        col = compress_column(np.array([1, 2]), np.array([False, False]))
        assert col.nulls is None

    def test_null_mask_length_mismatch(self):
        with pytest.raises(ValueError):
            compress_column(np.array([1, 2]), np.array([False]))

    def test_compression_shrinks_skewed_data(self):
        rng = np.random.default_rng(0)
        values = rng.choice([1, 2, 3, 4], size=50_000).astype(np.int64)
        col = compress_column(values)
        assert col.nbytes() < values.nbytes / 10


class TestCompressedColumnPredicates:
    @pytest.fixture()
    def column(self):
        rng = np.random.default_rng(42)
        values = rng.integers(0, 500, size=3000).astype(np.int64)
        nulls = rng.random(3000) < 0.05
        return values, nulls, compress_column(values, nulls)

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_compare_matches_ground_truth(self, column, op):
        values, nulls, col = column
        got = col.eval_compare(op, 250)
        expected = {
            "=": values == 250,
            "<>": values != 250,
            "<": values < 250,
            "<=": values <= 250,
            ">": values > 250,
            ">=": values >= 250,
        }[op] & ~nulls
        assert np.array_equal(got, expected)

    def test_between(self, column):
        values, nulls, col = column
        got = col.eval_between(100, 200)
        assert np.array_equal(got, (values >= 100) & (values <= 200) & ~nulls)

    def test_in_list(self, column):
        values, nulls, col = column
        got = col.eval_in([5, 7, 9, 9999])
        assert np.array_equal(got, np.isin(values, [5, 7, 9]) & ~nulls)

    def test_null_predicates(self, column):
        values, nulls, col = column
        assert np.array_equal(col.eval_is_null(), nulls)
        assert np.array_equal(col.eval_is_not_null(), ~nulls)

    def test_compare_to_null_is_false(self, column):
        _, _, col = column
        assert not col.eval_compare("=", None).any()
        assert not col.eval_between(None, 10).any()

    def test_absent_value_equality(self):
        col = compress_column(np.array([1, 2, 3]))
        assert not col.eval_compare("=", 99).any()
        assert col.eval_compare("<>", 99).all()

    def test_minus_codec_predicates(self):
        values = np.arange(10_000, 20_000)
        col = compress_column(values)
        assert col.codec.name == "minus"
        got = col.eval_compare(">=", 15_000)
        assert np.array_equal(got, values >= 15_000)

    def test_raw_codec_predicates(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=70_000)
        col = compress_column(values)
        assert col.codec.name == "raw"
        assert np.array_equal(col.eval_compare("<", 0.0), values < 0.0)
        assert np.array_equal(col.eval_between(-1.0, 1.0), (values >= -1) & (values <= 1))
        assert np.array_equal(col.eval_in([values[0]]), values == values[0])

    def test_string_predicates(self):
        values = np.array(["ca", "ny", "tx", "ca", "wa"], dtype=object)
        col = compress_column(values)
        assert list(col.eval_compare("=", "ca")) == [True, False, False, True, False]
        assert list(col.eval_compare(">", "ny")) == [False, False, True, False, True]

    def test_codes_to_ranges_coalesces(self):
        assert _codes_to_ranges([1, 2, 3, 7, 9, 10]) == [(1, 3), (7, 7), (9, 10)]
        assert _codes_to_ranges([]) == []
        assert _codes_to_ranges([4, 4, 5]) == [(4, 5)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_roundtrip_with_nulls(data):
    """Every codec must decode back exactly what was stored, for any mix of
    values and NULL positions (null slots are don't-care in the values)."""
    n = data.draw(st.integers(min_value=1, max_value=300))
    values = np.array(
        data.draw(
            st.lists(
                st.integers(min_value=-5000, max_value=5000), min_size=n, max_size=n
            )
        ),
        dtype=np.int64,
    )
    nulls = np.array(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    force = data.draw(st.sampled_from([None, "dictionary", "minus", "raw"]))
    col = compress_column(values, nulls if nulls.any() else None, force=force)
    decoded, mask = col.decode()
    if nulls.any():
        assert np.array_equal(mask, nulls)
        assert np.array_equal(decoded[~nulls], values[~nulls])
    else:
        assert mask is None
        assert np.array_equal(decoded, values)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_string_dictionary_roundtrip(data):
    n = data.draw(st.integers(min_value=1, max_value=200))
    strings = data.draw(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                min_size=0,
                max_size=12,
            ),
            min_size=n,
            max_size=n,
        )
    )
    values = np.array(strings, dtype=object)
    col = compress_column(values)
    assert col.codec.name == "dictionary"
    decoded, mask = col.decode()
    assert mask is None
    assert list(decoded) == strings


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_compressed_predicates_match_numpy(data):
    n = data.draw(st.integers(min_value=1, max_value=400))
    values = np.array(
        data.draw(
            st.lists(st.integers(min_value=-1000, max_value=1000), min_size=n, max_size=n)
        ),
        dtype=np.int64,
    )
    op = data.draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    k = data.draw(st.integers(min_value=-1100, max_value=1100))
    force = data.draw(st.sampled_from(["dictionary", "minus"]))
    col = compress_column(values, force=force)
    got = col.eval_compare(op, k)
    expected = {
        "=": values == k,
        "<>": values != k,
        "<": values < k,
        "<=": values <= k,
        ">": values > k,
        ">=": values >= k,
    }[op]
    assert np.array_equal(got, expected)
    assert isinstance(col, CompressedColumn)


# -- a sparse selection is row ids: at-ids == everything-then-index ------------


def _draw_column(data):
    """A compressed column of any codec, numeric or string, NULL-free, with
    NULLs, or all NULL; returns ``(column, values, nulls)``."""
    n = data.draw(st.integers(min_value=1, max_value=200))
    kind = data.draw(st.sampled_from(["dictionary", "minus", "raw", "string"]))
    if kind == "string":
        pool = ["", "a", "ab", "b", "zebra", "Zed"]
        values = np.array(
            data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=object
        )
        force = None
    else:
        values = np.array(
            data.draw(st.lists(st.integers(min_value=-40, max_value=40), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        force = kind
    null_shape = data.draw(st.sampled_from(["none", "some", "all"]))
    if null_shape == "none":
        nulls = None
    elif null_shape == "all":
        nulls = np.ones(n, dtype=bool)
    else:
        nulls = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return compress_column(values, nulls, force=force), values, nulls


def _draw_ids(data, n):
    ids = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True, max_size=30))
    return np.array(sorted(ids), dtype=np.int64)


def _draw_predicate(data, values):
    constant = (
        st.sampled_from(["", "a", "b", "m", "zebra"])
        if values.dtype == object
        else st.integers(min_value=-45, max_value=45)
    )
    op = data.draw(st.sampled_from(
        ["=", "<>", "<", "<=", ">", ">=", "BETWEEN", "IN", "IS NULL", "IS NOT NULL"]
    ))
    if op == "BETWEEN":
        return op, (data.draw(constant), data.draw(constant))
    if op == "IN":
        return op, data.draw(st.lists(st.one_of(st.none(), constant), max_size=4))
    if op in ("IS NULL", "IS NOT NULL"):
        return op, None
    return op, data.draw(st.one_of(st.none(), constant))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_decode_at_ids_equals_decode_then_index(data):
    col, _values, _nulls = _draw_column(data)
    ids = _draw_ids(data, col.n)
    values, nulls = col.decode()
    taken, taken_nulls = col.decode(ids)
    assert taken.dtype == values.dtype
    assert taken.tolist() == values[ids].tolist()
    if nulls is None:
        assert taken_nulls is None
    else:
        assert np.array_equal(taken_nulls, nulls[ids])
    coded = col.decode_coded()
    coded_at = col.decode_coded(ids)
    if coded is None:
        assert coded_at is None
        return
    codes, dictionary, _ = coded
    codes_at, dictionary_at, nulls_at = coded_at
    assert dictionary_at is dictionary and not dictionary.flags.writeable
    assert codes_at.dtype == np.int64 and np.array_equal(codes_at, codes[ids])
    # the coded output against its materialised twin (the PR-19 check)
    assert dictionary[codes_at].tolist() == taken.tolist()
    assert (nulls_at is None) == (nulls is None)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_property_predicate_at_ids_equals_predicate_then_index(data):
    col, values, nulls = _draw_column(data)
    ids = _draw_ids(data, col.n)
    op, constant = _draw_predicate(data, values)
    everywhere = col.eval(op, constant)
    assert everywhere.dtype == bool and everywhere.size == col.n
    at_ids = col.eval(op, constant, ids)
    assert at_ids.dtype == bool
    assert np.array_equal(at_ids, everywhere[ids])
    # and the kernel's words, read either way, are that same answer
    words = col.eval_words(op, constant)
    if words is None:
        assert col.raw is not None or op in ("IS NULL", "IS NOT NULL")
    else:
        assert np.array_equal(col.words_mask(words), everywhere)
        assert np.array_equal(col.words_positions(words), np.flatnonzero(everywhere))
    if nulls is not None and op != "IS NULL":
        assert not everywhere[nulls].any()  # NULLs never match


def test_eval_is_the_named_predicates():
    values = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
    nulls = np.array([0, 0, 1, 0, 0, 0, 0, 1], dtype=bool)
    col = compress_column(values, nulls, force="minus")
    assert np.array_equal(col.eval(">=", 4), col.eval_compare(">=", 4))
    assert np.array_equal(col.eval("BETWEEN", (1, 3)), col.eval_between(1, 3))
    assert np.array_equal(col.eval("IN", [1, 9, None]), col.eval_in([1, 9, None]))
    assert np.array_equal(col.eval("IS NULL"), col.eval_is_null())
    assert np.array_equal(col.eval("IS NOT NULL"), col.eval_is_not_null())
    assert col.eval("<>", 1).tolist() == [True, False, False, False, True, True, True, False]
    assert col.eval("<>", 1, np.array([1, 2, 4], dtype=np.int64)).tolist() == [False, False, True]
