"""Software-SIMD predicate kernels vs. the per-value reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simd.packed import (
    count_result_bits,
    extract_result_bits,
    last_word_mask,
    replicate_constant,
    result_positions,
)
from repro.simd.predicates import (
    COMPARISONS,
    compare_words,
    eval_compare,
    eval_compare_scalar,
    eval_in_ranges,
    eval_range,
    in_ranges_words,
    negate_words,
    range_words,
)
from repro.util.bitpack import PackedArray, pack_codes

OPS = ["=", "<>", "<", "<=", ">", ">="]


def _packed(width, n, seed=0):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << width, size=n, dtype=np.uint64)
    return codes, pack_codes(codes, width)


class TestEvalCompare:
    @pytest.mark.parametrize("width", [1, 3, 8, 13, 21])
    @pytest.mark.parametrize("op", OPS)
    def test_matches_numpy_ground_truth(self, width, op):
        codes, packed = _packed(width, 777, seed=width)
        k = int(codes[len(codes) // 2])
        expected = {
            "=": codes == k,
            "<>": codes != k,
            "<": codes < k,
            "<=": codes <= k,
            ">": codes > k,
            ">=": codes >= k,
        }[op]
        assert np.array_equal(eval_compare(packed, op, k), expected)

    @pytest.mark.parametrize("op", OPS)
    def test_matches_scalar_reference(self, op):
        _, packed = _packed(5, 100, seed=3)
        assert np.array_equal(
            eval_compare(packed, op, 11), eval_compare_scalar(packed, op, 11)
        )

    def test_constant_below_domain(self):
        codes, packed = _packed(4, 50, seed=1)
        assert eval_compare(packed, ">", -1).all()
        assert eval_compare(packed, ">=", -5).all()
        assert not eval_compare(packed, "<", -1).any()
        assert not eval_compare(packed, "=", -1).any()
        assert eval_compare(packed, "<>", -1).all()

    def test_constant_above_domain(self):
        codes, packed = _packed(4, 50, seed=2)
        assert eval_compare(packed, "<", 16).all()
        assert not eval_compare(packed, ">", 16).any()
        assert not eval_compare(packed, "=", 99).any()

    def test_boundary_constants(self):
        codes, packed = _packed(6, 200, seed=4)
        top = (1 << 6) - 1
        assert np.array_equal(eval_compare(packed, "<=", top), np.ones(200, bool))
        assert np.array_equal(eval_compare(packed, ">=", 0), np.ones(200, bool))
        assert np.array_equal(eval_compare(packed, "=", 0), codes == 0)
        assert np.array_equal(eval_compare(packed, "=", top), codes == top)

    def test_empty_input(self):
        packed = pack_codes(np.zeros(0, dtype=np.uint64), 4)
        assert eval_compare(packed, "=", 1).size == 0

    def test_unknown_operator(self):
        _, packed = _packed(4, 10)
        with pytest.raises(ValueError):
            eval_compare(packed, "!!", 1)

    def test_padding_lanes_do_not_leak(self):
        # 61 codes of width 7 leave 3 padding lanes in the last word; the
        # padding holds zeros, which must not appear in the result.
        codes = np.full(61, 5, dtype=np.uint64)
        packed = pack_codes(codes, 7)
        eq0 = eval_compare(packed, "=", 0)
        assert eq0.size == 61
        assert not eq0.any()
        lt6 = eval_compare(packed, "<", 6)
        assert lt6.all()


class TestEvalRange:
    def test_between_inclusive(self):
        codes, packed = _packed(8, 500, seed=5)
        got = eval_range(packed, 50, 180)
        assert np.array_equal(got, (codes >= 50) & (codes <= 180))

    def test_empty_range(self):
        _, packed = _packed(8, 100, seed=6)
        assert not eval_range(packed, 90, 10).any()

    def test_full_domain_range(self):
        _, packed = _packed(4, 100, seed=7)
        assert eval_range(packed, 0, 15).all()

    def test_range_clamped_to_domain(self):
        codes, packed = _packed(4, 100, seed=8)
        got = eval_range(packed, -100, 7)
        assert np.array_equal(got, codes <= 7)


class TestEvalInRanges:
    def test_disjunction_of_ranges(self):
        codes, packed = _packed(8, 400, seed=9)
        got = eval_in_ranges(packed, [(0, 10), (100, 110), (250, 255)])
        expected = (
            (codes <= 10)
            | ((codes >= 100) & (codes <= 110))
            | (codes >= 250)
        )
        assert np.array_equal(got, expected)

    def test_no_ranges_matches_nothing(self):
        _, packed = _packed(8, 50, seed=10)
        assert not eval_in_ranges(packed, []).any()


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=20),
    op=st.sampled_from(OPS),
    data=st.data(),
)
def test_property_simd_equals_numpy(width, op, data):
    n = data.draw(st.integers(min_value=1, max_value=200))
    codes = np.array(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << width) - 1),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.uint64,
    )
    k = data.draw(st.integers(min_value=-2, max_value=(1 << width) + 2))
    packed = pack_codes(codes, width)
    signed = codes.astype(np.int64)
    expected = {
        "=": signed == k,
        "<>": signed != k,
        "<": signed < k,
        "<=": signed <= k,
        ">": signed > k,
        ">=": signed >= k,
    }[op]
    assert np.array_equal(eval_compare(packed, op, k), expected)


# -- result words: positions extractor == dense extractor ----------------------


def _draw_packed(data, width):
    """Codes whose count is (almost never) a multiple of codes-per-word, drawn
    from the domain's edges as often as from its middle."""
    top = (1 << width) - 1
    n = data.draw(st.integers(min_value=1, max_value=150))
    code = st.one_of(st.sampled_from([0, top]), st.integers(min_value=0, max_value=top))
    codes = np.array(data.draw(st.lists(code, min_size=n, max_size=n)), dtype=np.uint64)
    return codes, pack_codes(codes, width)


def _assert_forms_agree(words, packed):
    """Both extractors read the same selection out of a kernel's words, and
    the words carry nothing in the last word's padding lanes."""
    mask = extract_result_bits(words, packed.width, packed.n)
    ids = result_positions(words, packed.width)
    assert ids.dtype == np.int64
    assert np.array_equal(ids, np.flatnonzero(mask))
    assert count_result_bits(words) == ids.size
    return mask


@settings(max_examples=120, deadline=None)
@given(width=st.integers(min_value=1, max_value=62), op=st.sampled_from(OPS), data=st.data())
def test_property_compare_words_positions_equal_mask(width, op, data):
    codes, packed = _draw_packed(data, width)
    top = (1 << width) - 1
    k = data.draw(st.one_of(
        st.sampled_from([-1, 0, top, top + 1]), st.integers(min_value=-2, max_value=top + 2)
    ))
    mask = _assert_forms_agree(compare_words(packed, op, k), packed)
    expected = [COMPARISONS[op](int(c), k) for c in codes.tolist()]
    assert mask.tolist() == expected


@settings(max_examples=120, deadline=None)
@given(width=st.integers(min_value=1, max_value=62), data=st.data())
def test_property_range_words_positions_equal_mask(width, data):
    codes, packed = _draw_packed(data, width)
    top = (1 << width) - 1
    bound = st.integers(min_value=-2, max_value=top + 2)
    ranges = data.draw(st.lists(st.tuples(bound, bound), min_size=0, max_size=4))
    mask = _assert_forms_agree(in_ranges_words(packed, ranges), packed)
    expected = [any(lo <= int(c) <= hi for lo, hi in ranges) for c in codes.tolist()]
    assert mask.tolist() == expected
    for lo, hi in ranges:
        single = _assert_forms_agree(range_words(packed, lo, hi), packed)
        assert single.tolist() == [lo <= int(c) <= hi for c in codes.tolist()]
    negated = _assert_forms_agree(negate_words(packed, in_ranges_words(packed, ranges)), packed)
    assert negated.tolist() == [not hit for hit in expected]


@settings(max_examples=60, deadline=None)
@given(width=st.integers(min_value=1, max_value=62), op=st.sampled_from(OPS), data=st.data())
def test_property_word_aligned_window_positions(width, op, data):
    """A window of whole words (what the scan slices to the surviving
    extents) answers with window-relative positions; its own last word has
    padding only when it is the column's last."""
    codes, packed = _draw_packed(data, width)
    cpw = packed.codes_per_word
    n_words = packed.words.size
    word_lo = data.draw(st.integers(min_value=0, max_value=n_words - 1))
    word_hi = data.draw(st.integers(min_value=word_lo + 1, max_value=n_words))
    lo, hi = word_lo * cpw, min(word_hi * cpw, packed.n)
    window = PackedArray(words=packed.words[word_lo:word_hi], n=hi - lo, width=width)
    k = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    mask = _assert_forms_agree(compare_words(window, op, k), window)
    assert mask.tolist() == [COMPARISONS[op](int(c), k) for c in codes[lo:hi].tolist()]


class TestResultWordKills:
    """Kill tests for the mutants of the word kernels (BENCH_mutation.json):
    the last word's boundary lanes and the negations on the words."""

    def test_last_word_mask_covers_exactly_the_valid_lanes(self):
        # width 7: 8 lanes a word.  61 codes -> 5 valid lanes in word 8.
        assert last_word_mask(7, 61) == sum(1 << (lane * 8 + 7) for lane in range(5))
        # a full last word keeps every lane, none at all would be wrong
        assert last_word_mask(7, 64) == sum(1 << (lane * 8 + 7) for lane in range(8))
        assert last_word_mask(7, 1) == 1 << 7

    @pytest.mark.parametrize("n", [57, 61, 63, 64, 65])
    def test_every_op_keeps_padding_clear_at_the_boundary(self, n):
        codes = np.zeros(n, dtype=np.uint64)  # equal to the padding's code 0
        codes[-1] = 3
        packed = pack_codes(codes, 7)
        for op in OPS:
            for k in (0, 3, -1, 200):
                words = compare_words(packed, op, k)
                ids = result_positions(words, 7)
                expected = [i for i, c in enumerate(codes.tolist()) if COMPARISONS[op](c, k)]
                assert ids.tolist() == expected, (op, k)
                assert count_result_bits(words) == len(expected), (op, k)

    def test_not_equal_is_the_complement_on_the_words(self):
        codes = np.array([5, 0, 5, 7, 0], dtype=np.uint64)
        packed = pack_codes(codes, 3)
        eq = compare_words(packed, "=", 5)
        ne = compare_words(packed, "<>", 5)
        assert result_positions(eq, 3).tolist() == [0, 2]
        assert result_positions(ne, 3).tolist() == [1, 3, 4]
        assert not (eq & ne).any()
        assert np.array_equal(negate_words(packed, eq), ne)
        assert np.array_equal(negate_words(packed, ne), eq)

    def test_single_code_range_is_an_equality(self):
        codes, packed = _packed(9, 333, seed=12)
        k = int(codes[10])
        assert np.array_equal(range_words(packed, k, k), compare_words(packed, "=", k))
        assert np.array_equal(
            in_ranges_words(packed, [(k, k)]), compare_words(packed, "=", k)
        )

    def test_range_starting_one_past_the_domain_matches_nothing(self):
        codes, packed = _packed(5, 77, seed=14)
        for lo in (32, 33):  # 32 == 1 << width: the first constant that does not fit
            assert not range_words(packed, lo, lo + 3).any()
            assert not in_ranges_words(packed, [(lo, lo + 3), (40, 50)]).any()
        assert np.array_equal(
            extract_result_bits(range_words(packed, 31, 40), 5, 77), codes == 31
        )

    def test_replicated_constant_must_fit_the_code_width(self):
        assert replicate_constant(31, 5) == sum(31 << (lane * 6) for lane in range(10))
        for value in (32, 63, -1):
            with pytest.raises(ValueError):
                replicate_constant(value, 5)

    def test_positions_of_no_hit_and_every_hit(self):
        codes, packed = _packed(6, 131, seed=13)
        none = compare_words(packed, "=", 64)  # outside the domain
        assert result_positions(none, 6).size == 0 and count_result_bits(none) == 0
        every = compare_words(packed, "<", 64)
        assert result_positions(every, 6).tolist() == list(range(131))
        empty = pack_codes(np.zeros(0, dtype=np.uint64), 6)
        assert result_positions(compare_words(empty, "=", 0), 6).size == 0
