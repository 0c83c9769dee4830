"""Unit and property tests for the bit-packing substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitpack import PackedArray, bits_needed, pack_codes, unpack_codes


class TestBitsNeeded:
    def test_zero_needs_one_bit(self):
        assert bits_needed(0) == 1

    def test_powers_of_two_boundaries(self):
        assert bits_needed(1) == 1
        assert bits_needed(2) == 2
        assert bits_needed(3) == 2
        assert bits_needed(4) == 3
        assert bits_needed(255) == 8
        assert bits_needed(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bits_needed(-1)


class TestPackRoundtrip:
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 13, 21, 31, 62])
    def test_roundtrip_random(self, width):
        rng = np.random.default_rng(width)
        codes = rng.integers(0, 1 << width, size=1000, dtype=np.uint64)
        packed = pack_codes(codes, width)
        assert np.array_equal(unpack_codes(packed), codes)

    def test_empty(self):
        packed = pack_codes(np.zeros(0, dtype=np.uint64), 4)
        assert len(packed) == 0
        assert unpack_codes(packed).size == 0

    def test_single_code(self):
        packed = pack_codes(np.array([5], dtype=np.uint64), 3)
        assert packed.get(0) == 5
        assert len(packed) == 1

    def test_codes_per_word_layout(self):
        # width 1 -> 2-bit fields -> 32 codes per word
        packed = pack_codes(np.ones(64, dtype=np.uint64), 1)
        assert packed.codes_per_word == 32
        assert packed.words.size == 2

    def test_word_parallelism_is_dense(self):
        # 7-bit codes: 8-bit fields, 8 per word -> 1000 codes in 125 words.
        packed = pack_codes(np.zeros(1000, dtype=np.uint64), 7)
        assert packed.words.size == 125

    def test_code_too_wide_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([8], dtype=np.uint64), 3)

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([0], dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            pack_codes(np.array([0], dtype=np.uint64), 63)

    def test_get_out_of_range(self):
        packed = pack_codes(np.array([1, 2], dtype=np.uint64), 4)
        with pytest.raises(IndexError):
            packed.get(2)
        with pytest.raises(IndexError):
            packed.get(-1)

    def test_random_access_matches_unpack(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 1 << 11, size=257, dtype=np.uint64)
        packed = pack_codes(codes, 11)
        sampled = [packed.get(i) for i in range(0, 257, 13)]
        assert sampled == [int(codes[i]) for i in range(0, 257, 13)]

    def test_nbytes_smaller_than_raw_for_narrow_codes(self):
        codes = np.zeros(10_000, dtype=np.uint64)
        packed = pack_codes(codes, 3)
        assert packed.nbytes() < codes.nbytes / 4


def test_roundtrip_every_legal_width():
    """Exhaustive width sweep: boundary codes (0, 1, max-1, max) plus a
    random fill must round-trip at every width the packer accepts."""
    rng = np.random.default_rng(0)
    for width in range(1, 63):
        top = (1 << width) - 1
        edge = np.array([0, top, 1, max(top - 1, 0), 0, top], dtype=np.uint64)
        fill = rng.integers(0, 1 << width, size=97, dtype=np.uint64)
        codes = np.concatenate([edge, fill])
        packed = pack_codes(codes, width)
        assert np.array_equal(unpack_codes(packed), codes), "width=%d" % width
        assert packed.get(1) == top


@settings(max_examples=50, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=62),
    data=st.data(),
)
def test_property_pack_unpack_roundtrip(width, data):
    n = data.draw(st.integers(min_value=0, max_value=300))
    codes = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            min_size=n,
            max_size=n,
        )
    )
    arr = np.array(codes, dtype=np.uint64)
    packed = pack_codes(arr, width)
    assert np.array_equal(unpack_codes(packed), arr)
    assert isinstance(packed, PackedArray)
    for i in range(0, n, max(1, n // 7)):
        assert packed.get(i) == codes[i]


@settings(max_examples=100, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=62),
    data=st.data(),
)
def test_property_take_equals_unpack_then_index(width, data):
    """Gathering codes at row ids reads the same codes ``unpack_codes``
    materialises — for sorted ids (what a scan hands it), repeated ids, the
    last lane before the padding, and no ids at all."""
    top = (1 << width) - 1
    n = data.draw(st.integers(min_value=1, max_value=300))
    code = st.one_of(st.sampled_from([0, top]), st.integers(min_value=0, max_value=top))
    arr = np.array(data.draw(st.lists(code, min_size=n, max_size=n)), dtype=np.uint64)
    packed = pack_codes(arr, width)
    ids = np.array(
        data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=40)) + [n - 1],
        dtype=np.int64,
    )
    for chosen in (ids, np.unique(ids), ids[:0]):
        got = packed.take(chosen)
        assert got.dtype == np.uint64
        assert np.array_equal(got, unpack_codes(packed)[chosen])
    assert [int(c) for c in packed.take(ids)] == [packed.get(int(i)) for i in ids]
