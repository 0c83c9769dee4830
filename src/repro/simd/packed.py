"""Word-level helpers for fieldwise (SWAR) arithmetic on packed codes.

For a code width ``w`` the packed layout uses fields of ``w + 1`` bits; the
top bit of each field (the *result bit*) is spare so that fieldwise add and
subtract never borrow across fields.  These helpers build the replicated
constants the predicate kernels need.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_WORD_BITS = 64


@lru_cache(maxsize=None)
def _lane_geometry(width: int) -> tuple[int, int, np.ndarray]:
    """Return (field_bits, codes_per_word, lane shift vector)."""
    field = width + 1
    cpw = _WORD_BITS // field
    shifts = (np.arange(cpw, dtype=np.uint64) * np.uint64(field))
    return field, cpw, shifts


@lru_cache(maxsize=None)
def _lane_pattern(width: int) -> int:
    """Word with bit 0 of every field set (the fieldwise '1' constant)."""
    field, cpw, _ = _lane_geometry(width)
    pattern = 0
    for lane in range(cpw):
        pattern |= 1 << (lane * field)
    return pattern


@lru_cache(maxsize=None)
def high_bit_mask(width: int) -> int:
    """Word with the result (top) bit of every field set."""
    return _lane_pattern(width) << width


def replicate_constant(value: int, width: int) -> int:
    """Replicate a ``width``-bit constant into every field of a word."""
    if not 0 <= value < (1 << width):
        raise ValueError("constant %d does not fit in %d bits" % (value, width))
    return _lane_pattern(width) * value


def result_bit_positions(width: int) -> np.ndarray:
    """Bit positions of the per-field result bits, one per lane."""
    field, cpw, shifts = _lane_geometry(width)
    return shifts + np.uint64(width)


def last_word_mask(width: int, n: int) -> int:
    """Result bits of the lanes of the last word that hold one of the ``n``
    codes; the remaining lanes of that word are padding."""
    field, cpw, _ = _lane_geometry(width)
    lanes = n % cpw or cpw
    return high_bit_mask(width) & ((1 << (lanes * field)) - 1)


def extract_result_bits(result_words: np.ndarray, width: int, n: int) -> np.ndarray:
    """Turn per-field result bits into a boolean array of length ``n`` (the
    dense extractor: every word expands to one lane per code)."""
    positions = result_bit_positions(width)[None, :]
    lanes = (result_words[:, None] >> positions) & np.uint64(1)
    return lanes.reshape(-1)[:n].astype(bool)


def count_result_bits(result_words: np.ndarray) -> int:
    """How many codes a kernel's result words select."""
    return int(np.bitwise_count(result_words).sum())


def result_positions(result_words: np.ndarray, width: int) -> np.ndarray:
    """Row positions of the set result bits, strictly increasing int64 (the
    sparse extractor: only the non-zero words are expanded).

    The words must carry no bit in a padding lane — the kernels of
    :mod:`repro.simd.predicates` clear them — so that this equals
    ``np.flatnonzero(extract_result_bits(result_words, width, n))``.
    """
    _, cpw, _ = _lane_geometry(width)
    hit_words = np.flatnonzero(result_words != 0)  # bool: numpy's fast nonzero
    positions = result_bit_positions(width)[None, :]
    lanes = (result_words[hit_words][:, None] >> positions) & np.uint64(1)
    word, lane = np.nonzero(lanes)
    return hit_words[word] * cpw + lane
