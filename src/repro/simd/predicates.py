"""Predicate kernels that evaluate comparisons on packed codes.

Each kernel touches only whole 64-bit words: with ``c`` codes per word a
single numpy word operation evaluates the predicate for ``c`` values at once
(paper section II.B.6).  All comparisons treat codes as unsigned integers,
which is sufficient because both dictionary and minus encodings produce
non-negative, order-preserving codes.

A kernel's answer is its **result words** — one bit per code, still packed.
The caller picks how to read them (:mod:`repro.simd.packed`): a bool per code
when many match, row positions when few do.

The arithmetic identities (fields of ``w + 1`` bits, code ``x``, constant
``k``, result bit ``H = 2**w`` per field):

* ``x >= k``:  ``((x | H) - k_rep) & H``  — the borrow out of ``x - k`` is
  absorbed by the spare bit, which survives exactly when ``x >= k``.
* ``x <= k``:  ``((k_rep | H) - x) & H``.
* ``x == k``:  ``(H_rep - (x ^ k_rep)) & H`` — the XOR is zero only on
  equality, and only then does the subtraction leave the spare bit set.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.simd.packed import (
    extract_result_bits,
    high_bit_mask,
    last_word_mask,
    replicate_constant,
)
from repro.util.bitpack import PackedArray

#: The six comparison operators as Python callables (arrays or scalars).
COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _ge_words(words: np.ndarray, k: int, width: int) -> np.ndarray:
    h = np.uint64(high_bit_mask(width))
    krep = np.uint64(replicate_constant(k, width))
    return ((words | h) - krep) & h


def _le_words(words: np.ndarray, k: int, width: int) -> np.ndarray:
    h = np.uint64(high_bit_mask(width))
    krep = np.uint64(replicate_constant(k, width))
    return ((krep | h) - words) & h


def _eq_words(words: np.ndarray, k: int, width: int) -> np.ndarray:
    h = np.uint64(high_bit_mask(width))
    krep = np.uint64(replicate_constant(k, width))
    return (h - (words ^ krep)) & h


#: operator -> (word kernel, whether the operator is the kernel's negation).
_WORD_KERNELS = {
    "=": (_eq_words, False),
    "<>": (_eq_words, True),
    ">=": (_ge_words, False),
    "<": (_ge_words, True),
    "<=": (_le_words, False),
    ">": (_le_words, True),
}


def _clear_padding(result_words: np.ndarray, packed: PackedArray) -> np.ndarray:
    """Zero (in place) the result bits of the last word's padding lanes:
    they hold code 0, which a predicate may well select."""
    if result_words.size:
        result_words[-1] &= np.uint64(last_word_mask(packed.width, packed.n))
    return result_words


def _constant_words(packed: PackedArray, verdict: bool) -> np.ndarray:
    """Result words selecting every code (or none)."""
    fill = high_bit_mask(packed.width) if verdict else 0
    words = np.full(packed.words.size, fill, dtype=np.uint64)
    return _clear_padding(words, packed)


def negate_words(packed: PackedArray, result_words: np.ndarray) -> np.ndarray:
    """Complement of a kernel's result, taken on the words: flip under the
    result-bit mask, then clear the padding lanes the flip just set."""
    h = np.uint64(high_bit_mask(packed.width))
    return _clear_padding(result_words ^ h, packed)


def compare_words(packed: PackedArray, op: str, value: int) -> np.ndarray:
    """Evaluate ``code <op> value`` over all codes, one word at a time.

    Args:
        packed: the packed code vector.
        op: one of ``=``, ``<>``, ``<``, ``<=``, ``>``, ``>=``.
        value: unsigned comparison constant (need not be representable).

    Returns:
        The result words: one uint64 per packed word whose per-field result
        bit is set where the code matches; padding lanes are clear.  Read
        them with :func:`~repro.simd.packed.extract_result_bits` (a bool per
        code) or :func:`~repro.simd.packed.result_positions` (row ids).
    """
    width = packed.width
    if op not in _WORD_KERNELS:
        raise ValueError("unknown comparison operator %r" % op)
    # Out-of-domain constants decide the predicate wholesale.
    if value < 0:
        return _constant_words(packed, op in (">", ">=", "<>"))
    if value >= (1 << width):
        return _constant_words(packed, op in ("<", "<=", "<>"))
    kernel, negated = _WORD_KERNELS[op]
    bits = kernel(packed.words, value, width)
    if negated:
        bits ^= np.uint64(high_bit_mask(width))
    return _clear_padding(bits, packed)


def range_words(packed: PackedArray, lo: int, hi: int) -> np.ndarray:
    """Result words of ``lo <= code <= hi`` (an inclusive BETWEEN on codes)."""
    width = packed.width
    if hi < lo or hi < 0 or lo >= (1 << width):
        return _constant_words(packed, False)
    lo = max(lo, 0)
    hi = min(hi, (1 << width) - 1)
    if lo == 0 and hi == (1 << width) - 1:
        return _constant_words(packed, True)
    if lo == hi:
        return compare_words(packed, "=", lo)
    ge = _ge_words(packed.words, lo, width)
    le = _le_words(packed.words, hi, width)
    # Both kernels put their verdict in the same per-field result bit, so a
    # single AND combines the two range sides without unpacking.
    return _clear_padding(ge & le, packed)


def in_ranges_words(packed: PackedArray, ranges) -> np.ndarray:
    """Result words of the OR of several inclusive code ranges
    ``[(lo, hi), ...]``.

    Frequency encoding maps one value range to one code range per frequency
    partition; this evaluates the whole disjunction on compressed data.
    """
    if len(ranges) == 1:  # the common case: skip the zero fill and the OR
        return range_words(packed, *ranges[0])
    result = np.zeros(packed.words.size, dtype=np.uint64)
    for lo, hi in ranges:
        result |= range_words(packed, lo, hi)
    return result


def eval_compare(packed: PackedArray, op: str, value: int) -> np.ndarray:
    """:func:`compare_words`, as a boolean array of length ``len(packed)``."""
    return extract_result_bits(compare_words(packed, op, value), packed.width, packed.n)


def eval_range(packed: PackedArray, lo: int, hi: int) -> np.ndarray:
    """:func:`range_words`, as a boolean array of length ``len(packed)``."""
    return extract_result_bits(range_words(packed, lo, hi), packed.width, packed.n)


def eval_in_ranges(packed: PackedArray, ranges) -> np.ndarray:
    """:func:`in_ranges_words`, as a boolean array of length ``len(packed)``."""
    return extract_result_bits(in_ranges_words(packed, ranges), packed.width, packed.n)


def eval_compare_scalar(packed: PackedArray, op: str, value: int) -> np.ndarray:
    """Reference per-value implementation (no word parallelism).

    Used in tests as ground truth and in benchmarks as the non-SIMD
    baseline the paper's technique is compared against.
    """
    py_op = COMPARISONS[op]
    out = np.empty(packed.n, dtype=bool)
    for i in range(packed.n):
        out[i] = py_op(packed.get(i), value)
    return out
