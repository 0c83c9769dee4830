"""Bit packing of dictionary codes into 64-bit words.

This is the storage substrate for the software-SIMD techniques of the paper
(section II.B.6): codes of any width ``w`` are packed bit-aligned into 64-bit
words so that many values are processed per word.  Following BLU's published
layout, each code occupies a *field* of ``w + 1`` bits — one spare leading
bit per field — so fieldwise arithmetic (equality, range comparison) can be
performed on whole words without borrows crossing field boundaries.

Only fields within one word are used; codes never straddle a word boundary
(the top ``64 mod (w+1)`` bits of each word are unused).  This mirrors the
word-aligned "bank" layout in the BLU literature and keeps random access
cheap: code ``i`` lives in word ``i // cpw`` at shift ``(i % cpw) * (w+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WORD_BITS = 64


def bits_needed(max_code: int) -> int:
    """Return the minimum code width (>= 1) able to represent ``max_code``.

    >>> bits_needed(0)
    1
    >>> bits_needed(1)
    1
    >>> bits_needed(255)
    8
    >>> bits_needed(256)
    9
    """
    if max_code < 0:
        raise ValueError("codes must be non-negative, got %d" % max_code)
    return max(1, int(max_code).bit_length())


def _layout(width: int) -> tuple[int, int]:
    """Return ``(field_bits, codes_per_word)`` for a code width."""
    if not 1 <= width <= 62:
        raise ValueError("code width must be in [1, 62], got %d" % width)
    field = width + 1
    return field, _WORD_BITS // field


@dataclass(frozen=True)
class PackedArray:
    """An immutable vector of ``n`` codes of ``width`` bits, packed in words.

    Attributes:
        words: uint64 array holding the packed codes.
        n: number of logical codes.
        width: code width in bits (the field width is ``width + 1``).
    """

    words: np.ndarray
    n: int
    width: int

    @property
    def field_bits(self) -> int:
        """Width of one field (code plus its spare predicate bit)."""
        return self.width + 1

    @property
    def codes_per_word(self) -> int:
        """How many codes each 64-bit word holds."""
        return _WORD_BITS // self.field_bits

    def nbytes(self) -> int:
        """Physical size of the packed representation in bytes."""
        return int(self.words.nbytes)

    def __len__(self) -> int:
        return self.n

    def get(self, i: int) -> int:
        """Random access to code ``i`` (for point lookups and tests)."""
        if not 0 <= i < self.n:
            raise IndexError("code index %d out of range [0, %d)" % (i, self.n))
        cpw = self.codes_per_word
        word = int(self.words[i // cpw])
        shift = (i % cpw) * self.field_bits
        return (word >> shift) & ((1 << self.width) - 1)

    def take(self, ids: np.ndarray) -> np.ndarray:
        """The codes at row positions ``ids`` (:meth:`get`, vectorised):
        only the words holding those rows are read.  Positions must lie in
        ``[0, n)``; returns a uint64 array aligned with ``ids``."""
        word, lane = np.divmod(np.asarray(ids, dtype=np.int64), self.codes_per_word)
        shifts = (lane * self.field_bits).astype(np.uint64)
        return (self.words[word] >> shifts) & np.uint64((1 << self.width) - 1)


def pack_codes(codes: np.ndarray, width: int) -> PackedArray:
    """Pack non-negative integer ``codes`` of ``width`` bits into words.

    Args:
        codes: 1-D array of non-negative integers, each < 2**width.
        width: code width in bits, 1..62.

    Returns:
        A :class:`PackedArray` covering all input codes.
    """
    field, cpw = _layout(width)
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    if codes.ndim != 1:
        raise ValueError("codes must be 1-D")
    if codes.size and int(codes.max()) >= (1 << width):
        raise ValueError(
            "code %d does not fit in %d bits" % (int(codes.max()), width)
        )
    n = codes.size
    nwords = -(-n // cpw) if n else 0
    padded = np.zeros(nwords * cpw, dtype=np.uint64)
    padded[:n] = codes
    lanes = padded.reshape(nwords, cpw)
    shifts = (np.arange(cpw, dtype=np.uint64) * np.uint64(field))[None, :]
    words = np.bitwise_or.reduce(lanes << shifts, axis=1)
    return PackedArray(words=words, n=n, width=width)


def unpack_codes(packed: PackedArray) -> np.ndarray:
    """Inverse of :func:`pack_codes`: return the codes as a uint64 array."""
    field, cpw = _layout(packed.width)
    if packed.n == 0:
        return np.zeros(0, dtype=np.uint64)
    shifts = (np.arange(cpw, dtype=np.uint64) * np.uint64(field))[None, :]
    mask = np.uint64((1 << packed.width) - 1)
    lanes = (packed.words[:, None] >> shifts) & mask
    return lanes.reshape(-1)[: packed.n]
