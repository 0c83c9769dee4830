"""Per-column codec selection and the compressed-column container.

``compress_column`` inspects a region's values and picks the best encoding
(paper section II.B.1: "Compression is then optimized globally per column as
well as locally per storage page"):

* low-cardinality domains (and all strings) -> frequency-partitioned
  dictionary (:class:`DictionaryCodec`);
* high-cardinality integers (ids, scaled decimals, dates) -> minus encoding
  (:class:`MinusCodec`);
* high-cardinality floating point -> uncompressed (:class:`RawCodec`).

The resulting :class:`CompressedColumn` is the unit the query engine scans:
its ``eval*`` methods evaluate predicates **without decoding**, using the
software-SIMD kernels of :mod:`repro.simd.predicates`, and both predicates
and ``decode`` take row ids, so a sparse selection touches only its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.frequency import FrequencyEncoding
from repro.compression.minus import MinusEncoding
from repro.compression.prefix import prefix_savings
from repro.simd.packed import extract_result_bits, result_positions
from repro.simd.predicates import COMPARISONS, in_ranges_words, negate_words
from repro.util.bitpack import PackedArray, pack_codes, unpack_codes

#: Above this many distinct values a numeric column switches to minus/raw.
DICTIONARY_CARDINALITY_LIMIT = 1 << 16

_NULL_TESTS = ("IS NULL", "IS NOT NULL")


class DictionaryCodec:
    """Frequency-partitioned dictionary codec (strings and low-card values)."""

    name = "dictionary"

    def __init__(self, values: np.ndarray):
        self.encoding = FrequencyEncoding(values)
        self._prefix_saved = 0
        if values.dtype == object and values.size:
            self._prefix_saved = prefix_savings(
                [s for s in values.tolist() if isinstance(s, str)]
            )

    @property
    def code_width(self) -> int:
        return self.encoding.code_width

    def encode(self, values: np.ndarray) -> np.ndarray:
        return self.encoding.encode(values)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return self.encoding.decode(codes)

    @property
    def dictionary(self) -> np.ndarray:
        """The decode table (code -> value), handed out read-only: coded
        vectors share it with the codec."""
        table = self.encoding._decode
        table.flags.writeable = False
        return table

    def code_for(self, value):
        return self.encoding.code_for(value)

    def code_ranges(self, lo, hi, *, lo_open=False, hi_open=False):
        return self.encoding.code_ranges(lo, hi, lo_open=lo_open, hi_open=hi_open)

    def nbytes(self) -> int:
        return max(0, self.encoding.nbytes() - self._prefix_saved)


class MinusCodec:
    """Minus (frame-of-reference) codec for high-cardinality integers."""

    name = "minus"

    def __init__(self, values: np.ndarray):
        self.encoding = MinusEncoding(values)

    @property
    def code_width(self) -> int:
        return self.encoding.code_width

    def encode(self, values: np.ndarray) -> np.ndarray:
        return self.encoding.encode(values)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return self.encoding.decode(codes)

    def code_for(self, value):
        return self.encoding.code_for(value)

    def code_ranges(self, lo, hi, *, lo_open=False, hi_open=False):
        return self.encoding.code_ranges(lo, hi, lo_open=lo_open, hi_open=hi_open)

    def nbytes(self) -> int:
        return self.encoding.nbytes()


class RawCodec:
    """No compression (high-cardinality floating point)."""

    name = "raw"
    code_width = 64

    def nbytes(self) -> int:
        return 0


@dataclass
class CompressedColumn:
    """One column region in its compressed, scannable form.

    Exactly one of ``packed`` (dictionary / minus codecs) or ``raw``
    (RawCodec) is set.  ``nulls`` is a boolean mask (True = NULL) or None
    when the region has no NULLs.  ``raw`` and ``nulls`` are read-only:
    a decode of every row hands them out as they are, so a write through
    a vector raises instead of changing the region.
    """

    codec: object
    n: int
    packed: PackedArray | None = None
    raw: np.ndarray | None = None
    nulls: np.ndarray | None = None

    # -- lifecycle ---------------------------------------------------------

    def __post_init__(self):
        for name in ("raw", "nulls"):
            array = getattr(self, name)
            if array is not None and array.flags.writeable:
                array = array.view()  # the caller's array keeps its flags
                array.flags.writeable = False
                setattr(self, name, array)

    def __setstate__(self, state):
        # A checkpoint image unpickles writeable arrays.
        self.__dict__.update(state)
        self.__post_init__()

    def _nulls(self, ids) -> np.ndarray | None:
        if ids is None or self.nulls is None:
            return self.nulls
        return self.nulls[ids]

    def _codes(self, ids) -> np.ndarray:
        """Every packed code, or only those at the row positions ``ids``."""
        if ids is None:
            return unpack_codes(self.packed)
        return self.packed.take(ids)

    def decode(self, ids=None) -> tuple[np.ndarray, np.ndarray | None]:
        """Materialise ``(values, nulls)`` — of every row, or of the rows at
        positions ``ids`` alone; NULL slots hold a filler value."""
        if self.raw is not None:
            return (self.raw if ids is None else self.raw[ids]), self._nulls(ids)
        return self.codec.decode(self._codes(ids)), self._nulls(ids)

    def decode_coded(self, ids=None):
        """``(codes, dictionary, nulls)`` with ``dictionary[codes]`` the
        values, for a dictionary-coded string column (all rows, or those at
        ``ids``); None for every other column.

        No value is gathered: the codes are the unpacked positions and the
        dictionary is the codec's own decode table — shared, so read-only.
        """
        dictionary = getattr(self.codec, "dictionary", None)
        if dictionary is None or dictionary.dtype != object:
            return None
        return self._codes(ids).view(np.int64), dictionary, self._nulls(ids)

    def nbytes(self) -> int:
        """Physical footprint: packed words + codec metadata + null bitmap."""
        size = self.codec.nbytes()
        if self.packed is not None:
            size += self.packed.nbytes()
        if self.raw is not None:
            size += int(self.raw.nbytes)
        if self.nulls is not None:
            size += (self.n + 7) // 8
        return size

    def slice_rows(self, row_lo: int, row_hi: int) -> tuple["CompressedColumn", int]:
        """A view over ``[row_lo, row_hi)`` aligned down to word boundaries.

        Returns ``(column_slice, aligned_lo)``: the slice starts at
        ``aligned_lo <= row_lo`` so packed words need no re-shifting.  Used
        by data skipping to evaluate predicates only on surviving extents.
        """
        if self.raw is not None:
            lo = max(0, row_lo)
            hi = min(self.n, row_hi)
            nulls = self.nulls[lo:hi] if self.nulls is not None else None
            return (
                CompressedColumn(codec=self.codec, n=hi - lo, raw=self.raw[lo:hi], nulls=nulls),
                lo,
            )
        cpw = self.packed.codes_per_word
        word_lo = max(0, row_lo) // cpw
        word_hi = -(-min(self.n, row_hi) // cpw)
        aligned_lo = word_lo * cpw
        n = min(self.n, word_hi * cpw) - aligned_lo
        from repro.util.bitpack import PackedArray

        packed = PackedArray(
            words=self.packed.words[word_lo:word_hi], n=n, width=self.packed.width
        )
        nulls = (
            self.nulls[aligned_lo : aligned_lo + n] if self.nulls is not None else None
        )
        return CompressedColumn(codec=self.codec, n=n, packed=packed, nulls=nulls), aligned_lo

    # -- predicate evaluation on compressed data ---------------------------

    def _code_ranges(self, op: str, value) -> tuple[list[tuple[int, int]], bool]:
        """``column <op> value`` in the code domain: ``(ranges, negated)`` —
        a non-NULL row matches when its code lies in one of the inclusive
        ranges (``negated``: in none of them).  ``op`` is a comparison,
        ``BETWEEN`` (value ``(lo, hi)``) or ``IN`` (a value list); a NULL
        constant matches nothing."""
        codec = self.codec
        if op == "IN":
            codes = (codec.code_for(v) for v in value if v is not None)
            return _codes_to_ranges(sorted(c for c in codes if c is not None)), False
        if op == "BETWEEN":
            lo, hi = value
            if lo is None or hi is None:
                return [], False
            return codec.code_ranges(lo, hi), False
        if value is None:
            return [], False
        if op in ("=", "<>"):
            code = codec.code_for(value)
            return ([] if code is None else [(code, code)]), op == "<>"
        lo, hi, lo_open, hi_open = _interval_for(op, value)
        return codec.code_ranges(lo, hi, lo_open=lo_open, hi_open=hi_open), False

    def eval_words(self, op: str, value) -> np.ndarray | None:
        """The software-SIMD kernels' result words for ``column <op> value``
        over the packed codes — NULL rows not yet cleared — or None when
        there is nothing to run a kernel on (a raw column, a NULL test).

        The scan counts the bits before it reads the words, as row ids
        (:meth:`words_positions`) or as a mask (:meth:`words_mask`)."""
        if self.packed is None or op in _NULL_TESTS:
            return None
        ranges, negated = self._code_ranges(op, value)
        words = in_ranges_words(self.packed, ranges)
        return negate_words(self.packed, words) if negated else words

    def words_mask(self, words: np.ndarray) -> np.ndarray:
        """Result words as a bool per row, NULL rows cleared."""
        mask = extract_result_bits(words, self.packed.width, self.n)
        if self.nulls is not None:
            mask &= ~self.nulls
        return mask

    def words_positions(self, words: np.ndarray) -> np.ndarray:
        """Result words as the matching row ids (strictly increasing int64),
        NULL rows dropped; costs the words that matched, not the column."""
        ids = result_positions(words, self.packed.width)
        if self.nulls is not None:
            ids = ids[~self.nulls[ids]]
        return ids

    def eval(self, op: str, value=None, ids=None) -> np.ndarray:
        """``column <op> value`` with SQL NULL semantics (NULL -> False), as
        a bool per row — or per position of ``ids``, reading only those
        rows: their codes are gathered and compared as codes, not decoded.

        ``op`` is a comparison, ``BETWEEN``, ``IN``, ``IS NULL`` or
        ``IS NOT NULL`` (the scan's pushed-predicate vocabulary)."""
        nulls = self._nulls(ids)
        if op in _NULL_TESTS:
            n = self.n if ids is None else len(ids)
            is_null = np.zeros(n, dtype=bool) if nulls is None else nulls.copy()
            return is_null if op == "IS NULL" else ~is_null
        if self.raw is None and ids is None:
            return self.words_mask(self.eval_words(op, value))
        if self.raw is not None:
            raw = self.raw if ids is None else self.raw[ids]
            result = _raw_predicate(raw, op, value)
        else:
            codes = self.packed.take(ids)
            ranges, negated = self._code_ranges(op, value)
            result = np.zeros(codes.size, dtype=bool)
            for lo, hi in ranges:
                result |= (codes >= lo) & (codes <= hi)
            if negated:
                result = ~result
        if nulls is not None:
            result &= ~nulls
        return result

    def eval_compare(self, op: str, value) -> np.ndarray:
        """``column <op> value`` on compressed data."""
        return self.eval(op, value)

    def eval_between(self, lo, hi) -> np.ndarray:
        """``column BETWEEN lo AND hi`` on compressed data."""
        return self.eval("BETWEEN", (lo, hi))

    def eval_in(self, values) -> np.ndarray:
        """``column IN (values...)`` on compressed data."""
        return self.eval("IN", values)

    def eval_is_null(self) -> np.ndarray:
        return self.eval("IS NULL")

    def eval_is_not_null(self) -> np.ndarray:
        return self.eval("IS NOT NULL")


def _interval_for(op: str, value):
    """Map a comparison to a half-open/closed value interval."""
    if op == "<":
        return None, value, False, True
    if op == "<=":
        return None, value, False, False
    if op == ">":
        return value, None, True, False
    if op == ">=":
        return value, None, False, False
    raise ValueError("unexpected operator %r" % op)


def _raw_predicate(raw: np.ndarray, op: str, value) -> np.ndarray:
    """A pushed predicate over uncompressed values (NULLs masked by the caller)."""
    if op == "IN":
        return np.isin(raw, [v for v in value if v is not None])
    if op == "BETWEEN":
        lo, hi = value
        if lo is None or hi is None:
            return np.zeros(raw.size, dtype=bool)
        return (raw >= lo) & (raw <= hi)
    if value is None:
        return np.zeros(raw.size, dtype=bool)
    return COMPARISONS[op](raw, value)


def _codes_to_ranges(codes: list[int]) -> list[tuple[int, int]]:
    """Coalesce sorted codes into maximal inclusive ranges."""
    ranges: list[tuple[int, int]] = []
    for code in codes:
        if ranges and code == ranges[-1][1] + 1:
            ranges[-1] = (ranges[-1][0], code)
        elif ranges and code == ranges[-1][1]:
            continue
        else:
            ranges.append((code, code))
    return ranges


def compress_column(
    values: np.ndarray,
    nulls: np.ndarray | None = None,
    *,
    force: str | None = None,
) -> CompressedColumn:
    """Compress one column region, choosing the best codec.

    Args:
        values: physical values (int64 for numeric/temporal kinds, object
            for strings); NULL slots may hold any filler.
        nulls: optional boolean mask, True where the row is NULL.
        force: override codec choice ("dictionary", "minus", "raw") — used
            by tests and ablation benchmarks.

    Returns:
        A scannable :class:`CompressedColumn`.
    """
    values = np.asarray(values)
    n = values.size
    if nulls is not None:
        nulls = np.asarray(nulls, dtype=bool)
        if nulls.size != n:
            raise ValueError("null mask length mismatch")
        if not nulls.any():
            nulls = None
    live = values if nulls is None else values[~nulls]
    choice = force or _choose(values, live)
    if choice == "raw":
        raw = np.asarray(values, dtype=np.float64)
        return CompressedColumn(codec=RawCodec(), n=n, raw=raw, nulls=nulls)
    if choice == "minus":
        codec = MinusCodec(live)
    else:
        codec = DictionaryCodec(live)
    # Only live slots pass through the codec (NULL slots may hold fillers
    # the dictionary never saw — e.g. an all-NULL region); they pack as
    # code 0, a don't-care the null mask hides.
    if nulls is None:
        codes = codec.encode(values)
    else:
        codes = np.zeros(n, dtype=np.uint64)
        codes[~nulls] = codec.encode(live)
    packed = pack_codes(codes, codec.code_width)
    return CompressedColumn(codec=codec, n=n, packed=packed, nulls=nulls)


def _choose(values: np.ndarray, live: np.ndarray) -> str:
    if values.dtype == object:
        return "dictionary"
    if np.issubdtype(values.dtype, np.floating):
        distinct = np.unique(live)
        if distinct.size <= DICTIONARY_CARDINALITY_LIMIT:
            return "dictionary"
        return "raw"
    # Integer domains: prefer a dictionary when it is both small and
    # narrower than the minus spread; otherwise minus always applies.
    if live.size == 0:
        return "minus"
    distinct = np.unique(live)
    if distinct.size <= DICTIONARY_CARDINALITY_LIMIT:
        from repro.util.bitpack import bits_needed

        dict_bits = bits_needed(max(0, distinct.size - 1))
        spread = int(live.max()) - int(live.min())
        if dict_bits < bits_needed(spread):
            return "dictionary"
    return "minus"
