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
its ``eval_*`` methods evaluate predicates **without decoding**, using the
software-SIMD kernels of :mod:`repro.simd.predicates`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.frequency import FrequencyEncoding
from repro.compression.minus import MinusEncoding
from repro.compression.prefix import prefix_savings
from repro.simd.predicates import eval_compare, eval_in_ranges
from repro.util.bitpack import PackedArray, pack_codes, unpack_codes

#: Above this many distinct values a numeric column switches to minus/raw.
DICTIONARY_CARDINALITY_LIMIT = 1 << 16

_NEGATED = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


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
    when the region has no NULLs.
    """

    codec: object
    n: int
    packed: PackedArray | None = None
    raw: np.ndarray | None = None
    nulls: np.ndarray | None = None

    # -- lifecycle ---------------------------------------------------------

    def decode(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Materialise ``(values, nulls)``; NULL slots hold a filler value."""
        if self.raw is not None:
            return self.raw, self.nulls
        codes = unpack_codes(self.packed)
        return self.codec.decode(codes), self.nulls

    def decode_coded(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(codes, dictionary)`` with ``dictionary[codes]`` the values, for
        a dictionary-coded string column; None for every other column.

        No value is gathered: the codes are the unpacked positions and the
        dictionary is the codec's own decode table — shared, so read-only.
        """
        dictionary = getattr(self.codec, "dictionary", None)
        if dictionary is None or dictionary.dtype != object:
            return None
        return unpack_codes(self.packed).view(np.int64), dictionary

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

    def _not_null(self) -> np.ndarray | None:
        if self.nulls is None:
            return None
        return ~self.nulls

    def _mask_nulls(self, result: np.ndarray) -> np.ndarray:
        not_null = self._not_null()
        if not_null is not None:
            result &= not_null
        return result

    def eval_compare(self, op: str, value) -> np.ndarray:
        """``column <op> value`` with SQL NULL semantics (NULL -> False)."""
        if value is None:
            return np.zeros(self.n, dtype=bool)
        if self.raw is not None:
            return self._mask_nulls(_raw_compare(self.raw, op, value))
        code = self.codec.code_for(value)
        if op == "=":
            if code is None:
                return np.zeros(self.n, dtype=bool)
            return self._mask_nulls(eval_compare(self.packed, "=", code))
        if op == "<>":
            if code is None:
                result = np.ones(self.n, dtype=bool)
            else:
                result = eval_compare(self.packed, "<>", code)
            return self._mask_nulls(result)
        lo, hi, lo_open, hi_open = _interval_for(op, value)
        ranges = self.codec.code_ranges(lo, hi, lo_open=lo_open, hi_open=hi_open)
        return self._mask_nulls(eval_in_ranges(self.packed, ranges))

    def eval_between(self, lo, hi) -> np.ndarray:
        """``column BETWEEN lo AND hi`` on compressed data."""
        if lo is None or hi is None:
            return np.zeros(self.n, dtype=bool)
        if self.raw is not None:
            result = (self.raw >= lo) & (self.raw <= hi)
            return self._mask_nulls(result)
        ranges = self.codec.code_ranges(lo, hi)
        return self._mask_nulls(eval_in_ranges(self.packed, ranges))

    def eval_in(self, values) -> np.ndarray:
        """``column IN (values...)`` on compressed data."""
        if self.raw is not None:
            result = np.isin(self.raw, [v for v in values if v is not None])
            return self._mask_nulls(result)
        codes = sorted(
            c for c in (self.codec.code_for(v) for v in values if v is not None)
            if c is not None
        )
        ranges = _codes_to_ranges(codes)
        return self._mask_nulls(eval_in_ranges(self.packed, ranges))

    def eval_is_null(self) -> np.ndarray:
        if self.nulls is None:
            return np.zeros(self.n, dtype=bool)
        return self.nulls.copy()

    def eval_is_not_null(self) -> np.ndarray:
        return ~self.eval_is_null()


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


def _raw_compare(raw: np.ndarray, op: str, value) -> np.ndarray:
    if op == "=":
        return raw == value
    if op == "<>":
        return raw != value
    if op == "<":
        return raw < value
    if op == "<=":
        return raw <= value
    if op == ">":
        return raw > value
    return raw >= value


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
