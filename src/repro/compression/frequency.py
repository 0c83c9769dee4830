"""Frequency encoding: Huffman-style partitioned dictionary codes.

Paper section II.B.1: "variations of Huffman encoding for lower cardinality
fields known as frequency encoding ... ensures that data with the highest
frequency of occurrence are encoded with the shortest representation",
and II.B.2: codes are order-preserving "within any frequency partition".

Distinct values are ranked by frequency and assigned to partitions of
geometrically growing capacity (2, 4, 16, 256, ... values).  Global codes
are dense integers ordered by ``(partition, value)``: the hottest values get
the numerically smallest codes, so storage regions that contain only hot
values need very few bits per code (down to one bit, as the paper claims),
while codes remain binary-comparable within each partition.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.util.bitpack import bits_needed

#: Default partition capacities as bit widths: partition t holds up to
#: ``2**_TIER_BITS[t]`` values.  The final width repeats as needed.
_TIER_BITS = (1, 2, 4, 8, 12, 16, 20, 24)


class FrequencyEncoding:
    """A frequency-partitioned, order-preserving dictionary for one column."""

    def __init__(self, values: np.ndarray, tier_bits: tuple[int, ...] = _TIER_BITS):
        """Build the encoding from the full column contents.

        Args:
            values: all non-null values of the column (frequencies matter).
            tier_bits: partition capacities, as bit widths per tier.
        """
        values = np.asarray(values)
        counts = Counter(values.tolist())
        ranked = [v for v, _ in counts.most_common()]
        self._partitions: list[np.ndarray] = []
        self._bases: list[int] = []
        base = 0
        tier = 0
        while ranked:
            width = tier_bits[min(tier, len(tier_bits) - 1)]
            take = min(len(ranked), 1 << width)
            members = np.asarray(sorted(ranked[:take]), dtype=values.dtype)
            ranked = ranked[take:]
            self._partitions.append(members)
            self._bases.append(base)
            base += take
            tier += 1
        self._cardinality = base
        self._width = bits_needed(max(0, base - 1))
        self._code_of = {}
        if base == 0:
            # Degenerate dictionary (a region whose rows are all NULL):
            # keep one don't-care slot so code 0 — the packed filler for
            # NULL positions — decodes without faulting.
            decode = (
                np.array([""], dtype=object)
                if values.dtype == object
                else np.zeros(1, dtype=values.dtype)
            )
        else:
            decode = np.empty(base, dtype=values.dtype if values.size else object)
        for members, pbase in zip(self._partitions, self._bases):
            for rank, value in enumerate(members.tolist()):
                code = pbase + rank
                self._code_of[value] = code
                decode[code] = value
        self._decode = decode

    @property
    def cardinality(self) -> int:
        return self._cardinality

    @property
    def code_width(self) -> int:
        """Bits needed for the widest (coldest) code."""
        return self._width

    def partition_of(self, code: int) -> int:
        """Index of the frequency partition a code belongs to."""
        for p in range(len(self._bases) - 1, -1, -1):
            if code >= self._bases[p]:
                return p
        raise ValueError("negative code")

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Map values to global codes (KeyError on unknown values)."""
        values = np.asarray(values)
        out = np.empty(values.size, dtype=np.uint64)
        code_of = self._code_of
        for i, v in enumerate(values.reshape(-1).tolist()):
            out[i] = code_of[v]
        return out

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Map global codes back to values."""
        return self._decode[np.asarray(codes, dtype=np.int64)]

    def code_for(self, value) -> int | None:
        """Global code for one value, or None if the value is unknown."""
        return self._code_of.get(value)

    def code_ranges(self, lo, hi, *, lo_open: bool = False, hi_open: bool = False):
        """Translate a value range into per-partition code ranges.

        Because codes are order-preserving only within a partition, a value
        interval maps to at most one inclusive code range per partition.
        The returned list of ``(code_lo, code_hi)`` pairs is what the
        software-SIMD kernel evaluates directly on compressed data.
        """
        ranges = []
        for members, base in zip(self._partitions, self._bases):
            first = 0
            last = members.size - 1
            if lo is not None:
                side = "right" if lo_open else "left"
                first = int(np.searchsorted(members, lo, side=side))
            if hi is not None:
                side = "left" if hi_open else "right"
                last = int(np.searchsorted(members, hi, side=side)) - 1
            if first <= last:
                ranges.append((base + first, base + last))
        return ranges

    def expected_bits_per_value(self, values: np.ndarray) -> float:
        """Average storage bits per value under page-local widths.

        Approximates the benefit of frequency partitioning: a value in
        partition ``p`` costs ``bits_needed(base_p + size_p - 1)`` bits when
        its page contains only partitions ``<= p``.
        """
        values = np.asarray(values)
        if values.size == 0:
            return 0.0
        total = 0
        for v in values.reshape(-1).tolist():
            code = self._code_of[v]
            total += bits_needed(code)
        return total / values.size

    def nbytes(self) -> int:
        """Approximate size of the dictionary structures."""
        if self._decode.dtype == object:
            return sum(len(str(v)) for v in self._decode) + 8 * self._cardinality
        return int(self._decode.nbytes)
