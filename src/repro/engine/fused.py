"""Group coding for GROUP BY: dense group ids from key columns.

The paper's BLU engine gets its speed from running each query stage as a
vectorised kernel over columnar data rather than interpreting tuples.
:func:`group_codes` is the one routine that turns a GROUP BY's key columns
into dense group ids at every DOP (over the :mod:`repro.simd.factorize`
kernels): a dictionary-coded string key is ranked through its dictionary
and never materialised, and :func:`row_coding_reason` names the
exceptions.  :func:`min_max_span` is the MIN / MAX scatter.  The one
GROUP BY pass that uses both lives in :mod:`repro.engine.aggregate`.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.simd.factorize import factorize, factorize_int

#: Combined radix beyond which multi-column key packing would overflow
#: int64; :func:`group_codes` compacts the packed codes before going on.
_RADIX_LIMIT = 1 << 62

_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min


# -- group-key encoding ----------------------------------------------------------


def row_coding_reason(vector):
    """Why :func:`group_codes` must code ``vector`` row by row, or None when
    it ranks the vector's dictionary instead — decided by the input alone."""
    if vector.codes is None:
        return "plain-input"
    if vector.dictionary.size > vector.codes.size:
        return "dictionary-larger-than-span"
    return None


def key_coding(reasons):
    """Fold :func:`row_coding_reason` of every key into
    ``(path, why)``: ``dictionary`` when every key was ranked through its
    dictionary, ``rows`` when none was, else ``mixed`` (None for no keys),
    and the distinct reasons rows were coded."""
    reasons = list(reasons)
    why = tuple(sorted({r for r in reasons if r is not None}))
    if not reasons:
        return None, why
    if not why:
        return "dictionary", why
    return ("mixed" if None in reasons else "rows"), why


def group_codes(keys):
    """Dense group ids plus per-group key columns for one row span.

    ``keys`` is one :class:`ColumnVector` per key column.  A dictionary-
    coded key no longer than the span is ranked through its *dictionary*
    (``ranks[codes]``: no row's string is hashed); any other key is
    factorised row by row.  Returns ``(ids, key_cols, k)``: int64 ids in
    ``0..k-1`` whose ascending order is the engine's group output order
    (per column NULL first, then values ascending), and ``key_cols`` as
    vectors holding each group's key as it stands in the group's first row
    (a plain key with the physical filler, 0 / "", under NULL).
    """
    combined = None
    size = 1
    for vector in keys:
        if row_coding_reason(vector) is None:
            ranks, uniq = factorize(vector.dictionary, None)
            codes = ranks[vector.codes]
            if vector.nulls is not None:
                codes[vector.nulls] = 0
        else:
            codes, uniq = factorize(vector.values, vector.nulls)
        radix = uniq.size + 1
        if combined is None:
            combined, size = codes, radix
            continue
        if size > _RADIX_LIMIT // radix:
            # The packed code would overflow int64: compact what is packed
            # so far to its dense ranks (at most n + 1 of them, same order).
            combined, packed = factorize_int(combined)
            size = packed.size + 1
        combined = combined * radix + codes
        size *= radix
    packed_codes, packed_uniques = factorize_int(combined)
    ids = packed_codes - 1
    k = packed_uniques.size
    first_row = np.full(k, ids.size, dtype=np.int64)
    np.minimum.at(first_row, ids, np.arange(ids.size))
    key_cols = []
    for vector in keys:
        group = vector.take(first_row)
        if group.codes is None and group.nulls is not None:
            group.values[group.nulls] = "" if group.values.dtype == object else 0
        key_cols.append(group)
    return ids, key_cols, k


# -- MIN / MAX -------------------------------------------------------------------


def min_max_span(kind, ids, values, k):
    """Per-group MIN/MAX of ``values`` over ``k`` groups.

    Numeric arrays use a single ``ufunc.at`` scatter with the identity
    sentinel (the caller tells empty groups by count, never by sentinel
    value); object (string) arrays keep a ``None``-marked Python
    reduction.
    """
    if values.dtype == object:
        out = np.full(k, None, dtype=object)
        if kind == "min":
            for g, v in zip(ids.tolist(), values.tolist()):
                cur = out[g]
                if cur is None or v < cur:
                    out[g] = v
        else:
            for g, v in zip(ids.tolist(), values.tolist()):
                cur = out[g]
                if cur is None or v > cur:
                    out[g] = v
        return out
    if values.dtype == np.int64:
        sentinel = _INT64_MAX if kind == "min" else _INT64_MIN
    else:
        sentinel = np.inf if kind == "min" else -np.inf
    out = np.full(k, sentinel, dtype=values.dtype)
    if values.size:
        (np.minimum if kind == "min" else np.maximum).at(out, ids, values)
    return out


# Constant: benchmarks/e2e/layers.py reads it (engine.pipeline_cache_hit_rate); goes with ROADMAP 4(d)'s benchmark PR.
PIPELINE_CACHE = SimpleNamespace(stats=lambda: {"hits": 0, "misses": 0})
