"""Vectorised key factorisation kernels for group-by at every DOP.

Sorting every row to assign group codes (``np.unique(return_inverse)``) is
``O(n log n)``, and on string keys each comparison is a Python call.
Analytical group keys are overwhelmingly *small-domain* — dictionary-coded
strings and dense surrogate ids — so these kernels factorise in ``O(n)``:

* int64 keys whose value span is comparable to the row count use a
  direct-address presence table plus a ``cumsum`` rank scan (two passes,
  both single numpy calls that release the GIL);
* object (string) arrays hash every element once in C (``dict.fromkeys``),
  sort only the distinct values, and gather ranks — no per-element Python
  bytecode.  For a dictionary-coded key the array handed in is the key's
  *dictionary*, not its rows (:func:`repro.engine.fused.group_codes` then
  gathers ``ranks[codes]``), so a scanned, joined or CASE-built string key
  costs a handful of hashes however many rows it has; only a plain string
  vector (an unsealed tail, a function result) is hashed row by row;
* everything else falls back to ``np.unique``.

All paths produce the same contract: NULL takes code 0 and non-NULL values
take codes ``1..k`` in ascending value order, so group output sorts per
column NULL first, then values ascending, whichever path coded the keys.
"""

from __future__ import annotations

import numpy as np

#: Direct addressing is used while the key span stays within this factor of
#: the row count (plus slack for tiny inputs); beyond it the presence table
#: would thrash cache for no win and the sort-based path takes over.
_DIRECT_SPAN_FACTOR = 4
_DIRECT_SPAN_SLACK = 1024


def factorize_int(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1-based codes for an int64 array with no NULLs.

    Returns ``(codes, uniques)``: ``codes[i]`` is the ascending rank
    (1..k) of ``values[i]`` among the distinct values, ``uniques`` the
    distinct values ascending.
    """
    lo = int(values.min())
    hi = int(values.max())
    span = hi - lo + 1
    if span <= _DIRECT_SPAN_FACTOR * values.size + _DIRECT_SPAN_SLACK:
        shifted = values - lo
        present = np.zeros(span, dtype=bool)
        present[shifted] = True
        ranks = np.cumsum(present)  # 1-based rank at each present slot
        return ranks[shifted], lo + np.flatnonzero(present)
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64) + 1, uniques


def factorize_object(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1-based codes for an object (string) array with no NULLs."""
    items = values.tolist()
    ordered = sorted(dict.fromkeys(items))  # Python str order, distinct only
    rank = dict(zip(ordered, range(1, len(ordered) + 1)))
    codes = np.fromiter(map(rank.__getitem__, items), np.int64, len(items))
    return codes, np.array(ordered, dtype=object)


def factorize(
    values: np.ndarray, nulls: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Factorise one key column, reserving code 0 for NULL rows.

    Returns ``(codes, uniques)`` with ``codes`` an int64 array over all
    rows (NULL rows 0, others 1..k ascending) and ``uniques`` the distinct
    non-NULL values ascending.  The values sitting under NULL slots are
    never ranked, so they cannot open a group or shift a code.
    """
    n = values.shape[0]
    if nulls is not None and nulls.any():
        live = ~nulls
        live_values = values[live]
    else:
        live = None
        live_values = values
    if live_values.size == 0:
        return np.zeros(n, dtype=np.int64), values[:0]
    if values.dtype == np.int64:
        live_codes, uniques = factorize_int(live_values)
    elif values.dtype == object:
        live_codes, uniques = factorize_object(live_values)
    else:
        uniques, inverse = np.unique(live_values, return_inverse=True)
        live_codes = inverse.astype(np.int64) + 1
    if live is None:
        return live_codes, uniques
    codes = np.zeros(n, dtype=np.int64)
    codes[live] = live_codes
    return codes, uniques
