"""Fused region pipelines: predicate→project→aggregate in whole-array passes.

The paper's BLU engine gets its speed from running each query stage as a
vectorised kernel over columnar data rather than interpreting tuples.  This
module is the engine's one parallel aggregate.  It decides which aggregates
merge exactly across spans (:func:`recipe_kind`; ``parallel_safe()`` of the
group-by asks here and nowhere else) and compiles such a ``GroupByOp`` into
*fused kernels*: every pool task makes a handful of GIL-releasing numpy
calls over its span of the drained input and returns small per-group
accumulator arrays that merge associatively.

**Span reduction** (:func:`_reduce_span`): factorise the span's group keys
(:func:`group_codes`, over the :mod:`repro.simd.factorize` kernels — a
dictionary-coded string key is ranked through its dictionary and never
materialised, :func:`row_coding_reason` names the exceptions), then reduce
every aggregate with ``bincount`` / ``ufunc.at`` scatter ops.
:func:`group_codes` and :func:`min_max_span` are also what the whole-column
operator in :mod:`repro.engine.aggregate` runs at DOP 1, and the
accumulator arithmetic is the same (modular int64 sums, float64 division of
exact integer sums for AVG), so merged results are bit-identical to it for
every ``parallel_safe()`` plan.

Pool tasks close over the input arrays; nothing is copied to reach a worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.parallel.morsel import batch_spans
from repro.simd.factorize import factorize, factorize_int
from repro.storage.column import ColumnVector
from repro.types.datatypes import BIGINT, DOUBLE, TypeKind

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
    """Fold :func:`row_coding_reason` of every key (of every span) into
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


# -- aggregate recipes -----------------------------------------------------------


@dataclass
class AggRecipe:
    """One aggregate compiled to a fused reduction.

    ``kind``: ``rows`` (COUNT(*)), ``count``, ``sum``, ``avg``, ``min``,
    ``max``.  ``arg_index`` points into the evaluated argument-vector list
    (-1 for ``rows``).
    """

    kind: str
    alias: str
    out_dtype: object
    arg_index: int = -1


_RECIPE_KINDS = {"COUNT": "count", "SUM": "sum", "AVG": "avg", "MIN": "min", "MAX": "max"}


def recipe_kind(spec):
    """The fused reduction ``spec`` compiles to, or None when its partials
    would not merge exactly across spans.

    COUNT / MIN / MAX always merge exactly; SUM when the physical
    accumulator is int64 (integers and scaled DECIMALs — modular int64
    addition is associative); AVG for integer arguments (one float64
    division of an exact integer sum).  DISTINCT forms and the
    float-accumulating families (DOUBLE SUM/AVG, variance, percentiles)
    round differently under re-association and have no recipe.
    """
    if spec.distinct:
        return None
    kind = _RECIPE_KINDS.get(spec.func.upper())
    if not spec.args:
        return "rows" if kind == "count" else None
    if kind in ("sum", "avg"):
        arg = spec.args[0].dtype
        if not (arg.is_integer or (kind == "sum" and arg.kind is TypeKind.DECIMAL)):
            return None
    return kind


def compile_recipes(aggregates):
    """Compile parallel-safe :class:`AggregateSpec` entries into recipes.

    Returns ``(recipes, arg_exprs)``; the caller evaluates ``arg_exprs``
    once per input batch/region and hands raw arrays to the span kernels.
    Only call for plans where ``GroupByOp.parallel_safe()`` holds.
    """
    recipes = []
    arg_exprs = []
    for spec in aggregates:
        kind = recipe_kind(spec)
        if kind == "rows":
            recipes.append(AggRecipe("rows", spec.alias, spec.output_type()))
            continue
        recipes.append(
            AggRecipe(kind, spec.alias, spec.output_type(), len(arg_exprs))
        )
        arg_exprs.append(spec.args[0])
    return recipes, arg_exprs


# -- span kernels (run inside pool tasks) ----------------------------------------


def min_max_span(kind, ids, values, k):
    """Per-group MIN/MAX accumulators for one span.

    Numeric arrays use a single ``ufunc.at`` scatter with the identity
    sentinel (the merge distinguishes empty groups by count, never by
    sentinel value); object (string) arrays keep a ``None``-marked Python
    reduction over the span's distinct-rows only.
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


def _reduce_span(n, keys, arg_pairs, recipe_kinds):
    """Reduce one contiguous span into per-group accumulator arrays.

    ``keys`` are the span's key vectors, ``arg_pairs`` one ``(values,
    nulls-or-None)`` pair per aggregate argument.  Returns ``(key_cols,
    rows, accs, reasons)`` — all but the last sized to the span's local
    group count k, so a task's result is tiny regardless of span length.
    ``accs`` holds ``None`` for ``rows`` recipes, else ``(counts,
    payload)`` with payload ``None`` (count), int64 sums (sum/avg), or
    min/max accumulators; ``reasons`` is :func:`row_coding_reason` per key.
    """
    if keys:
        ids, key_cols, k = group_codes(keys)
    else:
        ids = np.zeros(n, dtype=np.int64)
        key_cols = []
        k = 1
    rows = np.bincount(ids, minlength=k).astype(np.int64)
    accs = []
    for kind, arg_index in recipe_kinds:
        if kind == "rows":
            accs.append(None)
            continue
        values, nulls = arg_pairs[arg_index]
        if nulls is not None:
            live = ~nulls
            lids = ids[live]
            lvals = values[live]
        else:
            lids = ids
            lvals = values
        counts = np.bincount(lids, minlength=k).astype(np.int64)
        if kind == "count":
            accs.append((counts, None))
        elif kind in ("sum", "avg"):
            if lvals.dtype != np.int64:
                # parallel_safe() guarantees an integral argument; coerce
                # stray representations to the exact accumulator.
                lvals = lvals.astype(np.int64)
            sums = np.zeros(k, dtype=np.int64)
            np.add.at(sums, lids, lvals)
            accs.append((counts, sums))
        else:
            accs.append((counts, min_max_span(kind, lids, lvals, k)))
    return key_cols, rows, accs, [row_coding_reason(v) for v in keys]


# -- global merge ----------------------------------------------------------------


def merge_fused(keys_meta, recipes, partials):
    """Merge span partials into final output columns.

    ``keys_meta`` is ``[(alias, DataType)]`` for the key columns.  The
    candidate group keys of all spans re-encode through
    :func:`group_codes` — a pass over per-span *group counts*, not rows —
    which also fixes the output order to the serial engine's.  Every
    accumulator merge is order-independent (modular int64 addition,
    min/max), so worker scheduling cannot affect the result.
    """
    n_keys = len(keys_meta)
    if partials:
        if n_keys:
            candidates = [
                ColumnVector.concat([p[0][c] for p in partials])
                for c in range(n_keys)
            ]
            gids, key_cols, n_groups = group_codes(candidates)
        else:
            total = sum(p[1].size for p in partials)
            gids = np.zeros(total, dtype=np.int64)
            key_cols = []
            n_groups = 1
    else:
        gids = np.zeros(0, dtype=np.int64)
        key_cols = [
            ColumnVector(dt, np.empty(0, dtype=dt.numpy_dtype)) for _, dt in keys_meta
        ]
        n_groups = 0 if n_keys else 1

    rows = np.zeros(n_groups, dtype=np.int64)
    counts_g: list = []
    payload_g: list = []
    for recipe in recipes:
        if recipe.kind == "rows":
            counts_g.append(None)
            payload_g.append(None)
            continue
        counts_g.append(np.zeros(n_groups, dtype=np.int64))
        if recipe.kind in ("sum", "avg"):
            payload_g.append(np.zeros(n_groups, dtype=np.int64))
        elif recipe.kind in ("min", "max"):
            np_dtype = recipe.out_dtype.numpy_dtype
            if np_dtype == object:
                payload_g.append(np.full(n_groups, None, dtype=object))
            elif np_dtype == np.int64:
                sentinel = _INT64_MAX if recipe.kind == "min" else _INT64_MIN
                payload_g.append(np.full(n_groups, sentinel, dtype=np.int64))
            else:
                sentinel = np.inf if recipe.kind == "min" else -np.inf
                payload_g.append(np.full(n_groups, sentinel, dtype=np_dtype))
        else:
            payload_g.append(None)

    offset = 0
    for _, rows_local, accs_local, _ in partials:
        k_local = rows_local.size
        span_ids = gids[offset : offset + k_local]
        offset += k_local
        np.add.at(rows, span_ids, rows_local)
        for j, recipe in enumerate(recipes):
            if recipe.kind == "rows":
                continue
            counts_local, payload_local = accs_local[j]
            np.add.at(counts_g[j], span_ids, counts_local)
            if recipe.kind in ("sum", "avg"):
                np.add.at(payload_g[j], span_ids, payload_local)
            elif recipe.kind in ("min", "max"):
                if payload_local.dtype == object:
                    target = payload_g[j]
                    if recipe.kind == "min":
                        for pos, value in enumerate(payload_local.tolist()):
                            if value is None:
                                continue
                            g = int(span_ids[pos])
                            cur = target[g]
                            if cur is None or value < cur:
                                target[g] = value
                    else:
                        for pos, value in enumerate(payload_local.tolist()):
                            if value is None:
                                continue
                            g = int(span_ids[pos])
                            cur = target[g]
                            if cur is None or value > cur:
                                target[g] = value
                else:
                    (np.minimum if recipe.kind == "min" else np.maximum).at(
                        payload_g[j], span_ids, payload_local
                    )

    columns: dict[str, ColumnVector] = {}
    for (alias, dtype), group in zip(keys_meta, key_cols):
        group.dtype = dtype
        columns[alias] = group
    for j, recipe in enumerate(recipes):
        if recipe.kind == "rows":
            columns[recipe.alias] = ColumnVector(BIGINT, rows.copy(), None)
            continue
        counts = counts_g[j]
        if recipe.kind == "count":
            columns[recipe.alias] = ColumnVector(BIGINT, counts, None)
            continue
        empty = counts == 0
        nulls = empty if empty.any() else None
        if recipe.kind in ("sum",):
            columns[recipe.alias] = ColumnVector(recipe.out_dtype, payload_g[j], nulls)
        elif recipe.kind == "avg":
            # Exact integer partial sums; one float64 division reproduces
            # the serial result (empty groups: 0 / 1 == the serial filler).
            out = payload_g[j].astype(np.float64) / np.maximum(counts, 1)
            columns[recipe.alias] = ColumnVector(DOUBLE, out, nulls)
        else:
            payload = payload_g[j]
            if payload.dtype == object:
                out = payload
                out[empty] = ""
            else:
                out = payload
                out[empty] = 0  # serial filler under the NULL mask
            columns[recipe.alias] = ColumnVector(recipe.out_dtype, out, nulls)
    return columns, n_groups


# -- batch-level fused group-by (drained child) ----------------------------------


def parallel_group_reduce(op, batch, pool):
    """Fused morsel-parallel group-by over one drained input batch.

    Evaluates key and argument expressions once over the whole batch (one
    vectorised pass each), splits the rows into batched morsel spans, and
    reduces each span with the fused kernels.
    """
    recipes, arg_exprs = compile_recipes(op.aggregates)
    key_vectors = [(alias, expr.eval(batch)) for alias, expr in op.keys]
    arg_vectors = [expr.eval(batch) for expr in arg_exprs]
    arg_pairs = [(v.values, v.nulls) for v in arg_vectors]
    spans = batch_spans(batch.n, op.morsel_rows, pool.parallelism)
    recipe_kinds = [(r.kind, r.arg_index) for r in recipes]

    def task(span):
        lo, hi = span
        keys = [v.take(slice(lo, hi)) for _, v in key_vectors]
        ap = [
            (v[lo:hi], None if m is None else m[lo:hi]) for v, m in arg_pairs
        ]
        return _reduce_span(hi - lo, keys, ap, recipe_kinds)

    partials = pool.map(task, spans, label="group-by")
    op.parallel_run = pool.last_run
    keys_meta = [(alias, v.dtype) for alias, v in key_vectors]
    columns, n_groups = merge_fused(keys_meta, recipes, partials)
    op.fused_mode = "batch-agg"
    op.note_keys(r for p in partials for r in p[3])
    return columns, n_groups


# Constant: benchmarks/e2e/layers.py reads it (engine.pipeline_cache_hit_rate); goes with ROADMAP 4(d)'s benchmark PR.
PIPELINE_CACHE = SimpleNamespace(stats=lambda: {"hits": 0, "misses": 0})
