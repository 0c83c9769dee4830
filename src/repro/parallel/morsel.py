"""Morsel ranges and their batching into pool tasks.

A *morsel* is a contiguous row range of a batch (Leis et al.'s
morsel-driven parallelism): workers evaluate predicate masks, join probes
and partial aggregates per span of morsels, and the results merge back **in
span order**, so a parallel plan yields exactly the rows a serial plan
would.  What merges exactly — and therefore which aggregates may run on
spans at all — is decided in one place, :mod:`repro.engine.fused`.
"""

from __future__ import annotations

#: Default rows per morsel for engine-level parallel operators.
DEFAULT_MORSEL_ROWS = 8_192


def morsel_ranges(n_rows: int, morsel_rows: int | None = None) -> list[tuple[int, int]]:
    """Split ``n_rows`` into contiguous ``[start, stop)`` morsels."""
    size = morsel_rows or DEFAULT_MORSEL_ROWS
    if size < 1:
        raise ValueError("morsel size must be positive, got %d" % size)
    if n_rows <= 0:
        return []
    return [(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]


def batch_size(n_items: int, parallelism: int) -> int:
    """Morsels (or regions) batched into one pool task: ~2 tasks per
    worker — enough tasks that the greedy scheduler can balance the load,
    few enough that per-task dispatch overhead amortises over K morsels.
    """
    if n_items <= 0:
        return 1
    return max(1, -(-n_items // (2 * max(1, parallelism))))


def batch_items(items: list, parallelism: int) -> list[list]:
    """Group ``items`` into per-task batches of K consecutive items.

    Batches preserve submission order, so flattening per-task results in
    task order reproduces the unbatched gather order exactly.
    """
    items = list(items)
    k = batch_size(len(items), parallelism)
    return [items[i : i + k] for i in range(0, len(items), k)]


def batch_spans(
    n_rows: int, morsel_rows: int | None, parallelism: int
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` spans of K morsels each.

    Because morsels are contiguous row ranges, a batch of K consecutive
    morsels is itself one contiguous span — each pool task then makes one
    vectorised pass over its span instead of K small ones.
    """
    ranges = morsel_ranges(n_rows, morsel_rows)
    batched = batch_items(ranges, parallelism)
    return [(group[0][0], group[-1][1]) for group in batched]
