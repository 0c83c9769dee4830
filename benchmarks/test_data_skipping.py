"""Section II.B.4 — data skipping.

Paper: synopsis metadata every ~1K tuples is "three orders of magnitude
smaller than the user data" and "can be scanned three orders of magnitude
faster"; restrictive date predicates (e.g. recent months of a seven-year
repository) skip almost everything.
"""

from __future__ import annotations

import time

from repro.engine.operators import SimplePredicate, TableScanOp

from conftest import banner, record


def test_synopsis_size_claim(dashdb_tpcds, benchmark):
    table = dashdb_tpcds.database.catalog.get_table("STORE_SALES").table
    data_bytes = table.raw_nbytes()
    synopsis_bytes = sum(r.synopsis_nbytes() for r in table.regions)
    ratio = data_bytes / synopsis_bytes
    benchmark.pedantic(lambda: table.compressed_nbytes(), rounds=3, iterations=1)
    banner(
        "II.B.4 — synopsis footprint",
        [
            "paper:    metadata ~3 orders of magnitude smaller than user data",
            "measured: data %.1f KB, synopsis %.2f KB  (%.0fx smaller)"
            % (data_bytes / 1024, synopsis_bytes / 1024, ratio),
        ],
    )
    record("skipping-size", ratio=ratio)
    # int64 min+max+counts per 1024 rows: bounded by format, ~2 orders at
    # this row width; the per-column ratio is ~3 orders for wide tables.
    assert ratio > 25


def _seven_year_table(n_rows=2_000_000):
    """A seven-year fact loaded in date order (paper II.B.4's scenario:
    'a data repository may store data for seven years, but most queries ask
    questions over the most recent few months')."""
    import numpy as np

    from repro.storage.column import ColumnVector
    from repro.storage.table import ColumnTable, TableSchema
    from repro.types import INTEGER

    schema = TableSchema("FACT7Y", (("DAY_SK", INTEGER), ("QTY", INTEGER)))
    table = ColumnTable(schema, region_rows=n_rows)
    rng = np.random.default_rng(0)
    days = np.sort(rng.integers(0, 7 * 365, size=n_rows))
    qty = rng.integers(1, 100, size=n_rows)
    table.append_vectors([ColumnVector(INTEGER, days), ColumnVector(INTEGER, qty)])
    table.flush()
    return table


def test_skipping_effect_on_recent_window(benchmark):
    table = _seven_year_table()
    recent = 7 * 365 - 60  # the most recent two months
    pred = [SimplePredicate("DAY_SK", ">=", recent)]

    with_skip = TableScanOp(table, ["QTY"], pushed=pred, use_skipping=True)
    t0 = time.perf_counter()
    batch_skip = with_skip.run()
    t_skip = time.perf_counter() - t0

    without = TableScanOp(table, ["QTY"], pushed=pred, use_skipping=False)
    t0 = time.perf_counter()
    batch_full = without.run()
    t_full = time.perf_counter() - t0

    benchmark.pedantic(
        lambda: TableScanOp(table, ["QTY"], pushed=pred).run(),
        rounds=5,
        iterations=1,
    )

    skipped_fraction = with_skip.stats.extents_skipped / max(
        with_skip.stats.extents_total, 1
    )
    banner(
        "II.B.4 — data skipping on a recent-window predicate",
        [
            "paper:    most queries ask about recent months; extents skip",
            "measured: %d/%d extents skipped (%.0f%%)"
            % (
                with_skip.stats.extents_skipped,
                with_skip.stats.extents_total,
                100 * skipped_fraction,
            ),
            "          scan %.4fs with skipping vs %.4fs without (%.1fx)"
            % (t_skip, t_full, t_full / t_skip if t_skip > 0 else 0),
            "          identical results: %s" % (batch_skip.n == batch_full.n),
        ],
    )
    record(
        "skipping-effect",
        extents_skipped_pct=100 * skipped_fraction,
        speedup=t_full / t_skip if t_skip > 0 else None,
    )
    assert batch_skip.n == batch_full.n
    assert skipped_fraction > 0.8, "a recent window should skip most extents"
    assert with_skip.stats.rows_scanned < without.stats.rows_scanned / 3
