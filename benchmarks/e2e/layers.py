"""Per-layer metrics: spans, counter deltas and per-op minima -> numbers.

``layers.json`` is the declaration (name, unit, direction, which
end-to-end metric on which workload each should move); this module is the
computation.  Every declared name is emitted on every workload, 0 where
the layer is not on that workload's path.
"""

from __future__ import annotations

import json
import os
import statistics

from repro.engine.fused import PIPELINE_CACHE

from tracing import SpanIndex

HERE = os.path.dirname(os.path.abspath(__file__))


def declared() -> list[dict]:
    with open(os.path.join(HERE, "layers.json")) as handle:
        return json.load(handle)["layers"]


def counters(wl) -> dict[str, float]:
    """Cumulative counts from the public monitoring surfaces, summed over
    the workload's engines."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for db in wl.engines():
        report = db.monreport()
        for key in ("hits", "misses", "evictions"):
            add("bufferpool." + key, report["bufferpool"][key])
        add("mvcc.commits", report["txn"]["committed"])
        add("mvcc.conflicts", report["txn"]["conflicts"])
        add("parallel.pool_runs", report["parallel"]["runs"])
        add("parallel.thread_fallbacks", db.pool.process_fallbacks_total)
        durability = report["durability"]
        if durability["enabled"]:
            for key in ("wal_appends", "wal_flushes", "wal_flushed_bytes",
                        "checkpoint_bytes"):
                add("durability." + key, durability[key])
        serving = report["serving"]
        if serving["enabled"]:
            for key in ("hits", "misses", "invalidations", "stale_drops",
                        "evictions", "bypass"):
                add("serving." + key, serving["result_cache"][key])
            statements = serving["plan_cache"]["statements"]
            add("serving.plan_hits", statements["hits"])
            add("serving.plan_misses", statements["misses"])
            add("serving.plan_evictions", statements["evictions"])
            add("serving.shed", sum(t["shed"] for t in serving["admission"].values()))
    cluster = getattr(wl, "cluster", None)
    if cluster is not None:
        add("parallel.pool_runs", cluster.pool.runs_total)
        add("parallel.thread_fallbacks", cluster.pool.process_fallbacks_total)
    pipeline = PIPELINE_CACHE.stats()
    add("engine.pipeline_hits", pipeline["hits"])
    add("engine.pipeline_misses", pipeline["misses"])
    return out


def probe(wl, result) -> dict:
    """Per-op counts read right after the op (traced pass only)."""
    out = {"rows_out": 0, "rows_scanned": 0, "extents_total": 0,
           "extents_skipped": 0, "bytes": 0, "raw_bytes": 0}
    rows = getattr(result, "rows", None)
    if rows is not None and getattr(result, "is_query", False):
        out["rows_out"] = len(rows)
    for db in wl.engines():
        for scan in db.last_scans:
            stats = scan.stats
            out["rows_scanned"] += stats.rows_scanned
            out["extents_total"] += stats.extents_total
            out["extents_skipped"] += stats.extents_skipped
            out["bytes"] += stats.bytes_scanned
            out["raw_bytes"] += stats.raw_bytes_scanned
        db.last_scans = []  # or a cache hit would re-count the last miss
    cluster = getattr(wl, "cluster", None)
    if cluster is not None:
        stats = cluster.last_stats
        out.update(mode=stats.mode, rows_gathered=stats.rows_gathered,
                   gather_s=stats.gather_seconds, skew=stats.skew_ratio)
    gateway = getattr(wl, "gateway", None)
    if gateway is not None:
        out["hits"] = gateway.result_cache.stats.hits
    return out


def _ms(values) -> float:
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def span_tables(spans) -> dict:
    """The per-op aggregates :func:`compute` reads, taken from a finished
    recording (so the spans themselves need not be kept)."""
    index = SpanIndex(spans)
    self_time = {
        "parse": ("parse_statement",),
        "plan": ("SelectPlanner.plan", "ExpressionBinder.bind"),
        "scan": ("TableScanOp.execute",),
        "join": ("HashJoinOp.execute",),
        "agg": ("GroupByOp.execute",),
        "sort": ("SortOp.execute",),
        "insert_rows": ("ColumnTable.insert_rows",),
        "statement": ("Database.execute", "Database.execute_ast"),
        "materialize": ("result_from_batch",),
        "begin_commit": ("TxnManager.begin", "Transaction.commit"),
        "snapshot": ("TxnManager.snapshot",),
        "normalize": ("statement_key",),
        "admission": ("LiveAdmission.acquire",),
    }
    tables = {key: index.self_by_op(*names) for key, names in self_time.items()}
    tables["run"] = index.outer_by_op("PlannedQuery.run")
    tables["durable_commit"] = index.outer_by_op("DurabilityManager.commit")
    tables["cluster"] = index.outer_by_op("Cluster.execute")
    tables["shard"] = index.outer_by_op(
        "Database.execute_ast", "Database.execute", tag_prefix="SHARD"
    )
    tables["coverage"] = index.coverage()
    return tables


def compute(ops, traced, minima, extras) -> dict[str, float]:
    """All per-layer values for one workload.

    ``traced`` is what ``harness.traced_pass`` returned (per-op seconds,
    probes, counter deltas and span tables of the traced pass); ``minima``
    are the untraced per-op minima; ``extras`` carries what is measured
    outside the pass (set-up flush, recovery, compression)."""
    t = traced["tables"]
    probes, delta = traced["probes"], traced["delta"]
    n = len(ops)
    total = sum(traced["seconds"])
    by_class: dict[str, list[float]] = {}
    for (cls, _sql), seconds in zip(ops, minima):
        by_class.setdefault(cls, []).append(seconds)
    parse, plan, run = t["parse"], t["plan"], t["run"]
    v: dict[str, float] = {}
    v["sql.parse_ms"] = _ms(parse.values())
    v["sql.plan_ms"] = _ms(plan.values())
    v["sql.frontend_share"] = _ratio(sum(parse.values()) + sum(plan.values()), total)
    v["engine.run_ms"] = _ms(run.values())
    for key in ("scan", "join", "agg", "sort"):
        v["engine.%s_ms" % key] = _ms(t[key].values())
    v["engine.share"] = _ratio(sum(run.values()), total)
    v["engine.rows_scanned_per_row_out"] = _ratio(
        sum(p["rows_scanned"] for p in probes), sum(p["rows_out"] for p in probes)
    )
    v["engine.pipeline_cache_hit_rate"] = _ratio(
        delta["engine.pipeline_hits"],
        delta["engine.pipeline_hits"] + delta["engine.pipeline_misses"],
    )
    v["skipping.extents_skipped_ratio"] = _ratio(
        sum(p["extents_skipped"] for p in probes),
        sum(p["extents_total"] for p in probes),
    )
    v["storage.bytes_scanned_per_stmt"] = sum(p["bytes"] for p in probes) / n
    v["storage.raw_bytes_scanned_per_stmt"] = sum(p["raw_bytes"] for p in probes) / n
    v["storage.insert_rows_ms"] = _ms(t["insert_rows"].values())
    v["storage.flush_ms"] = extras["flush_ms"]
    v["storage.compression_ratio"] = extras["compression_ratio"]
    v["bufferpool.hit_rate"] = _ratio(
        delta["bufferpool.hits"], delta["bufferpool.hits"] + delta["bufferpool.misses"]
    )
    v["bufferpool.evictions"] = delta["bufferpool.evictions"]
    v["database.stmt_overhead_ms"] = _ms(t["statement"].values())
    v["database.materialize_ms"] = _ms(t["materialize"].values())
    for cls in ("insert", "update", "delete", "ddl", "select"):
        v["database.%s_ms" % cls] = _ms(by_class.get(cls, ()))
    v["database.stmt_p99_ms"] = (
        statistics.quantiles(minima, n=100)[98] * 1e3 if n >= 1000 else 0.0
    )
    v["mvcc.begin_commit_ms"] = _ms(t["begin_commit"].values())
    v["mvcc.snapshot_ms"] = _ms(t["snapshot"].values())
    v["mvcc.commits"] = delta["mvcc.commits"]
    v["mvcc.conflicts"] = delta["mvcc.conflicts"]

    v["durability.commit_ms"] = _ms(t["durable_commit"].values())
    v["durability.wal_appends"] = delta.get("durability.wal_appends", 0)
    v["durability.wal_flushes"] = delta.get("durability.wal_flushes", 0)
    user_bytes = sum(
        len(sql.encode()) for cls, sql in ops
        if cls in ("insert", "update", "delete", "ddl")
    )
    v["durability.wal_bytes_per_user_byte"] = _ratio(
        delta.get("durability.wal_flushed_bytes", 0), user_bytes
    )
    v["durability.checkpoint_ms"] = _ms(by_class.get("checkpoint", ()))
    v["durability.checkpoint_bytes"] = delta.get("durability.checkpoint_bytes", 0)
    v["durability.recover_ms"] = extras.get("recover_ms", 0.0)
    v["durability.records_replayed"] = extras.get("records_replayed", 0)

    # A hit is an op after which the result cache's hit counter moved.
    hit = [None] * n
    if probes and "hits" in probes[0]:
        before = traced["hits_before"]
        for i, p in enumerate(probes):
            if ops[i][0] == "select":
                hit[i] = p["hits"] > before
            before = p["hits"]
    misses = [i for i in range(n) if hit[i] is False]
    v["serving.hit_ms"] = _ms(minima[i] for i in range(n) if hit[i])
    v["serving.miss_ms"] = _ms(minima[i] for i in misses)
    v["serving.normalize_ms"] = _ms(t["normalize"].values())
    v["serving.admission_ms"] = _ms(t["admission"].values())
    miss_total = sum(traced["seconds"][i] for i in misses)
    v["serving.miss_frontend_share"] = _ratio(
        sum(parse.get(i, 0.0) + plan.get(i, 0.0) for i in misses), miss_total
    )
    v["serving.miss_engine_share"] = _ratio(
        sum(run.get(i, 0.0) for i in misses), miss_total
    )
    hits, missed = delta.get("serving.hits", 0), delta.get("serving.misses", 0)
    v["serving.result_hit_rate"] = _ratio(hits, hits + missed)
    for key in ("invalidations", "stale_drops", "evictions", "bypass",
                "plan_evictions", "shed"):
        v["serving." + key] = delta.get("serving." + key, 0)
    v["serving.plan_ast_hit_rate"] = _ratio(
        delta.get("serving.plan_hits", 0),
        delta.get("serving.plan_hits", 0) + delta.get("serving.plan_misses", 0),
    )

    whole, shard = t["cluster"], t["shard"]
    v["cluster.coord_ms"] = _ms(whole[i] - shard.get(i, 0.0) for i in whole)
    v["cluster.shard_ms"] = _ms(shard.get(i, 0.0) for i in whole)
    v["cluster.coord_share"] = _ratio(
        sum(whole.values()) - sum(shard.values()), sum(whole.values())
    )
    reads = [p for (cls, _sql), p in zip(ops, probes)
             if cls == "select" and "mode" in p]
    v["cluster.gather_ms"] = _ms(p["gather_s"] for p in reads)
    v["cluster.rows_gathered_per_stmt"] = _ratio(
        sum(p["rows_gathered"] for p in reads), len(reads)
    )
    v["cluster.skew_ratio"] = (
        statistics.median(p["skew"] for p in reads) if reads else 0.0
    )
    modes = [p.get("mode") for p in probes]
    v["cluster.mode_two_phase"] = modes.count("two-phase")
    v["cluster.mode_scatter_concat"] = modes.count("scatter")
    v["cluster.mode_gather_fallback"] = modes.count("gather-fallback")
    v["cluster.mode_dml"] = modes.count("dml")
    on_cluster = bool(whole)
    v["cluster.insert_route_ms"] = _ms(by_class.get("insert", ())) if on_cluster else 0.0
    v["cluster.broadcast_dml_ms"] = (
        _ms(by_class.get("update", []) + by_class.get("delete", []))
        if on_cluster else 0.0
    )
    v["parallel.pool_runs"] = delta["parallel.pool_runs"]
    v["parallel.thread_fallbacks"] = delta["parallel.thread_fallbacks"]
    v["trace.coverage"] = t["coverage"]
    v["trace.overhead"] = _ratio(total, sum(minima)) - 1.0
    return v
