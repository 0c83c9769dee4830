"""MONREPORT-style snapshots for a database or a whole MPP cluster.

dashDB ships DB2's MONREPORT module ("simple to manage"); the analogue here
is a plain dict snapshot of the monitoring surfaces: buffer-pool hit
ratios, statement counts, per-shard/per-node timings of the last
distributed statement, and the metrics registry.  Dicts keep the report
assertable in tests and trivially JSON-serialisable.
"""

from __future__ import annotations


def bufferpool_report(pool) -> dict:
    """Snapshot one buffer pool's counters and occupancy."""
    stats = pool.stats
    return {
        "capacity": pool.capacity,
        "resident": len(pool),
        "requests": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "hit_ratio": stats.hit_ratio,
    }


def database_report(database) -> dict:
    """Single-node MONREPORT: statements, buffer pool, tables, metrics."""
    tables = {}
    # How the values handed to the tables that exist now were converted: by
    # one typed loop per column, or value by value through ``cast_value``.
    storage = {"landing.values_typed": 0, "landing.values_cast": 0, "landing.batches": 0}
    for name in database.table_names():
        table = database.catalog.get_table(name).table
        tables[name] = {
            "rows": table.n_rows,
            "compressed_bytes": table.compressed_nbytes(),
        }
        storage["landing.values_typed"] += table.landing.values_typed
        storage["landing.values_cast"] += table.landing.values_cast
        storage["landing.batches"] += table.landing.batches
    gateway = getattr(database, "serving", None)
    return {
        "database": database.name,
        "statements": database.statement_count,
        "bufferpool": bufferpool_report(database.bufferpool),
        "tables": tables,
        "storage": storage,
        "tracing_enabled": database.tracer.enabled,
        "txn": database.txn.report(),
        "metrics": database.metrics.snapshot(),
        "parallel": worker_pool_report(database.pool),
        "plan_cache": database.plan_cache.report(),
        "durability": (
            database.durability.report()
            if database.durability is not None
            else {"enabled": False}
        ),
        "serving": (
            serving_report(gateway)
            if gateway is not None
            else {"enabled": False}
        ),
    }


def serving_report(gateway) -> dict:
    """Serving-layer MONREPORT section: caches and admission outcomes.

    ``gateway`` is a :class:`repro.serving.gateway.ServingGateway`
    (duck-typed — this module stays import-free of the serving package).
    Open-loop simulation results (QpH, p50/p99 latency, shed rate) attach
    under ``last_open_loop`` when the gateway has run one.
    """
    report = {
        "enabled": True,
        "result_cache": gateway.result_cache.report(),
        # The engine's plan cache (the gateway owns none of its own).
        "plan_cache": {"statements": gateway.database.plan_cache.report()},
        "admission": gateway.admission.report(),
        "tenants": sorted(gateway.classes),
    }
    last = getattr(gateway, "last_open_loop", None)
    if last is not None:
        report["last_open_loop"] = last.report()
    return report


def worker_pool_report(pool) -> dict:
    """Snapshot one worker pool's lifetime accumulators."""
    return {
        "parallelism": pool.parallelism,
        "runs": pool.runs_total,
        "tasks": pool.tasks_total,
        "busy_seconds": pool.busy_seconds_total,
        "makespan_seconds": pool.makespan_seconds_total,
    }


def cluster_report(cluster) -> dict:
    """Cluster MONREPORT: topology, pooled buffer-pool stats, last query."""
    hits = misses = evictions = 0
    per_shard_pool = {}
    for sid in sorted(cluster.shards):
        stats = cluster.shards[sid].engine.bufferpool.stats
        hits += stats.hits
        misses += stats.misses
        evictions += stats.evictions
        per_shard_pool[sid] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_ratio": stats.hit_ratio,
        }
    requests = hits + misses
    last = cluster.last_stats
    return {
        "cluster": {
            "nodes": len(cluster.nodes),
            "live_nodes": len(cluster.live_nodes()),
            "shards": cluster.n_shards,
            "balanced": cluster.is_balanced(),
        },
        "bufferpool": {
            "requests": requests,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_ratio": hits / requests if requests else 0.0,
            "per_shard": per_shard_pool,
        },
        "last_query": {
            "mode": last.mode,
            "fallback_reason": last.fallback_reason,
            "columns_pulled": last.columns_pulled,
            "columns_total": last.columns_total,
            "shards_touched": last.shards_touched,
            "rows_gathered": last.rows_gathered,
            "elapsed_by_node": dict(last.elapsed_by_node),
            "elapsed_by_shard": dict(last.elapsed_by_shard),
            "skew_ratio": last.skew_ratio,
            "gather_seconds": last.gather_seconds,
            "parallelism": last.parallelism,
            "worker_busy": dict(last.worker_busy),
            "plans": dict(last.plans),
        },
        "gather_fallbacks": dict(cluster.fallback_counts),
        "plan_cache": _shard_plan_cache_report(cluster),
        "parallel": worker_pool_report(cluster.pool),
        "tables": {
            name: cluster.total_rows(name) for name in sorted(cluster.tables)
        },
        "coordinator": database_report(cluster.coordinator),
        "durability": _cluster_durability_report(cluster),
    }


def _shard_plan_cache_report(cluster) -> dict:
    """The shard engines' plan caches — hits, misses and bypasses by
    reason — summed and per shard.  (The coordinator's own is under
    ``coordinator``.)"""
    hits = misses = 0
    reasons: dict[str, int] = {}
    per_shard = {}
    for sid in sorted(cluster.shards):
        report = cluster.shards[sid].engine.plan_cache.report()
        per_shard[sid] = {
            "hits": report["hits"],
            "misses": report["misses"],
            "bypass_reasons": report["bypass_reasons"],
        }
        hits += report["hits"]
        misses += report["misses"]
        for reason, n in report["bypass_reasons"].items():
            reasons[reason] = reasons.get(reason, 0) + n
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "bypass_reasons": reasons,
        "per_shard": per_shard,
    }


def _cluster_durability_report(cluster) -> dict:
    """Aggregate durability counters across shard engines."""
    if not cluster.durable:
        return {"enabled": False}
    totals = {
        "commits": 0,
        "wal_flushes": 0,
        "wal_flushed_bytes": 0,
        "checkpoints": 0,
        "recoveries": 0,
    }
    wal_bytes = 0
    per_shard = {}
    for sid in sorted(cluster.shards):
        manager = cluster.shards[sid].engine.durability
        if manager is None:
            continue
        for key in totals:
            totals[key] += manager.stats[key]
        wal_bytes += manager.wal.durable_nbytes()
        per_shard[sid] = {
            "commits": manager.stats["commits"],
            "wal_durable_bytes": manager.wal.durable_nbytes(),
            "checkpoint_lsns": manager.store.checkpoint_lsns(),
        }
    report = {"enabled": True, "wal_durable_bytes": wal_bytes}
    report.update(totals)
    report["per_shard"] = per_shard
    report["last_failover_recoveries"] = {
        sid: {
            "transactions_replayed": r.transactions_replayed,
            "records_replayed": r.records_replayed,
            "sim_seconds": r.sim_seconds,
        }
        for sid, r in cluster.last_failover_recoveries.items()
    }
    return report
