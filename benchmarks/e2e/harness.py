"""Run one workload: set-up, timed passes, estimator, traced pass, checks.

Estimator.  The box this runs on drifts (identical back-to-back passes
differ by tens of percent, medians of short windows by 20 %), but its
quiet moments are stable.  So a workload runs its fixed op sequence
several times, keeps per op ``m[i]`` = the minimum latency of op ``i``
over the passes, and derives every timing metric from ``m``.  Per-pass
walls and their quartiles are reported beside them so the spread stays
visible.  End-to-end metrics never come from the traced pass.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
import zlib

import numpy

from repro.errors import ReproError

import checks
import layers
from tracing import SpanRecorder
from workloads import SIZES, WHY, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: A run never reports fewer passes than this: determinism needs two.
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s", "stmt_per_s": "1/s", "lat_p50_ms": "ms",
    "lat_p95_ms": "ms", "peak_rss_mb": "MB", "space_amp": "ratio",
}

NOT_EXERCISED = [
    "DOP > 1 and the process pool backend",
    "open-loop arrivals and admission queueing (sim clock, benchmarks/test_serving.py)",
    "failover and elasticity",
    "Spark, federation, analytics functions, geospatial",
    "q11_price_bands and b07_discount_band on cluster (BindError: column "
    "SS_SALES_PRICE not found in the coordinator's global select)",
    "the simulated clock: clock=None everywhere, no modelled cost enters a metric",
]


def digest(result) -> int:
    """Stable fingerprint of what an op returned."""
    rows = getattr(result, "rows", None)
    if rows is None:
        return zlib.crc32(repr(result).encode())
    return zlib.crc32(repr((rows, result.rowcount, result.message)).encode())


def run_pass(wl, recorder=None, after_op=None):
    """One pass over ``wl.ops``: per-op seconds, digests, ops that raised."""
    execute, clock = wl.execute, time.perf_counter
    seconds = [0.0] * len(wl.ops)
    digests = [0] * len(wl.ops)
    raised = 0
    for i, op in enumerate(wl.ops):
        start = clock()
        try:
            if recorder is None:
                result = execute(op)
            else:
                result = recorder.root(i, execute, op)
        except ReproError as exc:
            result = "%s: %s" % (type(exc).__name__, exc)
            raised += 1
        seconds[i] = clock() - start
        digests[i] = digest(result)
        if after_op is not None:
            after_op(result)
    return seconds, digests, raised


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def space(wl) -> tuple[float, float]:
    """(space_amp, compression_ratio): stored bytes per raw byte, where
    stored = compressed tables of every engine + the clustered filesystem
    (WAL, checkpoints, filesets) where the workload has one."""
    compressed = raw = 0
    for db in wl.engines():
        compressed += db.total_compressed_bytes()
        for name in db.table_names():
            raw += db.catalog.get_table(name).table.raw_nbytes()
    fs = wl.filesystem()
    stored = compressed + (fs.used_bytes() if fs is not None else 0)
    return stored / raw, (raw / compressed if compressed else 0.0)


def envelope(seed: int, scale: str, scrubbed: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": scale,
        "scrubbed_env": scrubbed,
        "loop": "closed, 1 client, zero think time, default DOP",
        "clock": "wall only (clock=None); no simulated time in any metric",
        "not_exercised": NOT_EXERCISED,
        "claim": None,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_pass(wl, name: str):
    """One pass under the span recorder.

    Returns ``(digests, raised, traced)`` where ``traced`` holds what
    :func:`layers.compute` needs.  Spans are written out and dropped
    here, so the passes that follow do not run beside them in memory."""
    recorder = SpanRecorder()
    probes: list[dict] = []
    before = layers.counters(wl)
    with recorder:
        seconds, digests, raised = run_pass(
            wl, recorder, lambda result: probes.append(layers.probe(wl, result))
        )
    after = layers.counters(wl)
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write_jsonl(os.path.join(OUT_DIR, "%s.spans.jsonl" % name))
    traced = {
        "seconds": seconds,
        "probes": probes,
        "delta": {key: after[key] - before.get(key, 0) for key in after},
        "hits_before": before.get("serving.hits", 0),
        "tables": layers.span_tables(recorder.spans),
        "spans": len(recorder.spans),
    }
    return digests, raised, traced


def run_workload(name, seed, seconds, passes, trace, scale, scrubbed):
    """Everything one workload process does; returns the detail record.

    Order: set-ups; pass 1; with ``trace`` the traced pass (always the
    second, so its counts do not depend on how many passes fit); further
    untraced passes until ``seconds`` are used (or ``passes`` are done);
    the workload's after-run invariant; the answer checks."""
    wl = WORKLOADS[name](seed, scale)
    clock = time.perf_counter
    setups: list[float] = []
    flushes: list[float] = []

    def begin_pass():
        if wl.setup_repeats:
            wl.begin_pass()
        else:
            timed_build(wl.begin_pass)  # etl rebuilds: each is a set-up sample

    def timed_build(build):
        gc.collect()  # the previous build's garbage is not this one's cost
        start = clock()
        build()
        setups.append(clock() - start)
        flushes.append(wl.phases["flush"])

    for i in range(wl.setup_repeats):
        if i:
            wl.close()
        timed_build(wl.build)

    walls: list[float] = []
    minima: list[float] = []
    reference: list[int] = []
    attempted = failed = 0
    traced = None
    rss = None
    began = clock()
    while True:
        pass_began = clock()
        begin_pass()
        secs, digests, raised = run_pass(wl)
        pass_seconds = clock() - pass_began
        walls.append(sum(secs))
        attempted += len(secs)
        if reference:
            minima = [min(a, b) for a, b in zip(minima, secs)]
            failed += max(raised, sum(a != b for a, b in zip(reference, digests)))
        else:
            reference, minima = digests, secs
            failed += raised
            # Read after the first pass, so that it does not depend on how
            # many passes fit (a durable cluster's WAL grows with each).
            space_amp, compression = space(wl)
            if trace:
                rss = peak_rss_mb()  # before any span exists
                traced_began = clock()
                begin_pass()
                digests, raised, traced = traced_pass(wl, name)
                attempted += len(digests)
                failed += max(raised, sum(a != b for a, b in zip(reference, digests)))
                began += clock() - traced_began  # not part of the timed budget
        if passes is not None:
            if len(walls) >= passes:
                break
        elif len(walls) >= MIN_PASSES and (
            clock() - began + 0.5 * pass_seconds >= seconds
        ):
            break

    outcome = wl.after_run()
    attempted += outcome.get("attempted", 0)
    failed += outcome.get("failed", 0)
    if rss is None:
        rss = peak_rss_mb()
    wl.close()
    tally = checks.check(name, seed, "check" if scale == "full" else scale)
    attempted += tally.attempted
    failed += len(tally.failures)

    n = len(minima)
    e2e = {
        "setup_s": statistics.median(setups),
        "stmt_per_s": n / sum(minima),
        "lat_p50_ms": statistics.median(minima) * 1e3,
        "lat_p95_ms": statistics.quantiles(minima, n=20)[18] * 1e3,
        "peak_rss_mb": rss,
        "space_amp": space_amp,
    }
    wall_quartiles = quartiles(walls)
    detail = {
        "workload": name,
        "why": WHY[name],
        "sizes": SIZES[name][scale],
        "flush_policy": wl.flush_policy,
        "n_ops": n,
        "passes": len(walls),
        "pass_walls_s": walls,
        "pass_walls_quartiles_s": wall_quartiles,
        "pass_spread": (wall_quartiles["q3"] - wall_quartiles["q1"])
        / wall_quartiles["median"],
        "setups_s": setups,
        "setup_phases_s": dict(wl.phases),
        "answers_crc": zlib.crc32(repr(reference).encode()),
        "after_run": outcome,
        "check": {"attempted": tally.attempted, "failures": tally.failures[:20]},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "end_to_end": {
            key: {"value": e2e[key], "unit": unit} for key, unit in END_TO_END.items()
        },
        **envelope(seed, scale, scrubbed),
    }
    if traced is not None:
        extras = {
            "flush_ms": statistics.median(flushes) * 1e3,
            "compression_ratio": compression,
            **outcome,
        }
        values = layers.compute(wl.ops, traced, minima, extras)
        detail["spans"] = traced["spans"]
        detail["per_layer"] = {
            d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in layers.declared()
        }
    return detail
