"""HTAP under MVCC — analytic readers racing a trickle-insert writer.

Test-2-style concurrency, restated for snapshot isolation: the paper's
concurrent workload mixes load and queries on one system ("the actual
concurrent workload was executed as it would execute on a live system").
Here an analytic query pool runs three ways —

* **idle** — no concurrent writer (the baseline QpH);
* **churn** — an auto-commit writer trickles single-row inserts into the
  scanned table the whole time.  Snapshot reads take no statement lock
  and scan a frozen capture, so reader throughput must hold: the gate is
  ``churn QpH >= 0.8x idle QpH``;
* **uncommitted bulk load** — a core-API transaction holds tens of
  thousands of *uncommitted* stamped rows open while the pool runs
  again.  Visibility is decided per-version, so the answers must be
  byte-identical to the pre-load answers — the reader neither blocks on
  the load nor sees half of it.

The summary lands in ``BENCH_htap.json`` at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time

from repro.database import Database
from repro.sql.parser import parse_statement
from repro.util.rng import derive_rng
from repro.workloads.tpcds import flush_tables

from conftest import banner, record

DOP = 4
BASE_ROWS = 24_000
BULK_ROWS = 30_000
ROUNDS = 10
QPH_FLOOR = 0.8  # churn QpH must stay within this fraction of idle

_RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_htap.json"

#: Deterministic analytic pool: aggregate-heavy shapes that sweep the
#: whole fact table, so every query really scans under the churn.
_POOL = [
    "SELECT COUNT(*), SUM(b), AVG(b) FROM t",
    "SELECT c, COUNT(*), SUM(b), MIN(a) FROM t GROUP BY c ORDER BY 1",
    "SELECT a, COUNT(*) FROM t WHERE b BETWEEN -500 AND 500"
    " GROUP BY a ORDER BY 2 DESC, 1 FETCH FIRST 10 ROWS ONLY",
    "SELECT MIN(b), MAX(b), COUNT(*) FROM t WHERE a > 25",
    "SELECT COUNT(DISTINCT c), COUNT(d) FROM t",
    "SELECT c, AVG(d) FROM t WHERE a < 20 GROUP BY c ORDER BY 1",
]


def _load_base(session):
    rng = derive_rng(71, "htap-base")
    session.execute(
        "CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))"
    )
    rows = []
    for _ in range(BASE_ROWS):
        rows.append(
            "(%d, %d, 'v%d', %d.%02d)"
            % (
                rng.integers(0, 50),
                rng.integers(-1000, 1000),
                rng.integers(0, 8),
                rng.integers(0, 100),
                rng.integers(0, 100),
            )
        )
    for start in range(0, len(rows), 2000):
        session.execute(
            "INSERT INTO t VALUES " + ", ".join(rows[start : start + 2000])
        )


def _bulk_rows(n):
    rng = derive_rng(72, "htap-bulk")
    return [
        (
            int(rng.integers(0, 50)),
            int(rng.integers(-1000, 1000)),
            "v%d" % rng.integers(0, 8),
            "%d.%02d" % (rng.integers(0, 100), rng.integers(0, 100)),
        )
        for _ in range(n)
    ]


def _run_pool(session, rounds=ROUNDS):
    """(queries run, wall seconds) over ``rounds`` passes of the pool."""
    t0 = time.perf_counter()
    n = 0
    for _ in range(rounds):
        for sql in _POOL:
            session.execute(sql)
            n += 1
    return n, time.perf_counter() - t0


def _qph(n, seconds):
    return n / seconds * 3600.0 if seconds > 0 else 0.0


def _trickle(session, stop, count, errors):
    """Writer thread: paced single-row auto-commit inserts."""
    i = 0
    while not stop.is_set():
        try:
            session.execute(
                "INSERT INTO t VALUES (%d, %d, 'w', 1.00)" % (100000 + i, i)
            )
        except BaseException as exc:  # lint-ok: broad-except (surfaced on the main thread after join)
            errors.append(exc)
            return
        i += 1
        count[0] = i
        time.sleep(0.004)  # trickle pacing: a stream, not a bulk load


def test_htap_reader_throughput_under_churn(benchmark):
    db = Database(parallelism=DOP)
    session = db.connect("db2")
    _load_base(session)
    flush_tables(db)
    base_count = int(session.execute("SELECT COUNT(*) FROM t").rows[0][0])
    assert base_count == BASE_ROWS

    # Warm plans and caches, then the idle baseline.
    _run_pool(session, rounds=1)
    idle_n, idle_seconds = _run_pool(session)
    idle_qph = _qph(idle_n, idle_seconds)

    # Churn phase: same pool, with the trickle writer committing the
    # whole time.  A snapshot pinned before the churn must stay frozen.
    pinned = db.txn.snapshot()
    stop = threading.Event()
    count = [0]
    errors: list[BaseException] = []
    writer = threading.Thread(
        target=_trickle, args=(db.connect("db2"), stop, count, errors)
    )
    writer.start()
    try:
        churn_n, churn_seconds = _run_pool(session)
    finally:
        stop.set()
        writer.join()
    assert not errors, errors[0]
    writer_rows = count[0]
    churn_qph = _qph(churn_n, churn_seconds)
    ratio = churn_qph / idle_qph if idle_qph else 0.0

    assert writer_rows > 0, "the writer never committed anything"
    frozen = int(
        db.execute_ast(
            parse_statement("SELECT COUNT(*) FROM t"), snapshot=pinned
        ).rows[0][0]
    )
    assert frozen == base_count, "pinned snapshot saw the churn"
    after_churn = int(session.execute("SELECT COUNT(*) FROM t").rows[0][0])
    assert after_churn == base_count + writer_rows, "trickle commits lost"

    # Uncommitted bulk load held open: answers must not move, and the
    # reader must keep running (no lock wait against the loader).
    before_load = [session.execute(sql).rows for sql in _POOL]
    table = db.catalog.get_table("t").table
    loader = db.txn.begin()
    loader.insert(table, _bulk_rows(BULK_ROWS))
    try:
        load_n, load_seconds = _run_pool(session)
        during_load = [session.execute(sql).rows for sql in _POOL]
    finally:
        loader.abort()
    load_qph = _qph(load_n, load_seconds)
    assert during_load == before_load, (
        "reader saw (part of) an uncommitted bulk load"
    )

    benchmark.pedantic(
        lambda: [session.execute(sql) for sql in _POOL],
        rounds=2,
        iterations=1,
    )

    banner(
        "HTAP — analytic pool vs trickle writer (DOP %d, MVCC snapshots)" % DOP,
        [
            "idle:  %d queries in %.3fs -> %.0f QpH" % (idle_n, idle_seconds, idle_qph),
            "churn: %d queries in %.3fs -> %.0f QpH (%.2fx idle, gate >= %.2fx)"
            % (churn_n, churn_seconds, churn_qph, ratio, QPH_FLOOR),
            "writer: %d single-row commits during the churn window" % writer_rows,
            "uncommitted load: %d stamped rows open -> %.0f QpH, answers frozen"
            % (BULK_ROWS, load_qph),
        ],
    )
    record(
        "htap",
        idle_qph=idle_qph,
        churn_qph=churn_qph,
        qph_ratio=ratio,
        writer_rows=writer_rows,
    )
    _RESULT_PATH.write_text(
        json.dumps(
            {
                "workload": "htap-trickle-vs-analytics",
                "dop": DOP,
                "base_rows": BASE_ROWS,
                "reader_rounds": ROUNDS,
                "pool_queries": len(_POOL),
                "idle": {
                    "queries": idle_n,
                    "wall_seconds": round(idle_seconds, 6),
                    "qph": round(idle_qph, 2),
                },
                "churn": {
                    "queries": churn_n,
                    "wall_seconds": round(churn_seconds, 6),
                    "qph": round(churn_qph, 2),
                    "writer_rows": writer_rows,
                },
                "qph_ratio": round(ratio, 4),
                "qph_floor": QPH_FLOOR,
                "uncommitted_load": {
                    "rows": BULK_ROWS,
                    "qph": round(load_qph, 2),
                    "answers_frozen": True,
                },
            },
            indent=2,
        )
        + "\n"
    )

    assert ratio >= QPH_FLOOR, (
        "reader throughput collapsed under writer churn: %.2fx idle"
        " (gate %.2fx) — snapshot reads must not block behind loads"
        % (ratio, QPH_FLOOR)
    )
