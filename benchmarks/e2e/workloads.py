"""The four e2e workloads: what is built, which ops a pass runs, and why.

Every workload is closed loop, one client, zero think time, default DOP.
All inputs derive from ``--seed``; the system under test receives only
the generated rows and statement texts.  A pass is a fixed op sequence
that leaves the logical state as it found it, so passes can repeat.

An op is a ``(statement class, sql)`` pair; ``sql`` is None for the one
non-SQL op (``Database.checkpoint`` in ``etl``).
"""

from __future__ import annotations

import contextlib
import time
import zlib

import numpy as np

from repro.cluster import Cluster, HardwareSpec
from repro.database import Database
from repro.durability.manager import DurabilityManager
from repro.serving.gateway import ServingGateway
from repro.storage.filesystem import ClusterFileSystem
from repro.util.rng import derive_rng
from repro.workloads import tpcds
from repro.workloads.bdinsight import BDINSIGHT_QUERIES
from repro.workloads.customer import CustomerWorkload

#: Sizes per workload and scale.  ``full`` is what the benchmark times;
#: ``check`` is the reduced scale of the answer-checking phase (a
#: row-at-a-time oracle runs there); ``smoke`` only proves the plumbing.
SIZES = {
    "analytics": {
        "full": dict(n_trades=60_000, tpcds_scale=1.5, n_ops=240),
        "check": dict(n_accounts=200, n_instruments=40, n_trades=2_000,
                      tpcds_scale=0.1, n_ops=57),
        "smoke": dict(n_accounts=100, n_instruments=20, n_trades=500,
                      tpcds_scale=0.02, n_ops=57),
    },
    "serve": {
        "full": dict(n_accounts=8_192, n_trades=40_000, tpcds_scale=0.25,
                     n_ops=6_000, n_lookup_accounts=2_700),
        "check": dict(n_accounts=400, n_trades=2_000, tpcds_scale=0.1,
                      n_ops=1_200, n_lookup_accounts=300),
        "smoke": dict(n_accounts=100, n_trades=500, tpcds_scale=0.02,
                      n_ops=300, n_lookup_accounts=60),
    },
    "etl": {
        "full": dict(stream_scale=1 / 200, n_trades=10_000, checkpoint_every=400),
        "check": dict(stream_scale=1 / 1000, n_accounts=200, n_instruments=40,
                      n_trades=2_000, checkpoint_every=100),
        "smoke": dict(stream_scale=1 / 2000, n_accounts=100, n_instruments=20,
                      n_trades=500, checkpoint_every=50),
    },
    "cluster": {
        "full": dict(tpcds_scale=0.25, n_ops=240),
        "check": dict(tpcds_scale=0.1, n_ops=120),
        "smoke": dict(tpcds_scale=0.02, n_ops=64),
    },
}

#: Queries a cluster cannot answer today (``BindError: column
#: SS_SALES_PRICE not found`` in the coordinator's global select).
CLUSTER_UNSUPPORTED = ("q11_price_bands", "b07_discount_band")

#: Customer ids no generated row uses: marks rows a pass inserts and
#: later deletes.
MARKER_CUSTOMER = 100_000

WHY = {
    "analytics": "Tests 1/3: long-tail joins, TPC-DS and dashboards through "
    "Session.execute; scan/join/aggregate dominates, so engine work shows "
    "here and front-end or cache work must not.",
    "serve": "Test 4: Zipf-repeated dashboards and point lookups with writes "
    "through the real ServingGateway; p50 is the cache-hit path, p95 the "
    "parse+plan miss path.",
    "etl": "Test 2: the paper's INSERT/UPDATE/DDL-heavy mix on a durable "
    "engine, one fsync per commit, with checkpoints and a crash at the end.",
    "cluster": "The MPP path on 4 small shards: coordinator rewrite, scatter, "
    "gather and per-shard WAL dominate, with routed and broadcast DML.",
}


def statement_class(kind: str) -> str:
    """Customer-stream statement kind -> the class latencies are split by."""
    if kind in ("INSERT", "UPDATE", "DELETE"):
        return kind.lower()
    if kind in ("CREATE", "DROP", "TRUNCATE"):
        return "ddl"
    return "select"  # SELECT, WITH, EXPLAIN


def load(system, ddl, tables) -> None:
    """DDL + rows into anything with ``execute`` (engine session, cluster
    session, row-store oracle) through its fastest public load path."""
    for statement in ddl:
        system.execute(statement)
    for name, rows in tables.items():
        tpcds.bulk_insert(system, name, rows)


class Workload:
    """One workload: build the system, expose the op sequence."""

    name = ""
    #: Set-ups per run whose median is ``setup_s`` (``etl`` rebuilds per
    #: pass instead).
    setup_repeats = 3
    flush_policy = "none (in-memory engine, no WAL)"

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.sizes = SIZES[self.name][scale]
        self.phases: dict[str, float] = {}
        self.ddl: list[str] = []
        self.tables: dict[str, list[tuple]] = {}
        self.ops: list[tuple[str, str | None]] = []

    @contextlib.contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = (
                self.phases.get(name, 0.0) + time.perf_counter() - start
            )

    def build(self) -> None:
        """Generate rows, DDL, load, flush, attach; fills ``self.ops``."""
        self.phases = {}
        with self.phase("generate"):
            self.generate()
        with self.phase("load"):
            self.open()
            load(self.session, self.ddl, self.tables)
        with self.phase("flush"):
            tpcds.flush_tables(self.session)
        with self.phase("attach"):
            self.attach()

    def generate(self) -> None:
        raise NotImplementedError

    def open(self) -> None:
        raise NotImplementedError

    def attach(self) -> None:
        pass

    def close(self) -> None:
        pass

    def begin_pass(self) -> None:
        pass

    def execute(self, op):
        return self.session.execute(op[1])

    def engines(self) -> list[Database]:
        return [self.database]

    def filesystem(self):
        return None

    def after_run(self) -> dict:
        """Invariants checked once after the last pass (attempted/failed
        plus whatever the workload measured doing so)."""
        return {}

    def distinct_reads(self) -> list[str]:
        """Read statements a pass runs, each text once (EXPLAIN output is
        engine-specific, so it has no oracle)."""
        seen = dict.fromkeys(
            sql for cls, sql in self.ops
            if cls == "select" and not sql.startswith("EXPLAIN")
        )
        return list(seen)


class Analytics(Workload):
    name = "analytics"

    def generate(self) -> None:
        sizes = self.sizes
        cw = CustomerWorkload(
            n_accounts=sizes.get("n_accounts", 2_000),
            n_instruments=sizes.get("n_instruments", 200),
            n_trades=sizes["n_trades"],
            seed=self.seed,
        )
        data = tpcds.generate(scale=sizes["tpcds_scale"], seed=self.seed)
        self.ddl = cw.base_ddl() + tpcds.DDL
        self.tables = {**cw.base_rows(), **data.tables()}
        fixed = [q for _, q in tpcds.TPCDS_QUERIES + BDINSIGHT_QUERIES]
        reads: list[str] = []
        while len(reads) < sizes["n_ops"]:
            # Each call re-draws the pool's literals from the seeded stream.
            reads.extend(cw.long_tail_pool(35))
            reads.extend(fixed)
        self.ops = [("select", sql) for sql in reads[: sizes["n_ops"]]]

    def open(self) -> None:
        self.database = Database()
        self.session = self.database.connect()


class Serve(Workload):
    name = "serve"

    LOOKUPS = (
        "SELECT balance FROM accounts WHERE acct_id = %d",
        "SELECT COUNT(*) FROM trades WHERE acct_id = %d",
        "SELECT qty, market_value FROM positions WHERE acct_id = %d",
    )

    def generate(self) -> None:
        sizes = self.sizes
        cw = CustomerWorkload(
            n_accounts=sizes["n_accounts"], n_trades=sizes["n_trades"],
            seed=self.seed,
        )
        data = tpcds.generate(scale=sizes["tpcds_scale"], seed=self.seed)
        self.ddl = cw.base_ddl() + tpcds.DDL
        self.tables = {**cw.base_rows(), **data.tables()}
        rng = derive_rng(self.seed, "e2e", "serve")
        accounts = rng.permutation(sizes["n_accounts"])[: sizes["n_lookup_accounts"]]
        universe = [q for _, q in tpcds.TPCDS_QUERIES + BDINSIGHT_QUERIES]
        for acct in accounts:
            universe.extend(t % int(acct) for t in self.LOOKUPS)
        weights = np.arange(1, len(universe) + 1, dtype=np.float64) ** -1.1
        draws = rng.choice(len(universe), size=sizes["n_ops"], p=weights / weights.sum())
        ops = [("select", universe[int(d)]) for d in draws]
        # 1 op in 100 is an UPDATE; consecutive ones pair up (+d then -d on
        # the same account), so a pass restores every balance.
        middle = len(ops) // 2
        slots = [i for i in range(50, len(ops) - 1, 100) if i != middle]
        slots = slots[: len(slots) // 2 * 2]
        for j, slot in enumerate(slots):
            ops[slot] = (
                "update",
                "UPDATE accounts SET balance = balance %s %d WHERE acct_id = %d"
                % ("+-"[j % 2], j // 2 + 1, int(accounts[j // 2])),
            )
        # One fact insert at mid-pass invalidates every cached dashboard;
        # the pass's last op deletes the row again.
        last_day = len(data.date_dim) - 1
        ops[middle] = (
            "insert",
            "INSERT INTO store_sales VALUES (%d, 1, 1, %d, 1, 9.99, 1.00)"
            % (last_day, MARKER_CUSTOMER),
        )
        ops[-1] = (
            "delete",
            "DELETE FROM store_sales WHERE ss_customer_sk = %d" % MARKER_CUSTOMER,
        )
        self.ops = ops

    def open(self) -> None:
        self.database = Database()
        self.session = self.database.connect()

    def attach(self) -> None:
        self.gateway = ServingGateway(self.database)  # default capacities

    def close(self) -> None:
        self.gateway.close()

    def begin_pass(self) -> None:
        self.gateway.result_cache.clear()

    def execute(self, op):
        return self.gateway.execute(op[1], session=self.session)


class Etl(Workload):
    name = "etl"
    setup_repeats = 0
    flush_policy = "group_commit=1: one WAL flush (fsync) per commit"

    def generate(self) -> None:
        sizes = self.sizes
        cw = CustomerWorkload(
            scale=sizes["stream_scale"],
            n_accounts=sizes.get("n_accounts", 2_000),
            n_instruments=sizes.get("n_instruments", 200),
            n_trades=sizes["n_trades"],
            seed=self.seed,
        )
        self.ddl, self.tables = cw.base_ddl(), cw.base_rows()
        ops: list[tuple[str, str | None]] = []
        for i, statement in enumerate(cw.statements(), start=1):
            ops.append((statement_class(statement.kind), statement.sql))
            if i % sizes["checkpoint_every"] == 0:
                ops.append(("checkpoint", None))
        self.ops = ops

    def open(self) -> None:
        self.fs = ClusterFileSystem()
        self.database = Database(
            durability=DurabilityManager(self.fs, group_commit=1)
        )
        self.session = self.database.connect()

    def attach(self) -> None:
        # The load utility writes storage directly (no WAL records): a
        # checkpoint is what makes the base data durable.
        self.database.checkpoint()

    def begin_pass(self) -> None:
        self.build()

    def execute(self, op):
        if op[1] is None:
            return self.database.checkpoint()
        return self.session.execute(op[1])

    def filesystem(self):
        return self.fs

    def table_digests(self) -> dict[str, int]:
        out = {}
        for name in self.database.table_names():
            rows = self.database.connect().execute("SELECT * FROM %s" % name).rows
            out[name] = zlib.crc32(repr(sorted(map(repr, rows))).encode())
        return out

    def crash_and_recover(self) -> dict:
        """Crash (unflushed WAL discarded), recover, and compare what is
        readable afterwards with what had been acknowledged before."""
        before = self.table_digests()
        acknowledged = self.database.durability.stats["commits"]
        start = time.perf_counter()
        report = self.database.reopen(clean=False)
        seconds = time.perf_counter() - start
        self.session = self.database.connect()
        after = self.table_digests()
        changed = sorted(
            t for t in set(before) | set(after) if before.get(t) != after.get(t)
        )
        lost = acknowledged - self.database.durability.stats["commits"]
        return {
            "recover_ms": seconds * 1e3,
            "records_replayed": report.records_replayed,
            "tables_changed": changed,
            "commits_lost": lost,
            "attempted": len(before) + 1,
            "failed": len(changed) + (lost != 0),
        }

    after_run = crash_and_recover


class ClusterWorkload(Workload):
    name = "cluster"
    flush_policy = "group_commit=1 on every shard and the coordinator"

    def generate(self) -> None:
        sizes = self.sizes
        data = tpcds.generate(scale=sizes["tpcds_scale"], seed=self.seed)
        self.ddl = list(tpcds.DDL)
        self.tables = data.tables()
        rng = derive_rng(self.seed, "e2e", "cluster")
        n_days = len(data.date_dim)
        day = int(rng.integers(n_days - 60, n_days - 1))
        # Non-aggregate selects, so ``scatter`` (concat at the coordinator)
        # runs; ORDER BY covers every output column, so ties cannot reorder.
        scatter = [
            "SELECT ss_sold_date_sk, ss_item_sk, ss_customer_sk, ss_sales_price"
            " FROM store_sales WHERE ss_sales_price > %d"
            " ORDER BY 4 DESC, 1, 2, 3 FETCH FIRST 10 ROWS ONLY"
            % int(rng.integers(95, 99)),
            "SELECT ss_customer_sk, ss_quantity, ss_net_profit FROM store_sales"
            " WHERE ss_sold_date_sk = %d AND ss_quantity >= 10"
            " ORDER BY 1, 2, 3" % day,
            "SELECT DISTINCT ss_store_sk FROM store_sales"
            " WHERE ss_sold_date_sk >= %d ORDER BY 1" % (day - 30),
            "SELECT ss_item_sk, ss_quantity, ss_net_profit FROM store_sales"
            " WHERE ss_net_profit > %d AND ss_sold_date_sk >= %d"
            " ORDER BY 3 DESC, 1, 2 FETCH FIRST 20 ROWS ONLY"
            % (int(rng.integers(40, 48)), day - 200),
        ]
        reads = [
            sql for name, sql in tpcds.TPCDS_QUERIES + BDINSIGHT_QUERIES
            if name not in CLUSTER_UNSUPPORTED
        ] + scatter
        n_ops = sizes["n_ops"]
        # Slots: 1 in 40 a broadcast UPDATE (consecutive ones pair up, +1
        # then -1 on the same rows), 1 in 40 a broadcast DELETE of the rows
        # routed in since the last one, 1 in 6 a routed single-row INSERT.
        updates = [i for i in range(n_ops - 1) if i % 40 == 19]
        updates = updates[: len(updates) // 2 * 2]
        pairs = [
            (int(rng.integers(0, 500)), int(rng.integers(0, 10)))
            for _ in range(len(updates) // 2)
        ]
        ops: list[tuple[str, str | None]] = []
        next_read = 0
        for i in range(n_ops):
            if i in updates:
                j = updates.index(i)
                ops.append((
                    "update",
                    "UPDATE store_sales SET ss_quantity = ss_quantity %s 1"
                    " WHERE ss_customer_sk = %d AND ss_store_sk = %d"
                    % (("+-"[j % 2],) + pairs[j // 2]),
                ))
            elif i % 40 == 39 or i == n_ops - 1:
                ops.append((
                    "delete",
                    "DELETE FROM store_sales WHERE ss_customer_sk >= %d"
                    % MARKER_CUSTOMER,
                ))
            elif i % 6 == 5:
                ops.append((
                    "insert",
                    "INSERT INTO store_sales VALUES (%d, %d, %d, %d, %d, %d.%02d, 1.00)"
                    % (int(rng.integers(0, n_days)), int(rng.integers(0, 200)),
                       int(rng.integers(0, 10)), MARKER_CUSTOMER + i,
                       int(rng.integers(1, 20)), int(rng.integers(1, 100)),
                       int(rng.integers(0, 100))),
                ))
            else:
                ops.append(("select", reads[next_read % len(reads)]))
                next_read += 1
        self.ops = ops

    def open(self) -> None:
        self.cluster = Cluster(
            [HardwareSpec(cores=2, ram_gb=16, storage_tb=1.0)] * 2, durable=True
        )
        self.session = self.cluster.connect()

    def close(self) -> None:
        self.cluster.pool.shutdown()

    def engines(self) -> list[Database]:
        shards = [self.cluster.shards[sid].engine for sid in sorted(self.cluster.shards)]
        return shards + [self.cluster.coordinator]

    def filesystem(self):
        return self.cluster.filesystem


WORKLOADS = {
    cls.name: cls for cls in (Analytics, Serve, Etl, ClusterWorkload)
}
