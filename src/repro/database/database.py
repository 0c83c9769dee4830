"""The single-node dashDB database engine.

Executes every statement class the paper's workloads use (III: INSERT,
UPDATE, DROP, SELECT, CREATE, DELETE, WITH, EXPLAIN, TRUNCATE) over the
column-organised storage layer, through the dialect-aware SQL front end.
One Database is one shard-group member in the MPP layer (or the whole
system in single-node deployments).
"""

from __future__ import annotations

import datetime
import os
import threading
import time

import numpy as np

from repro.bufferpool import BufferPool, make_policy
from repro.catalog.catalog import Catalog, NicknameInfo, TableInfo, ViewInfo
from repro.database.plancache import PlanCache, PlannedWrite
from repro.database.result import Result, result_from_batch, vectors_from_batch
from repro.database.session import Session
from repro.engine.expression import Batch, Logical, selection_mask
from repro.errors import (
    DialectError,
    RecoveryError,
    SQLError,
    UnknownObjectError,
    UnsupportedFeatureError,
)
from repro.monitor.instrument import (
    annotated_plan_lines,
    attach_operator_spans,
    describe_plan,
    instrument_plan,
)
from repro.monitor.metrics import MetricsRegistry
from repro.monitor.report import database_report
from repro.monitor.tracer import NULL_TRACER, Tracer
from repro.mvcc.txn import Snapshot, TxnManager
from repro.parallel import WorkerPool
from repro.serving.normalize import StatementKey, is_volatile, statement_key
from repro.sql import ast
from repro.sql.binder import ExpressionBinder, LiteralSlots, Scope, ScopeColumn
from repro.sql.dialects import get_dialect, resolve_type
from repro.sql.parser import parse_statement, parse_statements
from repro.sql.planner import (
    PlannedQuery,
    SelectPlanner,
    _conjuncts,
    _simple_predicate,
)
from repro.storage.column import ColumnVector, to_boundary_scalar
from repro.storage.page import PageId
from repro.storage.table import ColumnTable, TableSchema, region_vector
from repro.util.timer import SimClock
from repro.verify import sanitizer

DEFAULT_BUFFERPOOL_PAGES = 1024

#: When set (and not "0"), every planned SELECT is statically verified by
#: :mod:`repro.verify.plan` before execution.
VERIFY_PLANS_ENV_VAR = "REPRO_VERIFY_PLANS"

#: The most row versions (old and new together) a write statement hands its
#: commit listeners as a delta; a larger write reports its table's delta as
#: unknown, which invalidates as if no delta existed.  Measured crossover of
#: building and checking a delta against what it can spare: EXPERIMENTS.md,
#: "Invalidation by delta".
DELTA_MAX_ROWS = 128


class TableDelta:
    """The *n* row versions one write statement replaced or added in one
    table, in physical form: *old* is the batch of rows an UPDATE or DELETE
    matched (:meth:`Database._match`: only those rows, every column, keys
    *prefix* + column name), *rows* the boundary rows an INSERT or an
    UPDATE landed.  A column is built on first use (:meth:`column`), so a
    listener pays only for the columns it reads."""

    def __init__(self, schema, n: int, old=None, prefix: str = "", rows=()):
        self.schema, self.n = schema, n
        self._old, self._prefix, self._rows = old, prefix, rows
        self._built: dict[str, ColumnVector | None] = {}

    def column(self, name: str) -> ColumnVector | None:
        """Every version's value of column *name* (None: no such column)."""
        if name not in self._built:
            self._built[name] = self._build(name)
        return self._built[name]

    def _build(self, name: str) -> ColumnVector | None:
        names = self.schema.column_names
        if name not in names:
            return None
        at = names.index(name)
        dtype = self.schema.columns[at][1]
        parts = []
        if self._old is not None:
            parts.append(self._old.columns[self._prefix + name])
        if self._rows or not parts:
            parts.append(ColumnVector.from_boundary([row[at] for row in self._rows], dtype))
        return parts[0] if len(parts) == 1 else ColumnVector.concat(parts)


class TouchedTables(frozenset):
    """What one committed write statement touched, as commit listeners see it.

    The set of table names (uppercase) it may have changed, plus, per name,
    ``versions[name]`` — the table's version clock after this commit — and
    ``deltas.get(name)``: a :class:`TableDelta` of the rows the statement
    wrote there.  A delta is None (absent) when the rows are not known:
    DDL, CALL, blocks, the cluster's routed inserts, or a write larger than
    :data:`DELTA_MAX_ROWS`.
    """

    versions: dict
    deltas: dict

    def __new__(cls, names, versions: dict, deltas: dict | None = None):
        touched = super().__new__(cls, names)
        touched.versions = versions
        touched.deltas = deltas or {}
        return touched


class Database:
    """A single dashDB Local database instance.

    Args:
        name: database name (dashDB's default is BLUDB).
        compatibility: "oracle" selects the Oracle-compatibility deployment
            image (VARCHAR2 semantics; paper II.C.2); None is the standard
            image.
        bufferpool_pages: page frames in the buffer pool.
        bufferpool_policy: replacement policy name (default the paper's
            randomized-weight policy).
        clock: optional SimClock; when set, CURRENT_DATE/TIMESTAMP are
            simulated (deterministic benchmarks).
        tracer: optional :class:`~repro.monitor.tracer.Tracer`; the default
            is the shared no-op tracer (zero instrumentation overhead).
            With a real tracer, every statement produces a span tree
            (parse -> plan -> execute -> per-operator) and the buffer pool
            feeds the metrics registry.
        parallelism: intra-query degree of parallelism.  ``None`` resolves
            via :func:`~repro.parallel.pool.default_parallelism`
            (``REPRO_PARALLELISM`` env var, else 1 = serial).  Every task
            runs on the calling thread and the DOP is modelled on the sim
            clock.  A scan has one path at every DOP and times each region
            as a task when the DOP is above 1; hash-join probes and
            parallel-safe aggregates split into spans on the shared worker
            pool only when the DOP is above 1.
        morsel_rows: rows per aggregation morsel (default
            :data:`~repro.parallel.morsel.DEFAULT_MORSEL_ROWS`).
        durability: optional
            :class:`~repro.durability.manager.DurabilityManager`.  When
            attached, every statement runs as one auto-commit transaction:
            mutation effects are WAL-logged, a ``commit`` record is
            group-committed, and :meth:`checkpoint` / :meth:`reopen`
            provide fuzzy checkpoints and crash recovery.  ``None`` (the
            default) keeps the engine purely in-memory with zero overhead.
    """

    def __init__(
        self,
        name: str = "BLUDB",
        compatibility: str | None = None,
        bufferpool_pages: int = DEFAULT_BUFFERPOOL_PAGES,
        bufferpool_policy: str = "random-weight",
        clock: SimClock | None = None,
        region_rows: int = 65_536,
        scan_options: dict | None = None,
        tracer: Tracer | None = None,
        parallelism: int | None = None,
        morsel_rows: int | None = None,
        durability=None,
    ):
        self.name = name
        self.compatibility = compatibility
        self.catalog = Catalog()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = MetricsRegistry()
        self.bufferpool = BufferPool(
            bufferpool_pages,
            make_policy(bufferpool_policy),
            metrics=self.metrics if self.tracer.enabled else None,
        )
        self.clock = clock
        self.region_rows = region_rows
        #: Engine feature flags for scans (used by ablation baselines):
        #: {"use_skipping": bool, "use_compressed_eval": bool}.
        self.scan_options = scan_options
        #: Shared morsel worker pool (tasks inline; the DOP is modelled).
        self.pool = WorkerPool(
            parallelism,
            metrics=self.metrics if self.tracer.enabled else None,
            name=name.lower(),
        )
        self.morsel_rows = morsel_rows
        self.durability = durability
        if durability is not None:
            durability.attach(self)
        self.procedures: dict[str, object] = {}
        self.statement_count = 0
        #: MVCC transaction manager: allocates txids and snapshots.  Every
        #: write statement runs as one auto-commit transaction; every read
        #: statement runs against an immutable snapshot and takes no lock.
        self.txn = TxnManager(name)
        #: Serialises whole *write* statements (and checkpoints) on this
        #: engine.  Held across dispatch + commit — not just the counter —
        #: so a checkpoint can never snapshot mid-statement state (the
        #: model checker's commit-vs-checkpoint scenario found exactly
        #: that: a snapshot taken between a statement's table mutation and
        #: its WAL commit replays the transaction on top of its own
        #: effects after recovery).  Reentrant because blocks/CALL nest
        #: statements.  Read statements (SELECT/VALUES/EXPLAIN/SET) do
        #: *not* take it: they read through an MVCC snapshot, so analytic
        #: scans never block behind a concurrent load — the paper's Test-2
        #: HTAP claim.  Intra-statement morsel parallelism is untouched:
        #: pool workers never take this lock.
        self._statement_lock = sanitizer.make_lock(
            "database:%s:statement" % name, reentrant=True
        )
        #: Guards the statement counter, which both read and write paths
        #: bump; its own lock (class ``txn``) because read statements no
        #: longer hold the statement lock.
        self._counter_lock = sanitizer.make_lock("txn:%s:counter" % name)
        #: Table-version clock for the serving-layer caches: every commit
        #: that touches a table bumps that table's version; statements
        #: whose touched set cannot be derived (CALL, anonymous blocks)
        #: bump the global counter, which invalidates everything.  Guarded
        #: by its own ``txn``-class lock: bumps happen under the statement
        #: lock (database > txn is the declared order) while cache reads
        #: take it bare.
        self._version_lock = sanitizer.make_lock("txn:%s:tablever" % name)
        self._table_versions: dict[str, int] = {}
        self._global_version = 0
        self._write_epoch = 0
        self._commit_listeners: list = []
        #: The engine's statement cache: every read that arrives as text
        #: (``Session.execute``, the serving gateway, the cluster
        #: coordinator) is lexed once per text and planned once per
        #: template, and executes a per-execution copy after that.
        self.plan_cache = PlanCache(name)
        # Per-thread statement state: the current write transaction and the
        # scans of the most recent statement (concurrent readers must not
        # clobber each other's byte accounting).
        self._tls = threading.local()

    @property
    def last_scans(self) -> list:
        """Scans opened for this thread's latest statement."""
        scans = getattr(self._tls, "scans", None)
        if scans is None:
            scans = []
            self._tls.scans = scans
        return scans

    @last_scans.setter
    def last_scans(self, value: list) -> None:
        self._tls.scans = value

    def note_scan(self, scan) -> None:
        """Remember an opened scan for per-query byte accounting (what
        :meth:`PlannedQuery.bind` calls for every scan of an execution)."""
        self.last_scans.append(scan)

    def _stmt_txn(self):
        """The write transaction of the statement on this thread (or None)."""
        return getattr(self._tls, "txn", None)

    def last_query_bytes(self) -> tuple[int, int]:
        """(compressed, raw-equivalent) bytes scanned by the last query."""
        compressed = sum(s.stats.bytes_scanned for s in self.last_scans)
        raw = sum(s.stats.raw_bytes_scanned for s in self.last_scans)
        return compressed, raw

    # -- commit notification (serving-cache invalidation) -----------------------

    def add_commit_listener(self, listener) -> None:
        """Register ``listener(tables_or_None)`` to run after every committed
        write statement.  ``tables`` is a :class:`TouchedTables` — the
        frozenset of touched table names (uppercase) with each one's new
        version and, where known, the rows the statement wrote; ``None``
        means the touched set could not be derived (CALL / anonymous block
        / recovery) and *everything* may have changed.  Listeners run under
        the statement lock — they must be short and must only acquire locks
        ranked after ``database``."""
        if listener not in self._commit_listeners:
            self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener) -> None:
        if listener in self._commit_listeners:
            self._commit_listeners.remove(listener)

    def versions_token(self, tables) -> tuple[int, dict[str, int]]:
        """Validation stamp for a cache entry reading ``tables`` (None: a
        reading of the whole clock, for a reader that learns its tables
        only by executing — it keeps the entries it turns out to need).

        Returns ``(global_version, {table: version})``.  An entry is valid
        while both the global counter and every per-table counter still
        match — reading the token *before* executing makes the check
        conservative: a commit racing the read leaves the entry immediately
        stale rather than ever stale-but-valid."""
        with self._version_lock:
            if tables is None:
                return self._global_version, dict(self._table_versions)
            return (
                self._global_version,
                {t: self._table_versions.get(t, 0) for t in tables},
            )

    def versions_valid(self, token: tuple[int, dict[str, int]]) -> bool:
        """Whether a :meth:`versions_token` stamp is still current."""
        global_version, per_table = token
        with self._version_lock:
            if global_version != self._global_version:
                return False
            versions = self._table_versions
            for table, version in per_table.items():
                if versions.get(table, 0) != version:
                    return False
            return True

    @property
    def write_epoch(self) -> int:
        """Total committed write statements (fragile-entry validation)."""
        with self._version_lock:
            return self._write_epoch

    def _note_commit(
        self, tables: frozenset | None, deltas: dict | None = None
    ) -> None:
        """Bump version counters and fan out to commit listeners.

        Called after a write transaction commits, still under the statement
        lock, so listeners observe invalidations in commit order.  *deltas*
        are the rows the statement wrote, per table (:meth:`_note_delta`)."""
        versions = {}
        with self._version_lock:
            self._write_epoch += 1
            if tables is None:
                self._global_version += 1
                for name in self._table_versions:
                    self._table_versions[name] += 1
            else:
                for name in tables:
                    versions[name] = self._table_versions[name] = (
                        self._table_versions.get(name, 0) + 1
                    )
        listeners = list(self._commit_listeners)
        if listeners and tables is not None:
            tables = TouchedTables(tables, versions, deltas)
        for listener in listeners:
            listener(tables)

    def _note_delta(
        self, table: ColumnTable, n: int, old=None, prefix="", rows=()
    ) -> None:
        """Keep what a write statement did to *table* for the commit
        listeners: *n* old and new versions (:class:`TableDelta` says
        what the arguments are).  Nothing is kept unless a listener is
        attached, and a table written twice in one statement or by more
        than :data:`DELTA_MAX_ROWS` versions has no delta."""
        deltas = getattr(self._tls, "deltas", None)
        if deltas is None:
            return
        name = table.schema.name.upper()
        if name in deltas or n > DELTA_MAX_ROWS:
            deltas[name] = None
        else:
            deltas[name] = TableDelta(table.schema, n, old, prefix, rows)

    #: AST node (or bound UPDATE / DELETE) -> attribute holding the target
    #: table reference.
    _TARGET_ATTRS = {
        ast.Insert: "table", ast.Update: "table", ast.Delete: "table",
        PlannedWrite: "ref",
        ast.CreateTable: "name", ast.DropTable: "name",
        ast.TruncateTable: "name", ast.CreateView: "name",
        ast.DropView: "name",
    }

    def _touched_tables(self, node: ast.Node, txn) -> frozenset | None:
        """Tables a committed write statement may have changed (None =
        unknown, treat as all).  Combines the statement's AST target with
        the tables the transaction actually stamped (CTAS inserts, block
        side effects registered through the txn)."""
        names = set()
        if txn is not None:
            for table in txn._tables:
                names.add(table.schema.name.upper())
        attr = self._TARGET_ATTRS.get(type(node))
        if attr is not None:
            names.add(getattr(node, attr).name.upper())
            return frozenset(names)
        if isinstance(
            node, (ast.CreateSequence, ast.DropSequence, ast.CreateAlias)
        ):
            # Sequence/alias DDL changes no table contents (NEXTVAL readers
            # are uncacheable), but aliases can rebind names: be safe.
            return frozenset(names) if not isinstance(
                node, ast.CreateAlias
            ) else None
        # CALL / AnonymousBlock / anything else: effects unknowable here.
        return None

    # -- connections -----------------------------------------------------------

    def connect(self, dialect: str | None = None) -> Session:
        """Open a session; the default dialect follows the deployment image."""
        if dialect is None:
            dialect = "oracle" if self.compatibility == "oracle" else "db2"
        return Session(self, dialect)

    # -- time --------------------------------------------------------------------

    def current_date(self) -> datetime.date:
        if self.clock is not None:
            return datetime.date(2016, 1, 1) + datetime.timedelta(
                days=int(self.clock.now // 86400)
            )
        return datetime.date.today()  # lint-ok: wall-clock (real-time fallback when no SimClock is attached)

    def current_timestamp(self) -> datetime.datetime:
        if self.clock is not None:
            return datetime.datetime(2016, 1, 1) + datetime.timedelta(
                seconds=self.clock.now
            )
        return datetime.datetime.now()  # lint-ok: wall-clock (real-time fallback when no SimClock is attached)

    # -- page source (buffer pool integration) --------------------------------------

    def page_source(self, table: str, column: str, region: int, loader):
        page_id = PageId(table=table, column=column, extent=region)
        return self.bufferpool.get(page_id, loader)

    # -- execution --------------------------------------------------------------------

    def execute_script(self, sql: str, session: Session | None = None) -> list[Result]:
        session = session or self.connect()
        with self.tracer.span("parse", sql=sql):
            nodes = parse_statements(sql)
        return [self._execute_node(node, session, sql=sql) for node in nodes]

    def _parse(self, sql: str, tokens=None) -> ast.Node:
        with self.tracer.span("parse", sql=sql):
            return parse_statement(sql, tokens)

    def execute(
        self,
        sql: str,
        session: Session | None = None,
        key: StatementKey | None = None,
        snapshot: Snapshot | None = None,
    ) -> Result:
        """Run one statement given as text.

        *key* is ``statement_key(sql, self.plan_cache)`` when the caller
        already has it (the serving result cache does): a text is lexed at
        most once on every path, a read this engine has keyed before never.
        A cacheable read (``key.bypass is None``), an UPDATE and a DELETE run
        through the plan cache and are parsed only when they have to be
        planned; *snapshot* pins a read to an MVCC snapshot of the caller's
        choosing."""
        session = session or self.connect()
        if key is None:
            key = statement_key(sql, self.plan_cache)
        tokens = key.tokens
        verb = tokens[0].key if tokens is not None else None
        if verb in ("UPDATE", "DELETE"):
            return self._execute_write_node(None, session, sql, key)
        if verb not in ("SELECT", "WITH"):
            # Nothing the plan cache could hold: INSERT, DDL, VALUES, a text
            # that does not lex.  (A SELECT is counted where it is planned.)
            self.plan_cache.count(key.bypass or "values")
        elif key.bypass is None:
            return self._read_statement(
                "Select", session, sql, snapshot,
                lambda snap: self._execute_select(None, session, snap, key=key, sql=sql),
            )
        node = self._parse(sql, tokens)
        return self._execute_node(node, session, sql=sql, snapshot=snapshot, key=key)

    def execute_ast(
        self,
        node: ast.Node,
        session: Session | None = None,
        snapshot: Snapshot | None = None,
        vectors: bool = False,
        relations: dict | None = None,
    ) -> Result:
        """Execute a pre-parsed statement (used by the MPP layer, which
        rewrites ASTs for partial/global aggregation).  ``snapshot`` pins
        a read statement to an externally chosen MVCC snapshot — the
        cluster coordinator uses this for consistent cross-shard reads.
        ``vectors`` makes a SELECT answer with its final batch's physical
        column vectors (``Result.vectors``) instead of boundary rows: the
        shard-to-coordinator hand-off, same statement wrapper.
        ``relations`` (name -> planner ``MaterialRel``) are in-memory
        relations this one read statement may name like tables — the
        coordinator's gathered partials; they shadow catalog objects and
        are gone when the statement returns: they ride a statement-scoped
        thread-local, like the snapshot, to every planner it builds."""
        session = session or self.connect()
        if relations and not isinstance(node, self._READ_NODES):
            raise SQLError("only a read statement can name in-memory relations")
        prev_relations = getattr(self._tls, "relations", None)
        self._tls.relations = relations
        try:
            return self._execute_node(
                node, session, snapshot=snapshot, vectors=vectors
            )
        finally:
            self._tls.relations = prev_relations

    def evaluate_rows(self, ast_rows, session: Session | None = None) -> list[list]:
        """Evaluate constant VALUES rows to boundary values."""
        session = session or self.connect()
        return self._evaluate_rows(ast_rows, session)

    def _planner(
        self, session: Session, snapshot: Snapshot | None = None,
        slots: LiteralSlots | None = None,
    ) -> SelectPlanner:
        """A planner for one statement.  *snapshot* is what the subqueries
        planning itself executes read; inside a write statement it defaults
        to the transaction's own (which sees its earlier stamps)."""
        if snapshot is None:
            txn = self._stmt_txn()
            snapshot = txn.snapshot if txn is not None else None
        return SelectPlanner(
            self, session.dialect, page_source=self.page_source, session=session,
            relations=getattr(self._tls, "relations", None),
            snapshot=snapshot, on_scan=self.note_scan, slots=slots,
        )

    def _bound_subselect(self, node: ast.Select, session: Session) -> PlannedQuery:
        """The bound plan of a SELECT inside a write statement (INSERT ...
        SELECT, CREATE TABLE AS): planned per statement, read through the
        statement's transaction."""
        planner = self._planner(session)
        return planner.plan(node).open(
            planner.scans, planner.subquery_snapshot, self.note_scan
        )

    def _bound_select(
        self,
        node: ast.Select | None,
        session: Session,
        snapshot: Snapshot,
        key: StatementKey | None = None,
        sql: str | None = None,
    ) -> tuple[PlannedQuery, str]:
        """The bound plan of one SELECT execution, and where it came from
        (``cached`` or ``fresh (<why>)``).

        With a cacheable *key* the plan cache is asked first and *node* is
        not needed: a miss parses *sql* from the key's tokens (whose
        indexes are the literal slots), plans it with its literals tracked,
        and stores the plan unless planning found it single-use.  Every
        execution is counted once: hit, miss or a bypass reason."""
        cache = self.plan_cache
        if getattr(self._tls, "relations", None):
            reason = "relations"
        elif key is None:
            reason = "ast-entry"
        else:
            reason = key.bypass
        tokens = None
        if reason is None:
            tokens = key.tokens
            cached = cache.lookup(key, session, self.catalog)
            if cached is not None:
                try:
                    bound = cached.bind(snapshot, tokens, self.note_scan)
                except (TypeError, ValueError, ArithmeticError, SQLError):
                    # A late constant is not exact where the planned one
                    # was (``int_col = 2.5``): plan this statement itself.
                    reason = "literal-shape"
                    self.last_scans = []
                else:
                    cache.count("hit")
                    return bound, "cached"
            node = self._parse(sql, tokens)  # SELECT / WITH: always an ast.Select
        slots = LiteralSlots() if reason is None else None
        planner = self._planner(session, snapshot, slots)
        planned = planner.plan(node)
        lineage = planned.lineage = planner.lineage.seal()
        if slots is not None:
            slots.seal()
            planned.slots = slots
        if slots is None:
            # Nobody will share this plan: it is its own one execution.
            bound = planned.open(planner.scans, snapshot, self.note_scan)
        else:
            bound = planned.bind(snapshot, tokens, self.note_scan)
        reason = reason or lineage.bypass
        if reason is None:
            cache.store(key, session, planned)
            return bound, "fresh (miss)"
        cache.count(reason)
        return bound, "fresh (%s)" % reason

    def _execute_select(
        self,
        node: ast.Select | None,
        session: Session,
        snapshot: Snapshot,
        vectors: bool = False,
        key: StatementKey | None = None,
        sql: str | None = None,
    ) -> Result:
        self.last_scans = []
        tracer = self.tracer
        with tracer.span("plan"):
            planned, _origin = self._bound_select(node, session, snapshot, key, sql)
        if os.environ.get(VERIFY_PLANS_ENV_VAR, "") not in ("", "0"):
            from repro.verify.plan import check_plan

            check_plan(planned, database=self)
        if not tracer.enabled:
            batch = planned.run()
        else:
            root = instrument_plan(planned.op, clock=self.clock)
            with tracer.span("execute") as span:
                batch = root.run()
            attach_operator_spans(tracer, span, root)
        build = vectors_from_batch if vectors else result_from_batch
        result = build(batch, planned.names, planned.keys, planned.dtypes)
        result.lineage = planned.lineage
        result.filters = planned.read_filters()
        return result

    #: Statement classes that never mutate shared database state: they run
    #: on the lock-free snapshot-read path.  (SET only touches the session;
    #: EXPLAIN plans without executing mutations.)
    _READ_NODES = (
        ast.Select,
        ast.ValuesStatement,
        ast.ExplainStatement,
        ast.SetStatement,
    )

    def _execute_node(
        self,
        node: ast.Node,
        session: Session,
        sql: str | None = None,
        snapshot: Snapshot | None = None,
        vectors: bool = False,
        key: StatementKey | None = None,
    ) -> Result:
        """Statement wrapper: spans, per-statement stats, query history."""
        if vectors and not isinstance(node, ast.Select):
            raise SQLError("only a SELECT can answer with column vectors")
        if not isinstance(node, self._READ_NODES):
            return self._execute_write_node(node, session, sql)
        if vectors:
            body = lambda snap: self._execute_select(node, session, snap, vectors=True)
        else:
            body = lambda snap: self._dispatch_node(node, session, snap, key)
        return self._read_statement(type(node).__name__, session, sql, snapshot, body)

    def _bump_statement_count(self) -> int:
        with self._counter_lock:
            if sanitizer.ENABLED:
                sanitizer.access(
                    "database:%s" % self.name, "statement_count",
                    site="Database._bump_statement_count",
                )
            self.statement_count += 1
            return self.statement_count

    def _read_statement(
        self,
        statement: str,
        session: Session,
        sql: str | None,
        snapshot: Snapshot | None,
        body,
    ) -> Result:
        """Snapshot-read path: no statement lock, never blocks a writer.

        ``body(snapshot)`` does the statement's work.  The snapshot is
        pinned for the whole statement (repeatable reads within the
        statement).  Inside a write transaction (a block/CALL running a
        SELECT) the enclosing transaction's snapshot is reused so the read
        sees the transaction's own uncommitted stamps.
        """
        index = self._bump_statement_count()
        wall_start = time.perf_counter()  # lint-ok: wall-clock (wall stopwatch reported beside the sim span, never charged to the cost model)
        sim_start = self.clock.now if self.clock is not None else None
        if snapshot is None:
            outer = self._stmt_txn()
            snapshot = outer.snapshot if outer is not None else self.txn.snapshot()
        with self.tracer.span("statement", statement=statement, sql=sql):
            try:
                result = body(snapshot)
            except BaseException:
                if self.durability is not None:
                    self.durability.abort()
                raise
            # Pure queries can still advance durable state (NEXTVAL
            # consumed in a SELECT): commit the sequence delta.
            if self.durability is not None:
                self.durability.commit()
        wall = time.perf_counter() - wall_start  # lint-ok: wall-clock (same wall stopwatch as above; reported, never charged)
        sim = self.clock.now - sim_start if sim_start is not None else None
        session.record_statement(
            statement, result, wall, sim_seconds=sim, sql=sql, index=index
        )
        return result

    def _execute_write_node(
        self,
        node: ast.Node | None,
        session: Session,
        sql: str | None = None,
        key: StatementKey | None = None,
    ) -> Result:
        """Write path: statement lock + one auto-commit MVCC transaction.

        The transaction's stamps become visible atomically at commit —
        concurrent snapshot readers either see all of the statement's
        effects or none.  On failure both the WAL buffer (durability
        abort) and the version stamps (MVCC rollback) are reverted.
        *node* None is an UPDATE or DELETE text (*key*), parsed only if its
        plan is not cached (:meth:`_write_plan`).
        """
        statement = type(node).__name__ if node is not None else key.tokens[0].key.title()
        with self._statement_lock:
            index = self._bump_statement_count()
            wall_start = time.perf_counter()  # lint-ok: wall-clock (wall stopwatch reported beside the sim span, never charged to the cost model)
            sim_start = self.clock.now if self.clock is not None else None
            outer_txn = self._stmt_txn()
            outer_deltas = getattr(self._tls, "deltas", None)
            txn = self.txn.begin()
            self._tls.txn = txn
            self._tls.deltas = {} if self._commit_listeners else None
            try:
                with self.tracer.span("statement", statement=statement, sql=sql):
                    # Auto-commit transaction boundary: a statement's redo
                    # records reach the WAL only if it succeeds; a commit
                    # record makes them durable (group commit may defer
                    # the flush).
                    try:
                        if node is None:
                            # the bound plan names the target, as a node would
                            result, node = self._execute_dml(None, session, key, sql)
                        else:
                            result = self._dispatch_node(node, session)
                    except BaseException:
                        if self.durability is not None:
                            self.durability.abort()
                        txn.abort()
                        raise
                    if self.durability is not None:
                        self.durability.commit(txn_meta={"txn": txn.txid})
                    txn.commit()
                    self._note_commit(
                        self._touched_tables(node, txn), self._tls.deltas
                    )
            finally:
                self._tls.txn = outer_txn
                self._tls.deltas = outer_deltas
        wall = time.perf_counter() - wall_start  # lint-ok: wall-clock (same wall stopwatch as above; reported, never charged)
        sim = self.clock.now - sim_start if sim_start is not None else None
        session.record_statement(
            statement, result, wall, sim_seconds=sim, sql=sql, index=index
        )
        return result

    def _dispatch_node(
        self,
        node: ast.Node,
        session: Session,
        snapshot: Snapshot | None = None,
        key: StatementKey | None = None,
    ) -> Result:
        """Run one statement's own work.  Read statements get the
        *snapshot* their wrapper pinned (and a SELECT that came as text its
        *key*); write statements read through their transaction's."""
        if isinstance(node, ast.Select):
            return self._execute_select(node, session, snapshot, key=key)
        if isinstance(node, ast.ValuesStatement):
            return self._execute_values(node, session, snapshot)
        if isinstance(node, ast.Insert):
            return self._execute_insert(node, session)
        if isinstance(node, (ast.Update, ast.Delete)):
            return self._execute_dml(node, session)[0]
        if isinstance(node, ast.CreateTable):
            return self._execute_create_table(node, session)
        if isinstance(node, ast.DropTable):
            return self._execute_drop_table(node, session)
        if isinstance(node, ast.TruncateTable):
            return self._execute_truncate(node, session)
        if isinstance(node, ast.CreateView):
            return self._execute_create_view(node, session)
        if isinstance(node, ast.DropView):
            self.catalog.drop(node.name.name, node.name.schema)
            if self.durability is not None:
                self.durability.log_op(
                    "ddl", None, ("drop_view", node.name.schema, node.name.name)
                )
            return Result(message="view dropped")
        if isinstance(node, ast.CreateSequence):
            self.catalog.create_sequence(
                node.name,
                start=node.start,
                increment=node.increment,
                minvalue=node.minvalue,
                maxvalue=node.maxvalue,
                cycle=node.cycle,
            )
            if self.durability is not None:
                self.durability.log_op(
                    "ddl",
                    None,
                    (
                        "create_sequence",
                        node.name,
                        {
                            "start": node.start,
                            "increment": node.increment,
                            "minvalue": node.minvalue,
                            "maxvalue": node.maxvalue,
                            "cycle": node.cycle,
                        },
                    ),
                )
            return Result(message="sequence created")
        if isinstance(node, ast.DropSequence):
            self.catalog.drop_sequence(node.name)
            if self.durability is not None:
                self.durability.log_op("ddl", None, ("drop_sequence", node.name))
            return Result(message="sequence dropped")
        if isinstance(node, ast.CreateAlias):
            self.catalog.create_alias(node.name.name, node.target.name, node.name.schema)
            if self.durability is not None:
                self.durability.log_op(
                    "ddl",
                    None,
                    (
                        "create_alias",
                        node.name.schema,
                        node.name.name,
                        node.target.name,
                    ),
                )
            return Result(message="alias created")
        if isinstance(node, ast.SetStatement):
            return self._execute_set(node, session)
        if isinstance(node, ast.ExplainStatement):
            return self._execute_explain(node, session, snapshot)
        if isinstance(node, ast.CallStatement):
            return self._execute_call(node, session)
        if isinstance(node, ast.AnonymousBlock):
            last = Result(message="block executed")
            for statement in node.statements:
                last = self._execute_node(statement, session)
            return last
        raise UnsupportedFeatureError(
            "statement %s not supported" % type(node).__name__
        )

    # -- VALUES ------------------------------------------------------------------------

    def _execute_values(
        self, node: ast.ValuesStatement, session: Session, snapshot: Snapshot | None
    ) -> Result:
        if not session.dialect.allows_top_level_values:
            raise DialectError("top-level VALUES requires the DB2 dialect")
        planner = self._planner(session, snapshot)
        rows = self._evaluate_rows(node.rows, session, planner)
        width = len(node.rows[0])
        names = ["%d" % (i + 1) for i in range(width)]
        return Result(
            columns=names, rows=[tuple(r) for r in rows], rowcount=len(rows),
            lineage=planner.lineage.seal(),  # of its subqueries, if any
        )

    def _evaluate_rows(
        self, ast_rows, session: Session, planner: SelectPlanner | None = None
    ) -> list[list]:
        binder = ExpressionBinder(Scope([]), session.dialect, self)
        binder.subquery_planner = planner or self._planner(session)
        out = []
        width = len(ast_rows[0])
        for ast_row in ast_rows:
            if len(ast_row) != width:
                raise SQLError("VALUES rows have differing widths")
            row = []
            for expr_node in ast_row:
                expr = binder.bind(expr_node)
                value = expr.eval_row({})
                row.append(to_boundary_scalar(value, expr.dtype))
            out.append(row)
        return out

    # -- durability hooks ---------------------------------------------------------------

    def _durable_for(self, session: Session, ref: ast.TableRef, table: ColumnTable):
        """The durability manager, unless the target is session-temporary
        (declared temp tables die with the session and are never logged)."""
        if self.durability is None:
            return None
        if ref.schema is None or ref.schema == "SESSION":
            if session.get_temp_table(ref.name) is table:
                return None
        return self.durability

    @staticmethod
    def _table_key(ref: ast.TableRef, table: ColumnTable) -> tuple:
        return (ref.schema, table.schema.name)

    def checkpoint(self) -> int:
        """Take a checkpoint at a statement boundary; returns its LSN.

        The statement lock quiesces in-flight statements first: a snapshot
        must be transaction-consistent, or recovery replays post-snapshot
        commits on top of their own already-snapshotted effects."""
        if self.durability is None:
            raise RecoveryError("database %s has no durability manager" % self.name)
        with self._statement_lock:
            return self.durability.checkpoint()

    # lint-ok: write-protocol (recovery replays mutations *from* the WAL — re-logging them would double every record; _note_commit(None) below invalidates everything, which subsumes touched-table recording)
    def reopen(self, clean: bool = False):
        """Restart this engine from durable state alone.

        ``clean=True`` models an orderly shutdown (the WAL is flushed
        first); the default models a crash, where buffered (unflushed)
        records — and the commits they carried — are lost.  Volatile
        state (catalog, buffer pool) is discarded and rebuilt by ARIES
        redo recovery.  Returns the
        :class:`~repro.durability.manager.RecoveryReport`.
        """
        if self.durability is None:
            raise RecoveryError("database %s has no durability manager" % self.name)
        if clean:
            self.durability.flush()
        else:
            self.durability.crash()
        self.catalog = Catalog()
        self.plan_cache.clear()  # every plan resolved names in the old catalog
        self.bufferpool.clear()
        # Txids are an incarnation-local notion: recovery stamps every
        # surviving version ancient, so the manager restarts fresh (any
        # in-flight transactions died with the crash).
        self.txn = TxnManager(self.name)
        self._tls = threading.local()
        # Recovery rewrites table contents wholesale: every cached answer
        # and every outstanding version stamp is now meaningless.
        self._note_commit(None)
        return self.durability.recover()

    # -- INSERT -------------------------------------------------------------------------

    def _resolve_target(
        self, ref: ast.TableRef, session: Session, lineage=None
    ) -> ColumnTable:
        """The table a write names; a plan being made for reuse records
        what the name resolved through in its *lineage*."""
        if ref.schema is None or ref.schema == "SESSION":
            temp = session.get_temp_table(ref.name)
            if temp is not None:
                if lineage is not None:
                    lineage.single_use("temp-table", untracked=True)
                return temp
        if ref.schema == "SESSION":
            raise UnknownObjectError("no declared temp table %s" % ref.name)
        if lineage is None:
            info = self.catalog.resolve(ref.name, ref.schema)
        else:
            info = self.catalog.resolve(ref.name, ref.schema, lineage.stamps)
            if ref.schema is None:
                lineage.names.add(ref.name.upper())
        if isinstance(info, TableInfo):
            return info.table
        raise SQLError("%s is not a base table" % ref.name)

    def _execute_insert(self, node: ast.Insert, session: Session) -> Result:
        table = self._resolve_target(node.table, session)
        schema = table.schema
        names = schema.column_names
        if node.columns is not None:
            targets = [c.upper() for c in node.columns]
            for t in targets:
                if t not in names:
                    raise SQLError("column %s not in table %s" % (t, schema.name))
        else:
            targets = names
        if node.rows is not None:
            raw_rows = self._evaluate_rows(node.rows, session)
        else:
            planned = self._bound_subselect(node.select, session)
            result = result_from_batch(
                planned.run(), planned.names, planned.keys, planned.dtypes
            )
            raw_rows = result.rows
        for raw in raw_rows:
            if len(raw) != len(targets):
                raise SQLError(
                    "INSERT has %d values for %d columns" % (len(raw), len(targets))
                )
        if targets == names:
            rows = [tuple(raw) for raw in raw_rows]
        else:  # a column list: schema order, NULL for the columns not named
            at = {t: i for i, t in enumerate(targets)}
            order = [at.get(n) for n in names]
            rows = [
                tuple(None if i is None else raw[i] for i in order)
                for raw in raw_rows
            ]
        oracle_strings = self.compatibility == "oracle"
        if oracle_strings:
            rows = [
                tuple(None if v == "" else v for v in row) for row in rows
            ]
        txn = self._stmt_txn()
        if txn is not None:
            count = txn.insert(table, rows)
        else:
            count = table.insert_rows(rows)
        self._note_delta(table, count, rows=rows)
        durable = self._durable_for(session, node.table, table)
        if durable is not None and rows:
            durable.log_insert(self._table_key(node.table, table), rows)
        return Result(rowcount=count, message="%d row(s) inserted" % count)

    # -- UPDATE / DELETE -----------------------------------------------------------------

    def _execute_dml(
        self, node, session: Session, key: StatementKey | None = None, sql: str | None = None
    ) -> tuple[Result, PlannedWrite]:
        """Run one UPDATE or DELETE and return its result and bound plan.

        The plan (:meth:`_write_plan`) says what to match; :meth:`_match`
        reads only the rows and columns that takes.  The matched batch then
        feeds everything else: SET, the tombstones, the commit listeners'
        delta and the WAL records.  A column-store UPDATE is delete +
        re-insert, and so is its redo."""
        plan = self._write_plan(node, session, key, sql)
        table, prefix = plan.table, plan.prefix
        positions, matched, size = self._match(plan)
        count = int(positions.size)
        if plan.assignments is not None:
            if not count:
                self._note_delta(table, 0)
                return Result(rowcount=0, message="0 row(s) updated"), plan
            rows = self._new_rows(plan, matched)
        mask = np.zeros(size, dtype=bool)
        mask[positions] = True
        txn = self._stmt_txn()  # DML runs only inside _execute_write_node
        durable = self._durable_for(session, plan.ref, table)
        wal_key = self._table_key(plan.ref, table)
        if plan.assignments is None:
            count = txn.delete(table, mask)
            self._note_delta(table, count, matched, prefix)
            if durable is not None and count:
                durable.log_delete(wal_key, mask)
            return Result(rowcount=count, message="%d row(s) deleted" % count), plan
        txn.delete(table, mask)
        txn.insert(table, rows)
        # No page is dropped: the old versions' regions are only stamped
        # (``xmax``) and the new ones land in the tail.
        self._note_delta(table, 2 * count, matched, prefix, rows)
        if durable is not None:
            durable.log_delete(wal_key, mask)
            durable.log_insert(wal_key, rows)
        return Result(rowcount=count, message="%d row(s) updated" % count), plan

    def _write_plan(
        self, node, session: Session, key: StatementKey | None = None, sql: str | None = None
    ) -> PlannedWrite:
        """The bound plan of one UPDATE or DELETE, cached and counted like a
        SELECT's: a text (*key*) asks the plan cache first and is parsed
        only when its template must be planned; an AST (*node*: blocks,
        CALL, the cluster's shards) plans for itself (``ast-entry``)."""
        cache = self.plan_cache
        reason = "ast-entry" if key is None else None
        tokens = None
        if reason is None:
            tokens = key.tokens
            cached = cache.lookup(key, session, self.catalog)
            if cached is not None:
                try:
                    bound = cached.bind(tokens)
                except (TypeError, ValueError, ArithmeticError, SQLError):
                    reason = "literal-shape"  # see _bound_select
                else:
                    cache.count("hit")
                    return bound
            # CURRENT DATE, NEXTVAL and RAND are bound per statement: such a
            # template is never stored, so only a miss has to ask.
            elif is_volatile(tokens):
                reason = "volatile"
        if node is None:
            node = self._parse(sql, key.tokens)
        slots = LiteralSlots() if reason is None else None
        planned = self._plan_write(node, session, slots)
        if slots is not None:
            slots.seal()
        reason = reason or planned.lineage.bypass
        if reason is None:
            cache.store(key, session, planned)
        else:
            cache.count(reason)
        return planned.bind(tokens)

    def _plan_write(
        self, node: ast.Update | ast.Delete, session: Session, slots: LiteralSlots | None
    ) -> PlannedWrite:
        """Resolve an UPDATE's or DELETE's target and bind its WHERE — split
        into pushed and residual conjuncts as the SELECT planner splits a
        scan's — and its SET expressions."""
        planner = self._planner(session, slots=slots)  # runs WHERE subqueries
        lineage = planner.lineage
        ref = node.table
        table = self._resolve_target(ref, session, lineage)
        alias = (ref.alias or ref.name).upper()
        scope = Scope([
            ScopeColumn("%s.%s" % (alias, cname), cname, alias, dtype)
            for cname, dtype in table.schema.columns
        ])
        binder = ExpressionBinder(scope, session.dialect, self, slots=slots)
        binder.subquery_planner = planner
        pushed, residual = [], []
        for conjunct in _conjuncts(node.where):
            simple = _simple_predicate(conjunct, scope, binder, session.dialect)
            if simple is None:
                residual.append(binder.bind(conjunct))
            else:
                pushed.append(simple[1])
        assignments = None
        if isinstance(node, ast.Update):
            assignments = [
                (table.schema.column_index(column.upper()), binder.bind(expr))
                for column, expr in node.assignments
            ]
        return PlannedWrite(
            ref, table, pushed,
            None if not residual else residual[0] if len(residual) == 1
            else Logical("AND", residual),
            assignments, slots, lineage.seal(),
        )

    def _match(self, plan: PlannedWrite) -> tuple[np.ndarray, Batch | None, int]:
        """The rows an UPDATE or DELETE touches: their positions in the
        table's logical scan order, a batch of every column at them (keys
        ``ALIAS.COLUMN``; None when nothing matched), and the table's
        physical row count.

        Region by region, then the tail, it reads what it touches: the
        synopses skip extents, the pushed predicates answer as row ids on
        the codes (:func:`_candidates`), visibility is read at those ids
        only, the residual is decoded and evaluated at the visible ones
        alone — a version the statement cannot see never reaches an
        expression — and every column is gathered at the rows that remain.
        Regions are read directly, not through the buffer pool."""
        table = plan.table
        snapshot = self._stmt_txn().snapshot
        schema = table.schema
        positions, batches, offset = [], [], 0

        def settle(ids, read) -> None:
            ids, batch = _settle(plan, ids, read)
            if ids.size:
                positions.append(ids + offset)
                batches.append(batch)

        for region in list(table.regions):
            ids = _candidates(region, plan.pushed, table.synopsis_stride)
            if ids.size:
                visible = region.visible_mask(snapshot, ids)
                if visible is not None:
                    ids = ids[visible]
            if ids.size:
                settle(ids, lambda name, ids, region=region: region_vector(
                    region.columns[name], schema.column_type(name),
                    None if ids.size == region.n_rows else ids,
                ))
            offset += region.n_rows
        ids = None
        for pred in plan.pushed:
            vector = table.tail_vector(pred.column)
            if ids is None:
                ids = np.flatnonzero(pred.eval_vector(vector))
            elif ids.size:
                ids = ids[pred.eval_vector(vector.take(ids))]
        if ids is None:
            ids = np.arange(table.tail_rows)
        if ids.size:
            visible = table.tail_visible(snapshot, ids)
            if visible is not None:
                ids = ids[visible]
        if ids.size:
            settle(ids, lambda name, ids: table.tail_vector(name).take(ids))
        size = offset + table.tail_rows
        if len(positions) == 1:
            return positions[0], batches[0], size
        if not positions:
            return _NO_ROWS, None, size
        return np.concatenate(positions), Batch.concat(batches), size

    def _new_rows(self, plan: PlannedWrite, matched: Batch) -> list[tuple]:
        """An UPDATE's new row versions, as boundary rows: SET evaluated row
        by row over the matched batch.  A SET value is handed over as a
        boundary value of its expression's type, so the load path converts
        it to the column's type exactly as it converts an INSERT's (range
        checks, DECIMAL rounding).  Row by row, not ``Expr.eval`` over the
        batch and ``append_vectors``: measured no faster for a one-row
        UPDATE (EXPERIMENTS.md, "Point DML")."""
        columns = plan.table.schema.columns
        keys = [plan.prefix + name for name, _ in columns]
        vectors = [matched.columns[key] for key in keys]
        values = [vector.values for vector in vectors]
        nulls = [vector.null_mask() for vector in vectors]
        rows = []
        for i in range(matched.n):
            physical = [
                None if null[i] else _unwrap(value[i]) for value, null in zip(values, nulls)
            ]
            row = [
                None if p is None else to_boundary_scalar(p, dtype)
                for p, (_, dtype) in zip(physical, columns)
            ]
            context = dict(zip(keys, physical))
            for at, expr in plan.assignments:
                value = expr.eval_row(context)
                row[at] = None if value is None else to_boundary_scalar(value, expr.dtype)
            rows.append(tuple(row))
        return rows

    # -- DDL ---------------------------------------------------------------------------

    def _execute_create_table(self, node: ast.CreateTable, session: Session) -> Result:
        name = node.name.name.upper()
        if node.as_select is not None:
            planned = self._bound_subselect(node.as_select, session)
            result = result_from_batch(
                planned.run(), planned.names, planned.keys, planned.dtypes
            )
            schema = TableSchema(
                name,
                tuple(
                    (n.upper(), dt) for n, dt in zip(planned.names, planned.dtypes)
                ),
            )
            if node.temporary:
                table = session.declare_temp_table(schema, region_rows=self.region_rows)
            else:
                table = self.catalog.create_table(
                    schema, node.name.schema, region_rows=self.region_rows
                ).table
            txn = self._stmt_txn()
            if txn is not None:
                txn.insert(table, result.rows)
            else:
                table.insert_rows(result.rows)
            if self.durability is not None and not node.temporary:
                self.durability.log_op(
                    "ddl",
                    None,
                    (
                        "create_table",
                        node.name.schema,
                        name,
                        list(schema.columns),
                        {"region_rows": self.region_rows},
                    ),
                )
                if result.rows:
                    self.durability.log_insert((node.name.schema, name), result.rows)
            return Result(message="table %s created (%d rows)" % (name, len(result.rows)))
        columns = []
        unique = []
        not_null = []
        for cdef in node.columns:
            dtype = resolve_type(cdef.type_name, cdef.length, cdef.precision, cdef.scale)
            columns.append((cdef.name.upper(), dtype))
            if cdef.unique or cdef.primary_key:
                unique.append(cdef.name.upper())
            if cdef.not_null:
                not_null.append(cdef.name.upper())
        schema = TableSchema(name, tuple(columns))
        if node.temporary:
            session.declare_temp_table(
                schema,
                region_rows=self.region_rows,
                unique_columns=tuple(unique),
                not_null_columns=tuple(not_null),
            )
            return Result(message="temporary table %s declared" % name)
        self.catalog.create_table(
            schema,
            node.name.schema,
            region_rows=self.region_rows,
            unique_columns=tuple(unique),
            not_null_columns=tuple(not_null),
        )
        if self.durability is not None:
            self.durability.log_op(
                "ddl",
                None,
                (
                    "create_table",
                    node.name.schema,
                    name,
                    columns,
                    {
                        "region_rows": self.region_rows,
                        "unique_columns": tuple(unique),
                        "not_null_columns": tuple(not_null),
                    },
                ),
            )
        return Result(message="table %s created" % name)

    def _execute_drop_table(self, node: ast.DropTable, session: Session) -> Result:
        name = node.name.name
        if node.name.schema is None and session.drop_temp_table(name):
            return Result(message="temporary table %s dropped" % name.upper())
        try:
            self.catalog.drop(name, node.name.schema)
        except UnknownObjectError:
            if node.if_exists:
                return Result(message="table %s did not exist" % name.upper())
            raise
        self.bufferpool.invalidate_table(name.upper())
        if self.durability is not None:
            self.durability.log_op(
                "ddl", None, ("drop_table", node.name.schema, name.upper())
            )
        return Result(message="table %s dropped" % name.upper())

    def _execute_truncate(self, node: ast.TruncateTable, session: Session) -> Result:
        table = self._resolve_target(node.name, session)
        table.truncate()
        self.bufferpool.invalidate_table(table.schema.name)
        durable = self._durable_for(session, node.name, table)
        if durable is not None:
            durable.log_op("truncate", self._table_key(node.name, table), None)
        return Result(message="table %s truncated" % table.schema.name)

    def _execute_create_view(self, node: ast.CreateView, session: Session) -> Result:
        # The creating session's dialect is pinned to the view (II.C.2).
        self.catalog.create_view(
            node.name.name,
            node.select_text,
            session.dialect.name,
            node.name.schema,
            node.column_names,
            replace=node.or_replace,
        )
        if self.durability is not None:
            self.durability.log_op(
                "ddl",
                None,
                (
                    "create_view",
                    node.name.schema,
                    node.name.name,
                    node.select_text,
                    session.dialect.name,
                    node.column_names,
                    node.or_replace,
                ),
            )
        return Result(message="view %s created" % node.name.name.upper())

    # -- SET / EXPLAIN / CALL -------------------------------------------------------------

    def _execute_set(self, node: ast.SetStatement, session: Session) -> Result:
        name = node.name.upper()
        value = node.value.strip("'")
        if name in ("SQL_COMPAT", "SQL_DIALECT", "CURRENT SQL_COMPAT"):
            session.set_dialect(value)
            return Result(message="dialect set to %s" % session.dialect.name)
        if name in ("SCHEMA", "CURRENT SCHEMA"):
            session.current_schema = value.upper()
            return Result(message="schema set to %s" % value.upper())
        session.variables[name] = value
        return Result(message="%s set" % name)

    def _execute_explain(
        self, node: ast.ExplainStatement, session: Session, snapshot: Snapshot | None
    ) -> Result:
        if not isinstance(node.statement, ast.Select):
            return Result(columns=["PLAN"], rows=[("non-query statement",)], rowcount=1)
        self.last_scans = []
        # Ask the plan cache exactly what executing the explained text
        # would ask: the first line ends ``[plan=cached]`` or
        # ``[plan=fresh (<why>)]``.
        key = (
            statement_key(node.text, self.plan_cache)
            if node.text is not None else None
        )
        cacheable = key is not None and key.bypass is None
        planned, origin = self._bound_select(
            None if cacheable else node.statement, session, snapshot, key, node.text
        )
        if node.analyze:
            root = instrument_plan(planned.op, clock=self.clock)
            root.run()
            lines = annotated_plan_lines(root)
        else:
            lines = describe_plan(planned.op)
        lines[0] += " [plan=%s]" % origin
        return Result(columns=["PLAN"], rows=[(l,) for l in lines], rowcount=len(lines))

    def _execute_call(self, node: ast.CallStatement, session: Session) -> Result:
        proc = self.procedures.get(node.name.upper())
        if proc is None:
            raise UnknownObjectError("no procedure %s" % node.name)
        binder = ExpressionBinder(Scope([]), session.dialect, self)
        args = []
        for arg_node in node.args:
            expr = binder.bind(arg_node)
            args.append(to_boundary_scalar(expr.eval_row({}), expr.dtype))
        return proc(self, session, args)

    # -- misc -------------------------------------------------------------------------------

    def register_procedure(self, name: str, fn) -> None:
        """Install a stored procedure (CALL name(...)).

        ``fn(database, session, args) -> Result``.
        """
        self.procedures[name.upper()] = fn

    def table_names(self) -> list[str]:
        return [
            name
            for name in self.catalog.objects()
            if isinstance(self.catalog.try_resolve(name), TableInfo)
        ]

    def total_compressed_bytes(self) -> int:
        total = 0
        for name in self.table_names():
            total += self.catalog.get_table(name).table.compressed_nbytes()
        return total

    def monreport(self) -> dict:
        """MONREPORT analogue: a snapshot of the monitoring surfaces."""
        return database_report(self)



_NO_ROWS = np.zeros(0, dtype=np.int64)


def _unwrap(value):
    return value.item() if isinstance(value, np.generic) else value


def _candidates(region, pushed, stride: int) -> np.ndarray:
    """Row ids of *region* that pass every pushed predicate, read off the
    codes: the synopses skip extents, the lead predicate's kernel runs over
    the surviving window and answers as row ids, and the other predicates
    are evaluated at those ids alone."""
    n = region.n_rows
    if not pushed:
        return np.arange(n)
    keep = np.ones(-(-n // stride), dtype=bool)
    for pred in pushed:
        synopsis = region.synopses.get(pred.column)
        if synopsis is not None:
            keep &= pred.synopsis_candidates(synopsis)
    if not keep.any():
        return _NO_ROWS
    lead = pushed[0]
    column, base = region.columns[lead.column], 0
    holes = not keep.all()
    if holes:  # the lead kernel runs over the surviving window only
        first = int(np.argmax(keep)) * stride
        last = (keep.size - int(np.argmax(keep[::-1]))) * stride
        column, base = column.slice_rows(first, min(last, n))
    words = column.eval_words(lead.op, lead.value)
    if words is not None:
        ids = base + column.words_positions(words)
    else:  # a raw column or a NULL test: no kernel words to count
        ids = base + np.flatnonzero(column.eval(lead.op, lead.value))
    if holes:  # interior extents the synopses skipped stay out
        ids = ids[keep[ids // stride]]
    for pred in pushed[1:]:
        if not ids.size:
            break
        ids = ids[pred.eval_compressed(region.columns[pred.column], ids)]
    return ids


def _settle(plan: PlannedWrite, ids: np.ndarray, read) -> tuple[np.ndarray, Batch | None]:
    """Of the visible candidate rows *ids*, those the residual keeps, and a
    batch of every column at them; ``read(name, ids)`` reads one column at
    some rows, and a column the residual read is not read again."""
    prefix = plan.prefix
    columns = {}
    if plan.residual is not None:
        for key in plan.residual.references():
            columns[key] = read(key[len(prefix):], ids)
        batch = Batch.from_columns(columns) if columns else Batch({}, int(ids.size))
        keep = np.flatnonzero(selection_mask(plan.residual, batch))
        if keep.size < ids.size:
            ids = ids[keep]
            columns = {key: vector.take(keep) for key, vector in columns.items()}
    if not ids.size:
        return ids, None
    out = {}
    for name in plan.table.schema.column_names:
        key = prefix + name
        out[key] = columns[key] if key in columns else read(name, ids)
    return ids, Batch.from_columns(out)
