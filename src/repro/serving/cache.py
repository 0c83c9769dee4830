"""Result cache with MVCC-correct invalidation.

The serving layer's big win on dashboard-style BD Insight traffic is that
the same handful of reports is asked over and over.  :class:`ResultCache`
keeps whole result sets, keyed on normalized SQL
(:mod:`repro.serving.normalize`); the *plans* of what it misses are the
engine's business (:mod:`repro.database.plancache` — one template-keyed
plan cache in ``Database``, shared with every other entry point).

Correctness contract: a cached answer is **byte-identical** to what an
uncached execution would return at that moment.  That holds because of how
entries are produced and validated:

1. the statement's base-table dependencies come back with its answer
   (``Result.lineage``: what the planner resolved, through views, stored
   with the plan); anything commits do not announce — temp tables,
   federation nicknames — makes the statement uncacheable rather than
   approximately tracked;
2. the database's commit clock is read **before** the snapshot is pinned
   and the entry's version *token* is cut from that reading, so a commit
   racing the execution leaves the new entry already-stale (conservative,
   never wrong);
3. the query runs under a pinned snapshot and the entry is stamped
   with that snapshot's visibility *horizon*
   (:attr:`repro.mvcc.txn.Snapshot.horizon`);
4. a hit requires the token to still be valid — no commit has touched
   any dependency — or, as a fallback, the current read snapshot to
   have the exact same horizon as the producing one (equal horizons
   see identical committed state by construction);
5. the database's commit hook (:meth:`ResultCache.on_commit`) drops
   touched entries eagerly, and drops *everything* when the touched
   set is unknowable (CALL, recovery);
6. an entry is not a hit for a session that has declared a temp table
   under one of the catalog names planning resolved (``lineage.names``,
   views and the names inside them included): there the text means
   something else.

A hit lexes nothing either: the text was keyed once, by the engine's text
memo (:func:`statement_key` with ``database.plan_cache``).

Lock discipline: the cache lock is class ``serving``, ranked between
``database`` and ``txn`` in the declared global order — the commit hook
acquires it under the statement lock (database → serving), and token
validation reads the version clock (a ``txn``-class lock) under it
(serving → txn).  The cache never holds its lock across an engine call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.database.result import Result
from repro.monitor.metrics import CacheStats
from repro.serving.normalize import BYPASS_REASONS, StatementKey, statement_key
from repro.verify import sanitizer


# -- result cache -------------------------------------------------------------


@dataclass
class _Entry:
    result: object  # repro.database.result.Result
    token: tuple  # (global_version, {table: version}) at production
    horizon: tuple  # producing snapshot's visibility horizon
    tables: frozenset
    names: frozenset  # unqualified catalog names planning resolved


@dataclass
class CachedExecution:
    """What :meth:`ResultCache.fetch` resolved for one statement."""

    result: object
    hit: bool
    key: StatementKey | None = None


class ResultCache:
    """MVCC-validated whole-result cache in front of one database."""

    def __init__(self, database, capacity: int = 2048):
        self.database = database
        self.capacity = capacity
        self._lock = sanitizer.make_lock("serving:%s:results" % database.name)
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._by_table: dict[str, set] = {}
        self.stats = CacheStats(dict.fromkeys(BYPASS_REASONS, 0))

    # -- bookkeeping (call with self._lock held) --------------------------------

    def _drop(self, key: tuple, counter: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for table in entry.tables:
            keys = self._by_table.get(table)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_table[table]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    # -- the serving path -------------------------------------------------------

    def fetch(self, sql: str, session=None) -> CachedExecution:
        """Execute *sql* through the cache.

        Uncacheable statements run on the ordinary engine path.  Misses
        run under a freshly pinned snapshot and populate the cache; hits
        replay the stored result (a fresh Result wrapper over the same
        immutable rows).
        """
        db = self.database
        key = statement_key(sql, db.plan_cache)
        if key.bypass:
            with self._lock:
                self.stats.count_bypass(key.bypass)
            # The engine gets the key: it does not lex the text again.
            return CachedExecution(
                result=db.execute(sql, session, key=key), hit=False
            )
        # Dialect changes expression semantics (Oracle ''-is-NULL, date
        # arithmetic), so results are cached per dialect.
        cache_key = (session.dialect.name if session is not None else "", key.text)
        with self._lock:
            entry = self._entries.get(cache_key)
            if entry is not None and (
                session is None or not session.shadows(entry.names)
            ):
                if db.versions_valid(entry.token):
                    valid = True
                else:
                    # Commits elsewhere advanced the clock; equal horizon
                    # still proves the committed state is unchanged.
                    valid = db.txn.snapshot().horizon == entry.horizon
                    if valid:
                        entry.token = db.versions_token(entry.tables)
                if valid:
                    self._entries.move_to_end(cache_key)
                    self.stats.hits += 1
                    return CachedExecution(
                        result=self._replay(entry.result), hit=True, key=key
                    )
                self._drop(cache_key, "stale_drops")
            self.stats.misses += 1
        return CachedExecution(
            result=self._produce(sql, key, cache_key, session),
            hit=False,
            key=key,
        )

    def _produce(self, sql: str, key: StatementKey, cache_key: tuple, session):
        """Miss path: execute under a pinned snapshot, then store."""
        db = self.database
        # Order matters: clock BEFORE snapshot.  A commit that lands in
        # between moves the clock, so the entry stored below is already
        # invalid — we can never publish a result older than its token.
        global_version, versions = db.versions_token(None)
        snap = db.txn.snapshot()
        result = db.execute(sql, session, key=key, snapshot=snap)
        deps = result.tables
        if deps is None:
            return result  # read something commits do not announce
        token = (global_version, {t: versions.get(t, 0) for t in deps})
        # Store a private copy: the caller owns `result` and may mutate
        # its rows list; the cached entry must stay pristine.
        entry = _Entry(
            result=self._replay(result),
            token=token,
            horizon=snap.horizon,
            tables=deps,
            names=result.lineage.names,
        )
        with self._lock:
            if db.versions_valid(token) and cache_key not in self._entries:
                self._entries[cache_key] = entry
                for table in deps:
                    self._by_table.setdefault(table, set()).add(cache_key)
                self.stats.stores += 1
                while len(self._entries) > self.capacity:
                    oldest = next(iter(self._entries))
                    self._drop(oldest, "evictions")
        return result

    @staticmethod
    def _replay(result: Result) -> Result:
        """A fresh Result over the same immutable rows, its rows list the
        caller's own: no caller can mutate what the cache keeps."""
        return Result(
            columns=result.columns,
            rows=list(result.rows),
            rowcount=result.rowcount,
            message=result.message,
            dtypes=result.dtypes,
            vectors=result.vectors,
            lineage=result.lineage,
        )

    # -- invalidation -----------------------------------------------------------

    def on_commit(self, tables) -> None:
        """Database commit hook: drop entries reading any touched table."""
        with self._lock:
            if tables is None:
                for key in list(self._entries):
                    self._drop(key, "invalidations")
                return
            for table in tables:
                for key in list(self._by_table.get(table, ())):
                    self._drop(key, "invalidations")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_table.clear()

    def report(self) -> dict:
        with self._lock:
            return {
                **self.stats.snapshot(),
                "entries": len(self._entries),
                "capacity": self.capacity,
            }
