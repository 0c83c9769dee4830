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
   set is unknowable (CALL, recovery).  An entry survives a commit to a
   table it read when every row version the commit wrote there fails
   every filter the entry holds on that table — the pushed conjunction of
   each of its scans of it (``Result.filters``): such a row never reached
   the answer, so the answer stands.  The hook finds what to check through
   an index on ``(table, column, equality constant)`` and marks the table
   *checked through* the commit's version; a hit takes a table clock that
   moved only through checked commits as current;
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

import numpy as np

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
    #: table -> a conjunction of SimplePredicates per scan of it, or None
    #: (TRUE: any row of the table may reach the answer).
    filters: dict
    #: (table, column, constant) index slots, one per scan of an indexed table.
    probes: tuple
    #: Tables on which every delta must be checked against the entry.
    unindexed: frozenset


def _index_slots(filters: dict) -> tuple[tuple, frozenset]:
    """Where an entry is filed for the commit hook: a table all of whose
    conjunctions hold an equality is filed under ``(table, column,
    constant)`` of each one's first; any other table is unindexed."""
    probes, unindexed = [], set()
    for table, conjunctions in filters.items():
        slots = [
            next(((table, p.column, p.value) for p in conjunction if p.op == "="), None)
            for conjunction in conjunctions or ()
        ]
        if conjunctions is None or None in slots:
            unindexed.add(table)
        else:
            probes.extend(slots)
    return tuple(dict.fromkeys(probes)), frozenset(unindexed)


def _passes(conjunctions, delta) -> bool:
    """Whether some row of *delta* passes some conjunction (eval_vector
    semantics: NULL fails every comparison).  Any row passes TRUE, and a
    conjunction on a column the delta lacks, or with a constant that does
    not compare with the column."""
    if not delta.n:
        return False
    if conjunctions is None:
        return True
    for conjunction in conjunctions:
        passing = True
        for predicate in conjunction:
            vector = delta.column(predicate.column)
            if vector is None:
                return True
            try:
                passing = passing & predicate.eval_vector(vector)
            except (TypeError, ValueError):
                return True
        if np.any(passing):
            return True
    return False


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
        #: The commit hook's index: table -> column -> constant -> keys.
        self._by_value: dict[str, dict[str, dict[object, set]]] = {}
        self._unindexed: dict[str, set] = {}
        #: table -> the version through which every entry reading it has
        #: been checked against every commit (a run with no gap).
        self._checked: dict[str, int] = {}
        self.stats = CacheStats(dict.fromkeys(BYPASS_REASONS, 0))

    # -- bookkeeping (call with self._lock held) --------------------------------

    def _file(self, key: tuple, entry: _Entry) -> None:
        for table in entry.tables:
            self._by_table.setdefault(table, set()).add(key)
        for table in entry.unindexed:
            self._unindexed.setdefault(table, set()).add(key)
        for table, column, value in entry.probes:
            (
                self._by_value.setdefault(table, {})
                .setdefault(column, {})
                .setdefault(value, set())
                .add(key)
            )

    def _drop(self, key: tuple, counter: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for table in entry.tables:
            _discard(self._by_table, table, key)
        for table in entry.unindexed:
            _discard(self._unindexed, table, key)
        for table, column, value in entry.probes:
            columns = self._by_value[table]
            _discard(columns[column], value, key)
            if not columns[column]:
                del columns[column]
                if not columns:
                    del self._by_value[table]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _current(self, entry: _Entry) -> bool:
        """Whether every table clock that moved since the entry's token
        moved only through commits this cache checked it against (and
        spared it); then the token is brought up to date."""
        global_version, versions = self.database.versions_token(entry.tables)
        stamped, checked = entry.token[1], self._checked
        if global_version != entry.token[0] or any(
            version != stamped[table] and version != checked.get(table)
            for table, version in versions.items()
        ):
            return False
        entry.token = (global_version, versions)
        return True

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
                if db.versions_valid(entry.token) or self._current(entry):
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
        filters = result.filters or dict.fromkeys(deps)
        probes, unindexed = _index_slots(filters)
        # Store a private copy: the caller owns `result` and may mutate
        # its rows list; the cached entry must stay pristine.
        entry = _Entry(
            result=self._replay(result),
            token=token,
            horizon=snap.horizon,
            tables=deps,
            names=result.lineage.names,
            filters=filters,
            probes=probes,
            unindexed=unindexed,
        )
        with self._lock:
            if db.versions_valid(token) and cache_key not in self._entries:
                self._entries[cache_key] = entry
                self._file(cache_key, entry)
                for table in deps:
                    # Current now, so checked through now: the commits
                    # after this one all find the entry here.
                    self._checked.setdefault(table, token[1][table])
                self.stats.stores += 1
                while len(self._entries) > self.capacity:
                    oldest = next(iter(self._entries))
                    self._drop(oldest, "evictions")
        return result

    @staticmethod
    def _replay(result: Result) -> Result:
        """A fresh Result over the same immutable rows, its rows list the
        caller's own: no caller can mutate what the cache keeps.  It keeps
        no vectors, so a cached entry pins only its rows."""
        return Result(
            columns=result.columns,
            rows=list(result.rows),
            rowcount=result.rowcount,
            message=result.message,
            dtypes=result.dtypes,
            lineage=result.lineage,
        )

    # -- invalidation -----------------------------------------------------------

    def on_commit(self, tables) -> None:
        """Database commit hook: drop the entries a commit may have changed.

        *tables* is the database's
        :class:`~repro.database.database.TouchedTables`, or None (anything
        may have changed: everything goes).  Per touched table, an entry
        is spared when the table's delta is known and no row of it passes
        any filter the entry holds on the table; it is dropped otherwise,
        and every entry on the table is dropped when the delta is unknown
        or this cache missed one of the table's commits."""
        with self._lock:
            if tables is None:
                for key in list(self._entries):
                    self._drop(key, "invalidations")
                self._checked.clear()
                return
            for table in tables:
                self._settle(table, tables.versions[table], tables.deltas.get(table))

    def _settle(self, table: str, version: int, delta) -> None:
        """One touched table of a commit: drop what its delta may reach
        (everything on it when the delta or an earlier commit is unknown)
        and mark the table checked through *version*."""
        unbroken = self._checked.get(table) == version - 1
        self._checked[table] = version
        if table not in self._by_table:
            return
        if delta is None or not unbroken:
            for key in list(self._by_table[table]):
                self._drop(key, "invalidations")
            return
        for key in self._candidates(table, delta):
            if _passes(self._entries[key].filters[table], delta):
                self._drop(key, "invalidations")
        kept = self._by_table.get(table, ())
        if sanitizer.ENABLED:  # the index missed no entry the delta reaches
            for key in kept:
                if _passes(self._entries[key].filters[table], delta):
                    raise sanitizer.SpareError(
                        "%s spared across a delta to %s it passes" % (key, table)
                    )
        self.stats.spared += len(kept)

    def _candidates(self, table: str, delta) -> set:
        """The entries on *table* a delta may reach: the unindexed ones, and
        those filed under a constant that one of its rows holds."""
        found = set(self._unindexed.get(table, ()))
        for column, by_value in self._by_value.get(table, {}).items():
            vector = delta.column(column)
            values = (
                by_value.keys() if vector is None
                else by_value.keys() & set(vector.values.tolist())
            )
            for value in values:
                found |= by_value[value]
        return found

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_table.clear()
            self._by_value.clear()
            self._unindexed.clear()
            self._checked.clear()

    def report(self) -> dict:
        with self._lock:
            return {
                **self.stats.snapshot(),
                "entries": len(self._entries),
                "capacity": self.capacity,
            }


def _discard(index: dict, name, key: tuple) -> None:
    """Remove *key* from ``index[name]``, forgetting the name once empty."""
    keys = index.get(name)
    if keys is not None:
        keys.discard(key)
        if not keys:
            del index[name]
