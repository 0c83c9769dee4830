"""Result cache and prepared-plan cache with MVCC-correct invalidation.

The serving layer's big win on dashboard-style BD Insight traffic is that
the same handful of reports is asked over and over.  Two caches exploit
that, both keyed on normalized SQL (:mod:`repro.serving.normalize`):

* :class:`PlanCache` — parse-once prepared statements.  It memoizes the
  parsed AST of cacheable read statements and of view definitions.  It
  deliberately does **not** memoize planned operator trees: the planner
  pins the statement's MVCC snapshot into every scan at plan time
  (``TableScanOp`` captures table state in its constructor), so a reused
  plan object would replay stale data.  ASTs are safe — planning and
  binding never mutate them in place.

* :class:`ResultCache` — whole result sets.  Correctness contract: a
  cached answer is **byte-identical** to what an uncached execution would
  return at that moment.  That holds because of how entries are produced
  and validated:

  1. the statement's base-table dependencies are resolved (through
     views, recursively); anything unresolvable — temp tables, federation
     nicknames, CTE/table name shadowing — makes the statement
     uncacheable rather than approximately tracked;
  2. a version *token* for those tables is read from the database's
     commit clock **before** the snapshot is pinned, so a commit racing
     the execution leaves the new entry already-stale (conservative,
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
     set is unknowable (CALL, recovery).

Lock discipline: cache locks are class ``serving``, ranked between
``database`` and ``txn`` in the declared global order — the commit hook
acquires them under the statement lock (database → serving), and token
validation reads the version clock (a ``txn``-class lock) under them
(serving → txn).  The caches never hold their locks across an engine
call.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import UnknownObjectError
from repro.serving.normalize import BYPASS_REASONS, StatementKey, statement_key
from repro.sql import ast
from repro.verify import sanitizer


@dataclass
class CacheStats:
    """Lifetime counters for one cache."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bypass: int = 0  # uncacheable statements that went straight through
    bypass_reasons: dict = field(  # ... counted apart, by StatementKey.bypass
        default_factory=lambda: dict.fromkeys(BYPASS_REASONS, 0)
    )
    stale_drops: int = 0  # entries found invalid on lookup
    invalidations: int = 0  # entries dropped by the commit hook
    evictions: int = 0  # LRU capacity evictions

    @property
    def hit_rate(self) -> float:
        asked = self.hits + self.misses
        return self.hits / asked if asked else 0.0

    def count_bypass(self, reason: str) -> None:
        self.bypass += 1
        self.bypass_reasons[reason] += 1

    def snapshot(self) -> dict:
        return {**dataclasses.asdict(self), "hit_rate": self.hit_rate}


# -- read-dependency extraction -----------------------------------------------


def _walk_nodes(value, refs: list, ctes: set, flags: dict) -> None:
    """Collect TableRefs, CTE names and volatility over an AST subtree."""
    if isinstance(value, ast.TableRef):
        refs.append(value)
        return
    if isinstance(value, ast.SequenceRef):
        flags["volatile"] = True
        return
    if isinstance(value, ast.Select):
        for name, cte_select, _cols in value.ctes:
            ctes.add(name.upper())
            _walk_nodes(cte_select, refs, ctes, flags)
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.name == "ctes":
                continue  # handled above (names + bodies)
            _walk_nodes(getattr(value, f.name), refs, ctes, flags)
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _walk_nodes(item, refs, ctes, flags)


def read_dependencies(node, database, session=None, _depth: int = 0):
    """Base tables a read statement depends on, or None if untrackable.

    Resolves references through views (recursively) and aliases using the
    catalog.  Returns a frozenset of uppercase base-table names — the
    same names the commit hook sees — or None when the statement touches
    anything whose changes the version clock cannot observe: session temp
    tables, federation nicknames, unresolvable names, or a CTE name that
    shadows a real catalog object (ambiguous without full scoping).
    """
    from repro.catalog.catalog import NicknameInfo, TableInfo, ViewInfo

    if _depth > 8:  # pathological view nesting: give up, stay correct
        return None
    refs: list[ast.TableRef] = []
    ctes: set[str] = set()
    flags = {"volatile": False}
    _walk_nodes(node, refs, ctes, flags)
    if flags["volatile"]:
        return None
    deps: set[str] = set()
    for name in ctes:
        if database.catalog.try_resolve(name) is not None:
            return None  # CTE shadows a catalog object: scoping ambiguous
    for ref in refs:
        name = ref.name.upper()
        if ref.schema is None and name in ctes:
            continue
        if session is not None and ref.schema in (None, "SESSION"):
            if session.get_temp_table(name) is not None:
                return None  # session-local data: not shared, not tracked
        if ref.schema == "SESSION":
            return None
        try:
            info = database.catalog.resolve(name, ref.schema)
        except UnknownObjectError:
            return None
        if isinstance(info, TableInfo):
            deps.add(info.table.schema.name.upper())
        elif isinstance(info, ViewInfo):
            from repro.sql.parser import parse_statement

            cache = getattr(database, "statement_cache", None)
            if cache is not None:
                view_node = cache.view_ast(info.text, parse_statement)
            else:
                view_node = parse_statement(info.text)
            inner = read_dependencies(
                view_node, database, session, _depth=_depth + 1
            )
            if inner is None:
                return None
            deps.update(inner)
        elif isinstance(info, NicknameInfo):
            return None  # remote data: invisible to the commit clock
        else:
            return None
    return frozenset(deps)


# -- prepared-plan (AST) cache ------------------------------------------------


class PlanCache:
    """Parse-once statement/view cache attached as ``database.statement_cache``.

    Stores parsed ASTs keyed on the parameterized normal form is *not*
    possible for execution (literals matter), so statement ASTs key on
    the literal-preserving normal form; the parameterized template is
    tracked purely as a grouping statistic (distinct plan shapes).
    """

    def __init__(self, name: str = "db", capacity: int = 512):
        self.capacity = capacity
        self._lock = sanitizer.make_lock("serving:%s:plans" % name)
        self._asts: OrderedDict[str, ast.Node] = OrderedDict()
        self._views: OrderedDict[str, ast.Node] = OrderedDict()
        self._templates: set[str] = set()
        self.stats = CacheStats()
        self.view_stats = CacheStats()

    def statement_ast(self, sql: str, parse, key: StatementKey | None = None) -> ast.Node:
        """Parsed AST for *sql*, reusing a prior parse when cacheable.

        *key* is ``statement_key(sql)`` when the caller already has it;
        ``parse`` receives the key's tokens, so the text is lexed once."""
        if key is None:
            key = statement_key(sql)
        if key.bypass:
            with self._lock:
                self.stats.count_bypass(key.bypass)
            return parse(key.tokens)
        with self._lock:
            node = self._asts.get(key.text)
            if node is not None:
                self._asts.move_to_end(key.text)
                self.stats.hits += 1
                return node
            self.stats.misses += 1
        node = parse(key.tokens)  # parse outside the lock: it can be slow
        with self._lock:
            self._asts[key.text] = node
            self._templates.add(key.template)
            self.stats.stores += 1
            while len(self._asts) > self.capacity:
                self._asts.popitem(last=False)
                self.stats.evictions += 1
        return node

    def view_ast(self, text: str, parse) -> ast.Node:
        """Parsed definition of a view, memoized on its stored text."""
        with self._lock:
            node = self._views.get(text)
            if node is not None:
                self._views.move_to_end(text)
                self.view_stats.hits += 1
                return node
            self.view_stats.misses += 1
        node = parse(text)
        with self._lock:
            self._views[text] = node
            self.view_stats.stores += 1
            while len(self._views) > self.capacity:
                self._views.popitem(last=False)
                self.view_stats.evictions += 1
        return node

    def on_commit(self, tables) -> None:
        """DDL can redefine names: drop cached view parses on DDL-ish
        commits.  Statement ASTs survive (they are pure syntax — name
        resolution happens at plan time)."""
        if tables is None:
            with self._lock:
                dropped = len(self._views)
                self._views.clear()
                self.view_stats.invalidations += dropped

    def template_count(self) -> int:
        with self._lock:
            return len(self._templates)

    def report(self) -> dict:
        with self._lock:
            return {
                "statements": self.stats.snapshot(),
                "views": self.view_stats.snapshot(),
                "cached_asts": len(self._asts),
                "cached_views": len(self._views),
                "plan_templates": len(self._templates),
            }


# -- result cache -------------------------------------------------------------


@dataclass
class _Entry:
    result: object  # repro.database.result.Result
    token: tuple  # (global_version, {table: version}) at production
    horizon: tuple  # producing snapshot's visibility horizon
    tables: frozenset
    hits: int = 0


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
        self.stats = CacheStats()

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

    def _cache_key(self, key: StatementKey, session) -> tuple:
        # Dialect changes expression semantics (Oracle ''-is-NULL, date
        # arithmetic), so results are cached per dialect.
        dialect = ""
        if session is not None:
            dialect = getattr(session.dialect, "name", type(session.dialect).__name__)
        return (dialect, key.text)

    # -- the serving path -------------------------------------------------------

    def fetch(self, sql: str, session=None) -> CachedExecution:
        """Execute *sql* through the cache.

        Uncacheable statements run on the ordinary engine path.  Misses
        run under a freshly pinned snapshot and populate the cache; hits
        replay the stored result (a fresh Result wrapper over the same
        immutable rows).
        """
        db = self.database
        key = statement_key(sql)
        if key.bypass:
            with self._lock:
                self.stats.count_bypass(key.bypass)
            return CachedExecution(result=db.execute(sql, session), hit=False)
        cache_key = self._cache_key(key, session)
        with self._lock:
            entry = self._entries.get(cache_key)
            if entry is not None:
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
                    entry.hits += 1
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
        from repro.sql.parser import parse_statement

        cache = getattr(db, "statement_cache", None)
        if cache is not None:
            node = cache.statement_ast(
                sql, lambda tokens: parse_statement(sql, tokens), key
            )
        else:
            node = parse_statement(sql, key.tokens)
        deps = read_dependencies(node, db, session)
        if deps is None:
            return db.execute_ast(node, session)
        # Order matters: token BEFORE snapshot.  A commit that lands in
        # between bumps the token, so the entry stored below is already
        # invalid — we can never publish a result older than its token.
        token = db.versions_token(deps)
        snap = db.txn.snapshot()
        result = db.execute_ast(node, session, snapshot=snap)
        # Store a private copy: the caller owns `result` and may mutate
        # its rows list; the cached entry must stay pristine.
        entry = _Entry(
            result=self._replay(result),
            token=token,
            horizon=snap.horizon,
            tables=deps,
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
    def _replay(result):
        """Fresh Result wrapper so callers can't mutate the cached rows."""
        return dataclasses.replace(result, rows=list(result.rows))

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
