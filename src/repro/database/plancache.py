"""The engine's plan cache: plan a statement template once, bind it late.

A planned SELECT (:class:`~repro.sql.planner.PlannedQuery`) holds nothing
of an execution, so :class:`PlanCache` keeps it and every entry point
that has SQL text (``Session.execute``, the serving gateway) executes a
per-execution copy of it (:meth:`PlannedQuery.bind`).  A bound UPDATE or
DELETE (:class:`PlannedWrite`) is kept the same way, under the same key.
A plan is a pure function of what its key names:

* the statement's **template** — its normal form with every NUMBER and
  STRING literal replaced by ``?`` (:attr:`StatementKey.template`);
* the session **dialect**;
* each literal's **type signature** — the numeric type the binder infers
  from the spelling, a string's length
  (:func:`~repro.sql.binder.literal_signature`);
* the **values** of the literals planning looked at (constant folding,
  ``FETCH FIRST n``, ORDER/GROUP BY ordinals, a LIKE pattern, an IN
  list...): the planner records which those are
  (:class:`~repro.sql.binder.LiteralSlots`), the family of plans that
  share the first three parts remembers their union, and a lookup keys
  on exactly those tokens.  Every other literal is bound late;
* the **DDL stamp** of every catalog name it resolved
  (:attr:`PlanLineage.stamps`), checked on lookup: DDL on one name drops
  the plans that resolved it and no others, DML drops nothing.

What cannot be that function bypasses, counted by reason
(:data:`PLAN_BYPASS_REASONS`).

In front of the plans sits a second index, exact statement text ->
:class:`~repro.serving.normalize.StatementKey`, which
:func:`~repro.serving.normalize.statement_key` consults (:meth:`recall`,
:meth:`remember`): a read the engine has seen is recognised, not lexed
again, and its key brings its ``template`` and ``slots`` already worked
out.  A key is a pure function of the text, so the memo is never
invalidated; it holds cacheable reads only and is an LRU of
:data:`TEXT_CAPACITY` texts.

One lock, class ``serving`` (held under the statement lock by nobody,
above the ``txn`` clock), guards both indexes: never held across lexing,
planning or execution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.monitor.metrics import CacheStats
from repro.serving.normalize import BYPASS_REASONS
from repro.sql import ast
from repro.sql.binder import LiteralSlots, literal_signature
from repro.sql.planner import PlanLineage, _bound, _shallow_copy
from repro.verify import sanitizer

#: Why a SELECT, UPDATE or DELETE execution planned for itself alone: the
#: text is not a cacheable read (the three reasons :func:`statement_key`
#: gives; an INSERT or DDL is ``not-a-read``), it is a VALUES statement
#: (nothing is planned), it arrived as an AST with no key (``ast-entry``:
#: a statement of a block, or a direct ``execute_ast`` call; a cluster
#: passes its shards the statement's key) or with statement-scoped
#: relations, it reads or writes a session temp table or reads a
#: federation nickname, planning folded a subquery's answer into it, or a
#: late-bound constant did not fit where the cached plan's did.
PLAN_BYPASS_REASONS = BYPASS_REASONS + (
    "values", "ast-entry", "relations", "temp-table", "nickname",
    "plan-time-subquery", "literal-shape",
)

DEFAULT_PLAN_CAPACITY = 512


@dataclass
class PlannedWrite:
    """An UPDATE or DELETE bound once for every statement of its template.

    The WHERE is split like a scan's: ``pushed`` holds the conjuncts the
    matcher answers on a region's codes (``column <op> constant``, as
    :class:`~repro.engine.operators.SimplePredicate`), ``residual`` the
    rest (None: TRUE).  ``assignments`` is an UPDATE's ``[(column index,
    expression)]`` (None for a DELETE).  Like a planned SELECT it holds
    nothing of an execution; literals bound late are resolved per
    statement by :meth:`bind`.
    """

    ref: ast.TableRef
    table: object  # the target ColumnTable
    pushed: list
    residual: object
    assignments: list | None
    slots: LiteralSlots | None = None
    lineage: PlanLineage | None = None

    @property
    def prefix(self) -> str:
        """What the target's column keys start with (``ALIAS.``)."""
        return (self.ref.alias or self.ref.name).upper() + "."

    def bind(self, tokens) -> "PlannedWrite":
        """One statement's copy, its late literals read from *tokens*;
        raises what a constant's conversion raises when a late literal's
        value does not fit where the planned one did."""
        if self.slots is None or not self.slots.late:
            return self
        bound = _shallow_copy(self)
        bound.pushed = _bound(self.pushed, tokens)
        bound.residual = _bound(self.residual, tokens)
        bound.assignments = _bound(self.assignments, tokens)
        return bound

#: Texts the memo keeps: the serving result cache's default capacity, so
#: every text whose answer can be cached can also be recognised.
TEXT_CAPACITY = 2048


class PlanCache:
    """One statement cache per engine: text -> key in front of a
    template-keyed LRU of planned SELECTs."""

    def __init__(self, name: str = "db", capacity: int = DEFAULT_PLAN_CAPACITY):
        self.capacity = capacity
        self._lock = sanitizer.make_lock("serving:%s:plans" % name)
        #: exact statement text -> its StatementKey (cacheable reads only).
        self._texts: OrderedDict[str, object] = OrderedDict()
        self.text_stats = CacheStats()
        #: (family, pinned values) -> plan; a family is (template, dialect,
        #: literal signature).
        self._plans: OrderedDict[tuple, object] = OrderedDict()
        #: family -> [pinned slots (sorted token indexes), live plans]
        self._families: dict[tuple, list] = {}
        self.stats = CacheStats(dict.fromkeys(PLAN_BYPASS_REASONS, 0))

    def recall(self, text: str):
        """The key :meth:`remember` kept for exactly this text, or None."""
        with self._lock:
            key = self._texts.get(text)
            if key is None:
                self.text_stats.misses += 1
                return None
            self._texts.move_to_end(text)
            self.text_stats.hits += 1
            return key

    def remember(self, text: str, key) -> None:
        """Keep a freshly lexed cacheable read's key for its next arrival.
        A new text evicts the oldest first, so the memo never holds more
        than :data:`TEXT_CAPACITY` texts, not even between two steps."""
        with self._lock:
            texts = self._texts
            if text not in texts and len(texts) >= TEXT_CAPACITY:
                texts.popitem(last=False)
                self.text_stats.evictions += 1
            texts[text] = key

    @staticmethod
    def _family(key, session) -> tuple:
        tokens = key.tokens
        return (
            key.template,
            session.dialect.name,
            tuple([literal_signature(tokens[slot]) for slot in key.slots]),
        )

    def _drop(self, plan_key: tuple) -> None:
        # Call with the lock held.
        del self._plans[plan_key]
        family = self._families[plan_key[0]]
        family[1] -= 1
        if not family[1]:
            del self._families[plan_key[0]]

    def lookup(self, key, session, catalog):
        """The cached plan this statement may execute, or None.

        None when there is no plan for its template, types and pinned
        values, when DDL has since touched a name the plan resolved (the
        plan is dropped), or when the session has declared a temp table
        that would now shadow one of those names.  Counts nothing: the
        caller knows whether the plan then bound (:meth:`count`)."""
        family_key = self._family(key, session)
        tokens = key.tokens
        with self._lock:
            family = self._families.get(family_key)
            if family is None:
                return None
            plan_key = (family_key, tuple([tokens[slot].value for slot in family[0]]))
            planned = self._plans.get(plan_key)
            if planned is None:
                return None
            lineage = planned.lineage
            for name, stamp in lineage.stamps.items():
                if catalog.stamp(name) != stamp:
                    self._drop(plan_key)
                    self.stats.invalidations += 1
                    return None
            self._plans.move_to_end(plan_key)
        if session.shadows(lineage.names):
            return None
        return planned

    def store(self, key, session, planned) -> None:
        """Keep a freshly planned statement (a miss) for the next one of
        its template.  ``planned.slots`` says which literals planning read:
        the family's pinned slots grow to include them, and plans keyed on
        fewer slots go."""
        if sanitizer.ENABLED:
            sanitizer.check_shared_plan(planned)
        family_key = self._family(key, session)
        tokens = key.tokens
        late = planned.slots.late
        pinned = [slot for slot in key.slots if slot not in late]
        with self._lock:
            self.stats.misses += 1
            family = self._families.get(family_key)
            if family is None:
                family = self._families[family_key] = [pinned, 0]
            elif not set(pinned) <= set(family[0]):
                family[0] = sorted(set(pinned) | set(family[0]))
                for plan_key in [k for k in self._plans if k[0] == family_key]:
                    del self._plans[plan_key]
                family[1] = 0
            plan_key = (family_key, tuple([tokens[slot].value for slot in family[0]]))
            if plan_key not in self._plans:
                family[1] += 1
            self._plans[plan_key] = planned
            self._plans.move_to_end(plan_key)
            self.stats.stores += 1
            while len(self._plans) > self.capacity:
                self._drop(next(iter(self._plans)))
                self.stats.evictions += 1

    def count(self, outcome: str) -> None:
        """One execution's outcome: ``"hit"`` or a bypass reason."""
        with self._lock:
            if outcome == "hit":
                self.stats.hits += 1
            else:
                self.stats.count_bypass(outcome)

    def clear(self) -> None:
        with self._lock:
            self._texts.clear()
            self._plans.clear()
            self._families.clear()

    def report(self) -> dict:
        with self._lock:
            texts = self.text_stats
            return {
                **self.stats.snapshot(),
                "entries": len(self._plans),
                "templates": len(self._families),
                "capacity": self.capacity,
                "texts": {
                    "hits": texts.hits,
                    "misses": texts.misses,
                    "entries": len(self._texts),
                    "evictions": texts.evictions,
                    "capacity": TEXT_CAPACITY,
                },
            }
