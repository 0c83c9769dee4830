"""Per-function effect inference and transitive closure.

Effects are inferred from *call-site shape* — the attribute or function
name at the call plus a small receiver-chain heuristic — never from
runtime types.  That keeps inference resolution-independent: whether or
not the call graph can name the target, ``x.insert_rows(...)`` is a
storage mutation and ``self.txn.begin()`` pins a snapshot.  The closure
step then propagates effects backwards over the
:class:`~repro.verify.flow.callgraph.ProjectIndex` call graph until a
fixpoint, so ``Database.execute`` ends up carrying the union of every
effect any helper it can reach performs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.verify.flow.callgraph import ProjectIndex, dotted_chain

# -- effect atoms -------------------------------------------------------------

MUTATES = "mutates-storage"          # table storage changes (insert/delete/truncate)
WAL = "appends-wal"                  # a redo record reaches the write-ahead log
BUMP = "bumps-version"               # per-table commit-version clock advances
TOUCH = "records-touched"            # touched-table set recorded for invalidation
PIN = "pins-snapshot"                # a read snapshot is pinned/frozen
TXN_COMMIT = "commits-txn"           # a Transaction object is committed

EFFECTS = (MUTATES, WAL, BUMP, TOUCH, PIN, TXN_COMMIT)

#: ColumnTable methods whose call mutates durable table storage.
_TABLE_MUTATORS = {"insert_rows", "append_vectors", "apply_deletes", "truncate"}
#: receiver-chain roots for which ``truncate`` is file I/O, not storage.
_FILE_RECEIVERS = {"f", "fh", "fp", "file", "handle", "wal", "stream"}
#: attribute names recording the touched-table set.
_TOUCH_ATTRS = {"_touched_tables", "note_table"}
#: attribute names that pin a snapshot when the receiver chain is txn-ish.
_PIN_ATTRS = {"snapshot", "begin"}


def _chain_is_txn(chain: list[str]) -> bool:
    """``self.txn.begin`` / ``txn.snapshot`` / ``engine.txn.snapshot``."""
    return any("txn" in part.lower() for part in chain)


def _receiver_is_file(chain: list[str]) -> bool:
    """``f.truncate()`` / ``self._wal_file.truncate()`` are file I/O."""
    return any(
        part in _FILE_RECEIVERS or "file" in part.lower()
        for part in chain[:-1]
    )


@dataclass
class RaiseSite:
    """A ``raise Cls(...)`` of a project-defined exception class."""

    cls: str
    lineno: int


@dataclass
class DirectEffects:
    """Effects a single function performs itself (no callees)."""

    markers: dict[str, list[int]] = field(default_factory=dict)
    raises: list[RaiseSite] = field(default_factory=list)

    def add(self, effect: str, lineno: int) -> None:
        self.markers.setdefault(effect, []).append(lineno)

    def has(self, effect: str) -> bool:
        return effect in self.markers


def direct_effects(index: ProjectIndex) -> dict[tuple[str, str], DirectEffects]:
    out: dict[tuple[str, str], DirectEffects] = {}
    for key, info in index.functions.items():
        eff = DirectEffects()
        for node in info.own:
            if isinstance(node, ast.Call):
                _classify_call(node, eff)
            elif isinstance(node, ast.Raise):
                _classify_raise(node, info, index, eff)
        out[key] = eff
    return out


def _classify_call(node: ast.Call, eff: DirectEffects) -> None:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return
    attr = func.attr
    chain = dotted_chain(func)
    if attr in _TABLE_MUTATORS:
        if attr == "truncate" and _receiver_is_file(chain):
            return
        eff.add(MUTATES, node.lineno)
    elif attr.startswith("log_"):
        eff.add(WAL, node.lineno)
    elif attr == "_note_commit":
        eff.add(BUMP, node.lineno)
    elif attr in _TOUCH_ATTRS:
        eff.add(TOUCH, node.lineno)
    elif attr in _PIN_ATTRS and _chain_is_txn(chain[:-1]):
        eff.add(PIN, node.lineno)
    elif attr == "commit" and chain[:-1] and _chain_is_txn(chain[:-1]):
        eff.add(TXN_COMMIT, node.lineno)


def _raised_class_name(node: ast.Raise) -> str | None:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def _enclosing_handlers(info) -> list[tuple[ast.Try, set[str]]]:
    """Map each Try in the function to the exception names it catches."""
    tries: list[tuple[ast.Try, set[str]]] = []
    for node in info.own:
        if not isinstance(node, ast.Try):
            continue
        caught: set[str] = set()
        for handler in node.handlers:
            if handler.type is None:
                caught.add("*")
            else:
                types = (
                    handler.type.elts
                    if isinstance(handler.type, ast.Tuple)
                    else [handler.type]
                )
                for t in types:
                    if isinstance(t, ast.Name):
                        caught.add(t.id)
                    elif isinstance(t, ast.Attribute):
                        caught.add(t.attr)
        tries.append((node, caught))
    return tries


def _classify_raise(node: ast.Raise, info, index: ProjectIndex,
                    eff: DirectEffects) -> None:
    name = _raised_class_name(node)
    if name is None:
        return
    if not index.class_derives(name, "ReproError"):
        return
    # Skip raises that a same-function try/except demonstrably catches:
    # they never propagate out, so the caller-facing sqlstate rule does
    # not apply to them.
    for try_node, caught in _enclosing_handlers(info):
        if "*" in caught or name in caught or "ReproError" in caught \
                or "Exception" in caught:
            lo = try_node.body[0].lineno
            # only the *body* of the try shields the raise, not handlers
            body_hi = max(
                (getattr(n, "end_lineno", n.lineno) or n.lineno
                 for stmt in try_node.body for n in ast.walk(stmt)
                 if hasattr(n, "lineno")),
                default=lo,
            )
            if lo <= node.lineno <= body_hi:
                return
    eff.raises.append(RaiseSite(name, node.lineno))


# -- transitive closure -------------------------------------------------------


@dataclass
class ClosedEffects:
    """Direct effects plus everything reachable through calls."""

    effects: set[str] = field(default_factory=set)
    raises: set[str] = field(default_factory=set)


def effects_of(index: ProjectIndex) -> tuple[
    dict[tuple[str, str], DirectEffects],
    dict[tuple[str, str], ClosedEffects],
]:
    """The (direct, closed) effect maps of *index*, computed once and
    shared by every project rule."""
    if index.effects is None:
        direct = direct_effects(index)
        index.effects = (direct, close_effects(index, direct))
    return index.effects


def close_effects(
    index: ProjectIndex,
    direct: dict[tuple[str, str], DirectEffects],
) -> dict[tuple[str, str], ClosedEffects]:
    closed: dict[tuple[str, str], ClosedEffects] = {}
    for key, eff in direct.items():
        closed[key] = ClosedEffects(
            effects=set(eff.markers),
            raises={r.cls for r in eff.raises},
        )
    changed = True
    while changed:
        changed = False
        for key, sites in index.calls.items():
            mine = closed.get(key)
            if mine is None:
                continue
            for site in sites:
                for target in site.targets:
                    theirs = closed.get(target.key)
                    if theirs is None:
                        continue
                    if not theirs.effects <= mine.effects:
                        mine.effects |= theirs.effects
                        changed = True
                    if not theirs.raises <= mine.raises:
                        mine.raises |= theirs.raises
                        changed = True
    return closed


def witness_path(
    index: ProjectIndex,
    start: tuple[str, str],
    direct: dict[tuple[str, str], DirectEffects],
    effect: str,
) -> list[str]:
    """Shortest call chain from *start* to a function with a direct
    *effect* marker — the human-readable evidence for a finding."""
    from collections import deque

    parents: dict[tuple[str, str], tuple[str, str] | None] = {start: None}
    queue = deque([start])
    goal = None
    while queue:
        key = queue.popleft()
        if direct.get(key) and direct[key].has(effect):
            goal = key
            break
        for site in index.calls.get(key, []):
            for target in site.targets:
                if target.key not in parents:
                    parents[target.key] = key
                    queue.append(target.key)
    if goal is None:
        return []
    path = []
    cur: tuple[str, str] | None = goal
    while cur is not None:
        path.append(cur[1])
        cur = parents[cur]
    return list(reversed(path))
