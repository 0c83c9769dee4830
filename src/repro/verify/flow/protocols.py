"""The four protocol rules, checked on closed effect sets.

Each is a *project* rule of :mod:`repro.verify.lint`: it receives the
:class:`~repro.verify.flow.callgraph.ProjectIndex` and yields ``(module,
line, message)``; the framework layers scoping (engine modules only),
suppressions and reporting on top.
"""

from __future__ import annotations

import ast

from repro.verify.flow.callgraph import FunctionInfo, ProjectIndex, dotted_chain
from repro.verify.flow.effects import (
    BUMP,
    MUTATES,
    PIN,
    TOUCH,
    TXN_COMMIT,
    WAL,
    DirectEffects,
    effects_of,
    witness_path,
)
from repro.verify.lint import rule

#: module-path suffix -> public API classes whose entry methods anchor
#: the write-protocol and sqlstate rules.
API_ENTRY_CLASSES: dict[str, tuple[str, ...]] = {
    "repro/database/database.py": ("Database",),
    "repro/cluster/mpp.py": ("Cluster",),
    "repro/serving/gateway.py": ("ServingGateway",),
}

#: project exception classes allowed to cross the public API without a
#: SQLSTATE.  CrashError is the fault-injection harness's simulated host
#: crash: the statement machinery must never dress it up as a SQL error.
SQLSTATE_EXEMPT = {"CrashError"}


def _entry_functions(index: ProjectIndex):
    for suffix, classes in API_ENTRY_CLASSES.items():
        for cls in classes:
            for fn in index.entry_methods(suffix, cls):
                yield fn


# -- rule 1: write-protocol ---------------------------------------------------


@rule(
    "write-protocol",
    "mutation implies WAL append + version bump + touched-table "
    "recording; txn.commit implies all three",
    project=True,
)
def check_write_protocol(index: ProjectIndex):
    """Mutation implies WAL + version bump + touched-table recording.

    Two sub-checks, both transitive:

    1a. Every public API entry whose closure mutates storage must also
        close over WAL, BUMP and TOUCH — a brand-new write path that
        forgets the whole discipline is caught at the entry point.
    1b. Every function that *directly* commits a transaction
        (``txn.commit()``) must close over BUMP, WAL and TOUCH.  This is
        the path-sensitive teeth of the rule: union closure at the entry
        can be satisfied by a sibling path, but the function holding the
        commit site has no such excuse — if it commits without notifying
        the version clock, serving caches go silently stale.
    """
    direct, closed = effects_of(index)
    obligations = ((WAL, "appends-wal"), (BUMP, "bumps-version"),
                   (TOUCH, "records-touched"))
    for fn in _entry_functions(index):
        eff = closed.get(fn.key)
        if eff is None or MUTATES not in eff.effects:
            continue
        missing = [label for e, label in obligations if e not in eff.effects]
        if not missing:
            continue
        path = witness_path(index, fn.key, direct, MUTATES)
        yield (
            fn.module, fn.lineno,
            "%s mutates table storage (via %s) but its call closure never %s"
            % (fn.qualname, " -> ".join(path) or "?", " or ".join(missing)),
        )
    for key, eff in direct.items():
        fn = index.functions[key]
        if "repro/mvcc/" in fn.module:
            # mvcc/txn.py *implements* Transaction.commit; the discipline
            # binds its callers, not the implementation.
            continue
        if not eff.has(TXN_COMMIT):
            continue
        # TOUCH is not demanded here: a raw committer that bumps the
        # clock passes its touched-table set explicitly as the argument
        # to ``_note_commit``; the statement-level recording helper is an
        # entry-path obligation (sub-check 1a), not a committer one.
        closure = closed[key].effects
        missing = [
            label for e, label in ((BUMP, "bump the version clock"),
                                   (WAL, "reach the WAL"))
            if e not in closure
        ]
        if missing:
            yield (
                fn.module, eff.markers[TXN_COMMIT][0],
                "%s commits a transaction but does not %s — serving caches "
                "and MVCC readers will not observe this write"
                % (fn.qualname, " or ".join(missing)),
            )


# -- rule 2: snapshot-scope ---------------------------------------------------


def _statement_boundaries(index: ProjectIndex) -> set[tuple[str, str]]:
    """Functions that open a *new* statement scope: the public API entry
    methods plus the serving cache's ``fetch``.  A worker that calls one
    of these runs a complete statement whose snapshot is pinned and
    released inside that scope — not a leak of the enclosing statement's
    snapshot discipline."""
    boundaries = {fn.key for fn in _entry_functions(index)}
    for key, fn in index.functions.items():
        if fn.qualname == "ResultCache.fetch":
            boundaries.add(key)
    return boundaries


def _pin_path_outside_boundary(
    index: ProjectIndex,
    direct: dict[tuple[str, str], DirectEffects],
    start: tuple[str, str],
    boundaries: set[tuple[str, str]],
) -> list[str]:
    """Shortest call chain from *start* to a direct PIN marker that does
    not pass through (or terminate inside) a statement boundary."""
    from collections import deque

    parents: dict[tuple[str, str], tuple[str, str] | None] = {start: None}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        if key in boundaries:
            continue
        eff = direct.get(key)
        if eff is not None and eff.has(PIN):
            path = []
            cur: tuple[str, str] | None = key
            while cur is not None:
                path.append(cur[1])
                cur = parents[cur]
            return list(reversed(path))
        for site in index.calls.get(key, []):
            for target in site.targets:
                if target.key not in parents:
                    parents[target.key] = key
                    queue.append(target.key)
    return []


@rule(
    "snapshot-scope",
    "no fresh snapshot pinned inside pool-submitted callables; snapshots "
    "must not escape statement scope",
    project=True,
)
def check_snapshot_scope(index: ProjectIndex):
    """Snapshots stay statement-scoped.

    (a) A callable submitted to a worker pool must not pin a *new*
        snapshot (transitively): cross-thread/process work must run
        against the snapshot frozen by the submitting statement, or MVCC
        reads tear.  Reachability stops at statement boundaries (public
        ``execute``/``execute_ast``/cache ``fetch``): a worker invoking
        the full statement API opens its own properly scoped snapshot.
        Anchored at the submission site so each site is individually
        suppressable.
    (b) A pinned snapshot must not escape into a long-lived attribute:
        ``<recv>.snapshot = <x>`` stores are flagged unless the receiver
        chain is the engine's thread-local statement state (``_tls``).
    """
    direct, _ = effects_of(index)
    boundaries = _statement_boundaries(index)
    for key, sites in index.calls.items():
        fn = index.functions[key]
        for site in sites:
            if not site.submitted:
                continue
            for target in site.targets:
                path = _pin_path_outside_boundary(
                    index, direct, target.key, boundaries
                )
                if path:
                    yield (
                        fn.module, site.lineno,
                        "%s submits %s to a worker pool, which pins a fresh "
                        "snapshot (via %s); pool work must receive the "
                        "statement's frozen snapshot instead"
                        % (fn.qualname, target.qualname, " -> ".join(path)),
                    )
                    break
    for info in index.functions.values():
        for node in info.own:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and target.attr == "snapshot"
                ):
                    continue
                chain = dotted_chain(target)
                if any("_tls" in part for part in chain[:-1]):
                    continue
                yield (
                    info.module, node.lineno,
                    "%s stores a snapshot into %s — snapshots are "
                    "statement-scoped and must not outlive the statement "
                    "that pinned them"
                    % (info.qualname, ".".join(chain) or "an attribute"),
                )


# -- rule 3: resource-pairing -------------------------------------------------

_PAIRS = (
    # (acquire attr, release attrs, resource label)
    ("acquire", ("release",), "lock"),
    ("__enter__", ("__exit__",), "context"),
)
_SHM_RELEASE = {"unlink", "close"}


def _whole_subtree_calls(fn_node: ast.AST):
    """All calls in the function *including* nested defs, paired with the
    callee's simple name.  Pairing is checked over the whole lexical body
    because helpers like ``ship()`` frequently create inside a closure
    and release in the outer ``finally``."""
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute):
            yield node, node.func.attr
        elif isinstance(node.func, ast.Name):
            yield node, node.func.id


@rule(
    "resource-pairing",
    "shared memory, manual locks and manual spans are released in a "
    "finally block",
    project=True,
)
def check_resource_pairing(index: ProjectIndex):
    """Manually managed resources must be released on all paths.

    Intraprocedural by design: a create/acquire whose release lives in a
    different function is exactly the pattern this rule exists to ban
    (an exception between the two leaks the resource), so cross-function
    pairing is not given credit.  ``with`` statements are inherently
    paired and never flagged.  Checked pairs: ``SharedMemory(create=True)``
    / ``unlink``, ``SharedMemory(name=...)`` attach / ``close``, manual
    ``acquire`` / ``release`` outside ``with``, manual span or context
    ``__enter__`` / ``__exit__``.
    """
    for info in index.functions.values():
        module = info.module
        if module.endswith("monitor/tracer.py"):
            # tracer.py implements the span protocol itself.
            continue
        if _is_nested(index, info):
            # nested defs are covered by their outermost function's
            # whole-subtree walk; checking them alone double-reports.
            continue
        finally_lines = _finally_lines_deep(info.node)
        with_lines = _with_item_lines(info.node)

        shm_creates: list[int] = []
        shm_attaches: list[int] = []
        shm_released_in_finally = False
        acquires: list[tuple[int, str]] = []
        releases: list[tuple[int, bool]] = []
        enters: list[int] = []
        exits_in_finally = False

        for call, attr in _whole_subtree_calls(info.node):
            lineno = call.lineno
            if attr == "SharedMemory":
                kwargs = {kw.arg for kw in call.keywords}
                if "create" in kwargs:
                    shm_creates.append(lineno)
                else:
                    shm_attaches.append(lineno)
            elif attr in _SHM_RELEASE and _is_shm_receiver(call):
                if lineno in finally_lines:
                    shm_released_in_finally = True
            elif attr == "acquire" and lineno not in with_lines:
                chain = dotted_chain(call.func)
                acquires.append((lineno, ".".join(chain[:-1])))
            elif attr == "release":
                releases.append((lineno, lineno in finally_lines))
            elif attr == "__enter__":
                enters.append(lineno)
            elif attr == "__exit__" and lineno in finally_lines:
                exits_in_finally = True

        for lineno in shm_creates + shm_attaches:
            if not shm_released_in_finally:
                yield (
                    module, lineno,
                    "%s opens shared memory but no unlink/close runs in a "
                    "finally block — an exception leaks the segment"
                    % info.qualname,
                )
        for lineno, recv in acquires:
            if not any(fin for _, fin in releases):
                yield (
                    module, lineno,
                    "%s acquires %s outside `with` and never releases it in "
                    "a finally block" % (info.qualname, recv or "a lock"),
                )
        for lineno in enters:
            if not exits_in_finally:
                yield (
                    module, lineno,
                    "%s calls __enter__ manually without a matching "
                    "__exit__ in a finally block" % info.qualname,
                )


def _is_nested(index: ProjectIndex, info: FunctionInfo) -> bool:
    """True when *info* is a def lexically inside another function."""
    qual = info.qualname
    while "." in qual:
        qual = qual.rsplit(".", 1)[0]
        if (info.module, qual) in index.functions:
            return True
    return False


def _is_shm_receiver(call: ast.Call) -> bool:
    chain = dotted_chain(call.func)
    return any(
        "shm" in part.lower() or "shared" in part.lower()
        for part in chain[:-1]
    )


def _finally_lines_deep(fn_node: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Try) and node.finalbody:
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if hasattr(sub, "lineno"):
                        lines.add(sub.lineno)
    return lines


def _with_item_lines(fn_node: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                for sub in ast.walk(item.context_expr):
                    if hasattr(sub, "lineno"):
                        lines.add(sub.lineno)
    return lines


# -- rule 4: sqlstate ---------------------------------------------------------


@rule(
    "sqlstate",
    "engine errors crossing the Database/Cluster/gateway public API carry "
    "a SQLSTATE",
    project=True,
)
def check_sqlstate(index: ProjectIndex):
    """Engine errors crossing the public API carry a SQLSTATE.

    For every public entry method of the API classes, every project
    exception class its closure can raise (uncaught at the raise site)
    must assign ``sqlstate`` — as a class attribute, in ``__init__``, or
    by inheritance.  Findings anchor at the entry method so the fix is
    visible where the caller contract lives.
    """
    _, closed = effects_of(index)
    for fn in _entry_functions(index):
        eff = closed.get(fn.key)
        if eff is None:
            continue
        bare = sorted(
            cls for cls in eff.raises
            if cls not in SQLSTATE_EXEMPT
            and not index.class_carries_sqlstate(cls)
        )
        if bare:
            yield (
                fn.module, fn.lineno,
                "%s can raise %s without a SQLSTATE — errors crossing the "
                "public API must carry one (assign `sqlstate` on the class "
                "or a base)" % (fn.qualname, ", ".join(bare)),
            )
