"""The repo-specific reprolint rules.

Each rule statically enforces one of the engine's cross-cutting glue
invariants (the regimes PRs 1–3 introduced but nothing checked):

* ``wall-clock`` — engine/cluster/durability/database/storage code charges
  the *simulated* clock; reading the machine clock there silently breaks
  deterministic benchmarks and the cost model.
* ``unseeded-random`` — all randomness outside :mod:`repro.util.rng` must
  derive from an explicit seed, or differential runs stop reproducing.
* ``lock-discipline`` — attributes mutated inside callables submitted to a
  :class:`~repro.parallel.pool.WorkerPool` (or an executor) must be
  guarded by a declared lock (a ``with <...lock...>:`` block) or appear in
  the module/class ``_THREAD_CONFINED`` registry.
* ``broad-except`` — ``except Exception:`` / bare ``except:`` handlers
  that do not re-raise silently swallow engine bugs; the intentional ones
  (torn-tail tolerance) must carry a justified suppression.
* ``stale-suppression`` — a ``lint-ok`` comment naming a rule that no
  longer fires on its line is itself a finding (full runs only; the
  detection lives in the framework since it needs every rule's output).
* ``durability-logging`` — demoted to a registered no-op: reproflow's
  interprocedural ``write-protocol`` rule (``python -m repro.verify.flow``)
  now enforces mutation ⇒ WAL append + version bump + touched-table
  recording across helper boundaries, so the per-function check would
  only double-report.
* ``lock-order`` — lexically nested lock acquisitions must follow the
  declared global lock order (see :mod:`repro.verify.mc.lockorder`); an
  inversion is half of an ABBA deadlock.
* ``raw-lock`` — engine code under ``repro/`` must create locks through
  ``sanitizer.make_lock``; a bare ``threading.Lock()`` is invisible to the
  lockset sanitizer and the model checker.
"""

from __future__ import annotations

import ast

from repro.verify.lint import FileContext, rule

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _imported_names(tree: ast.Module, module: str) -> set[str]:
    """Names bound by ``from <module> import X [as Y]`` at any level."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                bound.add(alias.asname or alias.name)
    return bound


def _module_imported(tree: ast.Module, module: str) -> set[str]:
    """Aliases under which ``import <module>`` binds the module."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


# ---------------------------------------------------------------------------
# wall-clock
# ---------------------------------------------------------------------------

#: time-module functions that read the machine clock.
_TIME_FNS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "thread_time",
    "thread_time_ns",
}
#: datetime accessors that read the machine clock.
_DATETIME_FNS = {"now", "today", "utcnow"}


@rule(
    "wall-clock",
    "engine/cluster/durability code must charge the sim clock, "
    "not read the machine clock",
)
def check_wall_clock(ctx: FileContext):
    if ctx.in_package("verify"):
        # Verification tooling measures *real* wall time by design
        # (mutation budgets, subprocess timeouts); only the simulated
        # engine subsystems must charge the sim clock.  Matters because
        # in_package matches basenames too: verify/mutate/engine.py
        # would otherwise collide with the engine/ scope.
        return
    if not ctx.in_package(
        "engine", "cluster", "durability", "database", "storage"
    ):
        return
    time_aliases = _module_imported(ctx.tree, "time")
    from_time = _imported_names(ctx.tree, "time") & _TIME_FNS
    datetime_aliases = _module_imported(ctx.tree, "datetime")
    from_datetime = _imported_names(ctx.tree, "datetime")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if len(parts) == 2 and parts[0] in time_aliases and parts[1] in _TIME_FNS:
            yield node.lineno, (
                "wall-clock read %s() in sim-clock-charged code "
                "(charge a SimClock instead)" % name
            )
        elif len(parts) == 1 and parts[0] in from_time:
            yield node.lineno, (
                "wall-clock read %s() in sim-clock-charged code "
                "(charge a SimClock instead)" % name
            )
        elif (
            len(parts) == 3
            and parts[0] in datetime_aliases
            and parts[1] in ("datetime", "date")
            and parts[2] in _DATETIME_FNS
        ):
            yield node.lineno, (
                "wall-clock read %s() in sim-clock-charged code "
                "(route through the engine clock)" % name
            )
        elif (
            len(parts) == 2
            and parts[0] in from_datetime
            and parts[0] in ("datetime", "date")
            and parts[1] in _DATETIME_FNS
        ):
            yield node.lineno, (
                "wall-clock read %s() in sim-clock-charged code "
                "(route through the engine clock)" % name
            )


# ---------------------------------------------------------------------------
# unseeded-random
# ---------------------------------------------------------------------------

#: stdlib ``random`` module functions drawing from the global state.
_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "seed", "getrandbits", "triangular",
}


def _is_none(node: ast.AST | None) -> bool:
    return node is None or (
        isinstance(node, ast.Constant) and node.value is None
    )


@rule(
    "unseeded-random",
    "randomness outside util/rng must derive from an explicit seed",
)
def check_unseeded_random(ctx: FileContext):
    if ctx.module.endswith("repro/util/rng.py"):
        return
    random_aliases = _module_imported(ctx.tree, "random")
    from_random = _imported_names(ctx.tree, "random") & _STDLIB_RANDOM_FNS
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        # numpy global-state access: np.random.random(), numpy.random.X().
        if len(parts) >= 3 and parts[-2] == "random" and parts[0] in (
            "np", "numpy"
        ):
            fn = parts[-1]
            if fn in ("Generator", "SeedSequence", "BitGenerator"):
                continue
            if fn in ("default_rng", "RandomState"):
                if not node.args or _is_none(node.args[0]):
                    yield node.lineno, (
                        "%s() without a seed: derive the generator via "
                        "repro.util.rng.derive_rng" % name
                    )
                continue
            yield node.lineno, (
                "np.random.%s uses numpy's global RNG state: derive a "
                "generator via repro.util.rng.derive_rng" % fn
            )
        # stdlib global-state access: random.random(), shuffle(), ...
        elif (
            len(parts) == 2
            and parts[0] in random_aliases
            and parts[1] in _STDLIB_RANDOM_FNS
        ):
            yield node.lineno, (
                "%s() uses the stdlib global RNG: derive a generator via "
                "repro.util.rng.derive_rng" % name
            )
        elif len(parts) == 1 and parts[0] in from_random:
            yield node.lineno, (
                "%s() uses the stdlib global RNG: derive a generator via "
                "repro.util.rng.derive_rng" % name
            )


# ---------------------------------------------------------------------------
# broad-except
# ---------------------------------------------------------------------------


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = []
    if isinstance(handler.type, ast.Tuple):
        names = [dotted_name(e) for e in handler.type.elts]
    else:
        names = [dotted_name(handler.type)]
    return any(n in ("Exception", "BaseException") for n in names)


@rule(
    "broad-except",
    "broad except handlers must re-raise or carry a justified suppression",
)
def check_broad_except(ctx: FileContext):
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node):
            continue
        if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
            continue
        what = "bare except:" if node.type is None else "except %s:" % (
            dotted_name(node.type)
            if not isinstance(node.type, ast.Tuple) else "(...)"
        )
        yield node.lineno, (
            "%s swallows errors without re-raising; narrow the type or "
            "justify with a lint-ok suppression" % what
        )


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

#: container methods that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard",
}


def _thread_confined(tree: ast.Module) -> set[str]:
    """Attribute names registered thread-confined via ``_THREAD_CONFINED``
    set/tuple literals (module- or class-level)."""
    confined: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            if any(t.id == "_THREAD_CONFINED" for t in targets) and isinstance(
                node.value, (ast.Set, ast.Tuple, ast.List)
            ):
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str
                    ):
                        confined.add(elt.value)
    return confined


def _local_names(fn: ast.FunctionDef | ast.Lambda) -> set[str]:
    """Names bound inside the callable (params + assignments + loops)."""
    args = fn.args
    local = {
        a.arg
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
    }
    if args.vararg:
        local.add(args.vararg.arg)
    if args.kwarg:
        local.add(args.kwarg.arg)
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            local.add(sub.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    local.add(node.target.id)
            elif isinstance(node, ast.For):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        local.add(sub.id)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    for sub in ast.walk(node.optional_vars):
                        if isinstance(sub, ast.Name):
                            local.add(sub.id)
            elif isinstance(node, ast.comprehension):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        local.add(sub.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.add(node.name)
    return local


def _root_name(node: ast.AST) -> str | None:
    """The base Name of an attribute/subscript chain (``a`` in ``a.b[0].c``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _submitted_callables(tree: ast.Module):
    """Callables handed to ``<pool>.map(fn, ...)`` / ``<executor>.submit(fn, ...)``.

    Name references resolve against every function/lambda definition with
    that name in the module (a deliberate over-approximation: a morsel
    callable shadowing another's name is its own smell).
    """
    defs: dict[str, list] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs.setdefault(target.id, []).append(node.value)
    seen: list = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr not in ("map", "submit") or not node.args:
            continue
        candidate = node.args[0]
        if isinstance(candidate, ast.Lambda):
            seen.append((candidate, "<lambda>"))
        elif isinstance(candidate, ast.Name):
            for found in defs.get(candidate.id, []):
                seen.append((found, candidate.id))
    return seen


def _guarded_by_lock(path: list[ast.AST]) -> bool:
    """True when any enclosing ``with`` context manager names a lock."""
    for ancestor in path:
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                name = dotted_name(item.context_expr)
                if isinstance(item.context_expr, ast.Call):
                    name = dotted_name(item.context_expr.func)
                if name is not None and "lock" in name.rsplit(".", 1)[-1].lower():
                    return True
    return False


def _mutations(fn: ast.FunctionDef | ast.Lambda, local: set[str]):
    """Yield (lineno, attr-or-target, kind) for shared-state mutations."""

    def walk(node: ast.AST, path: list[ast.AST]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                and node is not fn:
            return  # nested callables are analyzed on their own submission
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                root = _root_name(target)
                if root is None or root in local:
                    continue
                if isinstance(target, ast.Attribute):
                    if not _guarded_by_lock(path):
                        yield node.lineno, "%s.%s" % (root, target.attr), "write"
                elif isinstance(target, ast.Subscript):
                    if not _guarded_by_lock(path):
                        yield node.lineno, "%s[...]" % root, "store"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                root = _root_name(node.func.value)
                if root is not None and root not in local:
                    if not _guarded_by_lock(path):
                        yield node.lineno, "%s.%s()" % (root, node.func.attr), "call"
        for child in ast.iter_child_nodes(node):
            yield from walk(child, path + [node])

    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        yield from walk(stmt, [])


@rule(
    "lock-discipline",
    "shared state mutated in pool-submitted callables needs a declared "
    "lock or a _THREAD_CONFINED registration",
)
def check_lock_discipline(ctx: FileContext):
    confined = _thread_confined(ctx.tree)
    reported: set[tuple[int, str]] = set()
    for fn, label in _submitted_callables(ctx.tree):
        local = _local_names(fn)
        for lineno, target, kind in _mutations(fn, local):
            attr = target.split(".")[-1].rstrip("()")
            if attr in confined or target in confined:
                continue
            key = (lineno, target)
            if key in reported:
                continue
            reported.add(key)
            yield lineno, (
                "%s of %s inside pool-submitted callable %r has no "
                "guarding lock (use 'with <lock>:' or register the field "
                "in _THREAD_CONFINED)" % (kind, target, label)
            )


# ---------------------------------------------------------------------------
# durability-logging (demoted)
# ---------------------------------------------------------------------------

#: ColumnTable methods that mutate durable table state.  Retained for
#: reference/tests; the interprocedural analyzer owns the live check.
_TABLE_MUTATORS = {"insert_rows", "append_vectors", "apply_deletes", "truncate"}


@rule(
    "durability-logging",
    "superseded by reproflow's interprocedural `write-protocol` rule "
    "(python -m repro.verify.flow src)",
)
def check_durability_logging(ctx: FileContext):
    """Demoted to a registered no-op.

    The per-function check went blind the moment a mutation or its WAL
    hook moved into a helper, and double-reported whatever reproflow's
    transitive ``write-protocol`` rule already caught.  The rule name
    stays registered so ``--rule durability-logging`` and existing
    ``lint-ok: durability-logging`` suppressions keep working; the actual
    enforcement — mutation implies WAL append + version bump +
    touched-table recording, checked over the project call graph — lives
    in :mod:`repro.verify.flow.protocols`.
    """
    return iter(())


# ---------------------------------------------------------------------------
# stale-suppression (framework-hosted)
# ---------------------------------------------------------------------------


@rule(
    "stale-suppression",
    "lint-ok comment names a rule that no longer fires on its line "
    "(full runs only)",
)
def check_stale_suppression(ctx: FileContext):
    """Registered for ``--list-rules`` and suppression routing only.

    The actual detection is :func:`repro.verify.lint._check_stale_suppressions`
    in the framework: staleness of a suppression for rule *R* is only
    decidable after *R* itself has run over the file, so the check has to
    sit downstream of the whole registry rather than inside any one rule.
    It also only runs on full sweeps — under ``--rule`` selection an
    unselected rule never got the chance to fire, and every suppression
    of it would be falsely flagged.
    """
    return iter(())


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------


@rule(
    "lock-order",
    "nested lock acquisitions must follow the declared global lock order",
)
def check_lock_order(ctx: FileContext):
    from repro.verify.mc import lockorder

    for edge in lockorder.static_edges_for_source(ctx.source, ctx.path):
        message = lockorder.rank_violation(edge.outer, edge.inner)
        if message is None:
            continue
        try:
            line = int(edge.site.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            line = 1
        yield line, message


# ---------------------------------------------------------------------------
# raw-lock
# ---------------------------------------------------------------------------


@rule(
    "raw-lock",
    "engine code must create locks via sanitizer.make_lock, not "
    "threading.Lock/RLock",
)
def check_raw_lock(ctx: FileContext):
    # Scope: engine source under repro/, except repro/verify/ itself (the
    # sanitizer and the model checker implement the tracking and must own
    # raw primitives).
    if "repro/" not in ctx.module or "repro/verify/" in ctx.module:
        return
    aliases = _module_imported(ctx.tree, "threading")
    from_threading = _imported_names(ctx.tree, "threading") & {"Lock", "RLock"}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if (
            len(parts) == 2
            and parts[0] in aliases
            and parts[1] in ("Lock", "RLock")
        ) or (len(parts) == 1 and parts[0] in from_threading):
            yield node.lineno, (
                "%s() bypasses sanitizer.make_lock: the lockset sanitizer "
                "and the model checker cannot track this lock" % name
            )
