"""The per-file reprolint rules.

Each rule statically enforces one of the engine's cross-cutting glue
invariants within a single file (the interprocedural protocol rules are
project rules, in :mod:`repro.verify.flow.protocols`):

* ``wall-clock`` — engine/cluster/durability/database/storage code charges
  the *simulated* clock; reading the machine clock there silently breaks
  deterministic benchmarks and the cost model.
* ``unseeded-random`` — all randomness outside :mod:`repro.util.rng` must
  derive from an explicit seed, or differential runs stop reproducing.
* ``lock-discipline`` — attributes mutated inside callables submitted to a
  :class:`~repro.parallel.pool.WorkerPool` (or an executor) must be
  guarded by a declared lock (a ``with <...lock...>:`` block) or appear in
  the module/class ``_THREAD_CONFINED`` registry.  The pool runs its tasks
  on the calling thread, but the sim clock schedules them on separate
  workers, so a task must not depend on state another task writes.
* ``broad-except`` — ``except Exception:`` / bare ``except:`` handlers
  that do not re-raise silently swallow engine bugs; the intentional ones
  (torn-tail tolerance) must carry a justified suppression.
* ``raw-lock`` — engine code under ``repro/`` must create locks through
  ``sanitizer.make_lock``; a bare ``threading.Lock()`` is invisible to the
  lockset sanitizer and the model checker.
* ``unreferenced`` (a project rule) — a ``def`` or ``class`` under
  ``repro/``, tooling included, that nothing in the linted tree names is
  deleted, not kept.  It judges only a tree with callers outside the
  package (``src tests benchmarks examples``).
"""

from __future__ import annotations

import ast
import re

from repro.verify.flow.callgraph import ProjectIndex, dotted_chain
from repro.verify.lint import FileContext, engine_module, rule

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _calls(ctx: FileContext):
    """``(call, chain)`` for every call whose callee is a dotted name."""
    for node in ctx.nodes:
        if isinstance(node, ast.Call):
            parts = dotted_chain(node.func)
            if parts:
                yield node, parts


def _imported_names(ctx: FileContext, module: str) -> set[str]:
    """Names bound by ``from <module> import X [as Y]`` at any level."""
    bound: set[str] = set()
    for node in ctx.nodes:
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                bound.add(alias.asname or alias.name)
    return bound


def _module_imported(ctx: FileContext, module: str) -> set[str]:
    """Aliases under which ``import <module>`` binds the module."""
    aliases: set[str] = set()
    for node in ctx.nodes:
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
    time_aliases = _module_imported(ctx, "time")
    from_time = _imported_names(ctx, "time") & _TIME_FNS
    datetime_aliases = _module_imported(ctx, "datetime")
    from_datetime = _imported_names(ctx, "datetime")
    for node, parts in _calls(ctx):
        name = ".".join(parts)
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
    random_aliases = _module_imported(ctx, "random")
    from_random = _imported_names(ctx, "random") & _STDLIB_RANDOM_FNS
    for node, parts in _calls(ctx):
        name = ".".join(parts)
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
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(dotted_chain(t) in (["Exception"], ["BaseException"])
               for t in types)


@rule(
    "broad-except",
    "broad except handlers must re-raise or carry a justified suppression",
)
def check_broad_except(ctx: FileContext):
    for node in ctx.nodes:
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node):
            continue
        if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
            continue
        what = "bare except:" if node.type is None else "except %s:" % (
            ".".join(dotted_chain(node.type))
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


def _thread_confined(ctx: FileContext) -> set[str]:
    """Attribute names registered thread-confined via ``_THREAD_CONFINED``
    set/tuple literals (module- or class-level)."""
    confined: set[str] = set()
    for node in ctx.nodes:
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


def _submitted_callables(ctx: FileContext):
    """Callables handed to ``<pool>.map(fn, ...)`` / ``<executor>.submit(fn, ...)``.

    Name references resolve against every function/lambda definition with
    that name in the module (a deliberate over-approximation: a morsel
    callable shadowing another's name is its own smell).
    """
    defs: dict[str, list] = {}
    for node in ctx.nodes:
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs.setdefault(target.id, []).append(node.value)
    seen: list = []
    for node in ctx.nodes:
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
                expr = item.context_expr
                chain = dotted_chain(
                    expr.func if isinstance(expr, ast.Call) else expr
                )
                if chain and "lock" in chain[-1].lower():
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
    confined = _thread_confined(ctx)
    reported: set[tuple[int, str]] = set()
    for fn, label in _submitted_callables(ctx):
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
# raw-lock
# ---------------------------------------------------------------------------


@rule(
    "raw-lock",
    "engine code must create locks via sanitizer.make_lock, not "
    "threading.Lock/RLock",
)
def check_raw_lock(ctx: FileContext):
    if not engine_module(ctx.module):
        return
    aliases = _module_imported(ctx, "threading")
    from_threading = _imported_names(ctx, "threading") & {"Lock", "RLock"}
    for node, parts in _calls(ctx):
        name = ".".join(parts)
        if (
            len(parts) == 2
            and parts[0] in aliases
            and parts[1] in ("Lock", "RLock")
        ) or (len(parts) == 1 and parts[0] in from_threading):
            yield node.lineno, (
                "%s() bypasses sanitizer.make_lock: the lockset sanitizer "
                "and the model checker cannot track this lock" % name
            )


# ---------------------------------------------------------------------------
# unreferenced
# ---------------------------------------------------------------------------

#: Dunders, and the ``getattr`` dispatch targets of the binder
#: (``_bind_<Node>``) and the plan verifier (``_visit_<Op>``).
_EXEMPT = re.compile(r"__\w+__|_bind_\w*|_visit_\w*")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(node: ast.AST) -> list:
    """What one node names: a name, an attribute, an import alias, a
    keyword argument or an identifier-shaped string."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [*node.name.split("."), node.asname]
    if isinstance(node, ast.keyword):
        return [node.arg]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value] if _IDENTIFIER.fullmatch(node.value) else []
    return []


@rule("unreferenced", "a def or class under repro/ that nothing in the "
      "linted tree names", project=True, engine_only=False)
def check_unreferenced(index: ProjectIndex):
    if all("repro/" in ctx.module for ctx in index.files):
        return  # no caller outside the package is linted: nothing to judge by
    named = {name for ctx in index.files for node in ctx.nodes
             for name in _mentions(node)}
    for ctx in index.files:
        if "repro/" not in ctx.module:
            continue
        for node in ctx.nodes:
            if (
                isinstance(node, _DEFS)
                and node.name not in named
                and not _EXEMPT.fullmatch(node.name)
                and not any(dotted_chain(getattr(d, "func", d))[-1:] == ["rule"]
                            for d in node.decorator_list)  # an @rule check
            ):
                yield ctx.module, node.lineno, (
                    "%s is never referenced: delete it" % node.name
                )
