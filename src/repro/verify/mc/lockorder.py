"""Static + runtime lock-order analysis: prove deadlock-freedom by rank.

The engine's locks all come from :func:`repro.verify.sanitizer.make_lock`
with structured names (``"bufferpool"``, ``"database:DB:statement"``,
``"durability:db"``, ``"pool:db:stats"``, ``"metrics"``, ``"tracer"``).
The name's prefix before the first ``:`` is the lock's **class**, and the
repo declares one global acquisition order over classes (outermost
first)::

    database > txn > durability > table > pool > bufferpool > metrics > tracer

i.e. a thread holding a ``durability`` lock may acquire ``metrics`` but
never ``database``.  Two-phase observation feeds the checked graph:

* **static** — an AST walk over the source tree finds lexically nested
  ``with <lock>:`` scopes, resolving each lock expression to its class
  through the ``make_lock`` call that created the attribute;
* **runtime** — every :class:`~repro.verify.sanitizer.TrackedLock`
  acquisition taken while other tracked locks are held records a
  (held -> acquired) edge in :func:`sanitizer.lock_graph`; the model
  checker's scenario runs (and any REPRO_SANITIZE=1 test run) populate it
  with the *interprocedural* nestings the lexical walk cannot see.

The merged graph must be acyclic and must respect the declared ranks;
either failure is reported with the offending edges, which is a proof
obligation rather than a hope: an ABBA pair that never deadlocked in
testing still shows up as a cycle here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.verify import sanitizer
from repro.verify.lint import load_paths

#: Declared global acquisition order, outermost class first.  A thread may
#: only acquire locks of a class strictly later in this tuple than every
#: lock it already holds (same-class nesting is allowed only for the same
#: reentrant lock instance).  ``txn`` (the MVCC transaction manager and
#: statement counter) ranks directly inside the statement lock; ``table``
#: (the per-table capture lock guarding seal/truncate vs. snapshot
#: capture) sits inside ``durability`` because recovery replays table
#: mutations — which may seal a region — while holding the durability
#: lock.  ``serving`` (the result/plan cache) sits between ``database``
#: and ``txn``: commit listeners take the cache lock under the statement
#: lock (database > serving), and cache validation reads the table-version
#: clock — a ``txn``-class lock — under the cache lock (serving > txn).
DECLARED_ORDER = (
    "database", "serving", "txn", "durability", "table", "pool",
    "bufferpool", "metrics", "tracer",
)

_RANK = {name: i for i, name in enumerate(DECLARED_ORDER)}


def lock_class(name: str) -> str:
    """``"pool:db:stats"`` -> ``"pool"``; unknown names map to themselves."""
    return name.split(":", 1)[0]


def rank_violation(outer: str, inner: str) -> str | None:
    """Message when acquiring ``inner`` while holding ``outer`` contradicts
    the declared order; None when the edge is allowed (or unrankable)."""
    outer_cls = lock_class(outer)
    inner_cls = lock_class(inner)
    if outer_cls == "?" or inner_cls == "?":
        return None
    outer_rank = _RANK.get(outer_cls)
    inner_rank = _RANK.get(inner_cls)
    if outer_rank is None or inner_rank is None:
        return None
    if outer_cls == inner_cls:
        # Same-class nesting across *instances* is hierarchical (a
        # coordinator statement drives shard statements); ranks do not
        # apply — the instance-level cycle check catches ABBA pairs.
        return None
    if outer_rank > inner_rank:
        return (
            "acquired %s (rank %d) while holding %s (rank %d): contradicts "
            "declared order %s" % (
                inner, inner_rank, outer, outer_rank,
                " > ".join(DECLARED_ORDER),
            )
        )
    return None


@dataclass(frozen=True)
class LockEdge:
    """One observed outer -> inner acquisition edge."""

    outer: str      # full lock name (runtime) or class (static)
    inner: str
    source: str     # "static" | "runtime"
    site: str = ""  # file:line for static edges

    def render(self) -> str:
        where = " (%s)" % self.site if self.site else ""
        return "%s -> %s [%s]%s" % (self.outer, self.inner, self.source, where)


# ---------------------------------------------------------------------------
# static extraction
# ---------------------------------------------------------------------------


def _literal_prefix(node: ast.AST) -> str | None:
    """The lock-class prefix of a ``make_lock`` name argument.

    Handles plain strings and the repo's ``"pool:%s:stats" % name`` idiom
    (the class is the part of the format string before the first ``:``).
    """
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        node = node.left
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
        if isinstance(node, ast.FormattedValue):
            return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return lock_class(node.value)
    return None


def _is_make_lock(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == "make_lock"
    return isinstance(func, ast.Name) and func.id == "make_lock"


def lock_attr_classes(tree: ast.Module) -> dict[str, str]:
    """Map attribute names to lock classes via their make_lock assignment
    (``self._stats_lock = sanitizer.make_lock("pool:%s:stats" % ...)``)."""
    classes: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not (isinstance(node.value, ast.Call) and _is_make_lock(node.value)):
            continue
        if not node.value.args:
            continue
        cls = _literal_prefix(node.value.args[0])
        if cls is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                classes[target.attr] = cls
            elif isinstance(target, ast.Name):
                classes[target.id] = cls
    return classes


def _lock_expr_class(expr: ast.AST, classes: dict[str, str]) -> str | None:
    """Resolve a ``with`` context expression to a lock class, or None when
    it is not a (recognisable) lock."""
    node = expr
    if isinstance(node, ast.Call):
        node = node.func
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    if name is None:
        return None
    if name in classes:
        return classes[name]
    if "lock" in name.lower():
        return "?"  # lock-like but unclassified
    return None


def static_edges_for_source(
    source: str, path: str = "<memory>"
) -> list[LockEdge]:
    """Lexically nested lock scopes in one file, as class-level edges."""
    return _tree_edges(ast.parse(source, filename=path), path)


def _tree_edges(tree: ast.Module, path: str) -> list[LockEdge]:
    classes = lock_attr_classes(tree)
    edges: list[LockEdge] = []

    def walk(node: ast.AST, held: list[tuple[str, str]]):
        pushed = 0
        if isinstance(node, ast.With):
            for item in node.items:
                cls = _lock_expr_class(item.context_expr, classes)
                if cls is None:
                    continue
                attr = ast.dump(item.context_expr)
                for outer_cls, outer_attr in held:
                    if outer_attr == attr:
                        continue  # reentrant re-acquisition of the same lock
                    edges.append(LockEdge(
                        outer=outer_cls, inner=cls, source="static",
                        site="%s:%d" % (path, node.lineno),
                    ))
                held.append((cls, attr))
                pushed += 1
        for child in ast.iter_child_nodes(node):
            # Nested function/class bodies are separate acquisition scopes.
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                walk(child, [])
            else:
                walk(child, held)
        for _ in range(pushed):
            held.pop()

    walk(tree, [])
    return edges


def static_edges(paths=("src",)) -> list[LockEdge]:
    edges: list[LockEdge] = []
    for ctx in load_paths(list(paths)):
        edges.extend(_tree_edges(ctx.tree, ctx.path))
    return edges


# ---------------------------------------------------------------------------
# runtime graph
# ---------------------------------------------------------------------------


def runtime_edges() -> list[LockEdge]:
    """The sanitizer's observed acquisition edges (full instance names)."""
    return [
        LockEdge(outer=outer, inner=inner, source="runtime")
        for (outer, inner) in sorted(sanitizer.lock_graph())
    ]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


@dataclass
class LockOrderReport:
    edges: list[LockEdge]
    violations: list[str]
    cycles: list[list[str]]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.cycles

    def to_json(self) -> dict:
        return {
            "declared_order": list(DECLARED_ORDER),
            "edges": [e.render() for e in self.edges],
            "violations": list(self.violations),
            "cycles": [list(c) for c in self.cycles],
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = ["lock order: %s" % " > ".join(DECLARED_ORDER)]
        lines.append("%d edge(s) observed" % len(self.edges))
        for violation in self.violations:
            lines.append("VIOLATION: %s" % violation)
        for cycle in self.cycles:
            lines.append("CYCLE: %s" % " -> ".join(cycle + [cycle[0]]))
        if self.ok:
            lines.append("lock acquisition graph is acyclic and rank-ordered")
        return "\n".join(lines)


def _find_cycles(adj: dict[str, set[str]]) -> list[list[str]]:
    cycles: list[list[str]] = []
    seen_cycles: set[tuple[str, ...]] = set()
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in adj}

    def visit(node, path):
        colour[node] = GREY
        path.append(node)
        for nxt in sorted(adj.get(node, ())):
            if colour.get(nxt, WHITE) == GREY:
                cycle = path[path.index(nxt):]
                canon = tuple(sorted(cycle))
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    cycles.append(list(cycle))
            elif colour.get(nxt, WHITE) == WHITE:
                visit(nxt, path)
        path.pop()
        colour[node] = BLACK

    for node in sorted(adj):
        if colour[node] == WHITE:
            visit(node, [])
    return cycles


def analyze(edges: list[LockEdge]) -> LockOrderReport:
    """Rank-check and cycle-check the merged acquisition graph."""
    violations: list[str] = []
    adj: dict[str, set[str]] = {}
    for edge in edges:
        adj.setdefault(edge.outer, set()).add(edge.inner)
        adj.setdefault(edge.inner, set())
        message = rank_violation(edge.outer, edge.inner)
        if message is not None:
            violations.append(
                "%s [%s%s]" % (
                    message, edge.source,
                    " %s" % edge.site if edge.site else "",
                )
            )
    cycles = _find_cycles(adj)
    return LockOrderReport(edges=list(edges), violations=violations,
                           cycles=cycles)


def check(paths=("src",), include_runtime: bool = True) -> LockOrderReport:
    """The full analysis: static extraction merged with the runtime graph."""
    edges = static_edges(paths)
    if include_runtime:
        edges.extend(runtime_edges())
    return analyze(edges)
