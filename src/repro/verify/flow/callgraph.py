"""Project index and call graph for the reproflow analyzer.

Everything here is an AST-level *over-approximation*: an attribute call
``x.foo(...)`` links to every project function named ``foo`` that could
plausibly be its target (methods of the receiver's class when the
receiver is ``self``, otherwise any method or module function with that
name).  The protocol rules are designed so this approximation direction
is safe — see DESIGN.md note 15: effect *sources* (mutation sites, pins,
raises) are over-approximated together with effect *obligations*, and
the obligation markers (``log_*``, ``_note_commit``, ``note_table``) are
distinctive names that do not collide elsewhere in the tree, so spurious
edges cannot silently fabricate an obligation that is not really there.
The seeded-bug fixture corpus in ``tests/test_verify_flow.py`` keeps
every rule non-vacuous against this design.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property

#: Call-receiver methods that submit their first argument to a worker
#: pool / executor (the caller reaches the callable through the pool, not
#: by a direct call).
_SUBMIT_METHODS = ("map", "submit")

#: An attribute call on a non-``self`` receiver whose simple name matches
#: more than this many project functions is treated as *opaque* (no call
#: edges).  Generic names (``insert``, ``get``, ``run``, ``snapshot``)
#: otherwise make the over-approximate graph near-complete, and a
#: near-complete graph lets every function "reach" every obligation —
#: vacuously satisfying the must-reach rules.  Effect *markers* are
#: call-site based and survive the drop; only closure propagation through
#: the ambiguous edge is lost.  See DESIGN.md note 15.
AMBIGUITY_LIMIT = 3


@dataclass
class FunctionInfo:
    """One function, method, nested function or submitted lambda."""

    module: str                 # normalized source path
    qualname: str               # e.g. ``Database._execute_insert``
    name: str                   # simple name (``<lambda>`` for lambdas)
    cls: str | None             # enclosing class name, if a method
    node: ast.AST               # FunctionDef / AsyncFunctionDef / Lambda
    lineno: int

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)

    @cached_property
    def own(self) -> list[ast.AST]:
        """The body's nodes, without descending into nested function
        definitions (each nested def is its own :class:`FunctionInfo`).
        Lambdas are *not* boundaries: except when directly submitted to a
        pool they run inline in their enclosing function's dynamic
        extent, so their effects belong to the encloser."""
        out: list[ast.AST] = []

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                    out.append(child)
                    walk(child)

        body = self.node.body
        for stmt in body if isinstance(body, list) else [ast.Expr(body)]:
            out.append(stmt)
            walk(stmt)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FunctionInfo(%s:%s)" % (self.module, self.qualname)


@dataclass
class ClassInfo:
    """One class definition with the facts the rules need."""

    module: str
    name: str
    bases: list[str]
    lineno: int
    class_attrs: set[str] = field(default_factory=set)
    self_attrs: set[str] = field(default_factory=set)

    @property
    def assigns_sqlstate(self) -> bool:
        return "sqlstate" in self.class_attrs or "sqlstate" in self.self_attrs


@dataclass
class CallSite:
    """One call edge: ``caller`` may invoke any function in ``targets``."""

    caller: tuple[str, str]
    targets: list[FunctionInfo]
    name: str                  # simple callee name as written
    lineno: int
    submitted: bool = False    # first-arg of a pool map/submit


def dotted_chain(node: ast.AST) -> list[str]:
    """``['self', 'txn', 'snapshot']`` for ``self.txn.snapshot``; [] else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


class ProjectIndex:
    """Indexes parsed files (:class:`repro.verify.lint.FileContext`) into
    functions, classes and call edges.

    ``ambiguity_limit`` is the opaque-call threshold: the protocol rules
    keep the tight default (see :data:`AMBIGUITY_LIMIT`) because a
    near-complete graph makes their must-reach obligations vacuous, while
    the mutation impact map (:mod:`repro.verify.mutate.impact`) raises it
    — over-approximate reachability there only means running a few extra
    test files, never a missed obligation.
    """

    ambiguity_limit = AMBIGUITY_LIMIT

    def __init__(self, files):
        #: module path -> raw source lines.
        self.lines: dict[str, list[str]] = {}
        self.functions: dict[tuple[str, str], FunctionInfo] = {}
        self.classes: dict[str, list[ClassInfo]] = {}
        #: class name -> ClassInfo list per module for entry lookup.
        self.classes_by_module: dict[str, list[ClassInfo]] = {}
        self._by_module_name: dict[str, dict[str, list[FunctionInfo]]] = {}
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        self._toplevel_by_name: dict[str, list[FunctionInfo]] = {}
        self._imports: dict[str, dict[str, str]] = {}  # mod -> alias -> from-module
        self.calls: dict[tuple[str, str], list[CallSite]] = {}
        self.submitted: set[tuple[str, str]] = set()
        self.listeners: set[tuple[str, str]] = set()
        #: (direct, closed) effect maps, filled by flow.effects.effects_of.
        self.effects = None
        for ctx in sorted(files, key=lambda f: f.module):
            self.lines[ctx.module] = ctx.lines
            self._index_module(ctx.module, ctx)
        for module in self.lines:
            self._link_module(module)

    # -- indexing ----------------------------------------------------------------

    def _index_module(self, module: str, ctx) -> None:
        per_name = self._by_module_name.setdefault(module, {})
        imports = self._imports.setdefault(module, {})
        self.classes_by_module.setdefault(module, [])

        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = node.module

        def add(info: FunctionInfo) -> None:
            self.functions[info.key] = info
            per_name.setdefault(info.name, []).append(info)
            if info.cls is not None:
                self._methods_by_name.setdefault(info.name, []).append(info)
            else:
                self._toplevel_by_name.setdefault(info.name, []).append(info)

        def visit(node: ast.AST, prefix: str, cls: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name if prefix else child.name
                    add(FunctionInfo(module, qual, child.name, cls,
                                     child, child.lineno))
                    visit(child, qual + ".", cls)
                elif isinstance(child, ast.ClassDef):
                    info = ClassInfo(
                        module, child.name,
                        [c for b in child.bases if (c := _base_name(b))],
                        child.lineno,
                    )
                    _collect_class_attrs(child, info)
                    self.classes.setdefault(child.name, []).append(info)
                    self.classes_by_module[module].append(info)
                    visit(child, child.name + ".", child.name)
                else:
                    visit(child, prefix, cls)

        visit(ctx.tree, "", None)

    # -- call linking -------------------------------------------------------------

    def _module_for(self, dotted: str) -> str | None:
        """Resolve ``repro.durability.manager`` to an indexed module path."""
        suffix = dotted.replace(".", "/") + ".py"
        for module in self.lines:
            if module.endswith(suffix):
                return module
        return None

    def resolve_name(self, module: str, name: str) -> list[FunctionInfo]:
        """A bare ``name(...)`` call: same-module defs, then imports."""
        local = self._by_module_name.get(module, {}).get(name, [])
        if local:
            return list(local)
        source = self._imports.get(module, {}).get(name)
        if source is not None:
            target_module = self._module_for(source)
            if target_module is not None:
                return list(
                    self._by_module_name.get(target_module, {}).get(name, [])
                )
        return []

    def resolve_attr(self, module: str, caller: FunctionInfo,
                     chain: list[str], name: str) -> list[FunctionInfo]:
        """An attribute call ``<chain>.name(...)``.

        ``self.name()`` prefers methods of the caller's own class (and of
        project classes related to it by inheritance); everything else
        over-approximates to every project method or module function with
        that simple name — unless the name is so generic that the target
        set exceeds :data:`AMBIGUITY_LIMIT`, in which case the call is
        opaque (no edges) rather than an edge to half the project.
        """
        if chain[:1] == ["self"] and len(chain) == 2 and caller.cls:
            related = self._related_classes(caller.cls)
            own = [
                fn for fn in self._methods_by_name.get(name, [])
                if fn.cls in related
            ]
            if own:
                return own
        targets = list(self._methods_by_name.get(name, [])) + list(
            self._toplevel_by_name.get(name, [])
        )
        if len(targets) > self.ambiguity_limit:
            return []
        return targets

    def _related_classes(self, cls: str) -> set[str]:
        """``cls`` plus its project ancestors and descendants by name."""
        related = {cls}
        changed = True
        while changed:
            changed = False
            for name, infos in self.classes.items():
                for info in infos:
                    if name in related and not set(info.bases) <= related:
                        related.update(info.bases)
                        changed = True
                    if name not in related and set(info.bases) & related:
                        related.add(name)
                        changed = True
        return related

    def _link_module(self, module: str) -> None:
        lambda_counter = [0]
        for info in [f for f in self.functions.values() if f.module == module]:
            sites: list[CallSite] = []
            for node in info.own:
                if not isinstance(node, ast.Call):
                    continue
                submitted_arg = None
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SUBMIT_METHODS
                    and node.args
                ):
                    submitted_arg = node.args[0]
                if isinstance(node.func, ast.Name):
                    targets = self.resolve_name(module, node.func.id)
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    chain = dotted_chain(node.func)
                    targets = self.resolve_attr(
                        module, info, chain, node.func.attr
                    )
                    name = node.func.attr
                else:
                    continue
                if targets:
                    sites.append(CallSite(info.key, targets, name, node.lineno))
                if submitted_arg is not None:
                    self._link_submission(
                        module, info, submitted_arg, node.lineno,
                        sites, lambda_counter,
                    )
                if name == "add_commit_listener" and node.args:
                    self._link_listener(module, info, node.args[0],
                                        node.lineno, sites)
            self.calls[info.key] = sites

    def _resolve_callable_arg(self, module: str, caller: FunctionInfo,
                              arg: ast.AST) -> list[FunctionInfo]:
        if isinstance(arg, ast.Name):
            return self.resolve_name(module, arg.id)
        if isinstance(arg, ast.Attribute):
            chain = dotted_chain(arg)
            if chain:
                return self.resolve_attr(module, caller, chain, arg.attr)
        return []

    def _link_submission(self, module, caller, arg, lineno, sites,
                         lambda_counter) -> None:
        if isinstance(arg, ast.Lambda):
            lambda_counter[0] += 1
            qual = "%s.<lambda#%d>" % (caller.qualname, lambda_counter[0])
            info = FunctionInfo(module, qual, "<lambda>", caller.cls,
                                arg, arg.lineno)
            self.functions[info.key] = info
            self.calls.setdefault(info.key, [])
            targets = [info]
        else:
            targets = self._resolve_callable_arg(module, caller, arg)
        for target in targets:
            self.submitted.add(target.key)
        if targets:
            sites.append(CallSite(caller.key, targets, "<submitted>",
                                  lineno, submitted=True))

    def _link_listener(self, module, caller, arg, lineno, sites) -> None:
        """``add_commit_listener(f)``: *f* runs later inside every commit;
        the registration edge keeps the listener's effects reachable."""
        targets = self._resolve_callable_arg(module, caller, arg)
        for target in targets:
            self.listeners.add(target.key)
        if targets:
            sites.append(CallSite(caller.key, targets, "<listener>", lineno))

    # -- queries ------------------------------------------------------------------

    def entry_methods(self, module_suffix: str, class_name: str):
        """Public (non-underscore) methods of ``class_name`` in the module
        whose normalized path ends with ``module_suffix``."""
        out = []
        for info in self.functions.values():
            if (
                info.cls == class_name
                and info.module.endswith(module_suffix)
                and info.qualname == "%s.%s" % (class_name, info.name)
                and not info.name.startswith("_")
            ):
                out.append(info)
        return sorted(out, key=lambda f: (f.module, f.lineno))

    def class_carries_sqlstate(self, name: str) -> bool:
        """Whether every project class named *name* (or an ancestor of it)
        assigns ``sqlstate``; unknown (non-project) bases carry nothing."""
        infos = self.classes.get(name, [])
        if not infos:
            return False
        return all(self._carries(info, set()) for info in infos)

    def _carries(self, info: ClassInfo, seen: set[str]) -> bool:
        if info.assigns_sqlstate:
            return True
        seen.add(info.name)
        for base in info.bases:
            if base in seen:
                continue
            for parent in self.classes.get(base, []):
                if self._carries(parent, seen):
                    return True
        return False

    def class_derives(self, name: str, root: str) -> bool:
        """Whether any project class named *name* derives from *root*."""
        for info in self.classes.get(name, []):
            if self._derives(info, root, set()):
                return True
        return False

    def _derives(self, info: ClassInfo, root: str, seen: set[str]) -> bool:
        if info.name == root:
            return True
        seen.add(info.name)
        for base in info.bases:
            if base == root:
                return True
            if base in seen:
                continue
            for parent in self.classes.get(base, []):
                if self._derives(parent, root, seen):
                    return True
        return False


def _base_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _collect_class_attrs(cls_node: ast.ClassDef, info: ClassInfo) -> None:
    for stmt in cls_node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.class_attrs.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            info.class_attrs.add(stmt.target.id)
    for node in ast.walk(cls_node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
            and isinstance(node.targets[0].value, ast.Name)
            and node.targets[0].value.id == "self"
        ):
            info.self_attrs.add(node.targets[0].attr)
