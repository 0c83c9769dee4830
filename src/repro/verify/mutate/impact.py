"""Tests-aware call graph: which test files statically reach a symbol.

Builds on :class:`repro.verify.flow.callgraph.ProjectIndex`, with two
deliberate differences from the reproflow configuration:

* the ambiguity limit is raised (:data:`TEST_AMBIGUITY_LIMIT`): reproflow
  drops generic-name call edges so its must-reach obligations cannot go
  vacuous, but for kill-set *selection* the over-approximation direction
  flips — a spurious edge only means running one extra test file, while a
  dropped edge means a mutant silently classified unreached.  The
  unreached report is still the soundness backstop (DESIGN.md note 16);
* bare-name calls that resolve to a project *class* link to that class's
  ``__init__`` (and unresolved bare names fall back to any project
  function with that name), because tests construct engines by class name
  through package re-exports (``from repro.database import Database``)
  that suffix-based module resolution cannot see through.

The map answers two queries:

* ``tests_reaching(module, qualname)`` — test files whose transitive call
  closure contains the symbol, most-specific first (direct call edges to
  the symbol, then into its module, then smallest closure);
* ``symbol_at(module, lineno)`` — the innermost function enclosing a
  source line, i.e. the symbol a mutation at that line lands in.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field

from repro.verify.flow.callgraph import FunctionInfo, ProjectIndex
from repro.verify.lint import iter_python_files, load_sources

#: Opaque-call threshold for the tests-aware graph (reproflow uses 3).
TEST_AMBIGUITY_LIMIT = 64


class TestAwareIndex(ProjectIndex):
    """ProjectIndex with constructor linking and a permissive ambiguity
    limit — the right over-approximation posture for test selection."""

    ambiguity_limit = TEST_AMBIGUITY_LIMIT

    def _constructor_targets(self, name: str) -> list[FunctionInfo]:
        out = []
        for info in self.classes.get(name, []):
            init = self.functions.get((info.module, "%s.__init__" % name))
            if init is not None:
                out.append(init)
        return out

    def resolve_name(self, module: str, name: str) -> list[FunctionInfo]:
        targets = super().resolve_name(module, name)
        ctors = self._constructor_targets(name)
        if not targets:
            # Package re-exports (`from repro.database import Database`)
            # defeat suffix-based module resolution; fall back to every
            # project function with the name, capped like attribute calls.
            fallback = list(self._toplevel_by_name.get(name, []))
            if len(fallback) <= self.ambiguity_limit:
                targets = fallback
        return _dedup(targets + ctors)

    def resolve_attr(self, module: str, caller, chain, name):
        targets = super().resolve_attr(module, caller, chain, name)
        return _dedup(targets + self._constructor_targets(name))


def _dedup(infos: list[FunctionInfo]) -> list[FunctionInfo]:
    seen: set[tuple[str, str]] = set()
    out = []
    for info in infos:
        if info.key not in seen:
            seen.add(info.key)
            out.append(info)
    return out


@dataclass
class ImpactMap:
    """Reachability from every test file into the project graph."""

    index: TestAwareIndex
    #: symbol key -> set of test-file modules reaching it
    reached_by: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    #: test-file module -> number of symbols its closure contains
    closure_size: dict[str, int] = field(default_factory=dict)
    #: test-file module -> {target module: direct call-edge count}
    direct_refs: dict[str, dict[str, int]] = field(default_factory=dict)
    #: test-file module -> {target symbol key: direct call-edge count}
    symbol_refs: dict[str, dict[tuple[str, str], int]] = field(
        default_factory=dict)
    #: module -> functions sorted by line for symbol_at lookups
    _by_module: dict[str, list[FunctionInfo]] = field(default_factory=dict)

    @classmethod
    def build(cls, sources: dict[str, str],
              test_prefix: str = "tests/") -> "ImpactMap":
        index = TestAwareIndex(load_sources(sources))
        impact = cls(index=index)
        for info in index.functions.values():
            impact._by_module.setdefault(info.module, []).append(info)
        for infos in impact._by_module.values():
            infos.sort(key=lambda f: f.lineno)
        for test_module in sorted(index.lines):
            if not _is_test_module(test_module, test_prefix):
                continue
            closure = impact._closure_from(test_module)
            impact.closure_size[test_module] = len(closure)
            impact.direct_refs[test_module] = impact._direct_refs(test_module)
            for key in closure:
                impact.reached_by.setdefault(key, set()).add(test_module)
        return impact

    def _direct_refs(self, test_module: str) -> dict[str, int]:
        """Call-edge counts from functions *defined in the test file* into
        each project module.  Transitive closures in this graph are so
        over-approximated that nearly every test reaches nearly every
        symbol (the permissive ambiguity limit is deliberate — see the
        module docstring); the *direct* edge profile is the signal that
        survives it.  A test file with forty direct calls into
        ``durability/manager.py`` exercises that module on purpose; one
        that merely reaches it through ``Database.execute`` does not.

        Also populates :attr:`symbol_refs` — the same counts at function
        granularity, so ranking can put a test that calls the mutated
        symbol *itself* ahead of one that merely hammers its module."""
        refs: dict[str, int] = {}
        by_key = self.symbol_refs.setdefault(test_module, {})
        for info in self._by_module.get(test_module, []):
            for site in self.index.calls.get(info.key, []):
                for target in site.targets:
                    if target.module != test_module:
                        refs[target.module] = refs.get(target.module, 0) + 1
                        by_key[target.key] = by_key.get(target.key, 0) + 1
        return refs

    def _closure_from(self, test_module: str) -> set[tuple[str, str]]:
        """Every function key reachable from any function defined in the
        test file — fixtures and helpers included, so pytest's implicit
        fixture injection cannot hide an edge at file granularity."""
        roots = [
            info.key for info in self._by_module.get(test_module, [])
        ]
        seen: set[tuple[str, str]] = set(roots)
        queue = deque(roots)
        while queue:
            key = queue.popleft()
            for site in self.index.calls.get(key, []):
                for target in site.targets:
                    if target.key not in seen:
                        seen.add(target.key)
                        queue.append(target.key)
        return seen

    # -- queries ---------------------------------------------------------------

    def symbol_at(self, module: str, lineno: int) -> FunctionInfo | None:
        """Innermost function of *module* whose body spans *lineno*."""
        best: FunctionInfo | None = None
        for info in self._by_module.get(module, []):
            node = info.node
            end = getattr(node, "end_lineno", None) or node.lineno
            if node.lineno <= lineno <= end:
                if best is None or node.lineno >= best.node.lineno:
                    best = info
        return best

    def tests_reaching(self, module: str, qualname: str | None) -> list[str]:
        """Test files reaching ``module::qualname``, most specific first.

        Specificity ranks by (1) direct call edges from the test file to
        the mutated symbol itself, then (2) direct edges into the mutant's
        module — the signals that survive the deliberately
        over-approximated transitive closure — then (3) closure size
        (smaller = more focused), then name for determinism.

        ``qualname=None`` (a module-level mutation site) widens to every
        test reaching *any* symbol of the module — the conservative
        choice, since module-level code runs on import.
        """
        if qualname is not None:
            files = self.reached_by.get((module, qualname), set())
        else:
            files = set()
            for info in self._by_module.get(module, []):
                files |= self.reached_by.get(info.key, set())
        key = (module, qualname)
        return sorted(files, key=lambda f: (
            -self.symbol_refs.get(f, {}).get(key, 0),
            -self.direct_refs.get(f, {}).get(module, 0),
            self.closure_size.get(f, 0),
            f,
        ))


def _is_test_module(module: str, test_prefix: str) -> bool:
    name = module.rsplit("/", 1)[-1]
    return module.startswith(test_prefix) and name.startswith("test_")


def load_project_sources(root: str, dirs: tuple[str, ...] = ("src", "tests"),
                         ) -> dict[str, str]:
    """Read every ``.py`` under ``root/<dir>`` keyed by root-relative,
    '/'-separated path (the module vocabulary of the whole analyzer)."""
    sources: dict[str, str] = {}
    for sub in dirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for path in iter_python_files([base]):
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "r", encoding="utf-8") as handle:
                sources[rel] = handle.read()
    return sources


# -- symbol-spec resolution for the `repro-verify impact` CLI -----------------


def resolve_symbol_spec(impact: ImpactMap, spec: str):
    """Resolve ``<module>::<symbol>`` to matching FunctionInfo entries.

    The module part accepts a dotted module (``repro.parallel.pool``), a
    path (``src/repro/parallel/pool.py``) or any unambiguous suffix of
    one; the symbol part is a qualname (``Transaction.commit``) or a bare
    name matched against qualname tails.
    """
    if "::" not in spec:
        raise ValueError("symbol spec must look like <module>::<symbol>")
    mod_part, sym_part = spec.split("::", 1)
    suffix = mod_part.replace(".", "/")
    if not suffix.endswith(".py"):
        suffix += ".py"
    modules = sorted(
        m for m in impact.index.lines if m.endswith(suffix)
    )
    matches = []
    for module in modules:
        for info in impact._by_module.get(module, []):
            if info.qualname == sym_part or info.qualname.endswith(
                "." + sym_part
            ) or info.name == sym_part:
                matches.append(info)
    return matches
