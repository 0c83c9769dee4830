"""reprolint — the repo's one static checker, over one parse.

The engine's correctness rests on *glue invariants* that span subsystems
(sim-clock cost charging, seeded randomness, lock discipline in
worker-pool callables, the write/snapshot/invalidation protocol).  None
of them are enforceable by the type system or by unit tests alone, so
this module is a small static checker with one loader, one rule registry
and one report:

* **one loader** — :func:`load_paths` reads and parses every file once
  into a :class:`FileContext` (path, source, tree, suppression table);
  the same contexts feed the per-file rules and the project-wide
  :class:`~repro.verify.flow.callgraph.ProjectIndex`;
* **two rule scopes** — rules register through :func:`rule`.  A *file*
  rule receives one :class:`FileContext` and yields ``(line, message)``;
  a *project* rule (``project=True``, the interprocedural protocol rules
  of :mod:`repro.verify.flow.protocols`) receives the index and yields
  ``(module, line, message)``.  Project findings are kept only for
  engine modules (:func:`engine_module`): tests, benchmarks and the
  verification tooling drive the engine in ways its protocols do not
  bind, so one run can cover ``src tests benchmarks``;
* **one suppression grammar** — a finding is suppressed per line with a
  justification comment::

      some_call()  # lint-ok: rule-name (why this is intentional)

  or, for a whole statement, on the line directly above.  A suppression
  without a parenthesised justification still silences the finding but
  is itself reported by the ``suppression-justification`` meta-rule, and
  on full runs a suppression naming a rule that no longer fires on its
  line is reported as ``stale-suppression``.

Run it as ``python -m repro.verify.cli lint src tests benchmarks``; the
exit status is non-zero when any unsuppressed finding remains.  The file
rules live in :mod:`repro.verify.rules`.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from functools import cached_property

from repro.verify.flow.callgraph import ProjectIndex

#: Suppression comment: ``# lint-ok: rule-a,rule-b (justification)``.
_SUPPRESS_RE = re.compile(
    r"#\s*lint-ok:\s*(?P<rules>[a-z0-9_,\s-]+?)\s*(?:\((?P<why>.*)\))?\s*$"
)

#: Rules the framework runs itself, after every registered rule.
META_RULES = {
    "suppression-justification":
        "every lint-ok suppression carries a (justification)",
    "stale-suppression":
        "lint-ok comment names a rule that no longer fires on its line "
        "(full runs only)",
}


@dataclass(frozen=True)
class Finding:
    """One lint finding (possibly suppressed)."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    justification: str | None = None

    def render(self) -> str:
        tag = " [suppressed: %s]" % (self.justification or "no justification") \
            if self.suppressed else ""
        return "%s:%d: [%s] %s%s" % (self.path, self.line, self.rule,
                                     self.message, tag)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


@dataclass
class Suppression:
    rules: set[str]
    justification: str | None


def normalize_module(path: str) -> str:
    """'/'-separated path used for scoping and module identity."""
    return path.replace(os.sep, "/")


def engine_module(module: str) -> bool:
    """True for engine source: under ``repro/``, outside ``repro/verify/``
    (the sanitizer and the model checker implement the tracking and own
    raw primitives by design)."""
    return "repro/" in module and "repro/verify/" not in module


@dataclass
class FileContext:
    """Everything a rule may consult about one source file."""

    path: str           # path as given on the command line (for reporting)
    module: str         # normalised, '/'-separated path (for scoping rules)
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    suppressions: dict[int, Suppression] = field(default_factory=dict)

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree, walked once and shared by all rules."""
        return list(ast.walk(self.tree))

    def in_package(self, *parts: str) -> bool:
        """True when the file lives under ``repro/<part>/`` for any part
        (or is the module ``repro/<part>.py``)."""
        for part in parts:
            if "/%s/" % part in self.module or self.module.endswith(
                "/%s.py" % part
            ):
                return True
        return False

    def suppression_for(self, rule_name: str, line: int) -> Suppression | None:
        """A suppression covering ``rule_name`` at ``line`` (same line or
        the pure-comment line directly above)."""
        site = self.suppression_site(rule_name, line)
        return self.suppressions[site] if site is not None else None

    def suppression_site(self, rule_name: str, line: int) -> int | None:
        """Line number of the suppression covering ``rule_name`` at
        ``line``, or None.  Exposed separately so the stale-suppression
        check can credit the *specific* comment a finding used."""
        for candidate in (line, line - 1):
            sup = self.suppressions.get(candidate)
            if sup is None:
                continue
            if candidate == line - 1:
                # Comment-above style only counts for whole-comment lines;
                # a trailing suppression belongs to its own line.
                text = self.lines[candidate - 1].strip() if (
                    0 < candidate <= len(self.lines)
                ) else ""
                if not text.startswith("#"):
                    continue
            if rule_name in sup.rules or "all" in sup.rules:
                return candidate
        return None

    def string_literal_lines(self) -> set[int]:
        """Lines covered by string/bytes constants — suppression-looking
        text inside a literal (fixture corpora embedded in test files,
        docstring examples) is data, not a live suppression."""
        covered: set[int] = set()
        for node in self.nodes:
            if isinstance(node, ast.Constant) and isinstance(
                node.value, (str, bytes)
            ):
                end = getattr(node, "end_lineno", None) or node.lineno
                covered.update(range(node.lineno, end + 1))
        return covered


class Rule:
    """A registered rule.  A file rule's ``check(ctx)`` yields ``(line,
    message)``; a project rule's ``check(index)`` yields ``(module, line,
    message)``."""

    def __init__(self, name: str, description: str, check, project: bool):
        self.name = name
        self.description = description
        self.check = check
        self.project = project


_REGISTRY: dict[str, Rule] = {}


def rule(name: str, description: str, project: bool = False):
    """Decorator registering a rule function in the global registry."""

    def decorate(fn):
        if name in _REGISTRY:
            raise ValueError("duplicate lint rule %r" % name)
        _REGISTRY[name] = Rule(name, description, fn, project)
        return fn

    return decorate


def registered_rules() -> dict[str, Rule]:
    # Imported lazily: both rule modules import this one for the decorator.
    from repro.verify import rules  # noqa: F401
    from repro.verify.flow import protocols  # noqa: F401

    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# the loader
# ---------------------------------------------------------------------------


def _parse_suppressions(lines: list[str]) -> dict[int, Suppression]:
    table: dict[int, Suppression] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        names = {
            part.strip() for part in match.group("rules").split(",") if part.strip()
        }
        why = match.group("why")
        table[lineno] = Suppression(names, why.strip() if why else None)
    return table


def make_context(source: str, path: str = "<memory>") -> FileContext:
    """Parse one source string into a :class:`FileContext`."""
    lines = source.splitlines()
    return FileContext(
        path=path,
        module=normalize_module(path),
        source=source,
        tree=ast.parse(source, filename=path),
        lines=lines,
        suppressions=_parse_suppressions(lines),
    )


def iter_python_files(paths: list[str]):
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [
                d for d in sorted(dirnames)
                if d not in ("__pycache__", ".git")
            ]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def load_paths(paths: list[str]) -> list[FileContext]:
    """Read and parse every ``.py`` file under ``paths``, once."""
    files = []
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as handle:
            files.append(make_context(handle.read(), file_path))
    return files


def load_sources(sources: dict[str, str]) -> list[FileContext]:
    """Parse a ``{path: source}`` mapping (fixture corpora in tests)."""
    return [make_context(source, path)
            for path, source in sorted(sources.items())]


# ---------------------------------------------------------------------------
# running and reporting
# ---------------------------------------------------------------------------


def lint_files(
    files: list[FileContext], rules: list[str] | None = None
) -> list[Finding]:
    """Run the selected rules (all when ``rules`` is empty) over parsed
    files; returns every finding, suppressed ones included."""
    only = rules or None
    registry = registered_rules()
    selected = [r for r in registry.values() if only is None or r.name in only]
    raw: dict[str, list[tuple[str, int, str]]] = {f.module: [] for f in files}
    for rule_obj in selected:
        if not rule_obj.project:
            for ctx in files:
                raw[ctx.module].extend(
                    (rule_obj.name, line, message)
                    for line, message in rule_obj.check(ctx)
                )
    project_rules = [r for r in selected if r.project]
    if project_rules:
        index = ProjectIndex(files)
        for rule_obj in project_rules:
            for module, line, message in rule_obj.check(index):
                if engine_module(module):
                    raw[module].append((rule_obj.name, line, message))
    findings: list[Finding] = []
    for ctx in files:
        findings.extend(_report(ctx, raw[ctx.module], only, registry))
    return findings


def lint_source(
    source: str, path: str = "<memory>", rules: list[str] | None = None
) -> list[Finding]:
    """Lint one source string; returns every finding (suppressed included)."""
    return lint_files([make_context(source, path)], rules)


def lint_sources(
    sources: dict[str, str], rules: list[str] | None = None
) -> list[Finding]:
    """Lint a ``{path: source}`` corpus as one project."""
    return lint_files(load_sources(sources), rules)


def lint_paths(paths: list[str], rules: list[str] | None = None) -> list[Finding]:
    return lint_files(load_paths(paths), rules)


def _report(
    ctx: FileContext,
    raw: list[tuple[str, int, str]],
    only: list[str] | None,
    registry: dict[str, Rule],
) -> list[Finding]:
    findings: list[Finding] = []
    for name, line, message in raw:
        sup = ctx.suppression_for(name, line)
        findings.append(
            Finding(
                rule=name,
                path=ctx.path,
                line=line,
                message=message,
                suppressed=sup is not None,
                justification=sup.justification if sup else None,
            )
        )
    findings.extend(_check_suppression_justifications(ctx, only))
    findings.extend(_check_stale_suppressions(ctx, only, findings, registry))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _check_suppression_justifications(
    ctx: FileContext, only: list[str] | None
) -> list[Finding]:
    """Meta-rule: every suppression must carry a justification."""
    if only and "suppression-justification" not in only:
        return []
    out = []
    for lineno, sup in sorted(ctx.suppressions.items()):
        if not sup.justification:
            out.append(
                Finding(
                    rule="suppression-justification",
                    path=ctx.path,
                    line=lineno,
                    message="lint-ok suppression of %s has no (justification)"
                    % ", ".join(sorted(sup.rules)),
                )
            )
    return out


def _check_stale_suppressions(
    ctx: FileContext,
    only: list[str] | None,
    findings: list[Finding],
    registry: dict[str, Rule],
) -> list[Finding]:
    """Meta-rule ``stale-suppression``: a ``lint-ok`` comment naming a
    rule that no longer fires on its line is a finding.

    A stale suppression is worse than dead weight — it documents an
    invariant violation that was since fixed (or moved), and it would
    silently swallow the *next* finding to land on that line.  Staleness
    is only decidable on full runs: with ``--rule`` selection a rule may
    simply not have been given the chance to fire, so partial runs skip
    the check entirely.

    Judgement is per rule *name* within a suppression comment: the
    comment ``# lint-ok: a,b (...)`` is stale for ``a`` alone when only
    ``b`` still fires.  Names that aren't registered rules are skipped
    (they may belong to other tools); lines inside string literals are
    data, not suppressions.
    """
    if only is not None:
        return []
    used: set[tuple[int, str]] = set()
    for finding in findings:
        if finding.suppressed:
            site = ctx.suppression_site(finding.rule, finding.line)
            if site is not None:
                used.add((site, finding.rule))
    literal_lines = None  # computed lazily: most files have no suppressions
    out: list[Finding] = []
    for lineno, sup in sorted(ctx.suppressions.items()):
        stale = [
            name for name in sorted(sup.rules)
            if name in registry and (lineno, name) not in used
        ]
        if not stale:
            continue
        if literal_lines is None:
            literal_lines = ctx.string_literal_lines()
        if lineno in literal_lines:
            continue
        for name in stale:
            message = (
                "suppression of %r is stale: the rule no longer fires here"
                % name
            )
            sup_site = ctx.suppression_site("stale-suppression", lineno)
            shadow = ctx.suppressions.get(sup_site) if sup_site is not None \
                else None
            out.append(
                Finding(
                    rule="stale-suppression",
                    path=ctx.path,
                    line=lineno,
                    message=message,
                    suppressed=shadow is not None,
                    justification=shadow.justification if shadow else None,
                )
            )
    return out
