"""repromutate engine: generate → select kill set → run → classify.

Determinism contract: mutant *generation* is a pure function of (sources,
operator set, seed) — operators walk the AST in source order, sampling
ranks mutant ids under a seed-keyed hash, and nothing in the generation
path reads a clock or global RNG state.  A mutant's id names *what* it
mutates, not where: operator, module, enclosing qualname and the
unparsed target node, so edits elsewhere in a file neither rename a
mutant nor re-draw the sample around it.  Only the *execution*
phase consumes wall time, and it does so under an explicit budget
(``REPRO_MUTATE_BUDGET`` seconds): mutants that never get a slot are
classified ``skipped`` rather than silently dropped.

Classification per mutant:

* ``unreached`` — no test file's static call closure contains the mutated
  symbol.  Nothing is run; the mutant is a *finding* about the test
  battery (and the soundness backstop for impact-based selection);
* ``killed``   — the selected tests fail (or crash) under the mutant;
* ``survived`` — every selected test passes: a real gap in the battery,
  reported with a witness diff;
* ``timeout``  — the selected tests exceeded the per-mutant slice;
* ``skipped``  — the run's time budget was exhausted first.

The kill rate is ``killed / (killed + survived)`` — timeouts are reported
but don't count either way (a hung mutant proves nothing about assertion
strength), and unreached mutants are excluded by definition.
"""

from __future__ import annotations

import ast
import difflib
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro.verify.lint import iter_python_files
from repro.verify.mutate.impact import ImpactMap, load_project_sources
from repro.verify.mutate.operators import Operator, resolve_operators

#: Environment knob: total execution budget in seconds.
BUDGET_ENV_VAR = "REPRO_MUTATE_BUDGET"

#: Defaults, overridable per run.
DEFAULT_BUDGET_SECONDS = 600.0
DEFAULT_PER_MUTANT_TIMEOUT = 120.0
DEFAULT_MAX_TESTS = 3
DEFAULT_MAX_MUTANTS = 64

#: Default mutation targets: the engine surfaces whose bug classes the
#: operators model.  Verification tooling itself is deliberately out of
#: scope (mutating the checker to score the checker proves nothing).
DEFAULT_TARGET_PATHS = (
    "src/repro/storage/table.py",
    "src/repro/storage/column.py",
    "src/repro/mvcc/txn.py",
    "src/repro/parallel/pool.py",
    "src/repro/engine/aggregate.py",
    "src/repro/engine/expression.py",
    "src/repro/simd/packed.py",
    "src/repro/simd/predicates.py",
    "src/repro/util/bitpack.py",
    "src/repro/durability/manager.py",
    "src/repro/database/database.py",
    "src/repro/database/plancache.py",
    "src/repro/serving/cache.py",
    "src/repro/serving/normalize.py",
)


@dataclass
class Mutant:
    """One generated mutant (pre-execution)."""

    mid: str
    operator: str
    module: str          # root-relative '/'-separated path
    lineno: int
    col: int
    ordinal: int         # index into the operator's target list for module
    description: str
    symbol: str | None = None

    def to_json(self) -> dict:
        return {
            "id": self.mid,
            "operator": self.operator,
            "module": self.module,
            "line": self.lineno,
            "col": self.col,
            "description": self.description,
            "symbol": self.symbol,
        }


@dataclass
class MutantResult:
    mutant: Mutant
    status: str                    # killed | survived | timeout | unreached | skipped
    tests: list[str] = field(default_factory=list)
    reaching: int = 0              # total reaching test files before the cap
    seconds: float = 0.0
    diff: str = ""

    def to_json(self) -> dict:
        out = self.mutant.to_json()
        out.update({
            "status": self.status,
            "tests": self.tests,
            "reaching_tests": self.reaching,
            "seconds": round(self.seconds, 3),
            "diff": self.diff,
        })
        return out


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _scopes(tree: ast.Module) -> list[tuple[int, int, str]]:
    """``(first line, last line, qualname)`` of every def and class."""
    spans: list[tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = prefix + child.name
                spans.append((child.lineno, child.end_lineno, qual))
                visit(child, qual + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return spans


def _enclosing(spans: list[tuple[int, int, str]], lineno: int) -> str:
    """Qualname of the innermost def/class spanning ``lineno``."""
    inner = max(
        (s for s in spans if s[0] <= lineno <= s[1]),
        key=lambda s: s[0], default=None,
    )
    return inner[2] if inner else "<module>"


def generate_mutants(
    sources: dict[str, str],
    operators: list[Operator],
    seed: int = 0,
    max_mutants: int | None = DEFAULT_MAX_MUTANTS,
) -> list[Mutant]:
    """Enumerate every mutation site, then (if over ``max_mutants``)
    sample a per-operator quota: the ``quota`` ids ranking first under a
    seed-keyed hash.

    Stratified sampling keeps every operator represented — the benchmark
    pins *per-operator* kill rates, so a proportional sample that starves
    ``drop-wal`` (few sites) in favour of ``constant`` (hundreds) would
    make the interesting rows vacuous.  Ranking ids rather than drawing
    positions keeps the sample stable: a new site joins it only if it
    outranks a sampled one, and never shifts the others.
    """
    per_op: dict[str, list[Mutant]] = {op.name: [] for op in operators}
    for module in sorted(sources):
        try:
            tree = ast.parse(sources[module], filename=module)
        except SyntaxError:
            continue
        spans = _scopes(tree)
        for op in operators:
            seen: dict[str, int] = {}
            for ordinal, target in enumerate(op.find(tree, module)):
                digest = hashlib.sha1(
                    ast.unparse(target.node).encode()
                ).hexdigest()[:8]
                mid = "%s@%s::%s:%s" % (op.name, module,
                                        _enclosing(spans, target.lineno),
                                        digest)
                # Identical keys (the same node text twice in one scope)
                # are told apart by their order among themselves.
                n = seen.get(mid, 0)
                seen[mid] = n + 1
                per_op[op.name].append(Mutant(
                    mid="%s#%d" % (mid, n) if n else mid,
                    operator=op.name, module=module,
                    lineno=target.lineno, col=target.col, ordinal=ordinal,
                    description=target.description,
                ))

    if max_mutants is not None:
        total = sum(len(v) for v in per_op.values())
        if total > max_mutants:
            quota = max(1, max_mutants // max(1, len(operators)))
            for name, found in per_op.items():
                per_op[name] = sorted(found, key=lambda m: hashlib.sha256(
                    ("%d:%s" % (seed, m.mid)).encode()
                ).digest())[:quota]

    out = [m for op in operators for m in per_op[op.name]]
    out.sort(key=lambda m: (m.module, m.lineno, m.col, m.operator))
    return out


def mutate_source(source: str, mutant: Mutant, op: Operator) -> tuple[str, str]:
    """Apply *mutant* to *source*; returns (mutated source, witness diff).

    Both sides of the diff are ``ast.unparse`` renderings, so the diff
    shows exactly the mutated statement(s) without formatting noise.
    """
    pristine = ast.parse(source, filename=mutant.module)
    baseline = ast.unparse(pristine) + "\n"
    tree = ast.parse(source, filename=mutant.module)
    if not op.apply(tree, mutant.module, mutant.ordinal):
        raise RuntimeError("mutant %s no longer applies" % mutant.mid)
    ast.fix_missing_locations(tree)
    mutated = ast.unparse(tree) + "\n"
    diff = "".join(
        difflib.unified_diff(
            baseline.splitlines(keepends=True),
            mutated.splitlines(keepends=True),
            fromfile="a/%s" % mutant.module,
            tofile="b/%s (%s)" % (mutant.module, mutant.mid),
            n=2,
        )
    )
    return mutated, diff


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def resolve_budget(budget: float | None) -> float:
    if budget is not None:
        return float(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        try:
            return float(env)
        except ValueError:
            raise ValueError(
                "%s must be a number of seconds, got %r" % (BUDGET_ENV_VAR, env)
            ) from None
    return DEFAULT_BUDGET_SECONDS


@dataclass
class MutationRun:
    """One full mutation-analysis run over a project tree."""

    root: str
    paths: tuple[str, ...] = DEFAULT_TARGET_PATHS
    operator_names: tuple[str, ...] | None = None
    seed: int = 0
    budget: float | None = None
    max_mutants: int | None = DEFAULT_MAX_MUTANTS
    max_tests: int = DEFAULT_MAX_TESTS
    per_mutant_timeout: float = DEFAULT_PER_MUTANT_TIMEOUT

    def target_sources(self) -> dict[str, str]:
        sources: dict[str, str] = {}
        for path in self.paths:
            absolute = os.path.join(self.root, path)
            for file_path in iter_python_files([absolute]):
                rel = os.path.relpath(file_path, self.root).replace(os.sep, "/")
                with open(file_path, "r", encoding="utf-8") as handle:
                    sources[rel] = handle.read()
        return sources

    def execute(self, progress=None) -> "MutationReport":
        operators = resolve_operators(
            list(self.operator_names) if self.operator_names else None
        )
        sources = self.target_sources()
        mutants = generate_mutants(sources, operators, self.seed,
                                   self.max_mutants)
        impact = ImpactMap.build(load_project_sources(self.root))
        for mutant in mutants:
            info = impact.symbol_at(mutant.module, mutant.lineno)
            mutant.symbol = info.qualname if info else None

        budget = resolve_budget(self.budget)
        ops_by_name = {op.name: op for op in operators}
        results: list[MutantResult] = []
        started = time.monotonic()
        workdir = tempfile.mkdtemp(prefix="repromutate-")
        try:
            self._populate_workdir(workdir)
            for mutant in mutants:
                reaching = impact.tests_reaching(mutant.module, mutant.symbol)
                if not reaching:
                    results.append(MutantResult(mutant, "unreached"))
                    continue
                selected = reaching[: self.max_tests]
                elapsed = time.monotonic() - started
                if elapsed >= budget:
                    results.append(MutantResult(
                        mutant, "skipped", tests=selected,
                        reaching=len(reaching),
                    ))
                    continue
                slot = min(self.per_mutant_timeout, budget - elapsed)
                result = self._run_one(
                    workdir, sources[mutant.module], mutant,
                    ops_by_name[mutant.operator], selected, slot,
                )
                result.reaching = len(reaching)
                results.append(result)
                if progress is not None:
                    progress(result)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return MutationReport(
            seed=self.seed,
            budget=budget,
            paths=list(self.paths),
            operators=[op.name for op in operators],
            max_tests=self.max_tests,
            results=results,
            wall_seconds=time.monotonic() - started,
        )

    # -- workdir management ----------------------------------------------------

    def _populate_workdir(self, workdir: str) -> None:
        """Copy the project into a scratch tree: mutants must never touch
        the real checkout, and a crashed run leaves no mutated file
        behind."""
        for sub in ("src", "tests"):
            src_dir = os.path.join(self.root, sub)
            if os.path.isdir(src_dir):
                shutil.copytree(
                    src_dir, os.path.join(workdir, sub),
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
        for name in ("pyproject.toml", "setup.py", "conftest.py"):
            path = os.path.join(self.root, name)
            if os.path.isfile(path):
                shutil.copy2(path, os.path.join(workdir, name))

    def _run_one(self, workdir: str, source: str, mutant: Mutant,
                 op: Operator, tests: list[str], slot: float) -> MutantResult:
        mutated, diff = mutate_source(source, mutant, op)
        target = os.path.join(workdir, *mutant.module.split("/"))
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(mutated)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(workdir, "src")
        env.pop("REPRO_VERIFY_PLANS", None)
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *tests],
                cwd=workdir, env=env, timeout=slot,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            status = (
                "survived" if proc.returncode == 0
                else "unreached" if proc.returncode == 5
                else "killed"
            )
        except subprocess.TimeoutExpired:
            status = "timeout"
        finally:
            # Restore the pristine module for the next mutant.
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(source)
        return MutantResult(
            mutant, status, tests=tests,
            seconds=time.monotonic() - started, diff=diff,
        )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

STATUSES = ("killed", "survived", "timeout", "unreached", "skipped")


def _kill_rate(killed: int, survived: int) -> float | None:
    reached = killed + survived
    return (killed / reached) if reached else None


@dataclass
class MutationReport:
    seed: int
    budget: float
    paths: list[str]
    operators: list[str]
    max_tests: int
    results: list[MutantResult]
    wall_seconds: float = 0.0

    def counts(self, operator: str | None = None) -> dict[str, int]:
        out = {status: 0 for status in STATUSES}
        for result in self.results:
            if operator is None or result.mutant.operator == operator:
                out[result.status] += 1
        return out

    @property
    def kill_rate(self) -> float | None:
        c = self.counts()
        return _kill_rate(c["killed"], c["survived"])

    def per_operator(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for name in self.operators:
            c = self.counts(name)
            c["kill_rate"] = _kill_rate(c["killed"], c["survived"])
            c["sampled"] = sum(
                1 for r in self.results if r.mutant.operator == name
            )
            out[name] = c
        return out

    def survivors(self) -> list[MutantResult]:
        return [r for r in self.results if r.status == "survived"]

    def unreached(self) -> list[MutantResult]:
        return [r for r in self.results if r.status == "unreached"]

    def to_json(self) -> dict:
        c = self.counts()
        return {
            "seed": self.seed,
            "budget_seconds": self.budget,
            "paths": self.paths,
            "operators": self.operators,
            "max_tests": self.max_tests,
            "wall_seconds": round(self.wall_seconds, 3),
            "counts": c,
            "kill_rate": self.kill_rate,
            "per_operator": self.per_operator(),
            "survivors": [r.to_json() for r in self.survivors()],
            "unreached": [r.mutant.to_json() for r in self.unreached()],
            "mutants": [r.to_json() for r in self.results],
        }


def compare_baseline(report_json: dict, baseline: dict,
                     tolerance: float = 0.05,
                     min_reached: int = 3) -> list[str]:
    """Kill-rate regressions of *report* against a committed *baseline*.

    Returns human-readable regression lines (empty = pass).  Overall kill
    rate must stay within ``tolerance`` of the baseline; per-operator
    rates are compared only where the baseline reached at least
    ``min_reached`` mutants (tiny denominators flap)."""
    regressions: list[str] = []
    base_rate = baseline.get("kill_rate")
    rate = report_json.get("kill_rate")
    if base_rate is not None:
        if rate is None:
            regressions.append(
                "no mutants reached (baseline kill rate %.2f)" % base_rate
            )
        elif rate < base_rate - tolerance:
            regressions.append(
                "overall kill rate %.2f < baseline %.2f - %.2f"
                % (rate, base_rate, tolerance)
            )
    for name, base_op in (baseline.get("per_operator") or {}).items():
        base_op_rate = base_op.get("kill_rate")
        if base_op_rate is None:
            continue
        if base_op.get("killed", 0) + base_op.get("survived", 0) < min_reached:
            continue
        current = (report_json.get("per_operator") or {}).get(name)
        if current is None:
            regressions.append("operator %s missing from run" % name)
            continue
        cur_rate = current.get("kill_rate")
        if cur_rate is not None and cur_rate < base_op_rate - tolerance:
            regressions.append(
                "operator %s kill rate %.2f < baseline %.2f - %.2f"
                % (name, cur_rate, base_op_rate, tolerance)
            )
    return regressions
