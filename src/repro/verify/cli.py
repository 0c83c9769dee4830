"""``repro-verify`` — one front door for the verification toolbox.

One parser, one subcommand per tool (see the README verification
matrix):

* ``repro-verify lint [paths...]``  — reprolint: every static rule, the
  per-file ones and the interprocedural protocol rules, over one parse
* ``repro-verify plan``             — plan-verifier sweep over a demo
  in-memory database (every planned statement must verify clean)
* ``repro-verify mc --all``         — explicit-state model checker +
  lock-order analysis
* ``repro-verify mutate``           — repromutate, callgraph-guided
  mutation analysis scoring the battery's kill rate
* ``repro-verify impact <spec>``    — test files statically reaching
  ``<module>::<symbol>``

``--json`` (before or after the subcommand) switches any tool to its JSON
report.  Exit status is non-zero whenever the selected tool found a
problem, so any subcommand can gate CI directly.  ``python -m
repro.verify.cli`` is the same command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import repro
from repro.verify import lint
from repro.verify.mc import explorer, lockorder, scenarios
from repro.verify.mutate import engine as mutation
from repro.verify.mutate.impact import (
    ImpactMap,
    load_project_sources,
    resolve_symbol_spec,
)
from repro.verify.mutate.operators import ALL_OPERATORS

#: The statements the ``plan`` sweep compiles and verifies.  Deliberately
#: spans every operator family the verifier has rules for: scans with
#: pushdown, joins, grouped and global aggregation, sort/limit, DISTINCT
#: and expression projection.
PLAN_SWEEP_CORPUS = (
    "SELECT a, b FROM t WHERE a > 10",
    "SELECT a + b AS s, d FROM t WHERE c = 'v1'",
    "SELECT c, SUM(a) AS total, COUNT(*) AS n FROM t GROUP BY c",
    "SELECT MAX(d) FROM t",
    "SELECT DISTINCT c FROM t",
    "SELECT a FROM t ORDER BY b DESC FETCH FIRST 5 ROWS ONLY",
    "SELECT t.a, dim.w FROM t JOIN dim ON t.c = dim.c WHERE dim.w > 20",
    "SELECT c, COUNT(*) AS n FROM t GROUP BY c ORDER BY n DESC",
)


def _plan(args) -> int:
    """Plan the demo corpus against an in-memory engine and verify every
    operator tree statically — the smoke-test twin of the full sweep in
    ``tests/test_verify_plan.py``."""
    from repro.database import Database
    from repro.sql.parser import parse_statement
    from repro.verify.plan import verify_plan

    db = Database()
    session = db.connect("db2")
    session.execute(
        "CREATE TABLE t (a INT, b INT, c VARCHAR(4), d DECIMAL(8,2))"
    )
    session.execute("CREATE TABLE dim (c VARCHAR(4) PRIMARY KEY, w INT)")
    session.execute(
        "INSERT INTO t VALUES "
        + ", ".join(
            "(%d, %d, 'v%d', %d.50)" % (i, i * 3 % 17, i % 4, i)
            for i in range(64)
        )
    )
    session.execute(
        "INSERT INTO dim VALUES "
        + ", ".join("('v%d', %d)" % (i, i * 10) for i in range(4))
    )

    report = []
    failed = False
    for sql in PLAN_SWEEP_CORPUS:
        db.last_scans = []
        planned = db._planner(session).plan(parse_statement(sql))
        issues = verify_plan(planned.bind(on_scan=db.note_scan), database=db)
        report.append({
            "sql": sql,
            "issues": [
                {"operator": i.operator, "code": i.code, "message": i.message}
                for i in issues
            ],
        })
        if issues:
            failed = True

    if args.as_json:
        print(json.dumps(
            {"statements": report,
             "failed": sum(1 for r in report if r["issues"])},
            indent=2,
        ))
    else:
        for entry in report:
            status = "ok" if not entry["issues"] else "ISSUES"
            print("%-8s %s" % (status, entry["sql"]))
            for issue in entry["issues"]:
                print("         [%s] %s: %s" % (
                    issue["code"], issue["operator"], issue["message"]
                ))
        print(
            "repro-verify plan: %d statement(s), %d with issues"
            % (len(report), sum(1 for r in report if r["issues"])),
            file=sys.stderr,
        )
    return 1 if failed else 0


def _lint(args) -> int:
    registry = lint.registered_rules()
    if args.list_rules:
        rows = {name: r.description for name, r in registry.items()}
        rows.update(lint.META_RULES)
        for name in sorted(rows):
            print("%-26s %s" % (name, rows[name]))
        return 0
    unknown = sorted(set(args.rules or ()) - set(registry) - set(lint.META_RULES))
    if unknown:
        args.usage_error("unknown rule(s): %s" % ", ".join(unknown))

    findings = lint.lint_paths(args.paths, args.rules)
    active = [f for f in findings if not f.suppressed]
    suppressed = len(findings) - len(active)
    if args.as_json:
        print(json.dumps(
            {
                "findings": [f.to_json() for f in findings],
                "unsuppressed": len(active),
                "suppressed": suppressed,
            },
            indent=2,
        ))
    else:
        for finding in findings if args.show_suppressed else active:
            print(finding.render())
        print("reprolint: %d finding(s), %d suppressed"
              % (len(active), suppressed), file=sys.stderr)
    return 1 if active else 0


def _mc(args) -> int:
    if args.list:
        for scenario in scenarios.SCENARIOS:
            crash = " [crash]" if scenario.crashes else ""
            print("%-28s %s%s" % (scenario.name, scenario.description, crash))
        return 0

    out: dict = {"scenarios": [], "lock_order": None}
    failed = False
    if not args.lock_order:
        if args.all:
            targets = list(scenarios.SCENARIOS)
        elif args.scenario:
            targets = [scenarios.by_name(name) for name in args.scenario]
        else:
            args.usage_error("pick --all, --scenario NAME, --list or "
                             "--lock-order")
        for scenario in targets:
            report = explorer.explore(scenario, budget=args.budget,
                                      preemption_bound=args.preemptions)
            if not args.as_json:
                print("%-28s %-15s schedules=%-5d states=%-6d pruned=%-5d "
                      "(%s)" % (
                          scenario.name,
                          "ok" if report.ok else "COUNTEREXAMPLE",
                          report.schedules, report.states,
                          report.pruned_runs,
                          "exhausted" if report.completed else "budget",
                      ))
                if report.counterexample is not None:
                    print(report.counterexample.render())
            out["scenarios"].append(report.to_json())
            failed |= report.counterexample is not None

    # The lock-order analysis always runs: scenario exploration has just
    # populated the runtime acquisition graph, so static and dynamic edges
    # merge (with --lock-order alone, the static graph is checked).
    src_root = os.path.dirname(os.path.abspath(repro.__file__))
    lock_report = lockorder.check(paths=(src_root,))
    out["lock_order"] = lock_report.to_json()
    failed |= not lock_report.ok
    print(json.dumps(out, indent=2) if args.as_json else lock_report.render())
    return 1 if failed else 0


def _print_mutation_report(report) -> None:
    counts = report.counts()
    print("repromutate: seed=%d budget=%.0fs wall=%.1fs"
          % (report.seed, report.budget, report.wall_seconds))
    print("  mutants: %d  killed=%d survived=%d timeout=%d unreached=%d "
          "skipped=%d" % (len(report.results), counts["killed"],
                          counts["survived"], counts["timeout"],
                          counts["unreached"], counts["skipped"]))
    rate = report.kill_rate
    print("  kill rate (reached): %s"
          % ("n/a" if rate is None else "%.2f" % rate))
    print("  per operator:")
    for name, stats in report.per_operator().items():
        op_rate = stats["kill_rate"]
        print("    %-16s sampled=%-3d killed=%-3d survived=%-3d "
              "unreached=%-3d rate=%s"
              % (name, stats["sampled"], stats["killed"], stats["survived"],
                 stats["unreached"],
                 "n/a" if op_rate is None else "%.2f" % op_rate))
    survivors = report.survivors()
    if survivors:
        print("  surviving mutants (test gaps):")
        for result in survivors:
            print("    %s — %s" % (result.mutant.mid,
                                   result.mutant.description))
            print("      ran: %s" % ", ".join(result.tests))
            for line in result.diff.splitlines():
                print("      | %s" % line)
    unreached = report.unreached()
    if unreached:
        print("  unreached mutants (no test file statically reaches the "
              "symbol):")
        for result in unreached:
            mutant = result.mutant
            print("    %s — %s::%s" % (mutant.mid, mutant.module,
                                       mutant.symbol or "<module>"))


def _mutate(args) -> int:
    if args.list_operators:
        for op in ALL_OPERATORS:
            print("%-16s %s" % (op.name, op.description))
        return 0

    run = mutation.MutationRun(
        root=args.root,
        paths=tuple(args.paths) if args.paths
        else mutation.DEFAULT_TARGET_PATHS,
        operator_names=(
            tuple(p.strip() for p in args.operators.split(",") if p.strip())
            if args.operators else None
        ),
        seed=args.seed,
        budget=args.budget,
        max_mutants=args.max_mutants or None,
        max_tests=args.max_tests,
    )

    def progress(result):
        if not args.as_json:
            print("  [%s] %s (%.1fs)" % (result.status, result.mutant.mid,
                                         result.seconds), file=sys.stderr)

    report = run.execute(progress=progress)
    report_json = report.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report_json, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.as_json:
        print(json.dumps(report_json, indent=2, sort_keys=True))
    else:
        _print_mutation_report(report)

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        regressions = mutation.compare_baseline(report_json, baseline,
                                                tolerance=args.tolerance)
        for line in regressions:
            print("REGRESSION: %s" % line, file=sys.stderr)
        if regressions:
            return 1
    return 0


def _impact(args) -> int:
    impact = ImpactMap.build(load_project_sources(args.root))
    try:
        matches = resolve_symbol_spec(impact, args.spec)
    except ValueError as exc:
        print("repro-verify impact: %s" % exc, file=sys.stderr)
        return 2
    if not matches:
        print("repro-verify impact: no symbol matches %r" % args.spec,
              file=sys.stderr)
        return 2

    entries = [
        {
            "module": info.module,
            "symbol": info.qualname,
            "line": info.lineno,
            "tests": impact.tests_reaching(info.module, info.qualname),
        }
        for info in matches
    ]
    if args.as_json:
        print(json.dumps({"spec": args.spec, "symbols": entries}, indent=2))
    else:
        for entry in entries:
            print("%s::%s (line %d)" % (entry["module"], entry["symbol"],
                                        entry["line"]))
            for test in entry["tests"]:
                print("  %s" % test)
            if not entry["tests"]:
                print("  (statically unreached by any test file)")
    return 0 if any(e["tests"] for e in entries) else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="verification toolbox front door",
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the selected tool's JSON report")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        cmd = commands.add_parser(name, help=summary, description=summary)
        # SUPPRESS keeps a --json given before the subcommand.
        cmd.add_argument("--json", action="store_true", dest="as_json",
                         default=argparse.SUPPRESS,
                         help="emit the JSON report")
        cmd.set_defaults(run=run, usage_error=cmd.error)
        return cmd

    cmd = command("lint", _lint,
                  "reprolint: every static rule over one parse")
    cmd.add_argument("paths", nargs="*", default=["src"],
                     help="files or directories to lint (default: src)")
    cmd.add_argument("--rule", action="append", dest="rules",
                     help="run only the named rule (repeatable)")
    cmd.add_argument("--list-rules", action="store_true",
                     help="list the rules and exit")
    cmd.add_argument("--show-suppressed", action="store_true",
                     help="also print suppressed findings")

    command("plan", _plan, "plan-verifier sweep over a demo database")

    cmd = command("mc", _mc, "model checker + lock-order analysis")
    cmd.add_argument("--all", action="store_true",
                     help="explore every registered scenario")
    cmd.add_argument("--scenario", action="append", default=[],
                     help="explore one scenario by name (repeatable)")
    cmd.add_argument("--list", action="store_true",
                     help="list registered scenarios and exit")
    cmd.add_argument("--budget", type=int, default=None,
                     help="total scheduled steps per scenario "
                          "(default: $%s or 5000)" % explorer.BUDGET_ENV_VAR)
    cmd.add_argument("--preemptions", type=int,
                     default=explorer.DEFAULT_PREEMPTION_BOUND,
                     help="preemption bound (default %d)"
                          % explorer.DEFAULT_PREEMPTION_BOUND)
    cmd.add_argument("--lock-order", action="store_true",
                     help="run only the static lock-order analysis")

    cmd = command("mutate", _mutate,
                  "callgraph-guided mutation analysis: inject repo-specific "
                  "faults, run only the test files that statically reach "
                  "each one, score the kill rate")
    cmd.add_argument("--seed", type=int, default=0,
                     help="seed for per-operator mutant sampling (default 0)")
    cmd.add_argument("--operators", default=None,
                     help="comma-separated operator names "
                          "(default: all; see --list-operators)")
    cmd.add_argument("--paths", nargs="*", default=None,
                     help="target files/dirs relative to --root "
                          "(default: curated engine surfaces)")
    cmd.add_argument("--budget", type=float, default=None,
                     help="total execution budget in seconds "
                          "(default: $%s or 600)" % mutation.BUDGET_ENV_VAR)
    cmd.add_argument("--max-mutants", type=int,
                     default=mutation.DEFAULT_MAX_MUTANTS,
                     help="cap on sampled mutants (0 = unlimited)")
    cmd.add_argument("--max-tests", type=int,
                     default=mutation.DEFAULT_MAX_TESTS,
                     help="test files run per mutant, most specific first "
                          "(default %d)" % mutation.DEFAULT_MAX_TESTS)
    cmd.add_argument("--root", default=".",
                     help="project root holding src/ and tests/")
    cmd.add_argument("--report", default=None, metavar="FILE",
                     help="also write the JSON report to FILE")
    cmd.add_argument("--baseline", default=None, metavar="FILE",
                     help="committed report to compare kill rates against; "
                          "regression exits 1")
    cmd.add_argument("--tolerance", type=float, default=0.05,
                     help="allowed kill-rate drop vs baseline (default 0.05)")
    cmd.add_argument("--list-operators", action="store_true",
                     help="list operators and exit")

    cmd = command("impact", _impact,
                  "print the test files whose static call closure reaches "
                  "a symbol (<module>::<symbol>)")
    cmd.add_argument("spec",
                     help="symbol spec, e.g. repro.mvcc.txn::"
                          "Transaction.commit or "
                          "src/repro/parallel/pool.py::WorkerPool.one_pass")
    cmd.add_argument("--root", default=".",
                     help="project root holding src/ and tests/")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
