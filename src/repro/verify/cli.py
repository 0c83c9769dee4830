"""``repro-verify`` — one front door for the verification toolbox.

Subcommands map onto the four verification surfaces (see the README
verification matrix):

* ``repro-verify lint [paths...]``  — reprolint, per-file invariant rules
* ``repro-verify flow [paths...]``  — reproflow, interprocedural protocol
  analysis
* ``repro-verify plan``             — plan-verifier sweep over a demo
  in-memory database (every planned statement must verify clean)
* ``repro-verify mc --all``         — explicit-state model checker +
  lock-order analysis
* ``repro-verify mutate``           — repromutate, callgraph-guided
  mutation analysis scoring the battery's kill rate
* ``repro-verify impact <spec>``    — test files statically reaching
  ``<module>::<symbol>``

``--json`` before the subcommand switches every tool to its JSON report;
each tool also accepts its own flags after the subcommand name
(``repro-verify mc --scenario commit-vs-checkpoint``).  Exit status is
non-zero whenever the selected tool found a problem, so any subcommand
can gate CI directly.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _plan_sweep(as_json: bool) -> int:
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

    if as_json:
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


#: Subcommand -> one-line purpose, also the dispatch table order.
COMMANDS = {
    "lint": "reprolint per-file invariant rules",
    "flow": "reproflow interprocedural protocol analysis",
    "plan": "plan-verifier sweep over a demo database",
    "mc": "model checker + lock-order analysis",
    "mutate": "callgraph-guided mutation analysis",
    "impact": "test files statically reaching a symbol",
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Split at the subcommand token by hand: everything after it belongs to
    # the delegated tool verbatim (argparse.REMAINDER chokes when the first
    # passthrough token looks like an option, e.g. `mc --list`).
    command = None
    rest: list[str] = []
    head = argv
    for i, token in enumerate(argv):
        if token in COMMANDS:
            head, command, rest = argv[:i], token, argv[i + 1:]
            break

    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="verification toolbox front door (lint / flow / plan / "
                    "mc / mutate / impact); arguments after the subcommand "
                    "are passed to the tool (see `repro-verify <cmd> "
                    "--help`)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the selected tool's JSON report")
    parser.add_argument(
        "command", choices=sorted(COMMANDS),
        metavar="{%s}" % ",".join(COMMANDS),
        help="; ".join("%s: %s" % kv for kv in COMMANDS.items()),
    )
    args = parser.parse_args(head + ([command] if command else []))

    if args.as_json and "--json" not in rest:
        rest.append("--json")

    if args.command == "lint":
        from repro.verify.lint import main as lint_main

        return lint_main(rest)
    if args.command == "flow":
        from repro.verify.flow import main as flow_main

        return flow_main(rest)
    if args.command == "mc":
        from repro.verify.mc.__main__ import main as mc_main

        return mc_main(rest)
    if args.command == "mutate":
        from repro.verify.mutate.__main__ import main as mutate_main

        return mutate_main(rest)
    if args.command == "impact":
        from repro.verify.mutate.__main__ import impact_main

        return impact_main(rest)
    return _plan_sweep(args.as_json)


if __name__ == "__main__":
    # Re-import under the canonical module name so shared registries
    # (lint rules) are the ones library imports populated.
    from repro.verify.cli import main as _canonical_main

    raise SystemExit(_canonical_main())
