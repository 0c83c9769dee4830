"""The e2e benchmark: real statement paths, four workloads, layer by layer.

One workload (the contract a benchmark driver uses)::

    python3 benchmarks/e2e/run.py --workload serve --seed 3 --seconds 12 --trace 0

prints the named metrics and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.

Everything (each workload in its own subprocess, traced pass included)::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S | --passes P]

prints all end-to-end and layer metrics, writes ``out/e2e.json`` and
appends one row to ``history.jsonl``.  ``--check`` runs only the answer
checks; ``--smoke`` runs everything at a tiny scale and asserts that every
metric ``BENCHMARK.json`` names is emitted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("analytics", "serve", "etl", "cluster")
DEFAULT_SEED = 20170419
DEFAULT_SECONDS = 15


#: Environment variables that change which code path runs: removed before
#: ``repro`` is imported by a process that executes statements, and recorded.
SCRUBBED_ENV = (
    "REPRO_PARALLELISM", "REPRO_POOL_BACKEND", "REPRO_VERIFY_PLANS",
    "REPRO_SANITIZE", "REPRO_MORSEL_BATCH",
)


def scrub_env() -> dict:
    return {name: os.environ.pop(name) for name in SCRUBBED_ENV if name in os.environ}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed passes of a workload run")
    parser.add_argument("--passes", type=int,
                        help="run exactly this many timed passes instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--scale", choices=("full", "check", "smoke"), default="full")
    parser.add_argument("--check", action="store_true",
                        help="only the answer checks (reduced scale)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale; assert every declared metric is emitted")
    return parser.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the enclosing repository, read from the files (a benchmark
    checkout need not be a repository, and then there is none)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def show(detail: dict) -> None:
    n = detail["n_ops"]
    print("%s  seed=%d  N=%d ops/pass  passes=%d  pass wall q1/med/q3 = "
          "%.3f/%.3f/%.3f s"
          % ((detail["workload"], detail["seed"], n, detail["passes"])
             + tuple(detail["pass_walls_quartiles_s"][k] for k in ("q1", "median", "q3"))))
    for section in ("end_to_end", "per_layer"):
        for name, metric in detail.get(section, {}).items():
            print("  %-36s %14.6g %-6s (N=%d)" % (name, metric["value"], metric["unit"], n))
    print("  %-36s %14.6g %-6s (%d of %d)" % (
        "error_rate", detail["error_rate"], "ratio", detail["failed"], detail["attempted"]))
    for failure in detail.get("check", {}).get("failures", []):
        print("  CHECK FAILED: %s" % failure)


def run_one(args, scrubbed) -> int:
    import harness

    trace = 1 if args.trace is None else args.trace
    detail = harness.run_workload(
        args.workload, args.seed, args.seconds, args.passes, trace,
        args.scale, scrubbed,
    )
    detail["git_sha"] = git_sha()
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s.json" % args.workload), "w") as handle:
        json.dump(detail, handle, indent=1)
    show(detail)
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": detail["per_layer" if trace else "end_to_end"],
    }))
    return 0


def run_checks(args) -> int:
    import checks

    bad = 0
    for name in ([args.workload] if args.workload else WORKLOAD_NAMES):
        tally = checks.check(name, args.seed)
        print("check %-10s seed=%d  %d compared, %d failed"
              % (name, args.seed, tally.attempted, len(tally.failures)))
        for failure in tally.failures:
            print("  " + failure)
        bad += len(tally.failures)
    return 1 if bad else 0


def run_all(args) -> int:
    """Each workload in its own subprocess (own peak RSS, own caches)."""
    started = time.time()
    scale = "smoke" if args.smoke else args.scale
    details = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", "1", "--scale", scale]
        if args.smoke:
            command += ["--passes", "1"]  # plus the traced pass
        elif args.passes is not None:
            command += ["--passes", str(args.passes)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(done.stdout)
            print("workload %s exited with %d" % (name, done.returncode))
            return 1
        print(done.stdout.rsplit("\n", 2)[0])  # all but the driver's JSON line
        with open(os.path.join(OUT_DIR, "%s.json" % name)) as handle:
            details[name] = json.load(handle)
    failed = sum(d["failed"] for d in details.values())
    if args.smoke:
        missing = smoke_assertions(details)
        for problem in missing:
            print("SMOKE: " + problem)
        print("smoke: %d problem(s), %d failed op(s), %.1f s"
              % (len(missing), failed, time.time() - started))
        return 1 if missing or failed else 0
    record = {"git_sha": git_sha(), "seed": args.seed, "claim": None,
              "workloads": details}
    with open(os.path.join(OUT_DIR, "e2e.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    if scale == "full":
        row = {"git_sha": record["git_sha"], "seed": args.seed,
               "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "end_to_end": {
                   name: {k: round(m["value"], 6) for k, m in d["end_to_end"].items()}
                   for name, d in details.items()}}
        with open(os.path.join(HERE, "history.jsonl"), "a") as handle:
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")
    print("wrote %s (%.1f s); error_rate %s"
          % (os.path.relpath(os.path.join(OUT_DIR, "e2e.json"), ROOT),
             time.time() - started, "0 on all four" if not failed else "NOT 0"))
    return 1 if failed else 0


#: Layer metrics that read 0 at smoke scale by construction (one extent
#: per table, fewer than 1,000 ops, a universe smaller than the AST cache).
NEEDS_FULL_SCALE = (
    "skipping.extents_skipped_ratio", "database.stmt_p99_ms",
    "serving.plan_evictions",
)


def smoke_assertions(details: dict) -> list[str]:
    """Every metric BENCHMARK.json names is emitted with its unit on every
    workload; every layer metric is non-zero where layers.json declares it;
    every wrapper target still resolves."""
    import layers
    import tracing

    problems = []
    try:
        tracing.resolve_all()
    except (ImportError, AttributeError, TypeError) as exc:
        problems.append("wrapper target does not resolve: %s" % exc)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    declared = {d["name"]: d for d in layers.declared()}
    named = {m["name"] for m in benchmark["per_layer"]}
    if named != set(declared):
        problems.append("BENCHMARK.json per_layer and layers.json disagree: %s"
                        % sorted(named ^ set(declared)))
    if [w["name"] for w in benchmark["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from %s" % (WORKLOAD_NAMES,))
    for workload, detail in details.items():
        for section in ("end_to_end", "per_layer"):
            for metric in benchmark[section]:
                got = detail[section].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s: %s missing or unit differs"
                                    % (workload, metric["name"]))
                elif section == "end_to_end" and not got["value"] > 0:
                    problems.append("%s: %s is not positive" % (workload, metric["name"]))
        for name, spec in declared.items():
            if name in NEEDS_FULL_SCALE:
                continue
            if workload in spec["on"] and not detail["per_layer"][name]["value"]:
                problems.append("%s: %s is declared on it but reads 0" % (workload, name))
    return problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("benchmarks/e2e: no src/repro beside it, nothing to measure")
    sys.path.insert(0, SRC)
    if args.check:
        scrub_env()
        return run_checks(args)
    if args.workload and not args.smoke:
        return run_one(args, scrub_env())
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
