"""Mutation-adequacy benchmark — does the verification matrix bite?

Runs the canonical repromutate configuration (seed 0, full operator
catalog, curated engine surfaces, default mutant cap) and scores the
battery: every sampled mutant is either killed by the test files that
statically reach it, reported as a survivor with a witness diff, or
listed as unreached (a static finding about the battery).  Gates:

* kill rate on reached mutants >= 0.80 (the adequacy floor);
* every repo-specific operator found targets (the catalog is not
  vacuous against this tree);
* generation is deterministic (two same-seed generations byte-match).

The summary lands in ``BENCH_mutation.json`` at the repo root — the
committed copy is the baseline CI's ``mutate`` job gates against.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.verify.mutate import MutationRun, generate_mutants, resolve_operators

from conftest import banner, record

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_RESULT_PATH = _ROOT / "BENCH_mutation.json"

#: The canonical CI configuration: pinned so the committed baseline and
#: the CI run sample the identical mutant population.
CANONICAL_SEED = 0
KILL_RATE_FLOOR = 0.80


def _budget() -> float:
    return float(os.environ.get("REPRO_MUTATE_BUDGET", "1500"))


def test_mutation_adequacy():
    run = MutationRun(root=str(_ROOT), seed=CANONICAL_SEED, budget=_budget())

    # Generation determinism is cheap to check here and load-bearing for
    # the baseline: CI re-samples the same population only because the
    # generator is seed-pure.
    ops = resolve_operators(None)
    sources = run.target_sources()
    first = [m.to_json() for m in generate_mutants(sources, ops, run.seed,
                                                   run.max_mutants)]
    second = [m.to_json() for m in generate_mutants(sources, ops, run.seed,
                                                    run.max_mutants)]
    assert first == second

    report = run.execute()
    payload = report.to_json()
    counts = payload["counts"]

    banner(
        "Mutation adequacy (seed=%d, %d mutants, budget=%.0fs)"
        % (report.seed, len(report.results), report.budget),
        [
            "%-18s sampled=%-3d killed=%-3d survived=%-3d unreached=%-3d "
            "rate=%s"
            % (
                name, stats["sampled"], stats["killed"], stats["survived"],
                stats["unreached"],
                "n/a" if stats["kill_rate"] is None
                else "%.2f" % stats["kill_rate"],
            )
            for name, stats in payload["per_operator"].items()
        ]
        + [
            "overall: killed=%d survived=%d timeout=%d unreached=%d "
            "skipped=%d -> kill rate %.2f"
            % (counts["killed"], counts["survived"], counts["timeout"],
               counts["unreached"], counts["skipped"],
               payload["kill_rate"] or 0.0),
        ],
    )
    record(
        "mutation",
        mutants=len(report.results),
        killed=counts["killed"],
        survived=counts["survived"],
        unreached=counts["unreached"],
        kill_rate=payload["kill_rate"],
    )

    # Every repo-specific operator must have found real targets: an
    # operator with zero sites would make its baseline row vacuous.
    # (``commute-merge`` is not in the list: PR 18 deleted the state-merge
    # path that held every one of its targets, so it samples none.)
    for name in ("drop-wal", "drop-commit-hook", "swap-xmin-xmax",
                 "off-by-one", "drop-lock", "invert-predicate"):
        assert payload["per_operator"][name]["sampled"] >= 1, name

    # Unreached mutants are findings, never silent drops: the bucket
    # count must match the explicit listing.
    assert len(payload["unreached"]) == counts["unreached"]
    for entry in payload["unreached"]:
        assert entry["symbol"] is not None or entry["module"]

    # The adequacy floor. Survivors are allowed (they are the product —
    # see tests/test_mutation_gaps.py for the pinned harvest) but the
    # battery must kill at least 4 of 5 reached mutants.
    assert payload["kill_rate"] is not None, "no mutants were reached"
    assert payload["kill_rate"] >= KILL_RATE_FLOOR, (
        "kill rate %.2f below floor %.2f; survivors:\n%s"
        % (
            payload["kill_rate"], KILL_RATE_FLOOR,
            "\n".join(s["id"] for s in payload["survivors"]),
        )
    )

    _RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")
