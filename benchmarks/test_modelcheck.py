"""Model-checking coverage benchmark — exploration throughput per scenario.

Runs the full scenario registry under the default (or ``REPRO_MC_BUDGET``)
budget and reports, per scenario, how many distinct schedules completed,
how many scheduled states the search visited, how much the reductions
pruned, and whether the bounded space was exhausted.  Any counterexample
fails the benchmark outright: the registry is the engine's concurrency
regression suite.

The summary lands in ``BENCH_modelcheck.json`` at the repo root;
``tests/test_verify_mc.py`` fails when its scenario names or lock ranks
fall behind the registry, so regenerate it whenever either changes.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

from repro.verify.mc import (
    DEFAULT_PREEMPTION_BOUND,
    SCENARIOS,
    default_budget,
    explore,
    lockorder,
)

from conftest import banner, record

_RESULT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_modelcheck.json"
)


def test_modelcheck_coverage():
    budget = default_budget()
    rows = []
    for scenario in SCENARIOS:
        t0 = time.perf_counter()
        report = explore(scenario, budget=budget)
        wall = time.perf_counter() - t0
        assert report.ok, report.counterexample.render()
        rows.append(
            {
                "scenario": scenario.name,
                "schedules": report.schedules,
                "states": report.states,
                "pruned_runs": report.pruned_runs,
                "exhausted": report.completed,
                "races": report.races,
                "wall_seconds": round(wall, 3),
            }
        )

    lock_report = lockorder.check(paths=(str(_RESULT_PATH.parent / "src"),))
    assert lock_report.ok, "\n".join(
        lock_report.violations + [" -> ".join(c) for c in lock_report.cycles]
    )

    banner(
        "Model checking coverage (budget=%d, preemption bound=%d)"
        % (budget, DEFAULT_PREEMPTION_BOUND),
        [
            "%-28s schedules=%-4d states=%-6d pruned=%-4d %s (%.2f s)"
            % (
                r["scenario"], r["schedules"], r["states"], r["pruned_runs"],
                "exhausted" if r["exhausted"] else "budget-capped",
                r["wall_seconds"],
            )
            for r in rows
        ]
        + [
            "lock order: %d edge(s), acyclic and rank-ordered"
            % len(lock_report.edges)
        ],
    )
    record(
        "modelcheck",
        scenarios=len(rows),
        schedules=sum(r["schedules"] for r in rows),
        states=sum(r["states"] for r in rows),
        exhausted=sum(1 for r in rows if r["exhausted"]),
    )

    assert len(rows) >= 4  # the acceptance floor: >= 4 explored scenarios
    assert all(r["schedules"] >= 1 for r in rows)

    _RESULT_PATH.write_text(
        json.dumps(
            {
                "environment": {
                    "cores": os.cpu_count(),
                    "python": platform.python_version(),
                },
                "budget": budget,
                "preemption_bound": DEFAULT_PREEMPTION_BOUND,
                "scenarios": rows,
                "lock_order": lock_report.to_json(),
            },
            indent=2,
        )
        + "\n"
    )
