"""Model checker tests: seeded bugs, replay determinism, engine regressions.

The seeded-bug harness plants three classic concurrency bug classes in
tiny scenarios (an unguarded two-thread counter, an ABBA lock pair, and a
torn commit under crash) and proves the checker finds each within the
default budget, producing a schedule that *replays* to the same failure.
The engine regression tests then pin the interleavings behind bugs the
checker actually caught in the real engine (checkpoint-vs-statement
duplication, cross-session WAL attribution) and exhaustively re-explore
those scenarios on every run.
"""

from __future__ import annotations

import json
import pathlib

from repro.verify import sanitizer
from repro.verify.mc import (
    DECLARED_ORDER,
    SCENARIOS,
    Scenario,
    by_name,
    explore,
    replay,
    yield_point,
)


_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_modelcheck.json"


def _artifact_names(artifact: dict):
    """(scenario names, declared lock order) as the artifact records them."""
    return (
        [row["scenario"] for row in artifact["scenarios"]],
        artifact["lock_order"]["declared_order"],
    )


# -- seeded bugs ---------------------------------------------------------------


class SeededLostUpdate(Scenario):
    """Bug class 1: unguarded read-modify-write on a shared counter."""

    name = "seeded-lost-update"

    def setup(self) -> dict:
        return {"counter": 0}

    def thread_specs(self, state: dict) -> list:
        def bump():
            yield_point("counter", write=False)
            value = state["counter"]
            yield_point("counter", write=True)
            state["counter"] = value + 1

        return [("t0", bump), ("t1", bump)]

    def check(self, state: dict) -> None:
        assert state["counter"] == 2, (
            "lost update: two increments left counter at %d" % state["counter"]
        )


class SeededABBADeadlock(Scenario):
    """Bug class 2: two locks taken in opposite orders by two threads."""

    name = "seeded-abba-deadlock"

    def setup(self) -> dict:
        return {
            "A": sanitizer.make_lock("harness:A"),
            "B": sanitizer.make_lock("harness:B"),
        }

    def thread_specs(self, state: dict) -> list:
        lock_a, lock_b = state["A"], state["B"]

        def ab():
            with lock_a:
                with lock_b:
                    pass

        def ba():
            with lock_b:
                with lock_a:
                    pass

        return [("t0", ab), ("t1", ba)]


class SeededTornCommit(Scenario):
    """Bug class 3: commit flag written before the payload, under crash."""

    name = "seeded-torn-commit"
    crashes = True

    def setup(self) -> dict:
        return {"data": None, "committed": False}

    def thread_specs(self, state: dict) -> list:
        def writer():
            yield_point("committed", write=True)
            state["committed"] = True  # BUG: flag durable before payload
            yield_point("data", write=True)
            state["data"] = 42

        return [("writer", writer)]

    def crash(self, state: dict) -> None:
        assert not state["committed"] or state["data"] == 42, (
            "torn commit: committed flag set but payload missing after crash"
        )


class TestSeededBugs:
    def _find(self, scenario):
        report = explore(scenario)
        assert report.counterexample is not None, (
            "checker missed seeded bug %r within budget %d (%d states)"
            % (scenario.name, report.budget, report.states)
        )
        return report

    def test_finds_lost_update(self):
        report = self._find(SeededLostUpdate())
        ce = report.counterexample
        assert ce.kind == "oracle"
        assert "lost update" in ce.message

    def test_finds_abba_deadlock(self):
        try:
            report = self._find(SeededABBADeadlock())
        finally:
            # The seeded inversion must not pollute the process-wide
            # runtime lock graph other lock-order tests inspect.
            sanitizer.reset_lock_graph()
        ce = report.counterexample
        assert ce.kind == "deadlock"
        assert "harness:A" in ce.message and "harness:B" in ce.message

    def test_finds_torn_commit_under_crash(self):
        report = self._find(SeededTornCommit())
        ce = report.counterexample
        assert ce.kind == "oracle"
        assert "torn commit" in ce.message
        assert any(op == "crash" for _name, op in ce.trace)

    def test_counterexample_schedules_replay_to_the_same_failure(self):
        for scenario_cls in (SeededLostUpdate, SeededTornCommit):
            report = explore(scenario_cls())
            ce = report.counterexample
            outcome, replayed = replay(scenario_cls(), ce.schedule)
            try:
                assert replayed is not None, (
                    "schedule %s of %s did not replay to a failure"
                    % (ce.schedule, ce.scenario)
                )
                assert replayed.kind == ce.kind
                assert replayed.message == ce.message
            finally:
                sanitizer.reset_lock_graph()

    def test_replay_is_deterministic(self):
        report = explore(SeededLostUpdate())
        schedule = report.counterexample.schedule
        first, ce_first = replay(SeededLostUpdate(), schedule)
        second, ce_second = replay(SeededLostUpdate(), schedule)
        assert first.trace == second.trace
        assert first.schedule == second.schedule
        assert ce_first.schedule_id == ce_second.schedule_id

    def test_counterexample_render_names_the_schedule(self):
        report = explore(SeededLostUpdate())
        ce = report.counterexample
        text = ce.render()
        assert ce.schedule_id in text
        assert "interleaving" in text


# -- engine scenario registry --------------------------------------------------


class TestEngineScenarios:
    def test_registry_is_clean_under_small_budget(self):
        for scenario in SCENARIOS:
            report = explore(scenario, budget=600)
            assert report.ok, (
                "scenario %r found a counterexample:\n%s"
                % (scenario.name, report.counterexample.render())
            )
            assert report.schedules >= 1

    def test_yield_point_is_noop_outside_checker(self):
        yield_point("anywhere")  # must not raise, must not require a hook

    def test_committed_artifact_names_the_whole_registry(self):
        """BENCH_modelcheck.json may not fall behind the registry: names and
        lock ranks only — counts and timings are the benchmark's business.
        Regenerate with ``pytest benchmarks/test_modelcheck.py``."""
        assert _artifact_names(json.loads(_ARTIFACT.read_text())) == (
            [scenario.name for scenario in SCENARIOS],
            list(DECLARED_ORDER),
        )

    def test_artifact_check_notices_a_missing_scenario(self):
        stale = json.loads(_ARTIFACT.read_text())
        del stale["scenarios"][-1]
        assert _artifact_names(stale)[0] != [s.name for s in SCENARIOS]


class TestEngineRegressions:
    """Pinned interleavings behind engine bugs the checker surfaced.

    Both exhaustive re-exploration (the whole bounded space, every test
    run) and the specific pinned schedules stay green; if either fix
    regresses, the oracle that originally caught it fires again.
    """

    def test_checkpoint_vs_statement_exhausts_clean(self):
        # Regression: a fuzzy checkpoint snapshotting mid-statement used to
        # capture an uncommitted row that recovery then replayed on top of
        # its own snapshot (duplicate row after restart).
        report = explore(by_name("commit-vs-checkpoint"), budget=4000)
        assert report.ok, report.counterexample.render()
        assert report.completed, "bounded search space not exhausted"

    def test_cross_session_attribution_exhausts_clean(self):
        # Regression: a shared statement buffer let one session's commit
        # claim (or one session's abort drop) another session's redo ops.
        report = explore(by_name("concurrent-insert-commit"), budget=4000)
        assert report.ok, report.counterexample.render()
        assert report.completed, "bounded search space not exhausted"

    def test_plan_cache_fill_vs_ddl_exhausts_clean(self):
        # A plan planned against one definition of a view and stored after
        # the view was redefined must not outlive its first lookup.
        report = explore(by_name("plan-cache-fill-vs-ddl"), budget=4000)
        assert report.ok, report.counterexample.render()
        assert report.completed, "bounded search space not exhausted"

    def test_plan_cache_fill_vs_ddl_finds_a_plan_restamped_at_store(self, monkeypatch):
        # The bug the scenario exists for: take the DDL stamps when the plan
        # is stored instead of when its names were resolved.
        from repro.database.plancache import PlanCache

        store = PlanCache.store

        def restamping(self, key, session, planned):
            yield_point("between planning and the store")
            stamps = planned.lineage.stamps
            for name in stamps:
                stamps[name] = session.database.catalog.stamp(name)
            store(self, key, session, planned)

        monkeypatch.setattr(PlanCache, "store", restamping)
        report = explore(by_name("plan-cache-fill-vs-ddl"), budget=4000)
        assert not report.ok
        assert "replaced view definition" in report.counterexample.render()

    def test_plan_cache_fill_vs_ddl_finds_ddl_that_stamps_before_it_changes(self, monkeypatch):
        # The other half of the protocol: DDL must move a name's stamp
        # *after* the change.  Stamp first, and a reader can pair the new
        # stamp with the old object.
        from repro.catalog.catalog import Catalog

        def stamp_first(self, schema, name, obj, replace=False):
            self._touch(schema, name.upper())
            sanitizer.protocol_access("catalog:object", name.upper())
            self._schema(schema)[name.upper()] = obj

        monkeypatch.setattr(Catalog, "_put", stamp_first)
        report = explore(by_name("plan-cache-fill-vs-ddl"), budget=4000)
        assert not report.ok
        assert "replaced view definition" in report.counterexample.render()

    def test_crash_races_commit_exhausts_clean(self):
        # One session's flush crash leaves its records buffered; the other
        # session's commit must raise, never flush them for it.
        report = explore(by_name("crash-races-commit"), budget=4000)
        assert report.ok, report.counterexample.render()
        assert report.completed, "bounded search space not exhausted"

    def test_crash_races_commit_finds_a_host_that_stays_up(self, monkeypatch):
        # The bug the scenario exists for: the crash unwinds only the
        # thread it fired on, and the next commit makes its statement durable.
        from repro.durability.manager import _Host

        monkeypatch.setattr(_Host, "__exit__", lambda self, kind, exc, tb: None)
        report = explore(by_name("crash-races-commit"), budget=4000)
        assert not report.ok
        assert "after recovery; its statement ended 'injected crash" in (
            report.counterexample.render()
        )

    def test_pinned_checkpoint_requested_mid_statement(self):
        # Pin the bad interleaving's shape: the checkpoint thread (tid 1)
        # wakes while the insert's statement is mid-flight.  Under the fix
        # it must block on the statement lock and the restart stays exact.
        scenario = by_name("commit-vs-checkpoint")
        first, ce = replay(scenario, [0, 0, 1])
        assert ce is None, ce.render()
        assert first.status == "ok"
        second, ce2 = replay(scenario, [0, 0, 1])
        assert ce2 is None
        assert second.trace == first.trace  # pinned replay is deterministic

    def test_pinned_interleaved_sessions_keep_attribution(self):
        scenario = by_name("concurrent-insert-commit")
        outcome, ce = replay(scenario, [0, 0, 1])
        assert ce is None, ce.render()
        assert outcome.status == "ok"
