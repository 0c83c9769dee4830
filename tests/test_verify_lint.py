"""reprolint: framework behaviour plus must-fire / must-not-fire fixtures.

Every per-file rule gets a positive fixture (the invariant violation it
exists to catch) and a negative fixture (idiomatic engine code it must
stay quiet on), all linted in memory via
:func:`repro.verify.lint.lint_source` with paths chosen to land in each
rule's scope.  The interprocedural rules' fixtures live in
``test_verify_flow.py``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.verify.cli import main as cli_main
from repro.verify.lint import (
    Finding,
    lint_paths,
    lint_source,
    lint_sources,
    make_context,
    registered_rules,
)


def main(argv: list[str]) -> int:
    return cli_main(["lint", *argv])


def _lint(source: str, path: str, rule: str | None = None) -> list[Finding]:
    findings = lint_source(textwrap.dedent(source), path)
    if rule is not None:
        findings = [f for f in findings if f.rule == rule]
    return findings


def _active(source: str, path: str, rule: str | None = None) -> list[Finding]:
    return [f for f in _lint(source, path, rule) if not f.suppressed]


# -- framework ----------------------------------------------------------------


class TestFramework:
    def test_all_rules_registered(self):
        names = set(registered_rules())
        assert {
            "wall-clock",
            "unseeded-random",
            "lock-discipline",
            "broad-except",
            "raw-lock",
            "write-protocol",
            "snapshot-scope",
            "resource-pairing",
            "sqlstate",
            "unreferenced",
        } <= names

    def test_suppression_same_line(self):
        findings = _lint(
            """
            try:
                x = 1
            except Exception:  # lint-ok: broad-except (fixture)
                pass
            """,
            "src/repro/engine/x.py",
            "broad-except",
        )
        assert len(findings) == 1
        assert findings[0].suppressed
        assert findings[0].justification == "fixture"

    def test_suppression_comment_line_above(self):
        findings = _lint(
            """
            try:
                x = 1
            # lint-ok: broad-except (fixture above)
            except Exception:
                pass
            """,
            "src/repro/engine/x.py",
            "broad-except",
        )
        assert [f.suppressed for f in findings] == [True]

    def test_trailing_suppression_does_not_leak_to_next_line(self):
        # The suppression sits on a *code* line; the finding is on the line
        # after, so it must NOT be covered.
        findings = _lint(
            """
            import time
            x = 1  # lint-ok: wall-clock (wrong line)
            t = time.time()
            """,
            "src/repro/engine/x.py",
            "wall-clock",
        )
        assert [f.suppressed for f in findings] == [False]

    def test_suppression_for_other_rule_does_not_apply(self):
        findings = _lint(
            """
            try:
                x = 1
            except Exception:  # lint-ok: wall-clock (wrong rule)
                pass
            """,
            "src/repro/engine/x.py",
            "broad-except",
        )
        assert [f.suppressed for f in findings] == [False]

    def test_unjustified_suppression_reported_by_meta_rule(self):
        # The marker is assembled at runtime so that linting THIS file does
        # not see an unjustified suppression on the fixture's raw line.
        findings = _lint(
            """
            try:
                x = 1
            except Exception:  # lint-%s: broad-except
                pass
            """
            % "ok",
            "src/repro/engine/x.py",
        )
        meta = [f for f in findings if f.rule == "suppression-justification"]
        assert len(meta) == 1 and not meta[0].suppressed

    def test_in_package_scoping(self):
        ctx = make_context("x = 1", "src/repro/engine/operators.py")
        assert ctx.in_package("engine")
        assert not ctx.in_package("cluster")

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "unseeded-random" in out
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good)]) == 0

    def test_cli_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main([str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["unsuppressed"] == 1
        assert payload["findings"][0]["rule"] == "unseeded-random"

    def test_lint_paths_skips_pycache(self, tmp_path):
        pkg = tmp_path / "pkg"
        cache = pkg / "__pycache__"
        cache.mkdir(parents=True)
        (pkg / "mod.py").write_text("import random\nx = random.random()\n")
        (cache / "mod.py").write_text("import random\nx = random.random()\n")
        findings = lint_paths([str(tmp_path)])
        assert len(findings) == 1


# -- wall-clock ---------------------------------------------------------------


class TestWallClock:
    def test_fires_on_time_calls_in_engine(self):
        findings = _active(
            """
            import time
            def f():
                return time.time() + time.perf_counter()
            """,
            "src/repro/engine/x.py",
            "wall-clock",
        )
        assert len(findings) == 2

    def test_fires_on_from_import(self):
        findings = _active(
            """
            from time import perf_counter
            t = perf_counter()
            """,
            "src/repro/durability/x.py",
            "wall-clock",
        )
        assert len(findings) == 1

    def test_fires_on_datetime_now(self):
        findings = _active(
            """
            import datetime
            a = datetime.datetime.now()
            b = datetime.date.today()
            """,
            "src/repro/database/x.py",
            "wall-clock",
        )
        assert len(findings) == 2

    def test_quiet_outside_scoped_packages(self):
        findings = _active(
            """
            import time
            t = time.time()
            """,
            "src/repro/workloads/x.py",
            "wall-clock",
        )
        assert findings == []

    def test_quiet_on_sim_clock(self):
        findings = _active(
            """
            def f(clock):
                clock.advance(1.5)
                return clock.now
            """,
            "src/repro/engine/x.py",
            "wall-clock",
        )
        assert findings == []


# -- unseeded-random ----------------------------------------------------------


class TestUnseededRandom:
    def test_fires_on_numpy_global_state(self):
        findings = _active(
            """
            import numpy as np
            x = np.random.random()
            """,
            "src/repro/sql/x.py",
            "unseeded-random",
        )
        assert len(findings) == 1

    def test_fires_on_unseeded_default_rng(self):
        findings = _active(
            """
            import numpy as np
            a = np.random.default_rng()
            b = np.random.default_rng(None)
            """,
            "src/repro/sql/x.py",
            "unseeded-random",
        )
        assert len(findings) == 2

    def test_quiet_on_seeded_default_rng(self):
        findings = _active(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            """,
            "src/repro/sql/x.py",
            "unseeded-random",
        )
        assert findings == []

    def test_fires_on_stdlib_random(self):
        findings = _active(
            """
            import random
            from random import shuffle
            a = random.randint(1, 6)
            shuffle([1, 2])
            """,
            "src/repro/util/x.py",
            "unseeded-random",
        )
        assert len(findings) == 2

    def test_quiet_inside_util_rng(self):
        findings = _active(
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            "src/repro/util/rng.py",
            "unseeded-random",
        )
        assert findings == []

    def test_quiet_on_derive_rng(self):
        findings = _active(
            """
            from repro.util.rng import derive_rng
            rng = derive_rng(7, "scope")
            x = rng.random()
            """,
            "src/repro/workloads/x.py",
            "unseeded-random",
        )
        assert findings == []


# -- broad-except -------------------------------------------------------------


class TestBroadExcept:
    def test_fires_on_silent_swallow(self):
        findings = _active(
            """
            try:
                x = 1
            except Exception:
                pass
            """,
            "src/repro/engine/x.py",
            "broad-except",
        )
        assert len(findings) == 1

    def test_fires_on_bare_except_and_tuple(self):
        findings = _active(
            """
            try:
                x = 1
            except:
                x = 2
            try:
                y = 1
            except (ValueError, Exception):
                y = 2
            """,
            "src/repro/engine/x.py",
            "broad-except",
        )
        assert len(findings) == 2

    def test_quiet_when_handler_reraises(self):
        findings = _active(
            """
            try:
                x = 1
            except Exception:
                cleanup()
                raise
            """,
            "src/repro/engine/x.py",
            "broad-except",
        )
        assert findings == []

    def test_quiet_on_narrow_handler(self):
        findings = _active(
            """
            try:
                x = 1
            except (ValueError, KeyError):
                x = 2
            """,
            "src/repro/engine/x.py",
            "broad-except",
        )
        assert findings == []


# -- lock-discipline ----------------------------------------------------------


_POOL_PREAMBLE = """
class Op:
    def run(self, pool, items):
"""


class TestLockDiscipline:
    def test_fires_on_unguarded_attribute_write(self):
        findings = _active(
            """
            class Op:
                def run(self, pool, items):
                    def task(item):
                        self.count += 1
                        return item
                    return pool.map(task, items)
            """,
            "src/repro/engine/x.py",
            "lock-discipline",
        )
        assert len(findings) == 1
        assert "self.count" in findings[0].message

    def test_fires_on_unguarded_mutator_call(self):
        findings = _active(
            """
            class Op:
                def run(self, pool, items):
                    def task(item):
                        self.results.append(item)
                    return pool.map(task, items)
            """,
            "src/repro/engine/x.py",
            "lock-discipline",
        )
        assert len(findings) == 1

    def test_fires_on_submitted_lambda(self):
        findings = _active(
            """
            class Op:
                def run(self, executor, items):
                    return [executor.submit(lambda: self.shared.update({1: 2}))]
            """,
            "src/repro/engine/x.py",
            "lock-discipline",
        )
        assert len(findings) == 1

    def test_quiet_when_guarded_by_lock(self):
        findings = _active(
            """
            class Op:
                def run(self, pool, items):
                    def task(item):
                        with self._lock:
                            self.count += 1
                        return item
                    return pool.map(task, items)
            """,
            "src/repro/engine/x.py",
            "lock-discipline",
        )
        assert findings == []

    def test_quiet_when_thread_confined(self):
        findings = _active(
            """
            class Op:
                _THREAD_CONFINED = ("scratch",)
                def run(self, pool, items):
                    def task(item):
                        self.scratch = item
                        return item
                    return pool.map(task, items)
            """,
            "src/repro/engine/x.py",
            "lock-discipline",
        )
        assert findings == []

    def test_quiet_on_local_mutation(self):
        findings = _active(
            """
            class Op:
                def run(self, pool, items):
                    def task(item):
                        out = []
                        out.append(item)
                        return out
                    return pool.map(task, items)
            """,
            "src/repro/engine/x.py",
            "lock-discipline",
        )
        assert findings == []

    def test_quiet_outside_submission(self):
        # The same mutation NOT submitted to a pool is the caller's
        # business (single-threaded code path).
        findings = _active(
            """
            class Op:
                def run(self, items):
                    def task(item):
                        self.count += 1
                    for item in items:
                        task(item)
            """,
            "src/repro/engine/x.py",
            "lock-discipline",
        )
        assert findings == []


# -- durability-logging (deleted: write-protocol owns the omission) -----------


class TestDurabilityLoggingDemoted:
    """The per-function ``durability-logging`` rule and the lint copy of
    ``lock-order`` are gone: an unlogged mutation is reported exactly
    once, by the interprocedural ``write-protocol`` rule, and the lock
    order is checked by ``repro-verify mc`` alone."""

    UNLOGGED = """
        class Database:
            def _execute_insert(self, node):
                table = self._resolve(node)
                return table.insert_rows(node.rows)
        """

    def test_rule_is_deleted(self):
        names = set(registered_rules())
        assert "durability-logging" not in names
        assert "lock-order" not in names

    def test_no_longer_fires_per_function(self):
        # The exact fixture the old rule fired on: no public entry
        # reaches the helper, so nothing fires at all.
        assert _active(self.UNLOGGED, "src/repro/database/database.py") == []

    def test_reproflow_owns_the_omission(self):
        # The public entry is what write-protocol anchors on: make the
        # helper reachable from one and the omission is reported there,
        # once.
        findings = _active(
            """
            class Database:
                def execute(self, node):
                    return self._execute_insert(node)

                def _execute_insert(self, node):
                    table = self._resolve(node)
                    return table.insert_rows(node.rows)
            """,
            "src/repro/database/database.py",
        )
        assert [f.rule for f in findings] == ["write-protocol"]
        assert "Database.execute" in findings[0].message

    def test_stale_suppressions_are_reported(self):
        # A write-protocol excuse on a helper no public entry reaches has
        # nothing to suppress: the stale-suppression meta-rule names it,
        # exactly as it does for the per-file rules.
        findings = _active(
            """
            class Database:
                def _gather(self, table, rows):
                    # lint-ok: write-protocol (session temp table)
                    table.insert_rows(rows)
            """,
            "src/repro/database/database.py",
        )
        assert [f.rule for f in findings] == ["stale-suppression"]
        assert "write-protocol" in findings[0].message


# -- stale-suppression --------------------------------------------------------


class TestStaleSuppression:
    def test_fires_when_named_rule_no_longer_fires(self):
        findings = _active(
            """
            x = 1  # lint-ok: wall-clock (clock read removed long ago)
            """,
            "src/repro/engine/x.py",
            "stale-suppression",
        )
        assert len(findings) == 1
        assert "'wall-clock'" in findings[0].message

    def test_quiet_when_suppression_is_used(self):
        findings = _active(
            """
            import time
            t = time.time()  # lint-ok: wall-clock (fixture)
            """,
            "src/repro/engine/x.py",
            "stale-suppression",
        )
        assert findings == []

    def test_comment_above_style_counts_as_used(self):
        findings = _active(
            """
            import time
            # lint-ok: wall-clock (fixture above)
            t = time.time()
            """,
            "src/repro/engine/x.py",
            "stale-suppression",
        )
        assert findings == []

    def test_judged_per_rule_name_within_one_comment(self):
        # broad-except still fires (and is suppressed); wall-clock never
        # does — the one comment is stale for wall-clock alone.
        findings = _active(
            """
            try:
                x = 1
            except Exception:  # lint-ok: broad-except, wall-clock (fixture)
                pass
            """,
            "src/repro/engine/x.py",
            "stale-suppression",
        )
        assert len(findings) == 1
        assert "'wall-clock'" in findings[0].message

    def test_unregistered_rule_names_are_skipped(self):
        # Comments may carry markers for other tools; staleness is only
        # decidable for rules this registry actually runs.
        findings = _active(
            """
            x = 1  # lint-ok: third-party-tool-rule (owned elsewhere)
            """,
            "src/repro/engine/x.py",
            "stale-suppression",
        )
        assert findings == []

    def test_only_on_full_runs(self):
        from repro.verify.lint import lint_source

        source = "x = 1  # lint-ok: wall-clock (stale)\n"
        partial = lint_source(source, "src/repro/engine/x.py",
                              rules=["wall-clock"])
        assert [f for f in partial if f.rule == "stale-suppression"] == []
        full = lint_source(source, "src/repro/engine/x.py")
        assert [f.rule for f in full if not f.suppressed] \
            == ["stale-suppression"]

    def test_string_literals_are_exempt(self):
        # Fixture corpora embedded in test-file strings (this very file)
        # must not read as live stale suppressions.
        findings = _active(
            '''
            FIXTURE = """
            t = time.time()  # lint-ok: wall-clock (inside a literal)
            """
            ''',
            "tests/test_example.py",
            "stale-suppression",
        )
        assert findings == []

    def test_stale_project_rule_suppression_is_shadowable(self):
        # A stale excuse for an interprocedural rule is judged like any
        # other, and can itself be shadowed like any other.
        source = """
            class Coordinator:
                def _commit_all(self, shard, staged):
                    x = 1  # lint-ok: write-protocol (gone)
                    y = 2  # lint-ok: write-protocol, stale-suppression (kept)
            """
        findings = _lint(source, "src/repro/cluster/mpp.py",
                         "stale-suppression")
        assert [(f.line, f.suppressed) for f in findings] == [
            (4, False), (5, True),
        ]
        assert "'write-protocol'" in findings[0].message

    def test_partial_project_rule_run_skips_staleness(self):
        source = "x = 1  # lint-ok: write-protocol (stale)\n"
        partial = lint_source(source, "src/repro/engine/x.py",
                              rules=["write-protocol"])
        assert partial == []
        full = lint_source(source, "src/repro/engine/x.py")
        assert [f.rule for f in full] == ["stale-suppression"]

    def test_stale_finding_is_itself_suppressible(self):
        findings = _lint(
            """
            x = 1  # lint-ok: wall-clock, stale-suppression (kept during migration)
            """,
            "src/repro/engine/x.py",
            "stale-suppression",
        )
        assert [f.suppressed for f in findings] == [True]
        assert findings[0].justification == "kept during migration"


# -- unreferenced -------------------------------------------------------------


class TestUnreferenced:
    ENGINE = textwrap.dedent(
        """
        from repro.verify.lint import rule


        def dead():
            pass


        class Dead:
            pass


        def used_by_tests():
            pass


        class Binder:
            def __init__(self):
                self.bind = getattr(self, "_bind_" + "literal")

            def _bind_literal(self):
                pass

            def _visit_scan(self):
                pass


        @rule("some-rule", "registered, never called by name")
        def check_some_rule(ctx):
            return []
        """
    )
    CALLER = "from repro.engine.x import Binder, used_by_tests\n\nBinder()\nused_by_tests()\n"

    def _unreferenced(self, sources):
        return [
            (f.path, f.line, f.message.split()[0])
            for f in lint_sources(sources, ["unreferenced"])
        ]

    def test_flags_a_planted_def_and_class_only(self):
        # Dispatch targets, @rule checks, dunders and a def that only a
        # test calls all count as used; the two orphans do not.
        findings = self._unreferenced({
            "src/repro/engine/x.py": self.ENGINE,
            "tests/test_x.py": self.CALLER,
        })
        assert findings == [
            ("src/repro/engine/x.py", 5, "dead"),
            ("src/repro/engine/x.py", 9, "Dead"),
        ]

    def test_verify_tooling_is_in_scope(self):
        findings = self._unreferenced({
            "src/repro/verify/x.py": "def orphan():\n    pass\n",
            "tests/test_x.py": "",
        })
        assert findings == [("src/repro/verify/x.py", 1, "orphan")]

    def test_a_tree_with_no_callers_is_not_judged(self):
        assert self._unreferenced({"src/repro/engine/x.py": self.ENGINE}) == []


# -- the repo itself ----------------------------------------------------------


class TestRepoIsClean:
    def test_src_tree_lints_clean(self):
        findings = [f for f in lint_paths(["src"]) if not f.suppressed]
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_nothing_under_repro_is_unreferenced(self):
        root = Path(__file__).resolve().parents[1]
        roots = [str(root / d) for d in ("src", "tests", "benchmarks", "examples")]
        findings = [f for f in lint_paths(roots, ["unreferenced"])
                    if not f.suppressed]
        assert findings == [], "\n".join(f.render() for f in findings)
