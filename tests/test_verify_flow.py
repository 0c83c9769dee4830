"""The interprocedural protocol rules: seeded-bug fixture corpus.

Every protocol rule gets at least one *planted violation* fixture (the
rule must fire) and its *corrected twin* (the rule must stay quiet) — the
acceptance gate that no rule is vacuous.  Fixtures are multi-module
``{path: source}`` corpora fed through
:func:`repro.verify.lint.lint_sources`, with paths chosen to land in the
rules' scoping (``src/repro/database/database.py`` hosts the public
``Database`` API, etc.).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.verify.cli import main as cli_main
from repro.verify.flow.callgraph import ProjectIndex
from repro.verify.lint import lint_paths, lint_sources, load_sources

DB = "src/repro/database/database.py"
MPP = "src/repro/cluster/mpp.py"
ENGINE = "src/repro/engine/scan.py"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def main(argv: list[str]) -> int:
    return cli_main(["lint", *argv])


def flow(sources: dict[str, str], rules: list[str] | None = None):
    """Every finding, as ``(active, suppressed)``."""
    findings = lint_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}, rules
    )
    return ([f for f in findings if not f.suppressed],
            [f for f in findings if f.suppressed])


def active(sources: dict[str, str], rules: list[str] | None = None):
    return flow(sources, rules)[0]


# -- write-protocol -----------------------------------------------------------


class TestWriteProtocol:
    def test_fires_on_entry_whose_closure_forgets_the_discipline(self):
        # The mutation hides one helper deep — exactly where the old
        # per-function durability-logging rule went blind.
        findings = active({DB: """
            class Database:
                def execute(self, node):
                    return self._apply(node)

                def _apply(self, node):
                    table = self._resolve(node)
                    return table.insert_rows(node.rows)
            """}, ["write-protocol"])
        assert len(findings) == 1
        assert "Database.execute" in findings[0].message
        assert "_apply" in findings[0].message  # witness path names the helper

    def test_quiet_when_obligations_are_reached_transitively(self):
        findings = active({DB: """
            class Database:
                def execute(self, node):
                    txn = self.txn.begin()
                    result = self._apply(node, txn)
                    self.durability.log_insert(node.table, node.rows)
                    txn.commit()
                    self._note_commit(self._touched_tables(node, txn))
                    return result

                def _apply(self, node, txn):
                    table = self._resolve(node)
                    return table.insert_rows(node.rows)
            """}, ["write-protocol"])
        assert findings == []

    def test_fires_on_commit_without_version_bump(self):
        # The staleness bug class: a coordinator commits raw per-shard
        # transactions, WAL-logs them, but never notifies the version
        # clock — serving caches keep replaying pre-insert results.
        findings = active({MPP: """
            class Coordinator:
                def _commit_all(self, shard, name, staged):
                    shard.log_committed_insert(name, staged)
                    for txn in staged:
                        txn.commit()
            """}, ["write-protocol"])
        assert len(findings) == 1
        assert "bump the version clock" in findings[0].message

    def test_quiet_when_committer_notifies_each_engine(self):
        findings = active({MPP: """
            class Coordinator:
                def _commit_all(self, shard, name, staged):
                    shard.log_committed_insert(name, staged)
                    for txn in staged:
                        txn.commit()
                        shard.engine._note_commit(frozenset({name}))
            """}, ["write-protocol"])
        assert findings == []

    def test_mvcc_implementation_module_is_exempt(self):
        # Transaction.commit *implements* commit; the discipline binds
        # its callers, not the implementation.
        findings = active({"src/repro/mvcc/txn.py": """
            class Transaction:
                def finish(self, txn):
                    txn.commit()
            """}, ["write-protocol"])
        assert findings == []

    def test_verify_tooling_is_exempt(self):
        findings = active({"src/repro/verify/mc/scenarios.py": """
            class Scenario:
                def run(self, db, txn):
                    txn.commit()
            """}, ["write-protocol"])
        assert findings == []


# -- snapshot-scope -----------------------------------------------------------


class TestSnapshotScope:
    def test_fires_when_pool_task_pins_transitively(self):
        findings = active({ENGINE: """
            class ScanOp:
                def run(self, pool, spans):
                    return pool.map(self._scan_span, spans)

                def _scan_span(self, span):
                    snap = self.txn.snapshot()
                    return self._read(snap, span)
            """}, ["snapshot-scope"])
        assert len(findings) == 1
        assert "_scan_span" in findings[0].message
        # anchored at the submission site, not the pin
        assert findings[0].line == 4

    def test_quiet_when_task_receives_the_frozen_snapshot(self):
        findings = active({ENGINE: """
            class ScanOp:
                def run(self, pool, spans):
                    snapshot = self.txn.snapshot()
                    return pool.map(
                        lambda span: self._scan_span(snapshot, span), spans
                    )

                def _scan_span(self, snapshot, span):
                    return self._read(snapshot, span)
            """}, ["snapshot-scope"])
        assert findings == []

    def test_fires_when_submitted_lambda_pins_directly(self):
        findings = active({ENGINE: """
            class ScanOp:
                def run(self, pool, spans):
                    return pool.map(
                        lambda span: self.txn.snapshot().read(span), spans
                    )
            """}, ["snapshot-scope"])
        assert len(findings) == 1

    def test_statement_boundary_cuts_reachability(self):
        # A worker invoking the full public statement API opens its own,
        # properly scoped snapshot — not a leak of the enclosing one.
        findings = active({
            DB: """
                class Database:
                    def execute(self, sql):
                        snap = self.txn.snapshot()
                        return self._run(sql, snap)
                """,
            ENGINE: """
                class Gather:
                    def run(self, pool, items):
                        return pool.map(self._one, items)

                    def _one(self, item):
                        return self.db.execute(item)
                """,
        }, ["snapshot-scope"])
        assert findings == []

    def test_fires_when_snapshot_escapes_into_attribute(self):
        findings = active({ENGINE: """
            class ScanOp:
                def __init__(self, table, snapshot):
                    self.table = table
                    self.snapshot = snapshot
            """}, ["snapshot-scope"])
        assert len(findings) == 1
        assert "self.snapshot" in findings[0].message

    def test_thread_local_statement_state_is_exempt(self):
        findings = active({DB: """
            class Database:
                def _push(self, snapshot):
                    self._tls.snapshot = snapshot
            """}, ["snapshot-scope"])
        assert findings == []


# -- resource-pairing ---------------------------------------------------------


class TestResourcePairing:
    def test_fires_on_shared_memory_without_finally(self):
        findings = active({"src/repro/parallel/ship.py": """
            def ship(array):
                from multiprocessing import shared_memory
                shm = shared_memory.SharedMemory(create=True, size=array.nbytes)
                fill(shm, array)
                return shm.name
            """}, ["resource-pairing"])
        assert len(findings) == 1
        assert "shared memory" in findings[0].message

    def test_quiet_when_nested_creates_release_in_outer_finally(self):
        # The fused-kernel shipping idiom: a closure creates and
        # registers segments, the outer finally releases every one.
        findings = active({"src/repro/parallel/ship.py": """
            def ship_all(arrays):
                from multiprocessing import shared_memory
                blocks = []

                def stage(array):
                    shm = shared_memory.SharedMemory(
                        create=True, size=array.nbytes
                    )
                    blocks.append(shm)
                    return shm.name

                try:
                    return [stage(a) for a in arrays]
                finally:
                    for shm in blocks:
                        shm.close()
                        shm.unlink()
            """}, ["resource-pairing"])
        assert findings == []

    def test_fires_on_manual_acquire_without_finally_release(self):
        findings = active({ENGINE: """
            class Registry:
                def update(self, key, value):
                    self._lock.acquire()
                    self._items[key] = value
                    self._lock.release()
            """}, ["resource-pairing"])
        assert len(findings) == 1
        assert "acquire" in findings[0].message

    def test_quiet_when_release_runs_in_finally(self):
        findings = active({ENGINE: """
            class Registry:
                def update(self, key, value):
                    self._lock.acquire()
                    try:
                        self._items[key] = value
                    finally:
                        self._lock.release()
            """}, ["resource-pairing"])
        assert findings == []

    def test_quiet_on_with_statement(self):
        findings = active({ENGINE: """
            class Registry:
                def update(self, key, value):
                    with self._lock:
                        self._items[key] = value
            """}, ["resource-pairing"])
        assert findings == []

    def test_fires_on_manual_enter_without_finally_exit(self):
        findings = active({ENGINE: """
            class Probe:
                def run(self, tracer):
                    span = tracer.span("probe")
                    span.__enter__()
                    self._work()
                    span.__exit__(None, None, None)
            """}, ["resource-pairing"])
        assert len(findings) == 1
        assert "__exit__" in findings[0].message

    def test_quiet_when_exit_runs_in_finally(self):
        findings = active({ENGINE: """
            class Probe:
                def run(self, tracer):
                    span = tracer.span("probe")
                    span.__enter__()
                    try:
                        self._work()
                    finally:
                        span.__exit__(None, None, None)
            """}, ["resource-pairing"])
        assert findings == []

    def test_tracer_implementation_is_exempt(self):
        findings = active({"src/repro/monitor/tracer.py": """
            class Tracer:
                def begin(self, span):
                    span.__enter__()
            """}, ["resource-pairing"])
        assert findings == []


# -- sqlstate -----------------------------------------------------------------

_ERRORS = """
    class ReproError(Exception):
        pass

    class BadPageError(ReproError):
        pass
    """


class TestSqlstate:
    def test_fires_on_bare_engine_error_crossing_the_api(self):
        findings = active({
            "src/repro/errors.py": _ERRORS,
            DB: """
                from repro.errors import BadPageError

                class Database:
                    def execute(self, sql):
                        if not sql:
                            raise BadPageError("boom")
                        return self._run(sql)
                """,
        }, ["sqlstate"])
        assert len(findings) == 1
        assert "BadPageError" in findings[0].message

    def test_quiet_with_class_level_sqlstate(self):
        findings = active({
            "src/repro/errors.py": """
                class ReproError(Exception):
                    pass

                class BadPageError(ReproError):
                    sqlstate = "58030"
                """,
            DB: """
                from repro.errors import BadPageError

                class Database:
                    def execute(self, sql):
                        if not sql:
                            raise BadPageError("boom")
                        return self._run(sql)
                """,
        }, ["sqlstate"])
        assert findings == []

    def test_quiet_with_init_assigned_sqlstate(self):
        findings = active({
            "src/repro/errors.py": """
                class ReproError(Exception):
                    pass

                class BadPageError(ReproError):
                    def __init__(self, message):
                        super().__init__(message)
                        self.sqlstate = "58030"
                """,
            DB: """
                from repro.errors import BadPageError

                class Database:
                    def execute(self, sql):
                        if not sql:
                            raise BadPageError("boom")
                        return self._run(sql)
                """,
        }, ["sqlstate"])
        assert findings == []

    def test_quiet_when_sqlstate_is_inherited(self):
        findings = active({
            "src/repro/errors.py": """
                class ReproError(Exception):
                    pass

                class StorageError(ReproError):
                    sqlstate = "58030"

                class BadPageError(StorageError):
                    pass
                """,
            DB: """
                from repro.errors import BadPageError

                class Database:
                    def execute(self, sql):
                        if not sql:
                            raise BadPageError("boom")
                        return self._run(sql)
                """,
        }, ["sqlstate"])
        assert findings == []

    def test_crash_error_is_exempt(self):
        findings = active({
            "src/repro/errors.py": """
                class ReproError(Exception):
                    pass

                class CrashError(ReproError):
                    pass
                """,
            DB: """
                from repro.errors import CrashError

                class Database:
                    def execute(self, sql):
                        raise CrashError("simulated host crash")
                """,
        }, ["sqlstate"])
        assert findings == []

    def test_locally_caught_raise_does_not_cross_the_api(self):
        findings = active({
            "src/repro/errors.py": _ERRORS,
            DB: """
                from repro.errors import BadPageError

                class Database:
                    def execute(self, sql):
                        try:
                            if not sql:
                                raise BadPageError("boom")
                        except BadPageError:
                            return None
                        return self._run(sql)
                """,
        }, ["sqlstate"])
        assert findings == []

    def test_builtin_exceptions_are_out_of_scope(self):
        findings = active({DB: """
            class Database:
                def execute(self, sql):
                    raise ValueError("not an engine error")
            """}, ["sqlstate"])
        assert findings == []


# -- suppressions -------------------------------------------------------------


class TestSuppressions:
    BUGGY = """
        class ScanOp:
            def __init__(self, snapshot):
                self.snapshot = snapshot{comment}
        """

    def test_justified_lint_ok_suppresses_without_meta_finding(self):
        live, suppressed = flow({ENGINE: self.BUGGY.format(
            comment="  # lint-ok: snapshot-scope (operator trees are"
                    " statement-scoped)"
        )})
        assert live == []
        assert len(suppressed) == 1
        assert suppressed[0].justification

    def test_unjustified_lint_ok_reports_the_meta_rule(self):
        live, suppressed = flow({ENGINE: self.BUGGY.format(
            comment="  # lint-%s: snapshot-scope" % "ok"
        )})
        assert [f.rule for f in live] == ["suppression-justification"]
        assert len(suppressed) == 1

    def test_comment_line_above_suppresses(self):
        live, suppressed = flow({ENGINE: """
            class ScanOp:
                def __init__(self, snapshot):
                    # lint-ok: snapshot-scope (fixture)
                    self.snapshot = snapshot
            """})
        assert live == []
        assert len(suppressed) == 1

    def test_wrong_rule_name_does_not_suppress(self):
        live, _ = flow({ENGINE: self.BUGGY.format(
            comment="  # lint-ok: sqlstate (wrong rule)"
        )})
        # The misnamed suppression leaves the real finding live AND is
        # itself reported as stale — sqlstate never fires on that line.
        assert sorted(f.rule for f in live) == [
            "snapshot-scope", "stale-suppression",
        ]


# -- stale-suppression --------------------------------------------------------


class TestStaleFlowSuppression:
    def test_fires_when_named_rule_no_longer_fires(self):
        findings = active({ENGINE: """
            def helper():
                return 1  # lint-ok: write-protocol (fix landed long ago)
            """})
        assert [f.rule for f in findings] == ["stale-suppression"]
        assert "'write-protocol'" in findings[0].message

    def test_quiet_when_suppression_is_used(self):
        live, suppressed = flow({DB: """
            class Database:
                # lint-ok: write-protocol (recovery replays the WAL)
                def execute(self, node):
                    return self._resolve(node).insert_rows(node.rows)
            """})
        assert live == []
        assert len(suppressed) == 1

    def test_only_on_full_runs(self):
        sources = {ENGINE: """
            def helper():
                return 1  # lint-ok: write-protocol (stale)
            """}
        assert active(sources, rules=["write-protocol"]) == []
        assert [f.rule for f in active(sources)] == ["stale-suppression"]

    def test_string_literals_are_exempt(self):
        findings = active({"tests/test_example.py": '''
            FIXTURE = """
            txn.commit()  # lint-ok: write-protocol (inside a literal)
            """
            '''})
        assert findings == []

    def test_unknown_rule_names_are_skipped(self):
        findings = active({ENGINE: """
            def helper():
                return 1  # lint-ok: some-other-tool (owned elsewhere)
            """})
        assert findings == []


# -- call graph plumbing ------------------------------------------------------


class TestCallGraph:
    def test_ambiguous_generic_names_do_not_pollute_closures(self):
        # Four unrelated `refresh` methods, one of which bumps the
        # version clock.  A caller of `x.refresh()` must NOT be credited
        # with the bump — a near-complete graph satisfies every
        # obligation vacuously (the failure mode AMBIGUITY_LIMIT exists
        # to prevent).
        findings = active({
            MPP: """
                class Coordinator:
                    def _commit_all(self, shard, staged):
                        shard.log_committed_insert("T", staged)
                        for txn in staged:
                            txn.commit()
                        self.view.refresh()
                """,
            ENGINE: """
                class A:
                    def refresh(self):
                        self.db._note_commit(None)

                class B:
                    def refresh(self):
                        pass

                class C:
                    def refresh(self):
                        pass

                class D:
                    def refresh(self):
                        pass
                """,
        }, ["write-protocol"])
        assert len(findings) == 1
        assert "bump the version clock" in findings[0].message

    def test_commit_listener_registration_creates_an_edge(self):
        # A registered listener that pins a snapshot is reachable from
        # the registering function — its effects are not lost.
        index = ProjectIndex(load_sources({
            "src/repro/serving/gateway.py": textwrap.dedent(
                """
                class Gateway:
                    def wire(self, db):
                        db.add_commit_listener(self._on_commit)

                    def _on_commit(self, tables):
                        pass
                """
            )
        }))
        assert (
            "src/repro/serving/gateway.py",
            "Gateway._on_commit",
        ) in index.listeners

    def test_bound_method_submission_is_detected(self):
        index = ProjectIndex(load_sources({ENGINE: textwrap.dedent(
            """
            class Op:
                def run(self, pool, items):
                    return pool.map(self._task, items)

                def _task(self, item):
                    return item
            """
        )}))
        assert (ENGINE, "Op._task") in index.submitted


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in ("write-protocol", "snapshot-scope", "resource-pairing",
                     "sqlstate", "suppression-justification"):
            assert name in out

    def test_exit_one_and_human_output_on_finding(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "engine" / "scan.py"
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(
            """
            class ScanOp:
                def __init__(self, snapshot):
                    self.snapshot = snapshot
            """
        ))
        assert main([str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert "snapshot-scope" in out

    def test_exit_zero_and_json_when_suppressed(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "engine" / "scan.py"
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(
            """
            class ScanOp:
                def __init__(self, snapshot):
                    # lint-ok: snapshot-scope (fixture)
                    self.snapshot = snapshot
            """
        ))
        assert main([str(tmp_path / "src"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unsuppressed"] == 0
        assert payload["suppressed"] == 1
        assert payload["findings"][0]["rule"] == "snapshot-scope"

    def test_rule_filter(self, tmp_path):
        target = tmp_path / "src" / "repro" / "engine" / "scan.py"
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(
            """
            class ScanOp:
                def __init__(self, snapshot):
                    self.snapshot = snapshot
            """
        ))
        assert main([str(tmp_path / "src"), "--rule", "sqlstate"]) == 0


# -- the repo itself ----------------------------------------------------------


class TestTreeSqlstateAudit:
    """Pinned regression for the sqlstate audit: every project exception
    class deriving from ReproError carries a SQLSTATE (class attribute,
    ``__init__`` assignment, or inheritance).  CrashError happens to
    inherit the storage-class state, but the rule exempts it by name
    regardless: the statement machinery must never dress a simulated
    host crash up as a SQL error."""

    def test_every_engine_error_class_carries_sqlstate(self):
        from repro.verify.lint import load_paths

        index = ProjectIndex(load_paths([SRC]))
        bare = sorted(
            name for name in index.classes
            if name != "ReproError"
            and index.class_derives(name, "ReproError")
            and not index.class_carries_sqlstate(name)
        )
        assert bare == [], bare


@pytest.fixture(scope="module")
def protocol_findings():
    return lint_paths([SRC], ["write-protocol", "snapshot-scope",
                              "resource-pairing", "sqlstate"])


class TestRepoIsClean:
    def test_src_tree_has_no_unjustified_findings(self, protocol_findings):
        live = [f for f in protocol_findings if not f.suppressed]
        assert live == [], "\n".join(f.render() for f in live)

    def test_every_tree_suppression_is_justified(self, protocol_findings):
        suppressed = [f for f in protocol_findings if f.suppressed]
        assert suppressed, "expected justified suppressions in tree"
        for finding in suppressed:
            assert finding.justification, finding.render()
