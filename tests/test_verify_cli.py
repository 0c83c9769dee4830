"""Tests for the ``repro-verify`` console front door (repro.verify.cli).

The subcommands run tools that own their own test suites
(test_verify_lint / test_verify_flow / test_verify_plan / test_verify_mc
/ test_verify_mutate);
here we pin the wiring: dispatch, subcommand options (including one right
after the subcommand), the shared ``--json`` flag, exit-status
propagation, and the pyproject entry-point declaration.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.verify.cli import PLAN_SWEEP_CORPUS, main


class TestPlanSweep:
    def test_demo_corpus_verifies_clean(self, capsys):
        assert main(["plan"]) == 0
        out = capsys.readouterr()
        assert out.out.count("ok") == len(PLAN_SWEEP_CORPUS)
        assert "0 with issues" in out.err

    def test_json_report_shape(self, capsys):
        assert main(["--json", "plan"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 0
        assert [s["sql"] for s in payload["statements"]] == list(
            PLAN_SWEEP_CORPUS
        )
        assert all(s["issues"] == [] for s in payload["statements"])


class TestDelegation:
    def test_flow_propagates_findings_as_exit_status(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "database" / "database.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(textwrap.dedent("""\
            class Database:
                def execute(self, sql):
                    self.table.insert_rows([])
        """))
        # The interprocedural rules run under `lint`; there is no `flow`.
        assert main(["lint", str(tmp_path / "src")]) == 1
        assert "write-protocol" in capsys.readouterr().out

    def test_top_level_json_is_forwarded_to_flow(self, tmp_path, capsys):
        clean = tmp_path / "mod.py"
        clean.write_text("def f():\n    return 1\n")
        assert main(["--json", "lint", "--rule", "write-protocol",
                     str(clean)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"findings": [], "unsuppressed": 0, "suppressed": 0}

    def test_lint_delegates_with_paths(self, tmp_path, capsys):
        clean = tmp_path / "mod.py"
        clean.write_text("def f():\n    return 1\n")
        assert main(["lint", str(clean)]) == 0

    def test_mc_passthrough_accepts_leading_option(self, capsys):
        # `--list` follows the subcommand with no positional in between.
        assert main(["mc", "--list"]) == 0
        assert "commit-vs-checkpoint" in capsys.readouterr().out


class TestArgumentErrors:
    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_missing_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestEntryPoint:
    def test_pyproject_declares_console_script(self):
        pyproject = (
            Path(__file__).resolve().parents[1] / "pyproject.toml"
        ).read_text()
        assert 'repro-verify = "repro.verify.cli:main"' in pyproject

    def test_every_documented_command_dispatches(self, capsys):
        for command in ("lint", "plan", "mc", "mutate", "impact"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0, command
        with pytest.raises(SystemExit) as exc:
            main(["flow"])
        assert exc.value.code == 2


def _mini_project(tmp_path: Path) -> Path:
    """A tiny src/+tests/ tree with one reached and one unreached symbol."""
    src = tmp_path / "src" / "mini"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "core.py").write_text(textwrap.dedent("""\
        def clamp(value, low, high):
            if value < low:
                return low
            if value > high:
                return high
            return value


        def orphan(value):
            return value > 0
    """))
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_core.py").write_text(textwrap.dedent("""\
        from mini.core import clamp


        def test_clamp():
            assert clamp(5, 0, 3) == 3
            assert clamp(-1, 0, 3) == 0
            assert clamp(2, 0, 3) == 2
    """))
    return tmp_path


class TestImpactCommand:
    def test_reached_symbol_lists_test_files(self, tmp_path, capsys):
        root = _mini_project(tmp_path)
        assert main(
            ["impact", "mini.core::clamp", "--root", str(root)]
        ) == 0
        out = capsys.readouterr().out
        assert "src/mini/core.py::clamp" in out
        assert "tests/test_core.py" in out

    def test_unreached_symbol_exits_nonzero(self, tmp_path, capsys):
        root = _mini_project(tmp_path)
        assert main(
            ["impact", "mini.core::orphan", "--root", str(root)]
        ) == 1
        assert "statically unreached" in capsys.readouterr().out

    def test_json_shape(self, tmp_path, capsys):
        root = _mini_project(tmp_path)
        assert main(
            ["--json", "impact", "mini.core::clamp", "--root", str(root)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == "mini.core::clamp"
        [entry] = payload["symbols"]
        assert entry["symbol"] == "clamp"
        assert entry["tests"] == ["tests/test_core.py"]

    def test_unknown_symbol_is_an_error(self, tmp_path, capsys):
        root = _mini_project(tmp_path)
        assert main(
            ["impact", "mini.core::nonexistent", "--root", str(root)]
        ) == 2
        assert "no symbol matches" in capsys.readouterr().err

    def test_malformed_spec_is_an_error(self, tmp_path, capsys):
        root = _mini_project(tmp_path)
        assert main(["impact", "no-separator", "--root", str(root)]) == 2
        assert "<module>::<symbol>" in capsys.readouterr().err


class TestMutateCommand:
    def test_list_operators(self, capsys):
        assert main(["mutate", "--list-operators"]) == 0
        out = capsys.readouterr().out
        for name in ("drop-wal", "swap-xmin-xmax", "off-by-one",
                     "drop-lock", "boundary", "constant"):
            assert name in out
