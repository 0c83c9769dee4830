"""repromutate tests: operator semantics, deterministic generation,
impact-map reachability, end-to-end kill classification, baseline gating.

The end-to-end tests run real ``pytest`` subprocesses against a tiny
synthetic project (three functions, one test file) rather than the repo
itself — the repo-scale run lives in benchmarks/test_mutation.py and CI's
``mutate`` job; here we pin the *machinery*: killed vs survived vs
unreached classification, byte-identical reports across same-seed runs,
and nonzero exit on kill-rate regression.
"""

from __future__ import annotations

import ast
import json
import textwrap

import pytest

from repro.verify.cli import main as cli_main
from repro.verify.mutate import (
    ALL_OPERATORS,
    OPERATORS_BY_NAME,
    ImpactMap,
    MutationRun,
    compare_baseline,
    generate_mutants,
    load_project_sources,
    mutate_source,
    resolve_operators,
)


def _apply_first(op_name: str, source: str, module: str = "src/mod.py",
                 ordinal: int = 0) -> str:
    op = OPERATORS_BY_NAME[op_name]
    tree = ast.parse(source)
    assert op.apply(tree, module, ordinal), "operator found no target"
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


def _targets(op_name: str, source: str, module: str = "src/mod.py"):
    return OPERATORS_BY_NAME[op_name].find(ast.parse(source), module)


class TestOperators:
    def test_drop_wal_removes_log_call(self):
        src = textwrap.dedent("""\
            def insert(self, rows):
                self.wal.log_insert(self.name, rows)
                self.data.extend(rows)
        """)
        out = _apply_first("drop-wal", src)
        assert "log_insert" not in out
        assert "extend" in out

    def test_drop_wal_leaves_pass_when_body_empties(self):
        src = "def flush(self):\n    self.wal.log_checkpoint()\n"
        out = _apply_first("drop-wal", src)
        assert "log_checkpoint" not in out
        assert "pass" in out

    def test_drop_commit_hook(self):
        src = textwrap.dedent("""\
            def commit(self):
                self.stamp()
                self.engine._note_commit(self.touched)
        """)
        out = _apply_first("drop-commit-hook", src)
        assert "_note_commit" not in out
        assert "stamp" in out

    def test_swap_version_stamp_attribute_and_keyword(self):
        src = "def seen(s, row):\n    return row.xmin < s.high\n"
        assert "row.xmax < s.high" in _apply_first("swap-xmin-xmax", src)
        src = "def mk():\n    return Stamps(xmin=1, xmax=2)\n"
        targets = _targets("swap-xmin-xmax", src)
        # Both keywords anchor at the Call's position, so the sort falls
        # through to the description tiebreaker: xmax= first.
        assert [t.description for t in targets] == [
            "xmax= -> xmin=", "xmin= -> xmax=",
        ]
        assert "Stamps(xmin=1, xmin=2)" in _apply_first(
            "swap-xmin-xmax", src, ordinal=0
        )

    def test_swap_ignores_bare_names(self):
        # Dataclass field declarations (`xmin: int`) and locals named xmin
        # are not stamp *uses*; mutating them is noise, not a bug model.
        assert _targets("swap-xmin-xmax", "xmin = 1\nprint(xmin)\n") == []

    def test_off_by_one_range_bound(self):
        src = "def spans(n, size):\n    return range(0, n + size, size)\n"
        assert "n + size - 1" in _apply_first("off-by-one", src)

    def test_off_by_one_slice_bound(self):
        src = "def batch(xs, i, k):\n    return xs[i:i + k]\n"
        assert "xs[i:i + k - 1]" in _apply_first("off-by-one", src)

    def test_drop_lock_unwraps_with_body(self):
        src = textwrap.dedent("""\
            def bump(self):
                with self._lock:
                    self.n += 1
                return self.n
        """)
        out = _apply_first("drop-lock", src)
        assert "with" not in out
        assert "self.n += 1" in out

    def test_drop_lock_ignores_non_lock_contexts(self):
        src = "def f(p):\n    with open(p) as h:\n        return h.read()\n"
        assert _targets("drop-lock", src) == []

    def test_drop_finally_release(self):
        src = textwrap.dedent("""\
            def run(self):
                try:
                    return self.step()
                finally:
                    self.shm.close()
        """)
        out = _apply_first("drop-finally", src)
        assert "close" not in out
        assert "pass" in out  # finally block kept, body emptied to pass

    def test_commute_merge_reverses_fold(self):
        src = textwrap.dedent("""\
            def merge_all(parts):
                for p in parts:
                    acc.merge(p)
        """)
        out = _apply_first("commute-merge", src)
        assert "reversed(parts)" in out

    def test_commute_merge_swaps_receiver(self):
        src = "def add_morsel(self, other):\n    self.total.merge(other)\n"
        targets = _targets("commute-merge", src)
        swap = [t for t in targets
                if t.description == "swap merge receiver and argument"]
        assert len(swap) == 1
        op = OPERATORS_BY_NAME["commute-merge"]
        tree = ast.parse(src)
        assert op.apply(tree, "src/mod.py", targets.index(swap[0]))
        assert "other.merge(self.total)" in ast.unparse(tree)

    def test_commute_merge_only_in_merge_functions(self):
        src = "def execute(parts):\n    for p in parts:\n        use(p)\n"
        assert _targets("commute-merge", src) == []

    def test_invert_predicate_is_module_scoped(self):
        src = "def keep(a, b):\n    return a == b\n"
        assert _targets("invert-predicate", src,
                        "src/repro/engine/expression.py")
        assert _targets("invert-predicate", src, "src/repro/sql/parser.py") \
            == []
        out = _apply_first("invert-predicate", src,
                           "src/repro/engine/expression.py")
        assert "a != b" in out

    def test_boundary_swap(self):
        assert "a <= b" in _apply_first("boundary",
                                        "def f(a, b):\n    return a < b\n")

    def test_boolean_flip_and_not(self):
        assert "a or b" in _apply_first("boolean",
                                        "def f(a, b):\n    return a and b\n")
        out = _apply_first("boolean", "def f(x):\n    return not x\n")
        assert "not not x" in out

    def test_constant_tweak_skips_bools_and_big_ints(self):
        targets = _targets("constant",
                           "A = True\nB = 3\nC = 100000\nD = 'txt'\n")
        assert [t.description for t in targets] == ["3 -> 4"]

    def test_every_operator_registered(self):
        assert len(ALL_OPERATORS) == 11
        assert set(OPERATORS_BY_NAME) == {
            "drop-wal", "drop-commit-hook", "swap-xmin-xmax", "off-by-one",
            "drop-lock", "drop-finally", "commute-merge", "invert-predicate",
            "boundary", "boolean", "constant",
        }

    def test_resolve_operators_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown mutation operator"):
            resolve_operators(["boundary", "bogus"])


SAMPLING_SOURCE = "def f():\n    return (%s)\n" % ", ".join(
    str(i) for i in range(30)
)


class TestGeneration:
    def test_same_seed_is_byte_identical(self):
        sources = {"src/mod.py": SAMPLING_SOURCE}
        ops = resolve_operators(["constant"])
        a = generate_mutants(sources, ops, seed=7, max_mutants=10)
        b = generate_mutants(sources, ops, seed=7, max_mutants=10)
        assert [m.to_json() for m in a] == [m.to_json() for m in b]
        # ... and the witness diffs line up too.
        for ma, mb in zip(a, b):
            da = mutate_source(SAMPLING_SOURCE, ma, ops[0])[1]
            db = mutate_source(SAMPLING_SOURCE, mb, ops[0])[1]
            assert da == db

    def test_ids_and_sample_survive_edits_above_the_target(self):
        # A mutant's id names what it mutates, not where: blank lines and
        # a function with no `constant` sites inserted above the target
        # leave every sampled id unchanged.
        ops = resolve_operators(["constant"])
        before = generate_mutants({"src/mod.py": SAMPLING_SOURCE}, ops,
                                  seed=7, max_mutants=10)
        edited = "\n\n\ndef helper(a, b):\n    return a < b\n\n" \
            + SAMPLING_SOURCE
        after = generate_mutants({"src/mod.py": edited}, ops, seed=7,
                                 max_mutants=10)
        assert len(before) == 10
        assert [m.mid for m in after] == [m.mid for m in before]
        assert [m.lineno for m in after] == [m.lineno + 6 for m in before]

    def test_sampling_respects_per_operator_quota(self):
        sources = {"src/mod.py": SAMPLING_SOURCE + "def g(a, b):\n"
                                                   "    return a < b\n"}
        ops = resolve_operators(["boundary", "constant"])
        mutants = generate_mutants(sources, ops, seed=0, max_mutants=4)
        by_op = {}
        for m in mutants:
            by_op.setdefault(m.operator, []).append(m)
        # quota = 4 // 2 = 2: constant is sampled down, boundary (1 site,
        # under quota) is kept whole — stratification never starves an
        # operator that has any targets.
        assert len(by_op["boundary"]) == 1
        assert len(by_op["constant"]) == 2

    def test_unlimited_keeps_every_target(self):
        sources = {"src/mod.py": SAMPLING_SOURCE}
        ops = resolve_operators(["constant"])
        mutants = generate_mutants(sources, ops, seed=0, max_mutants=None)
        assert len(mutants) == 30

    def test_ids_are_unique(self):
        # Two keywords in one call share (line, col): ids get #n suffixes.
        sources = {"src/mod.py": "def mk():\n"
                                 "    return Stamps(xmin=1, xmax=2)\n"}
        ops = resolve_operators(["swap-xmin-xmax"])
        mutants = generate_mutants(sources, ops, seed=0, max_mutants=None)
        assert len(mutants) == 2
        assert len({m.mid for m in mutants}) == 2

    def test_witness_diff_shows_the_mutation(self):
        src = "def f(a, b):\n    return a < b\n"
        ops = resolve_operators(["boundary"])
        [mutant] = generate_mutants({"src/mod.py": src}, ops, seed=0,
                                    max_mutants=None)
        _, diff = mutate_source(src, mutant, ops[0])
        assert "-    return a < b" in diff
        assert "+    return a <= b" in diff
        assert mutant.mid in diff


MINI_CORE = textwrap.dedent("""\
    def is_small(n):
        return n < 10


    def is_positive(n):
        return n > 0


    def orphan(n):
        return n < 0
""")

MINI_TESTS = textwrap.dedent("""\
    from mini.core import is_small, is_positive


    def test_is_small():
        assert is_small(9) is True
        assert is_small(10) is False


    def test_is_positive():
        assert is_positive(5) is True
        assert is_positive(-5) is False
""")


def _mini_sources() -> dict[str, str]:
    return {
        "src/mini/__init__.py": "",
        "src/mini/core.py": MINI_CORE,
        "tests/test_core.py": MINI_TESTS,
    }


def _write_mini(tmp_path):
    for rel, text in _mini_sources().items():
        path = tmp_path.joinpath(*rel.split("/"))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


class TestImpactMap:
    def test_reached_and_unreached(self):
        impact = ImpactMap.build(_mini_sources())
        assert impact.tests_reaching("src/mini/core.py", "is_small") == [
            "tests/test_core.py"
        ]
        assert impact.tests_reaching("src/mini/core.py", "orphan") == []

    def test_symbol_at_picks_innermost(self):
        sources = {
            "src/mini/core.py": textwrap.dedent("""\
                def outer():
                    def inner():
                        return 1
                    return inner()
            """),
        }
        impact = ImpactMap.build(sources)
        assert impact.symbol_at("src/mini/core.py", 3).qualname \
            == "outer.inner"
        assert impact.symbol_at("src/mini/core.py", 4).qualname == "outer"

    def test_constructor_call_links_to_init(self):
        sources = {
            "src/mini/core.py": textwrap.dedent("""\
                class Engine:
                    def __init__(self):
                        self.ready = True
            """),
            "tests/test_core.py": textwrap.dedent("""\
                from mini.core import Engine


                def test_engine():
                    assert Engine().ready
            """),
        }
        impact = ImpactMap.build(sources)
        assert impact.tests_reaching(
            "src/mini/core.py", "Engine.__init__"
        ) == ["tests/test_core.py"]

    def test_load_project_sources_keys(self, tmp_path):
        _write_mini(tmp_path)
        sources = load_project_sources(str(tmp_path))
        assert set(sources) == set(_mini_sources())

    def test_ranking_prefers_direct_callers_over_transitive(self):
        """A test file that calls the mutated symbol directly must outrank
        one that only reaches it through a facade — even when the facade
        caller has the smaller closure (the real tree's situation: every
        closure reaches everything through Database.execute)."""
        sources = {
            "src/mini/core.py": textwrap.dedent("""\
                def target():
                    return 1


                def facade():
                    return target() + helper_a() + helper_b()


                def helper_a():
                    return 0


                def helper_b():
                    return 0
            """),
            "tests/test_direct.py": textwrap.dedent("""\
                from mini.core import target, facade, helper_a


                def test_target():
                    assert target() == 1


                def test_again():
                    assert target() == 1


                def test_more():
                    assert facade() == 1 and helper_a() == 0
            """),
            "tests/test_via_facade.py": textwrap.dedent("""\
                from mini.core import facade


                def test_facade():
                    assert facade() == 1
            """),
        }
        impact = ImpactMap.build(sources)
        # test_via_facade has the smaller closure, but test_direct calls
        # target() itself — symbol edges beat closure size.
        assert impact.closure_size["tests/test_via_facade.py"] < \
            impact.closure_size["tests/test_direct.py"]
        assert impact.tests_reaching("src/mini/core.py", "target") == [
            "tests/test_direct.py", "tests/test_via_facade.py",
        ]
        # For the facade itself both files have direct edges; the one
        # with more of them wins.
        assert impact.tests_reaching("src/mini/core.py", "facade")[0] in (
            "tests/test_direct.py", "tests/test_via_facade.py",
        )


def _strip_volatile(report: dict) -> dict:
    """Drop timing fields: everything else must be run-to-run identical."""
    out = json.loads(json.dumps(report))
    out.pop("wall_seconds", None)
    for entry in out.get("mutants", []) + out.get("survivors", []):
        entry.pop("seconds", None)
    return out


@pytest.fixture(scope="module")
def mini_reports(tmp_path_factory):
    """Two same-seed end-to-end runs over the mini project (subprocess
    pytest per reached mutant) — shared by the classification and
    determinism tests to keep the suite fast."""
    root = _write_mini(tmp_path_factory.mktemp("miniproj"))
    run = MutationRun(
        root=str(root), paths=("src",), operator_names=("boundary",),
        seed=3, budget=300.0, max_mutants=None, max_tests=2,
    )
    return run.execute().to_json(), run.execute().to_json()


class TestEndToEnd:
    def test_classification(self, mini_reports):
        report, _ = mini_reports
        status = {m["id"]: m["status"] for m in report["mutants"]}
        by_line = {m["line"]: m["status"] for m in report["mutants"]}
        assert len(status) == 3
        # is_small: the test pins both sides of n < 10, so `<=` dies;
        # is_positive: n == 0 is never exercised, so `>=` survives;
        # orphan: no test imports it — unreached, reported statically.
        assert by_line[2] == "killed"
        assert by_line[6] == "survived"
        assert by_line[10] == "unreached"
        assert report["kill_rate"] == 0.5
        [survivor] = report["survivors"]
        assert survivor["tests"] == ["tests/test_core.py"]
        assert "n >= 0" in survivor["diff"]
        [unreached] = report["unreached"]
        assert unreached["symbol"] == "orphan"

    def test_same_seed_classification_is_identical(self, mini_reports):
        first, second = mini_reports
        assert _strip_volatile(first) == _strip_volatile(second)

    def test_per_operator_stats(self, mini_reports):
        report, _ = mini_reports
        stats = report["per_operator"]["boundary"]
        assert stats["sampled"] == 3
        assert stats["killed"] == 1
        assert stats["survived"] == 1
        assert stats["unreached"] == 1
        assert stats["kill_rate"] == 0.5


class TestBaselineCompare:
    def test_regression_detected(self, mini_reports):
        report, _ = mini_reports
        baseline = {
            "kill_rate": 1.0,
            "per_operator": {
                "boundary": {"kill_rate": 1.0, "killed": 5, "survived": 0},
            },
        }
        regressions = compare_baseline(report, baseline, tolerance=0.05)
        assert any("overall kill rate" in r for r in regressions)
        assert any("operator boundary" in r for r in regressions)

    def test_within_tolerance_passes(self, mini_reports):
        report, _ = mini_reports
        baseline = {
            "kill_rate": 0.5,
            "per_operator": {
                "boundary": {"kill_rate": 0.5, "killed": 2, "survived": 2},
            },
        }
        assert compare_baseline(report, baseline, tolerance=0.05) == []

    def test_missing_operator_is_a_regression(self):
        baseline = {
            "kill_rate": None,
            "per_operator": {
                "drop-wal": {"kill_rate": 1.0, "killed": 5, "survived": 0},
            },
        }
        report = {"kill_rate": None, "per_operator": {}}
        assert compare_baseline(report, baseline) == [
            "operator drop-wal missing from run"
        ]

    def test_tiny_denominators_are_ignored(self):
        baseline = {
            "kill_rate": None,
            "per_operator": {
                "off-by-one": {"kill_rate": 1.0, "killed": 2, "survived": 0},
            },
        }
        report = {
            "kill_rate": None,
            "per_operator": {
                "off-by-one": {"kill_rate": 0.0, "killed": 0, "survived": 2},
            },
        }
        # baseline reached 2 < min_reached=3: too noisy to gate on.
        assert compare_baseline(report, baseline) == []


class TestMutateCli:
    def test_baseline_regression_exits_nonzero(self, tmp_path, capsys):
        root = _write_mini(tmp_path / "proj")
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps({
            "kill_rate": 1.0,
            "per_operator": {},
        }))
        report_file = tmp_path / "report.json"
        code = cli_main([
            "--json", "mutate", "--root", str(root),
            "--paths", "src", "--operators", "boundary", "--seed", "3",
            "--max-mutants", "0", "--budget", "300",
            "--report", str(report_file),
            "--baseline", str(baseline_file),
        ])
        assert code == 1
        out = capsys.readouterr()
        assert "REGRESSION" in out.err
        # The report file is the same JSON document as stdout.
        assert json.loads(report_file.read_text()) \
            == json.loads(out.out)
