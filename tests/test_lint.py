"""Self-tests for the ``repro.lint`` static analyzer.

The fixture files in ``tests/lint_fixtures/`` are known-bad snippets; each
test asserts the expected rule fires at exactly the expected lines and
nowhere else.  The mutation tests then assert the two acceptance properties
from the rule catalogue: a wall-clock call inserted into ``netsim/link.py``
and an unseeded ``default_rng()`` inserted into ``core/probing.py`` are
both caught, and the shipped tree itself lints clean.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.cli import main as lint_main
from repro.lint.dataflow import ModuleTable, ProjectContext, module_name_for_path
from repro.lint.pragmas import extract_pragmas
from repro.lint.registry import ALL_RULES, DEFAULT_ALLOWLIST, get_rules
from repro.lint.report import render_sarif

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def fire_lines(filename: str, rule_id: str) -> list[int]:
    """Lines at which ``rule_id`` fires in one fixture file (sorted)."""
    path = FIXTURES / filename
    findings = lint_source(path.read_text(), str(path))
    assert all(f.rule_id == rule_id for f in findings), (
        f"unexpected extra rules in {filename}: "
        f"{sorted({f.rule_id for f in findings})}"
    )
    return sorted(f.line for f in findings)


class TestRulesOnFixtures:
    def test_sim001_wall_clock(self):
        assert fire_lines("bad_sim001.py", "SIM001") == [9, 13, 14]

    def test_sim002_unseeded_randomness(self):
        assert fire_lines("bad_sim002.py", "SIM002") == [10, 11, 12, 13]

    def test_sim003_virtual_time_equality(self):
        assert fire_lines("bad_sim003.py", "SIM003") == [5, 11, 16]

    def test_sim004_unit_suffixes(self):
        assert fire_lines("bad_sim004.py", "SIM004") == [6, 9, 10, 11, 12]

    def test_sim005_mutable_defaults(self):
        assert fire_lines("bad_sim005.py", "SIM005") == [4, 8]

    def test_sim006_never_yielding_process(self):
        assert fire_lines("bad_sim006.py", "SIM006") == [15]

    def test_sim007_bare_print(self):
        # line 16's print carries an inline pragma; only 7 and 12 fire
        assert fire_lines("bad_sim007.py", "SIM007") == [7, 12]

    def test_sim008_rng_in_unordered_iteration(self):
        assert fire_lines("bad_sim008.py", "SIM008") == [11, 13, 15, 22, 28]

    def test_sim009_impure_hooks_and_guard_bypass(self):
        assert fire_lines("bad_sim009.py", "SIM009") == [22, 23, 24, 25, 31]

    def test_sim011_sweep_shared_state(self):
        assert fire_lines("bad_sim011.py", "SIM011") == [35, 36, 37, 38, 44]

    def test_project_rules_respect_allowlist(self):
        for name, rule_id in (
            ("bad_sim008.py", "SIM008"),
            ("bad_sim011.py", "SIM011"),
        ):
            path = FIXTURES / name
            allow = dict(DEFAULT_ALLOWLIST)
            allow[rule_id] = (f"lint_fixtures/{name}",)
            findings = lint_source(path.read_text(), str(path), allowlist=allow)
            assert [f for f in findings if f.rule_id == rule_id] == []

    def test_pragmas_suppress_everything(self):
        path = FIXTURES / "pragmas_ok.py"
        assert lint_source(path.read_text(), str(path)) == []

    def test_clean_fixture_is_clean(self):
        path = FIXTURES / "clean.py"
        assert lint_source(path.read_text(), str(path)) == []


class TestSuppression:
    def test_pragma_only_suppresses_named_rule(self):
        source = (
            "import time\n"
            "t = time.time()  # simlint: disable=SIM002 -- wrong rule id\n"
        )
        findings = lint_source(source, "x.py")
        assert [f.rule_id for f in findings] == ["SIM001"]

    def test_allowlist_matches_path_suffix(self):
        source = 'print("hello")\n'
        hit = lint_source(source, "src/repro/netsim/link.py")
        assert [f.rule_id for f in hit] == ["SIM007"]
        # the entry matches wherever the repository is checked out
        allowed = lint_source(source, "/work/checkout/src/repro/cli.py")
        assert allowed == []

    def test_rule_selection(self):
        source = "import time\n\ndef f(xs=[]):\n    return time.time()\n"
        only_5 = lint_source(source, "x.py", rules=get_rules(select=["SIM005"]))
        assert [f.rule_id for f in only_5] == ["SIM005"]
        without_1 = lint_source(source, "x.py", rules=get_rules(disable=["SIM001"]))
        assert [f.rule_id for f in without_1] == ["SIM005"]

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="SIM999"):
            get_rules(select=["SIM999"])

    def test_sim007_allowlists_cli_and_directories(self):
        source = 'print("hello")\n'
        hit = lint_source(source, "src/repro/netsim/link.py")
        assert [f.rule_id for f in hit] == ["SIM007"]
        # CLI front ends are allowlisted by file suffix ...
        assert lint_source(source, "src/repro/cli.py") == []
        assert lint_source(source, "src/repro/obs/cli.py") == []
        # ... examples and benchmarks by directory entry
        assert lint_source(source, "examples/quickstart.py") == []
        assert lint_source(source, "benchmarks/test_perf_substrate.py") == []
        # a directory entry must match a whole path component
        assert lint_source(source, "src/repro/notexamples/x.py") != []


class TestPragmaSpans:
    """Satellite: pragmas on the first line of a multi-line statement."""

    def test_pragma_on_decorator_line_covers_signature(self):
        source = (
            "import functools\n"
            "\n"
            "\n"
            "@functools.lru_cache  # simlint: disable=SIM005 -- frozen wrapper\n"
            "def f(\n"
            "    xs=[],\n"
            "):\n"
            "    return xs\n"
        )
        assert lint_source(source, "x.py") == []

    def test_pragma_on_wrapped_call_first_line(self):
        source = (
            "import time\n"
            "\n"
            "t = max(  # simlint: disable=SIM001 -- harness-side timing\n"
            "    time.time(),\n"
            "    time.time(),\n"
            ")\n"
        )
        assert lint_source(source, "x.py") == []

    def test_pragma_does_not_blanket_a_def_body(self):
        source = (
            "import time\n"
            "\n"
            "\n"
            "def f():  # simlint: disable=SIM001\n"
            "    return time.time()\n"
        )
        findings = lint_source(source, "x.py")
        assert [f.rule_id for f in findings] == ["SIM001"]

    def test_span_expansion_only_from_first_line(self):
        source = (
            "import time\n"
            "\n"
            "t = max(\n"
            "    time.time(),  # simlint: disable=SIM001 -- this line only\n"
            "    time.time(),\n"
            ")\n"
        )
        findings = lint_source(source, "x.py")
        assert [f.line for f in findings] == [5]


class TestDataflow:
    """Unit tests for the ProjectContext core under SIM008-SIM011."""

    def test_module_name_for_path(self):
        assert (
            module_name_for_path("/repo/src/repro/netsim/link.py")
            == "repro.netsim.link"
        )
        assert module_name_for_path("src/repro/__init__.py") == "repro"
        assert (
            module_name_for_path("/a/b/tests/lint_fixtures/bad_sim008.py")
            == "tests.lint_fixtures.bad_sim008"
        )

    def test_import_resolution_absolute_and_relative(self):
        source = (
            "from repro.parallel import SweepTask as ST\n"
            "import numpy as np\n"
            "from . import engine\n"
            "from ..core import probing\n"
        )
        tree = ast.parse(source)
        table = ModuleTable("src/repro/netsim/link.py", "repro.netsim.link", tree)
        assert table.imports["ST"] == "repro.parallel.SweepTask"
        assert table.imports["np"] == "numpy"
        assert table.imports["engine"] == "repro.netsim.engine"
        assert table.imports["probing"] == "repro.core.probing"

    def test_cross_module_function_resolution_and_call_graph(self):
        lib = (
            "def draw(rng):\n"
            "    return rng.normal()\n"
        )
        app = (
            "from repro.liblike import draw\n"
            "\n"
            "def run(rng):\n"
            "    return draw(rng)\n"
        )
        project = ProjectContext.build(
            [
                ("src/repro/liblike.py", ast.parse(lib)),
                ("src/repro/applike.py", ast.parse(app)),
            ]
        )
        run_info = project.modules["repro.applike"].functions["run"]
        callees = project.callees(run_info)
        assert [c.dotted for c in callees] == ["repro.liblike.draw"]
        assert project.draws_rng(run_info)  # transitively, through the callee
        graph = project.call_graph()
        assert graph["repro.applike.run"] == {"repro.liblike.draw"}

    def test_reaching_defs_sees_through_branches(self):
        source = (
            "def f(flag, rng):\n"
            "    xs = {1, 2}\n"
            "    if flag:\n"
            "        xs = sorted(xs)\n"
            "    for x in xs:\n"
            "        rng.normal()\n"
        )
        tree = ast.parse(source)
        table = ModuleTable("m.py", "m", tree)
        project = ProjectContext.build([("m.py", tree)])
        qual, scope = next(s for s in table.scopes if s[0] == "f")
        loop = next(n for n in ast.walk(scope) if isinstance(n, ast.For))
        walk = project.reaching(table, scope)
        cands = walk.candidates(loop, "xs")
        # both the set literal and the sorted() call reach the loop
        kinds = {type(c).__name__ for c in cands if c is not None}
        assert kinds == {"Set", "Call"}


class TestBaseline:
    def _findings(self, path="tests/x.py"):
        source = "import time\nt = time.time()\n"
        return lint_source(source, path)

    def test_roundtrip_and_ratchet(self, tmp_path):
        findings = self._findings()
        assert len(findings) == 1
        baseline_file = tmp_path / "base.json"
        write_baseline(baseline_file, findings)
        baseline = load_baseline(baseline_file)
        split = apply_baseline(findings, baseline)
        assert split.new == [] and len(split.baselined) == 1 and split.stale == []

    def test_second_occurrence_is_new(self, tmp_path):
        findings = self._findings()
        baseline_file = tmp_path / "base.json"
        write_baseline(baseline_file, findings)
        baseline = load_baseline(baseline_file)
        split = apply_baseline(findings + findings, baseline)
        assert len(split.new) == 1 and len(split.baselined) == 1

    def test_stale_entries_reported(self, tmp_path):
        baseline_file = tmp_path / "base.json"
        write_baseline(baseline_file, self._findings())
        baseline = load_baseline(baseline_file)
        split = apply_baseline([], baseline)
        assert split.new == [] and len(split.stale) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_cli_strict_tolerates_baselined(self, tmp_path, capsys):
        bad = tmp_path / "pkg" / "clock.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n")
        assert lint_main([str(bad)]) == 1
        baseline_file = tmp_path / "pkg" / ".simlint-baseline.json"
        assert (
            lint_main([str(bad), "--write-baseline", "--baseline", str(baseline_file)])
            == 0
        )
        capsys.readouterr()
        # auto-discovered baseline (it sits next to the linted file)
        assert lint_main([str(bad), "--strict"]) == 0
        assert "1 baselined finding(s) tolerated" in capsys.readouterr().out
        # a new finding still fails strict mode
        bad.write_text("import time\nt = time.time()\nu = time.monotonic()\n")
        assert lint_main([str(bad), "--strict"]) == 1


class TestSarifAndReports:
    def test_render_sarif_structure(self):
        findings = lint_source("import time\nt = time.time()\n", "src/x.py")
        log = json.loads(render_sarif(findings, ALL_RULES, tool_version="1.2.3"))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} == {
            rule.id for rule in ALL_RULES
        }
        result = run["results"][0]
        assert result["ruleId"] == "SIM001"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/x.py"
        assert loc["region"]["startLine"] == 2

    def test_cli_sarif_file_and_format(self, tmp_path, capsys):
        bad = FIXTURES / "bad_sim001.py"
        sarif_file = tmp_path / "out" / "lint.sarif"
        code = lint_main(
            [str(bad), "--format", "sarif", "--sarif-file", str(sarif_file)]
        )
        assert code == 1
        stdout_log = json.loads(capsys.readouterr().out)
        file_log = json.loads(sarif_file.read_text())
        for log in (stdout_log, file_log):
            assert {r["ruleId"] for r in log["runs"][0]["results"]} == {"SIM001"}

    def test_cli_explain(self, capsys):
        assert lint_main(["--explain", "SIM011"]) == 0
        out = capsys.readouterr().out
        assert "SIM011" in out and "cache key" in out
        assert "# simlint: disable=SIM011" in out
        assert lint_main(["--explain", "SIM999"]) == 2


class TestMutationAcceptance:
    """Deliberately corrupt real source files (in memory) — must be caught."""

    def test_wall_clock_in_link_py_is_caught(self):
        path = REPO_ROOT / "src" / "repro" / "netsim" / "link.py"
        source = path.read_text() + (
            "\nimport time\n\n\ndef _bad_stamp():\n    return time.time()\n"
        )
        findings = lint_source(source, str(path))
        assert any(f.rule_id == "SIM001" for f in findings)

    def test_unseeded_rng_in_probing_py_is_caught(self):
        path = REPO_ROOT / "src" / "repro" / "core" / "probing.py"
        source = path.read_text() + (
            "\nimport numpy as _np_lintcheck\n\n"
            "_BAD_RNG = _np_lintcheck.random.default_rng()\n"
        )
        findings = lint_source(source, str(path))
        assert any(f.rule_id == "SIM002" for f in findings)

    def test_print_in_engine_py_is_caught(self):
        path = REPO_ROOT / "src" / "repro" / "netsim" / "engine.py"
        source = path.read_text() + (
            '\n\ndef _bad_debug(sim):\n    print("now =", sim.now)\n'
        )
        findings = lint_source(source, str(path))
        assert any(f.rule_id == "SIM007" for f in findings)

    @staticmethod
    def _sim009(source, path):
        return [
            f.message for f in lint_source(source, str(path)) if f.rule_id == "SIM009"
        ]

    def test_domain_gate_without_qdisc_check_is_caught(self):
        path = REPO_ROOT / "src" / "repro" / "netsim" / "flowtransit.py"
        source = path.read_text()
        mutant = source.replace("            or link._qdisc is not None\n", "", 1)
        assert mutant != source
        assert self._sim009(source, path) == []
        messages = self._sim009(mutant, path)
        assert any("_domain_for()" in m and "_qdisc" in m for m in messages)

    def test_renamed_domain_gate_is_caught(self):
        # A guard the rule cannot find is a finding, not a silent skip.
        path = REPO_ROOT / "src" / "repro" / "netsim" / "flowtransit.py"
        mutant = path.read_text().replace("_domain_for", "_gate_for")
        messages = self._sim009(mutant, path)
        assert any("no longer defines _domain_for()" in m for m in messages)

    def test_renamed_aggregator_register_is_caught(self):
        path = REPO_ROOT / "src" / "repro" / "netsim" / "bulkarrivals.py"
        source = path.read_text()
        mutant = source.replace("    def register(", "    def enrol(", 1)
        assert mutant != source
        assert self._sim009(source, path) == []
        messages = self._sim009(mutant, path)
        assert any(
            "no longer defines CrossAggregator.register()" in m for m in messages
        )

    def test_shipped_tree_is_clean(self):
        result = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]
        )
        assert result.parse_errors == []
        assert result.findings == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}" for f in result.findings
        )
        assert result.files_checked > 100  # the whole tree, not a subset

    def test_full_tree_is_clean_modulo_baseline(self):
        # The strict-CI contract: src/tests/benchmarks/examples produce no
        # findings beyond the committed .simlint-baseline.json ratchet.
        result = lint_paths(
            [
                REPO_ROOT / "src",
                REPO_ROOT / "tests",
                REPO_ROOT / "benchmarks",
                REPO_ROOT / "examples",
            ]
        )
        assert result.parse_errors == []
        baseline = load_baseline(REPO_ROOT / ".simlint-baseline.json")
        assert baseline, "committed baseline is missing or empty"
        split = apply_baseline(result.findings, baseline)
        assert split.new == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}" for f in split.new
        )
        assert split.stale == [], (
            "baseline entries went stale - remove them: "
            + json.dumps(split.stale, indent=2)
        )


class TestCli:
    def test_exit_codes_and_text_output(self, capsys):
        assert lint_main([str(FIXTURES / "clean.py")]) == 0
        assert lint_main([str(FIXTURES / "bad_sim001.py")]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out and "bad_sim001.py:9" in out

    def test_json_format(self, capsys):
        code = lint_main([str(FIXTURES / "bad_sim005.py"), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["finding_count"] == 2
        assert {f["rule_id"] for f in payload["findings"]} == {"SIM005"}
        assert payload["files_checked"] == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_no_allowlist_reports_realtime(self):
        cli = REPO_ROOT / "src" / "repro" / "cli.py"
        assert lint_main([str(cli)]) == 0
        assert lint_main([str(cli), "--no-allowlist"]) == 1

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert lint_main([str(bad)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        # A typo'd path must not silently lint zero files and pass CI.
        assert lint_main(["does/not/exist"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestRegistryConsistency:
    def test_every_rule_has_a_checker(self):
        from repro.lint.projectrules import PROJECT_RULE_IDS
        from repro.lint.rules import CHECKERS

        assert set(CHECKERS) | PROJECT_RULE_IDS == {rule.id for rule in ALL_RULES}
        assert not set(CHECKERS) & PROJECT_RULE_IDS  # each rule in one pass

    def test_default_allowlist_rules_exist(self):
        assert set(DEFAULT_ALLOWLIST) <= {rule.id for rule in ALL_RULES}
