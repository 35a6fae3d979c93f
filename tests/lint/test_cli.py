"""The lint command line: exit codes, JSON shape, tdat integration."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    main,
)
from repro.tools import tdat_cli

FIXTURES = Path(__file__).parent / "fixtures"
GOOD = FIXTURES / "rl003" / "good"
BAD = FIXTURES / "rl003" / "bad"


def lint(*argv: str) -> int:
    return main(list(argv))


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert lint("--root", str(GOOD), str(GOOD)) == EXIT_CLEAN
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, capsys):
        assert lint("--root", str(BAD), str(BAD)) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RL003" in out
        assert "repro/workloads/runner.py" in out

    def test_bad_root_exits_two(self, capsys):
        assert lint("--root", str(BAD / "nope"), str(BAD)) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert lint("--root", str(tmp_path), str(tmp_path)) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_parse_error_among_good_files_exits_two(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert lint("--root", str(tmp_path), str(tmp_path)) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        code = lint("--root", str(GOOD), "--select", "RL999", str(GOOD))
        assert code == EXIT_USAGE

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("not json")
        code = lint(
            "--root", str(BAD), "--baseline", str(baseline), str(BAD)
        )
        assert code == EXIT_USAGE


class TestJsonOutput:
    def test_shape_and_content(self, capsys):
        assert lint("--root", str(BAD), "--json", str(BAD)) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["files"] > 0
        assert payload["root"] == str(BAD)
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"RL003"}
        finding = payload["findings"][0]
        assert set(finding) >= {
            "rule", "severity", "path", "line", "col", "message",
        }

    def test_clean_json(self, capsys):
        assert lint("--root", str(GOOD), "--json", str(GOOD)) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["findings"] == []


class TestSarifOutput:
    def test_document_shape_and_findings(self, capsys):
        code = lint("--root", str(BAD), "--format", "sarif", str(BAD))
        assert code == EXIT_FINDINGS
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "RL003" in rule_ids  # full catalog, not just firing rules
        assert "RL011" in rule_ids
        results = run["results"]
        assert {r["ruleId"] for r in results} == {"RL003"}
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == (
            "repro/workloads/runner.py"
        )
        # SARIF columns are 1-based; the text format's are ast's 0-based.
        assert location["region"]["startColumn"] >= 1

    def test_clean_tree_still_emits_a_valid_document(self, capsys):
        code = lint("--root", str(GOOD), "--format", "sarif", str(GOOD))
        assert code == EXIT_CLEAN
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"] == []

    def test_sarif_bytes_are_deterministic(self, capsys):
        lint("--root", str(BAD), "--format", "sarif", str(BAD))
        first = capsys.readouterr().out
        lint("--root", str(BAD), "--format", "sarif", str(BAD))
        assert capsys.readouterr().out == first

    def test_format_json_is_the_json_flag(self, capsys):
        lint("--root", str(BAD), "--format", "json", str(BAD))
        via_format = capsys.readouterr().out
        lint("--root", str(BAD), "--json", str(BAD))
        assert capsys.readouterr().out == via_format


class TestBaselineWorkflow:
    def test_write_then_gate(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        code = lint(
            "--root", str(BAD), "--baseline", str(baseline),
            "--write-baseline", str(BAD),
        )
        assert code == EXIT_CLEAN
        assert json.loads(baseline.read_text())["findings"]
        capsys.readouterr()
        code = lint(
            "--root", str(BAD), "--baseline", str(baseline), str(BAD)
        )
        assert code == EXIT_CLEAN
        assert "3 baselined" in capsys.readouterr().err


class TestListRules:
    def test_prints_the_catalog(self, capsys):
        assert lint("--list-rules") == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert rule in out


class TestTdatIntegration:
    def test_tdat_lint_clean(self, capsys):
        code = tdat_cli.main(["lint", "--root", str(GOOD), str(GOOD)])
        assert code == EXIT_CLEAN

    def test_tdat_lint_findings(self, capsys):
        code = tdat_cli.main(["lint", "--root", str(BAD), str(BAD)])
        assert code == EXIT_FINDINGS
        assert "RL003" in capsys.readouterr().out

    def test_tdat_lint_json(self, capsys):
        code = tdat_cli.main(["lint", "--root", str(BAD), "--json", str(BAD)])
        assert code == EXIT_FINDINGS
        assert json.loads(capsys.readouterr().out)["clean"] is False

    def test_lint_is_a_documented_subcommand(self):
        assert "lint" in tdat_cli.SUBCOMMANDS
