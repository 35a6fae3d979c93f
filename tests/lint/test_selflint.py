"""The gate on the repo itself: src/repro lints clean, the committed
baseline is canonical, and every inline exemption carries a reason."""

from __future__ import annotations

from pathlib import Path

from repro.lint import render_baseline, run_lint
from repro.lint.baseline import DEFAULT_BASELINE_NAME, load_baseline
from repro.lint.engine import all_findings, find_suppressions
from repro.lint.project import Project

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def run_selflint():
    project = Project.load(REPO_ROOT, [SRC])
    baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE_NAME)
    return project, run_lint(project, baseline_keys=baseline.keys())


class TestSelfLint:
    def test_src_repro_has_no_new_findings(self):
        _, result = run_selflint()
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )

    def test_committed_baseline_is_byte_stable(self):
        # Regenerating the baseline from the current findings must
        # reproduce the committed file byte for byte — the property
        # that makes `--write-baseline` diffs trustworthy.
        _, result = run_selflint()
        committed = (REPO_ROOT / DEFAULT_BASELINE_NAME).read_text(
            encoding="utf-8"
        )
        assert render_baseline(all_findings(result)) == committed

    def test_no_stale_baseline_entries(self):
        _, result = run_selflint()
        assert result.stale_baseline == []

    def test_every_suppression_names_a_reason(self):
        # `# repro: noqa[...]` without a justification is indistinguishable
        # from a silencing reflex; the repo's own exemptions must say why.
        project, _ = run_selflint()
        unexplained = [
            f"{s.path}:{s.line}"
            for source in project.files
            for s in find_suppressions(source)
            if not s.reason.strip()
        ]
        assert unexplained == []

    def test_the_intentional_exemptions_are_exactly_the_known_ones(self):
        # Keeps the exemption surface explicit: growing it means
        # editing this list alongside the new noqa comment.
        project, result = run_selflint()
        suppressed = sorted(
            {(f.path, f.rule) for f in result.suppressed}
        )
        assert suppressed == [("src/repro/analysis/tdat.py", "RL001")]
