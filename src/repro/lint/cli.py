"""The ``tdat lint`` command line.

Exit codes (lint's own contract, independent of ``tdat``'s analysis
codes): 0 — clean (no non-baselined findings); 1 — findings; 2 — the
lint run itself failed (bad target path, unreadable baseline, unknown
rule).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

LINT_EXIT_CODES = """\
exit codes:
  0  clean (no findings outside the committed baseline)
  1  findings
  2  lint failed to run (bad path, unreadable baseline, unknown rule)\
"""


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """The lint options, attachable to any parser (tdat's subcommand)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/repro under "
        "the project root)",
    )
    parser.add_argument(
        "--root", metavar="DIR",
        help="project root anchoring relative paths, the baseline and "
        "the docs catalog (default: nearest ancestor with pyproject.toml)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of text "
        "(alias for --format json)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default=None,
        help="output format (default: text; sarif is SARIF 2.1.0 for "
        "code-host inline annotations)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="baseline file (default: <root>/lint-baseline.json when "
        "present); findings matching it don't fail the run",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def run_with_args(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    # Imported here so `tdat --help` never pays for the lint engine.
    from repro.lint import RULES, run_lint
    from repro.lint.baseline import (
        DEFAULT_BASELINE_NAME,
        BaselineError,
        load_baseline,
        write_baseline,
    )
    from repro.lint.engine import all_findings
    from repro.lint.project import Project, ProjectError

    if args.list_rules:
        for rule_id in sorted(RULES):
            rule = RULES[rule_id]
            print(f"{rule_id}  [{rule.severity}]  {rule.summary}")
        return EXIT_CLEAN

    try:
        root = _resolve_root(args)
        paths = [Path(p) for p in args.paths] or [_default_target(root)]
        project = Project.load(root, paths)
    except (ProjectError, FileNotFoundError) as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    baseline_path = (
        Path(args.baseline) if args.baseline
        else root / DEFAULT_BASELINE_NAME
    )
    baseline_keys: set = set()
    if baseline_path.exists() and not args.write_baseline:
        try:
            baseline_keys = load_baseline(baseline_path).keys()
        except BaselineError as exc:
            print(f"repro.lint: error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    select = None
    if args.select:
        select = [rule.strip() for rule in args.select.split(",") if rule.strip()]
    try:
        result = run_lint(project, select=select, baseline_keys=baseline_keys)
    except KeyError as exc:
        print(f"repro.lint: error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    if args.write_baseline:
        write_baseline(baseline_path, all_findings(result))
        print(
            f"wrote {len(result.findings) + len(result.baselined)} "
            f"finding(s) -> {baseline_path}",
            file=sys.stderr,
        )
        return EXIT_CLEAN

    output_format = args.format or ("json" if args.json else "text")
    if output_format == "json":
        payload = result.to_dict()
        payload["root"] = str(root)
        payload["files"] = len(project.files)
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif output_format == "sarif":
        from repro.lint.sarif import render_sarif

        sys.stdout.write(render_sarif(result, str(root)))
    else:
        for finding in result.findings:
            print(finding.render())
        summary = (
            f"{len(project.files)} file(s): "
            f"{len(result.findings)} finding(s), "
            f"{len(result.suppressed)} suppressed, "
            f"{len(result.baselined)} baselined"
        )
        if result.stale_baseline:
            summary += (
                f", {len(result.stale_baseline)} stale baseline entr"
                f"{'y' if len(result.stale_baseline) == 1 else 'ies'} "
                f"(regenerate with --write-baseline)"
            )
        print(summary, file=sys.stderr)
    return EXIT_FINDINGS if result.findings else EXIT_CLEAN


def _resolve_root(args: argparse.Namespace) -> Path:
    if args.root:
        root = Path(args.root).resolve()
        if not root.is_dir():
            raise FileNotFoundError(f"--root is not a directory: {root}")
        return root
    start = Path(args.paths[0]).resolve() if args.paths else Path.cwd()
    if start.is_file():
        start = start.parent
    for candidate in [start, *start.parents]:
        if (candidate / "pyproject.toml").exists():
            return candidate
    return start


def _default_target(root: Path) -> Path:
    target = root / "src" / "repro"
    if target.is_dir():
        return target
    raise FileNotFoundError(
        f"no lint target given and {target} does not exist; pass PATH"
    )
