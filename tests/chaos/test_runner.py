"""The differential chaos verifier: outcomes, matrix algebra, and the
ISSUE acceptance sweep (100 seeds, every fault class defined and
recoverable)."""

import json

import pytest

from repro.chaos.plan import FAULT_CLASSES, draw_plan
from repro.chaos.runner import (
    OUTCOME_IDENTICAL,
    OUTCOME_TYPED,
    OUTCOME_UNDEFINED,
    OUTCOME_VIOLATION,
    ChaosCase,
    ChaosReport,
    run_chaos,
    run_plan,
)
from repro.tools import tdat_cli

TRANSFERS = 2  # the smallest legal plan; keeps the sweep fast


def _case(fault_class, outcome, seed=0):
    return ChaosCase(
        seed=seed, fault_class=fault_class,
        outcome=outcome, description="synthetic",
    )


class TestMatrixAlgebra:
    def test_cell_is_the_worst_outcome_of_its_class(self):
        report = ChaosReport(cases=[
            _case(FAULT_CLASSES[0], OUTCOME_IDENTICAL, seed=0),
            _case(FAULT_CLASSES[0], OUTCOME_TYPED, seed=10),
            _case(FAULT_CLASSES[1], OUTCOME_TYPED, seed=1),
            _case(FAULT_CLASSES[1], OUTCOME_VIOLATION, seed=11),
        ])
        matrix = report.matrix()
        assert matrix[FAULT_CLASSES[0]] == OUTCOME_TYPED
        assert matrix[FAULT_CLASSES[1]] == OUTCOME_VIOLATION
        assert not report.ok

    def test_unexercised_class_is_undefined_and_fails_the_report(self):
        report = ChaosReport(
            cases=[_case(FAULT_CLASSES[0], OUTCOME_IDENTICAL)]
        )
        matrix = report.matrix()
        assert matrix[FAULT_CLASSES[1]] == OUTCOME_UNDEFINED
        assert not report.ok  # no violations, but coverage is short

    def test_full_green_matrix_is_ok(self):
        report = ChaosReport(cases=[
            _case(fault_class, OUTCOME_IDENTICAL, seed=i)
            for i, fault_class in enumerate(FAULT_CLASSES)
        ])
        assert report.ok
        assert report.violations == []
        assert "chaos: OK" in report.summary()


class TestRunPlan:
    def test_fs_fault_is_typed_and_resumes_byte_identical(self):
        # Seed 0 is journal.append: the campaign must surface a typed
        # interruption (or simulated crash) and resume cleanly.
        case = run_plan(draw_plan(0, tasks=TRANSFERS), transfers=TRANSFERS)
        assert case.outcome == OUTCOME_TYPED, case.detail
        assert "resumed byte-identical" in case.detail

    def test_worker_crash_is_absorbed_byte_identical(self):
        # Seed 5 is pool.worker-crash: retries absorb it completely.
        case = run_plan(draw_plan(5, tasks=TRANSFERS), transfers=TRANSFERS)
        assert case.outcome == OUTCOME_IDENTICAL, case.detail


class TestAcceptanceSweep:
    def test_100_seed_sweep_has_no_undefined_or_violation_cells(self):
        # The ISSUE acceptance criterion: every fault class exercised,
        # every cell byte-identical or typed-recoverable, zero silent
        # divergence.
        report = run_chaos(seeds=100, transfers=TRANSFERS)
        assert len(report.cases) == 100
        matrix = report.matrix()
        for fault_class in FAULT_CLASSES:
            assert matrix[fault_class] in (
                OUTCOME_IDENTICAL, OUTCOME_TYPED
            ), (fault_class, matrix[fault_class], report.summary())
        assert report.violations == []
        assert report.ok
        # 100 seeds round-robined over the 11 classes: 9 or 10 plans
        # per class.
        for fault_class, cell in report.counts().items():
            assert sum(cell.values()) in (9, 10), fault_class


class TestCli:
    def test_sweep_too_short_to_cover_every_class_exits_nonzero(
        self, capsys
    ):
        code = tdat_cli.main(["chaos", "--seeds", "2", "--transfers", "2"])
        assert code == tdat_cli.EXIT_ISSUES
        out = capsys.readouterr().out
        assert "undefined" in out
        assert "chaos: FAILED" in out

    def test_json_and_matrix_out(self, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.json"
        code = tdat_cli.main([
            "chaos", "--seeds", str(len(FAULT_CLASSES)), "--transfers", "2",
            "--json", "--matrix-out", str(matrix_path),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert len(report["cases"]) == len(FAULT_CLASSES)
        written = json.loads(matrix_path.read_text())
        assert set(written["matrix"]) == set(FAULT_CLASSES)
        assert all(
            cell in ("byte-identical", "typed-recoverable")
            for cell in written["matrix"].values()
        )
