"""The differential chaos verifier: chaos run vs clean run, per seed.

Each seed compiles (:func:`~repro.chaos.plan.draw_plan`) into one
:class:`~repro.chaos.plan.ChaosPlan` and executes a micro campaign —
small tables, a handful of transfers, checkpointing on — with the
plan's fault injected.  The verdict is differential, against a cached
clean run of the identical configuration:

* ``byte-identical`` — the campaign absorbed the fault (retry, stall
  kill + respawn, heartbeat noise) and its serialized records equal the
  clean run's, with no non-benign health issues;
* ``typed-recoverable`` — the fault surfaced as a *typed* interruption
  (:class:`~repro.workloads.checkpoint.CampaignInterrupted`, a
  simulated crash) and a subsequent resume from the checkpoint
  directory reproduced the clean run byte-for-byte;
* ``violation`` — anything else: silent divergence, an untyped
  exception, a failed resume, non-benign issues after recovery, or a
  leaked worker process;
* ``undefined`` — the armed fault never fired (a schedule bug), or a
  fault class no seed exercised.

The ``analysis.memory-pressure`` class runs against the analysis
pipeline instead of a campaign: an adversarial connection flood under
a :class:`~repro.analysis.budget.ResourceBudget`.  An ample budget
must leave the report byte-identical to the unbudgeted run
(``byte-identical``); a tight one must degrade *gracefully* — typed
benign issues, peak state inside the budget (``typed-recoverable``).

``python -m repro.chaos`` / ``tdat chaos`` sweep a contiguous seed
range (covering every fault class, since the class is
``seed % len(FAULT_CLASSES)``) and report the per-fault-class outcome
matrix; any ``violation`` or ``undefined`` cell fails the sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

from repro.chaos.fsfaults import FaultyCheckpointFs, SimulatedCrash
from repro.chaos.plan import (
    FAULT_CLASSES,
    POINT_HEARTBEAT_LOSS,
    POINT_MEMORY_PRESSURE,
    POINT_WORKER_STALL,
    ChaosHooks,
    ChaosPlan,
    draw_plan,
)
from repro.core.health import STAGE_EXEC, TraceHealth
from repro.exec.pool import WorkPool
from repro.obs import get_obs
from repro.workloads.campaign import (
    CampaignConfig,
    CampaignResult,
    isp_quagga_config,
    run_campaign,
)
from repro.workloads.checkpoint import (
    CampaignInterrupted,
    CheckpointMismatch,
    GracefulShutdown,
    use_checkpoint_fs,
)

#: per-seed verdicts, in increasing severity (matrix cells aggregate
#: to the worst outcome a fault class produced).
OUTCOME_IDENTICAL = "byte-identical"
OUTCOME_TYPED = "typed-recoverable"
OUTCOME_UNDEFINED = "undefined"
OUTCOME_VIOLATION = "violation"

_SEVERITY = {
    OUTCOME_IDENTICAL: 0,
    OUTCOME_TYPED: 1,
    OUTCOME_UNDEFINED: 2,
    OUTCOME_VIOLATION: 3,
}

#: how long to wait for worker processes to be reaped before calling
#: them leaked.
_REAP_GRACE_S = 5.0


def chaos_config(transfers: int = 3) -> CampaignConfig:
    """The micro campaign every chaos plan runs against.

    Tiny tables keep one campaign in the tens of milliseconds, so a
    100-seed sweep stays interactive; everything else — mixture,
    checkpointing, pool supervision — is the production configuration.
    """
    return dataclasses.replace(
        isp_quagga_config(seed=11, transfers=transfers),
        table_sizes=(300,),
        zero_bug_episodes=0,
    )


def _result_dump(result: CampaignResult) -> str:
    """The byte-identity witness: records + totals, canonical JSON.

    Health is deliberately excluded — a chaos run legitimately carries
    benign bookkeeping (retries, resume and salvage markers) a clean
    run does not; non-benign issues are checked separately.
    """
    payload = result.to_dict()
    return json.dumps(
        {
            "records": payload["records"],
            "total_packets": payload["total_packets"],
            "total_bytes": payload["total_bytes"],
        },
        sort_keys=True,
    )


@lru_cache(maxsize=None)
def _baseline_dump(transfers: int) -> str:
    """The clean run every chaos run is diffed against (cached)."""
    return _result_dump(run_campaign(chaos_config(transfers)))


@dataclass
class ChaosCase:
    """One executed chaos plan and its differential verdict."""

    seed: int
    fault_class: str
    outcome: str
    description: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome in (OUTCOME_IDENTICAL, OUTCOME_TYPED)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "fault_class": self.fault_class,
            "outcome": self.outcome,
            "description": self.description,
            "detail": self.detail,
        }


@dataclass
class ChaosReport:
    """Every case of a sweep plus the per-fault-class outcome matrix."""

    cases: list[ChaosCase] = field(default_factory=list)

    def matrix(self) -> dict[str, str]:
        """fault class -> worst outcome observed (``undefined`` when no
        seed in the sweep exercised the class)."""
        cells: dict[str, str] = {}
        for fault_class in FAULT_CLASSES:
            outcomes = [
                case.outcome for case in self.cases
                if case.fault_class == fault_class
            ]
            cells[fault_class] = (
                max(outcomes, key=_SEVERITY.__getitem__)
                if outcomes else OUTCOME_UNDEFINED
            )
        return cells

    def counts(self) -> dict[str, dict[str, int]]:
        """fault class -> {outcome: case count}."""
        table: dict[str, dict[str, int]] = {
            fault_class: {} for fault_class in FAULT_CLASSES
        }
        for case in self.cases:
            cell = table[case.fault_class]
            cell[case.outcome] = cell.get(case.outcome, 0) + 1
        return table

    @property
    def violations(self) -> list[ChaosCase]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        """True when every case passed and every fault class was
        exercised — sweeps under ``len(FAULT_CLASSES)`` seeds cannot
        pass, by design."""
        return not self.violations and all(
            cell in (OUTCOME_IDENTICAL, OUTCOME_TYPED)
            for cell in self.matrix().values()
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cases": [case.to_dict() for case in self.cases],
            "matrix": self.matrix(),
            "counts": self.counts(),
        }

    def summary(self) -> str:
        matrix = self.matrix()
        width = max(len(name) for name in matrix)
        lines = [
            f"chaos: {len(self.cases)} plan(s), "
            f"{len(self.violations)} violation(s)"
        ]
        counts = self.counts()
        for fault_class, cell in matrix.items():
            ran = sum(counts[fault_class].values())
            lines.append(
                f"  {fault_class:<{width}}  {cell:<17} ({ran} plan(s))"
            )
        for case in self.violations:
            lines.append(
                f"  ! seed {case.seed} [{case.fault_class}] "
                f"{case.outcome}: {case.detail}"
            )
        lines.append("chaos: OK" if self.ok else "chaos: FAILED")
        return "\n".join(lines)


def _leaked_workers(before: frozenset[int]) -> list[int]:
    """PIDs of child processes that outlived the run (after a grace)."""
    deadline = time.monotonic() + _REAP_GRACE_S
    while True:
        leaked = sorted(
            child.pid for child in multiprocessing.active_children()
            if child.pid is not None and child.pid not in before
        )
        if not leaked or time.monotonic() >= deadline:
            return leaked
        time.sleep(0.05)


def _plan_pool(plan: ChaosPlan) -> WorkPool:
    """The pool a plan's campaign runs on.

    Filesystem faults run serial — journal writes happen in the parent
    either way, and one process keeps the sweep fast.  Pool faults need
    real workers: two of them, retries on (so a crashed or stalled
    attempt recovers), and tight liveness windows for the stall and
    heartbeat classes so detection fits in test time.
    """
    if not plan.parallel:
        return WorkPool(workers=1, max_retries=2, retry_backoff_s=0.0)
    liveness: dict = {}
    if plan.fault_class in (POINT_WORKER_STALL, POINT_HEARTBEAT_LOSS):
        liveness = {"heartbeat_interval_s": 0.05, "stall_timeout_s": 0.5}
    return WorkPool(
        workers=2,
        max_retries=2,
        retry_backoff_s=0.0,
        task_timeout=60.0,
        chaos=ChaosHooks(plan.pool_faults) if plan.pool_faults else None,
        **liveness,
    )


def _verify_resume(
    config: CampaignConfig,
    checkpoint_dir: Path,
    baseline: str,
    what: str,
) -> tuple[str, str]:
    """A typed failure happened; prove the checkpoint resumes cleanly."""
    resume_health = TraceHealth()
    pool = WorkPool(workers=1, max_retries=2, retry_backoff_s=0.0)
    try:
        result = run_campaign(
            config,
            pool=pool,
            checkpoint_dir=checkpoint_dir,
            resume=True,
            health=resume_health,
            shutdown=GracefulShutdown(install_signals=False),
        )
    except Exception as exc:  # noqa: BLE001 - any resume failure is a bug
        return (
            OUTCOME_VIOLATION,
            f"{what}; resume failed: {type(exc).__name__}: {exc}",
        )
    if _result_dump(result) != baseline:
        return (
            OUTCOME_VIOLATION,
            f"{what}; resumed result diverged from the clean run",
        )
    if resume_health.failures:
        kinds = sorted({issue.kind for issue in resume_health.failures})
        return (
            OUTCOME_VIOLATION,
            f"{what}; resume recorded non-benign issues: {kinds}",
        )
    detail = f"{what}; resumed byte-identical"
    if resume_health.by_kind().get("checkpoint-salvaged"):
        detail += " (torn journal tail salvaged)"
    return OUTCOME_TYPED, detail


def _execute_plan(
    plan: ChaosPlan,
    config: CampaignConfig,
    checkpoint_dir: Path,
    health: TraceHealth,
    baseline: str,
) -> tuple[str, str]:
    shutdown = GracefulShutdown(install_signals=False)
    resolved = 0

    def _on_episode(task: int, outcome: object) -> None:
        nonlocal resolved
        resolved += 1
        if plan.drain_after is not None and resolved >= plan.drain_after:
            shutdown.request()

    fs = (
        FaultyCheckpointFs(plan.fs_fault)
        if plan.fs_fault is not None else None
    )
    guard = use_checkpoint_fs(fs) if fs is not None else contextlib.nullcontext()
    try:
        with guard:
            result = run_campaign(
                config,
                pool=_plan_pool(plan),
                checkpoint_dir=checkpoint_dir,
                health=health,
                shutdown=shutdown,
                on_episode=_on_episode,
            )
    except (CampaignInterrupted, CheckpointMismatch) as exc:
        return _verify_resume(
            config, checkpoint_dir, baseline,
            f"typed {type(exc).__name__}",
        )
    except SimulatedCrash as exc:
        return _verify_resume(
            config, checkpoint_dir, baseline, f"simulated crash ({exc})",
        )
    except Exception as exc:  # noqa: BLE001 - untyped escape == violation
        return (
            OUTCOME_VIOLATION,
            f"untyped {type(exc).__name__} escaped: {exc}",
        )
    if fs is not None and not fs.injected:
        return OUTCOME_UNDEFINED, "armed filesystem fault never fired"
    if _result_dump(result) != baseline:
        return (
            OUTCOME_VIOLATION,
            "completed run diverged from the clean run",
        )
    if health.failures:
        kinds = sorted({issue.kind for issue in health.failures})
        return (
            OUTCOME_VIOLATION,
            f"completed run recorded non-benign issues: {kinds}",
        )
    return OUTCOME_IDENTICAL, "fault absorbed; byte-identical to clean run"


@lru_cache(maxsize=8)
def _flood_records(connections: int) -> tuple:
    """The memory-pressure flood trace, cached across a sweep."""
    from repro.faults.stress import connection_flood

    return tuple(connection_flood(connections=connections))


def _execute_memory_pressure(plan: ChaosPlan) -> tuple[str, str]:
    """Differential verdict for an analysis memory-pressure episode.

    The baseline here is the *unbudgeted streaming* analysis of the
    same flood, not a campaign run: the injection point lives in the
    analysis pipeline's state ledger, downstream of everything the
    campaign machinery exercises.
    """
    from repro.analysis.budget import ResourceBudget
    from repro.analysis.tdat import analyze_pcap
    from repro.faults.stress import (
        ALLOWED_DEGRADATION_KINDS,
        analysis_fingerprint,
    )

    pressure = plan.memory_pressure
    assert pressure is not None
    records = list(_flood_records(pressure.connections))
    clean = analyze_pcap(records, streaming=True)
    budgeted = analyze_pcap(
        records,
        budget=ResourceBudget(
            max_live_connections=pressure.max_live_connections
        ),
    )
    summary = budgeted.degradation
    if pressure.ample:
        if summary is not None and summary.degraded:
            return OUTCOME_VIOLATION, "ample budget degraded the analysis"
        if analysis_fingerprint(budgeted) != analysis_fingerprint(clean):
            return (
                OUTCOME_VIOLATION,
                "ample-budget report diverged from the clean run",
            )
        return (
            OUTCOME_IDENTICAL,
            "budget armed but never binding; byte-identical to clean run",
        )
    if summary is None or not summary.degraded:
        return OUTCOME_UNDEFINED, "armed memory pressure never fired"
    if budgeted.health.failures:
        kinds = sorted({issue.kind for issue in budgeted.health.failures})
        return (
            OUTCOME_VIOLATION,
            f"degradation recorded non-benign issues: {kinds}",
        )
    unknown = set(budgeted.health.by_kind()) - ALLOWED_DEGRADATION_KINDS
    if unknown:
        return (
            OUTCOME_VIOLATION,
            f"untyped degradation kinds: {sorted(unknown)}",
        )
    if summary.peak_live_connections > pressure.max_live_connections:
        return (
            OUTCOME_VIOLATION,
            f"peak live connections {summary.peak_live_connections} "
            f"exceeded the budget {pressure.max_live_connections}",
        )
    return OUTCOME_TYPED, f"degraded gracefully: {summary.summary()}"


def run_plan(plan: ChaosPlan, transfers: int = 3) -> ChaosCase:
    """Execute one chaos plan and return its differential verdict."""
    if plan.fault_class == POINT_MEMORY_PRESSURE:
        obs = get_obs()
        with obs.tracer.span(
            "chaos.plan", cat="chaos",
            args={"seed": plan.seed, "fault_class": plan.fault_class},
        ):
            outcome, detail = _execute_memory_pressure(plan)
        if obs.enabled:
            obs.metrics.counter("chaos.plans", wall=True).inc()
            obs.metrics.counter("chaos.injections", wall=True).inc(
                plan.injections()
            )
            if outcome == OUTCOME_VIOLATION:
                obs.metrics.counter("chaos.violations", wall=True).inc()
        return ChaosCase(
            seed=plan.seed,
            fault_class=plan.fault_class,
            outcome=outcome,
            description=plan.describe(),
            detail=detail,
        )
    config = chaos_config(transfers)
    if plan.storm_episodes:
        # The retry storm rides the campaign's own transient-fault
        # knob: first attempts of these episodes fail, retries recover.
        config = dataclasses.replace(
            config, fail_episodes=plan.storm_episodes
        )
    baseline = _baseline_dump(transfers)
    obs = get_obs()
    before = frozenset(
        child.pid for child in multiprocessing.active_children()
        if child.pid is not None
    )
    with tempfile.TemporaryDirectory(prefix="tdat-chaos-") as tmp:
        checkpoint_dir = Path(tmp) / "ckpt"
        health = TraceHealth()
        health.record(
            STAGE_EXEC, "chaos-injected",
            detail=plan.describe(), benign=True,
        )
        with obs.tracer.span(
            "chaos.plan", cat="chaos",
            args={"seed": plan.seed, "fault_class": plan.fault_class},
        ):
            outcome, detail = _execute_plan(
                plan, config, checkpoint_dir, health, baseline
            )
    leaked = _leaked_workers(before)
    if leaked:
        outcome = OUTCOME_VIOLATION
        detail += f"; leaked worker pid(s): {leaked}"
    if obs.enabled:
        obs.metrics.counter("chaos.plans", wall=True).inc()
        obs.metrics.counter("chaos.injections", wall=True).inc(
            plan.injections()
        )
        if outcome == OUTCOME_VIOLATION:
            obs.metrics.counter("chaos.violations", wall=True).inc()
    return ChaosCase(
        seed=plan.seed,
        fault_class=plan.fault_class,
        outcome=outcome,
        description=plan.describe(),
        detail=detail,
    )


def run_chaos(
    seeds: int = 25,
    base_seed: int = 0,
    transfers: int = 3,
    progress: Callable[[ChaosCase], None] | None = None,
) -> ChaosReport:
    """Sweep ``seeds`` consecutive chaos plans and build the matrix.

    The fault class is ``seed % len(FAULT_CLASSES)``, so any sweep of
    at least ``len(FAULT_CLASSES)`` consecutive seeds exercises every
    class; fewer leaves ``undefined`` matrix cells and the report fails.
    """
    report = ChaosReport()
    for index in range(seeds):
        plan = draw_plan(base_seed + index, tasks=transfers)
        case = run_plan(plan, transfers=transfers)
        report.cases.append(case)
        if progress is not None:
            progress(case)
    return report


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the chaos options to ``parser`` (shared with ``tdat``)."""
    parser.add_argument(
        "--seeds", type=int, default=25,
        help=f"number of consecutive chaos seeds to sweep (default: 25; "
        f"at least {len(FAULT_CLASSES)} to cover every fault class)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed of the sweep (default: 0)",
    )
    parser.add_argument(
        "--transfers", type=int, default=3,
        help="episodes per micro campaign (default: 3)",
    )
    parser.add_argument(
        "--matrix-out", metavar="PATH",
        help="write the per-fault-class outcome matrix (JSON) to PATH",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full chaos report as JSON",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print every case as it finishes",
    )


def run_with_args(args: argparse.Namespace) -> int:
    """Run a parsed chaos sweep: 0 when every fault class held, else 1."""

    def progress(case: ChaosCase) -> None:
        if args.verbose and not args.json:
            marker = "ok" if case.ok else "FAIL"
            print(
                f"[{marker}] seed {case.seed:<4} "
                f"{case.fault_class:<20} {case.outcome}: {case.detail}"
            )

    report = run_chaos(
        seeds=args.seeds,
        base_seed=args.base_seed,
        transfers=args.transfers,
        progress=progress,
    )
    if args.matrix_out:
        Path(args.matrix_out).write_text(
            json.dumps(
                {"matrix": report.matrix(), "counts": report.counts()},
                indent=2, sort_keys=True,
            ) + "\n"
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description=(
            "Seeded chaos sweep over the campaign execution stack: "
            "inject one scheduled fault per seed, diff the outcome "
            "against a clean run, and report the per-fault-class "
            "matrix."
        ),
    )
    configure_parser(parser)
    return run_with_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
