#!/usr/bin/env python3
"""TCP forensics from event series: the paper's section V-D in action.

T-DAT's series are a sanitized substrate for other passive TCP
analyses.  This example runs two of them on simulated captures:

1. **Flow-clock extraction** (Qian et al.): recover a sender
   application's internal timer from the ``SendAppLimited`` series —
   application clocks are invisible in raw traces because the RTT
   dominates, but the series isolates exactly the app-limited periods.
   Every report carries the result as ``timer_gaps``.
2. **TCP flavour inference** (Jaiswal et al.): watch how the
   congestion window reacts to a clean loss episode — Tahoe collapses
   to one segment, Reno/NewReno halve — using the outstanding-bytes
   step function and the loss labels.

Run:  python examples/tcp_forensics.py
"""

import random

from repro.analysis.applications import infer_tcp_flavor
from repro.api import Pipeline
from repro.bgp.sender_models import TimerBatchSender
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import CountedLoss
from repro.netsim.simulator import Simulator
from repro.tcp.options import TcpConfig
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def capture(flavor=None, timer_ms=None, single_loss=False, seed=5):
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(60_000, random.Random(seed))
    loss = None
    if single_loss:
        loss = CountedLoss(0)
        sim.schedule(100_000, loss.arm, 1)
    setup.add_router(
        RouterParams(
            name="r1",
            ip="10.5.0.1",
            table=table,
            tcp=TcpConfig(flavor=flavor) if flavor else None,
            sender_model=(
                TimerBatchSender(sim, timer_ms * 1000, 25) if timer_ms else None
            ),
            downstream_loss=loss,
        )
    )
    setup.start()
    sim.run(until_us=seconds(300))
    report = Pipeline().analyze(setup.sniffer.sorted_records())
    return next(iter(report))


def main() -> None:
    print("--- flow clock extraction ---")
    analysis = capture(timer_ms=100)
    clock = analysis.timer_gaps
    if clock.detected:
        print(f"application clock: {clock.timer_us / 1000:.0f} ms "
              f"({clock.plateau_count} of {clock.gap_count} gaps on it) — "
              "injected: 100 ms")
    else:
        print("no application clock found")

    print("\n--- TCP flavour inference (ground truth vs inferred) ---")
    print("(a single-hole recovery cannot separate Reno from NewReno —")
    print(" they differ only on multi-hole flights; Tahoe's collapse is")
    print(" visible either way)")
    for flavor in ("tahoe", "reno", "newreno"):
        analysis = capture(flavor=flavor, single_loss=True, seed=6)
        report = infer_tcp_flavor(analysis.connection, analysis.series)
        print(f"{flavor:8s} -> {report.flavor:8s} "
              f"(confidence {report.confidence:.2f}, "
              f"{report.fast_recovery_events} fast-recovery event(s))")
        for line in report.evidence[:2]:
            print(f"           {line}")


if __name__ == "__main__":
    main()
