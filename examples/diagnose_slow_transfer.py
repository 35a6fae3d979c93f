#!/usr/bin/env python3
"""Diagnose a slow table transfer: the paper's timer-gap investigation.

An operational router with the undocumented timer-driven implementation
(Houidi et al.; paper section II-B1) releases only a few UPDATE
messages per 200 ms timer tick.  The transfer crawls even though the
path is fast and the collector healthy.  T-DAT explains why:

* the ``SendAppLimited`` series dominates the transfer;
* the gap-length distribution has a knee at the timer period, from
  which the detector recovers the timer value (paper Figure 17).

Run:  python examples/diagnose_slow_transfer.py
"""

import random

from repro.analysis.mct import transfers_from_mrt_records
from repro.analysis.tdat import analyze_connection
from repro.api import Pipeline
from repro.bgp.sender_models import TimerBatchSender
from repro.bgp.table import generate_table
from repro.core.units import seconds, to_milliseconds
from repro.netsim.simulator import Simulator
from repro.tools.bgplot import render_panel
from repro.workloads.scenarios import MonitoringSetup, RouterParams

TIMER_MS = 200
MESSAGES_PER_TICK = 12


def main() -> None:
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(25_000, random.Random(7))

    setup.add_router(
        RouterParams(
            name="slow-router",
            ip="10.2.0.1",
            table=table,
            sender_model=TimerBatchSender(
                sim, TIMER_MS * 1000, MESSAGES_PER_TICK
            ),
        )
    )
    setup.start()
    sim.run(until_us=seconds(300))

    transfer = transfers_from_mrt_records(
        setup.collector.archive, connection_start_us=0
    )
    report = Pipeline().analyze(setup.sniffer.sorted_records())
    analysis = analyze_connection(
        next(iter(report)).connection, window=(0, transfer.end_us)
    )

    rs, rr, rn = analysis.factors.group_vector
    print(f"transfer window: {analysis.series.window.duration / 1e6:.1f}s")
    print(f"delay ratios: sender={rs:.2f} receiver={rr:.2f} network={rn:.2f}")
    print(f"major factors: {analysis.factors.major_factors()}\n")

    timer = analysis.timer_gaps
    if timer.detected:
        print(f"timer-driven sender detected!")
        print(f"  inferred timer : {to_milliseconds(timer.timer_us):.0f} ms "
              f"(injected: {TIMER_MS} ms)")
        print(f"  repetitive gaps: {timer.plateau_count} of {timer.gap_count}")
        print(f"  induced delay  : {timer.induced_delay_us / 1e6:.1f} s")
        print("\n  gap-length distribution (sorted, ms) — note the plateau:")
        gaps_ms = [to_milliseconds(g) for g in timer.gap_durations_us]
        line = ", ".join(f"{g:.0f}" for g in gaps_ms[:20])
        print(f"  {line}{' ...' if len(gaps_ms) > 20 else ''}\n")
    else:
        print("no repetitive timer gaps detected\n")

    print(render_panel(
        analysis.series,
        names=["Transmission", "SendAppLimited", "CwdBndOut", "AdvBndOut"],
        width=80,
    ))


if __name__ == "__main__":
    main()
