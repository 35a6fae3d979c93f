"""Figure 5 — a table transfer with prolonged timer gaps.

Paper: data-packet arrivals plotted over time show regular pauses much
longer than the RTT, caused by the timer-driven sender implementation.
The regenerated artifact is the inter-packet gap sequence; the assert
checks the gaps cluster at the injected timer period.
"""

import random

from repro.analysis.profile import Trace
from repro.bgp.sender_models import TimerBatchSender
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams

TIMER_US = 200_000


def run_scenario():
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(30_000, random.Random(5))
    setup.add_router(
        RouterParams(
            name="r1",
            ip="10.5.0.1",
            table=table,
            sender_model=TimerBatchSender(sim, TIMER_US, 10),
        )
    )
    setup.start()
    sim.run(until_us=seconds(120))
    return setup.sniffer.sorted_records()


def build_figure(records):
    trace = Trace.from_pcap(records)
    connection = next(iter(trace))
    times = connection.data.time
    gaps = [b - a for a, b in zip(times, times[1:])]
    lines = ["packet#, time_s, gap_ms"]
    for i, time_us in enumerate(times[:120]):
        gap = gaps[i - 1] / 1000 if i else 0.0
        lines.append(f"{i}, {time_us / 1e6:.4f}, {gap:.1f}")
    long_gaps = [g for g in gaps if g > 50_000]
    lines.append(f"\nlong gaps (>50ms): {len(long_gaps)}")
    return "\n".join(lines), gaps


def test_fig5(artifact_writer, benchmark):
    records = run_scenario()
    text, gaps = benchmark(build_figure, records)
    artifact_writer("fig5_gaps", text)
    print("\n" + text.splitlines()[-1])
    rtt_us = 10_000
    long_gaps = [g for g in gaps if g > 5 * rtt_us]
    # Prolonged gaps (far beyond the RTT) dominate the timeline...
    assert len(long_gaps) > 20
    # ...and cluster at the timer period.
    near_timer = [g for g in long_gaps if abs(g - TIMER_US) < 30_000]
    assert len(near_timer) / len(long_gaps) > 0.8
