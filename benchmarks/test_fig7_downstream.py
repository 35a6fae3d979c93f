"""Figure 7 — downstream (receiver-local) consecutive losses.

Paper: the sniffer sees a complete packet flight, but the receiver
acknowledges only part of it — the rest died between the sniffer and
the receiver (the collector's interface), triggering multiple rounds of
retransmissions that T-DAT classifies as *downstream* losses.
"""

import random

from repro.analysis.labeling import KIND_DOWNSTREAM, KIND_UPSTREAM
from repro.analysis.tdat import analyze_pcap
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import WindowLoss
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def run_scenario():
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(30_000, random.Random(7))
    handle = setup.add_router(
        RouterParams(
            name="r1",
            ip="10.7.0.1",
            table=table,
            downstream_loss=WindowLoss([(seconds(0.05), seconds(0.8))]),
        )
    )
    setup.start()
    sim.run(until_us=seconds(300))
    return setup, handle


def build_figure(setup, handle):
    report = analyze_pcap(setup.sniffer.sorted_records())
    analysis = next(iter(report))
    labeling = analysis.labeling
    down = labeling.count(KIND_DOWNSTREAM)
    up = labeling.count(KIND_UPSTREAM)
    dropped = handle.local_link.stats.dropped_loss
    recv = analysis.series.catalog.get_or_empty("RecvLocalLoss")
    lines = [
        f"packets dropped after the tap (ground truth): {dropped}",
        f"labeled downstream retransmissions: {down}",
        f"labeled upstream retransmissions: {up}",
        f"RecvLocalLoss recovery time: {recv.size() / 1e6:.2f}s "
        f"over {len(recv)} range(s)",
    ]
    return "\n".join(lines), (analysis, down, up, dropped)


def test_fig7(artifact_writer, benchmark):
    setup, handle = run_scenario()
    text, (analysis, down, up, dropped) = benchmark(build_figure, setup, handle)
    artifact_writer("fig7_downstream", text)
    print("\n" + text)
    assert dropped > 0, "scenario produced no receiver-local drops"
    # The tap saw the originals: losses classify as downstream.
    assert down >= 5
    assert down > up
    # The factor machinery attributes the delay to receiver-local loss.
    assert analysis.factors.ratios["receiver_local_loss"] > 0
