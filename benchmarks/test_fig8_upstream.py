"""Figure 8 — upstream consecutive losses.

Paper: packets lost between the sender and the sniffer never appear in
the capture; the sniffer instead sees out-of-order packets following
the missing sequence gap, and the later gap-fills are classified as
retransmissions due to *upstream* loss.
"""

import random

from repro.analysis.labeling import KIND_DOWNSTREAM, KIND_UPSTREAM
from repro.analysis.tdat import analyze_pcap
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import BernoulliLoss
from repro.netsim.random import RandomStreams
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def run_scenario():
    sim = Simulator()
    streams = RandomStreams(88)
    setup = MonitoringSetup(sim)
    table = generate_table(40_000, random.Random(8))
    handle = setup.add_router(
        RouterParams(
            name="r1",
            ip="10.8.0.1",
            table=table,
            upstream_loss=BernoulliLoss(0.04, streams.stream("loss")),
        )
    )
    setup.start()
    sim.run(until_us=seconds(600))
    return setup, handle


def build_figure(setup, handle):
    report = analyze_pcap(setup.sniffer.sorted_records())
    analysis = next(iter(report))
    labeling = analysis.labeling
    up = labeling.count(KIND_UPSTREAM)
    down = labeling.count(KIND_DOWNSTREAM)
    dropped = handle.wan_link.stats.dropped_loss
    network = analysis.series.catalog.get_or_empty("NetworkLoss")
    lines = [
        f"packets dropped before the tap (ground truth): {dropped}",
        f"labeled upstream retransmissions: {up}",
        f"labeled downstream retransmissions: {down}",
        f"NetworkLoss recovery time: {network.size() / 1e6:.2f}s "
        f"over {len(network)} range(s)",
    ]
    return "\n".join(lines), (analysis, up, down, dropped)


def test_fig8(artifact_writer, benchmark):
    setup, handle = run_scenario()
    text, (analysis, up, down, dropped) = benchmark(build_figure, setup, handle)
    artifact_writer("fig8_upstream", text)
    print("\n" + text)
    assert dropped > 0, "scenario produced no upstream drops"
    # The tap never saw the originals: gap-fills classify as upstream.
    assert up >= 5
    assert up > down
    # With a receiver-side tap, upstream loss maps to the network group.
    assert analysis.factors.ratios["network_packet_loss"] > 0
