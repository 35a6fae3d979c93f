"""Figure 6 + Table III — consecutive retransmissions delay BGP updates.

Paper: a connection suffers episodes of consecutive retransmissions;
updates the router emitted *at the same instant* reach the receiving
BGP process 1-13 seconds apart.  Without the packet trace these delay
gaps would be misread as BGP protocol dynamics.

The regenerated Table III lists reconstructed UPDATE arrival times and
their delay relative to the episode start.
"""

import random

from repro.analysis.tdat import analyze_pcap
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import WindowLoss
from repro.netsim.simulator import Simulator
from repro.tools.pcap2bgp import pcap_to_bgp
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def run_scenario():
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(40_000, random.Random(6))
    setup.add_router(
        RouterParams(
            name="r1",
            ip="10.6.0.1",
            table=table,
            # A receiver-local blackout kills two successive flights.
            downstream_loss=WindowLoss([(seconds(0.06), seconds(1.2))]),
        )
    )
    setup.start()
    sim.run(until_us=seconds(300))
    return setup.sniffer.sorted_records()


def build_table(records):
    from repro.analysis.profile import Trace
    from repro.tools.correlate import delayed_updates

    report = analyze_pcap(records)
    analysis = next(iter(report))
    retx = analysis.labeling.retransmissions()
    # Per-update wire-to-delivery delay, message-to-packet correlated —
    # exactly the paper's Table III columns.
    connection = next(iter(Trace.from_pcap(records)))
    delayed = delayed_updates(connection, records, min_delay_us=500_000)
    lines = [
        f"retransmissions: {len(retx)}; delayed updates: {len(delayed)}",
        f"{'arrival_s':>9s} {'delay_s':>8s} {'retx':>5s}  first prefix",
    ]
    for item in delayed[:15]:
        prefix = (
            item.message.announced[0] if item.message.announced else "-"
        )
        lines.append(
            f"{item.delivered_us / 1e6:9.2f} {item.delay_us / 1e6:8.2f} "
            f"{str(item.retransmitted):>5s}  {prefix}"
        )
    delays = [item.delay_us / 1e6 for item in delayed]
    return "\n".join(lines), (analysis, delays)


def test_fig6_table3(artifact_writer, benchmark):
    records = run_scenario()
    text, (analysis, delays) = benchmark(build_table, records)
    artifact_writer("fig6_table3_retx", text)
    print("\n" + "\n".join(text.splitlines()[:6]))
    # The episode is a detected consecutive-retransmission event.
    assert analysis.consecutive_losses.detected
    assert analysis.consecutive_losses.worst_run >= 8
    # Updates queued together arrive seconds apart (paper: 1-13s).
    assert delays, "no delayed updates found"
    assert max(delays) > 1.0
