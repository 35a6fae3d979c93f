"""Ablation — what the ACK-shift step buys (paper section III-B1).

With a receiver-side tap, ACKs appear almost immediately after the data
they acknowledge; without shifting them toward the sender's timeline, a
window-limited transfer looks like a sender that idles between flights
(because the ACK-wait is invisible) and T-DAT misattributes the delay
to the sending application.  This ablation runs the same capture with
the shift disabled and enabled, and shows the attribution flip.
"""

import random

from repro.analysis.profile import Trace
from repro.analysis.tdat import analyze_connection
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.tcp.options import TcpConfig
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def make_window_limited_capture():
    """A 16KB-window transfer over a long path: purely receiver bound."""
    sim = Simulator()
    setup = MonitoringSetup(
        sim, collector_tcp=TcpConfig(recv_buffer_bytes=16384)
    )
    table = generate_table(60_000, random.Random(41))
    setup.add_router(
        RouterParams(
            name="r1",
            ip="10.41.0.1",
            table=table,
            upstream_delay_us=25_000,  # ~51ms RTT
        )
    )
    setup.start()
    sim.run(until_us=seconds(300))
    return setup.sniffer.sorted_records()


def build_ablation(records):
    results = {}
    for shifted in (False, True):
        trace = Trace.from_pcap(records)
        connection = next(iter(trace))
        # The analysis window is the transfer proper: keepalives after
        # the table has drained are not part of it.
        data = connection.data
        payload = [
            t for t, keepalive in zip(data.time, data.keepalive)
            if not keepalive
        ]
        window = (payload[0], payload[-1])
        analysis = analyze_connection(connection, window=window,
                                      enable_ack_shift=shifted)
        results[shifted] = analysis.factors
    lines = [f"{'ack shift':>9s} {'send_app':>9s} {'tcp_adv':>8s} {'cwnd':>6s}"]
    for shifted, factors in results.items():
        lines.append(
            f"{str(shifted):>9s} "
            f"{factors.ratios['bgp_sender_app']:9.3f} "
            f"{factors.ratios['tcp_advertised_window']:8.3f} "
            f"{factors.ratios['tcp_congestion_window']:6.3f}"
        )
    return "\n".join(lines), results


def test_ackshift_ablation(artifact_writer, benchmark):
    records = make_window_limited_capture()
    text, results = benchmark(build_ablation, records)
    artifact_writer("ablation_ackshift", text)
    print("\n" + text)
    without = results[False]
    with_shift = results[True]
    # With the shift, the transfer is correctly receiver-window bound.
    assert with_shift.ratios["tcp_advertised_window"] > 0.5
    assert with_shift.ratios["bgp_sender_app"] < 0.2
    # Without it, the receiver-side attribution collapses and the idle
    # ACK-waits leak into sender-side factors.
    assert (
        without.ratios["tcp_advertised_window"]
        < with_shift.ratios["tcp_advertised_window"] / 2
    )
    misattributed = (
        without.ratios["bgp_sender_app"]
        + without.ratios["tcp_congestion_window"]
    )
    assert misattributed > with_shift.ratios["bgp_sender_app"] + 0.2
