"""Figure 11 — an example TCP trace rendered as event series.

Paper: a piece of packet trace and its derived series (transmission
time, upstream loss, sender-app-limited, window-bounded outstanding)
drawn as binary square curves.  Regenerated with BGPlot on a transfer
mixing loss with application pacing.
"""

import random

from repro.analysis.tdat import analyze_pcap
from repro.bgp.sender_models import TimerBatchSender
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import BernoulliLoss
from repro.netsim.random import RandomStreams
from repro.netsim.simulator import Simulator
from repro.tools.bgplot import render_panel, series_to_csv
from repro.workloads.scenarios import MonitoringSetup, RouterParams

PANEL_SERIES = [
    "Transmission",
    "UpstreamLoss",
    "DownstreamLoss",
    "SendAppLimited",
    "CwdBndOut",
    "AdvBndOut",
]


def run_scenario():
    sim = Simulator()
    streams = RandomStreams(111)
    setup = MonitoringSetup(sim)
    table = generate_table(60_000, random.Random(11))
    setup.add_router(
        RouterParams(
            name="r1",
            ip="10.11.0.1",
            table=table,
            sender_model=TimerBatchSender(sim, 150_000, 40),
            upstream_loss=BernoulliLoss(0.03, streams.stream("loss")),
        )
    )
    setup.start()
    sim.run(until_us=seconds(300))
    return setup.sniffer.sorted_records()


def build_figure(records):
    report = analyze_pcap(records)
    analysis = next(iter(report))
    panel = render_panel(analysis.series, names=PANEL_SERIES, width=100)
    csv = series_to_csv(analysis.series, names=PANEL_SERIES)
    return panel + "\n\n" + csv, analysis


def test_fig11(artifact_writer, benchmark):
    records = run_scenario()
    text, analysis = benchmark(build_figure, records)
    artifact_writer("fig11_series", text)
    print("\n" + "\n".join(text.splitlines()[:9]))
    catalog = analysis.series.catalog
    # The example exhibits both behaviours the paper's figure shows:
    # inter-transmission gaps dominated by the sender application...
    assert catalog.get("SendAppLimited").size() > 0
    # ...and retransmission periods from packet loss.
    assert catalog.get("UpstreamLoss").size() > 0
    # Transmission itself is a tiny fraction of the transfer period.
    window = analysis.series.window.duration
    assert catalog.get("Transmission").clip(
        analysis.series.window.start, analysis.series.window.end
    ).size() < 0.1 * window
