#!/usr/bin/env python3
"""Quickstart: simulate one monitored BGP table transfer and analyze it.

This is the whole T-DAT loop in ~40 lines:

1. build the paper's monitoring topology (router -> sniffer -> collector);
2. give the router a synthetic routing table and let the BGP session
   transfer it over simulated TCP;
3. write the sniffer capture to a real pcap file;
4. run the T-DAT analyzer on that pcap and print the delay report.

Run:  python examples/quickstart.py
"""

import random
import tempfile
from pathlib import Path

from repro.analysis.mct import transfers_from_mrt_records
from repro.analysis.tdat import analyze_connection
from repro.api import Pipeline
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.tools.bgplot import render_analysis
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def main() -> None:
    sim = Simulator()
    setup = MonitoringSetup(sim)

    # A synthetic routing table: ~20K prefixes with realistic length
    # and AS-path structure (a scaled-down 2010 global table).
    table = generate_table(20_000, random.Random(42))
    print(f"routing table: {len(table)} prefixes, "
          f"{table.wire_size() / 1024:.0f} KiB on the wire")

    setup.add_router(RouterParams(name="router-1", ip="10.1.0.1", table=table))
    setup.start()
    sim.run(until_us=seconds(120))

    pcap_path = Path(tempfile.gettempdir()) / "tdat_quickstart.pcap"
    count = setup.sniffer.write(pcap_path)
    print(f"captured {count} frames -> {pcap_path}")
    print(f"collector archived {setup.collector.updates_archived} UPDATEs\n")

    # The analysis period is the table-transfer extent, estimated with
    # MCT from the collector's archive (the paper's methodology).
    transfer = transfers_from_mrt_records(
        setup.collector.archive, connection_start_us=0
    )
    print(f"MCT: transfer duration {transfer.duration_us / 1e6:.2f}s\n")

    report = Pipeline().analyze(pcap_path)
    for analysis in report:
        clipped = analyze_connection(
            analysis.connection, window=(0, transfer.end_us)
        )
        print(render_analysis(clipped, width=80))


if __name__ == "__main__":
    main()
