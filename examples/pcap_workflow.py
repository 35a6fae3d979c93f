#!/usr/bin/env python3
"""The offline tool workflow on a raw pcap: the paper's Table VI suite.

A vendor collector keeps no MRT archive, so everything must come out of
the packet trace itself:

1. ``tcptrace-lite`` — inventory the TCP connections;
2. ``pcap2bgp``     — reconstruct the BGP message stream (handling
   retransmissions and reordering) and save it as MRT;
3. MCT             — estimate the table-transfer extent from the
   reconstructed updates;
4. ``tdat``        — attribute the transfer delay, clipped to the MCT
   window.

Run:  python examples/pcap_workflow.py
"""

import random
import tempfile
from pathlib import Path

from repro.analysis.mct import minimum_collection_time
from repro.analysis.profile import Trace
from repro.analysis.tdat import analyze_connection
from repro.bgp.collector import VendorCollector
from repro.bgp.mrt import read_mrt
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import WindowLoss
from repro.netsim.simulator import Simulator
from repro.tools import pcap2bgp, tcptrace_lite
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def build_capture(path: Path) -> None:
    """A vendor-monitored transfer that suffers a loss episode."""
    sim = Simulator()
    setup = MonitoringSetup(sim, collector_cls=VendorCollector)
    table = generate_table(15_000, random.Random(3))
    setup.add_router(
        RouterParams(
            name="r1",
            ip="10.3.0.1",
            table=table,
            downstream_loss=WindowLoss([(seconds(0.05), seconds(0.6))]),
        )
    )
    setup.start()
    sim.run(until_us=seconds(120))
    setup.sniffer.write(path)


def main() -> None:
    tmp = Path(tempfile.gettempdir())
    pcap_path = tmp / "tdat_workflow.pcap"
    mrt_path = tmp / "tdat_workflow.mrt"
    build_capture(pcap_path)
    print(f"capture: {pcap_path}\n")

    # 1. Connection inventory.
    rows = tcptrace_lite.summarize(pcap_path)
    print(tcptrace_lite.format_report(rows))

    # 2. Reconstruct BGP messages -> MRT.
    count = pcap2bgp.pcap_to_mrt(pcap_path, mrt_path, local_as=65000, peer_as=65001)
    print(f"\npcap2bgp: {count} BGP messages -> {mrt_path}")

    # 3. MCT on the reconstructed stream.
    from repro.bgp.messages import UpdateMessage

    updates = [
        (r.timestamp_us, r.message)
        for r in read_mrt(mrt_path)
        if isinstance(r.message, UpdateMessage)
    ]
    transfer = minimum_collection_time(updates, start_us=0)
    print(f"MCT: transfer of {transfer.prefixes} prefixes ended at "
          f"{transfer.end_us / 1e6:.2f}s ({transfer.ended_by}); "
          f"duration {transfer.duration_us / 1e6:.2f}s")

    # 4. Delay analysis clipped to the transfer window.
    trace = Trace.from_pcap(str(pcap_path))
    connection = next(iter(trace))
    analysis = analyze_connection(connection, window=(0, transfer.end_us))
    rs, rr, rn = analysis.factors.group_vector
    print(f"\nT-DAT: sender={rs:.2f} receiver={rr:.2f} network={rn:.2f} "
          f"major={analysis.factors.major_factors()}")
    losses = analysis.consecutive_losses
    if losses.detected:
        print(f"consecutive losses: {losses.episodes} episode(s), worst run "
              f"{losses.worst_run} packets, {losses.induced_delay_us / 1e6:.1f}s "
              "spent in recovery")


if __name__ == "__main__":
    main()
