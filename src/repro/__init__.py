"""T-DAT: a TCP delay analyzer for BGP slow table transfers.

A faithful, self-contained reproduction of *"Explaining BGP Slow Table
Transfers: Implementing a TCP Delay Analyzer"* — the analyzer itself
plus every substrate it needs: a deterministic network simulator, a
window-based TCP, a BGP implementation with the pathologies the paper
studies, byte-faithful pcap capture, and the measurement campaigns
regenerating the paper's tables and figures.

Each symbol is imported from the module that defines it; the facade
is :mod:`repro.api`.  Quick start::

    import random

    from repro.api import Pipeline
    from repro.bgp.table import generate_table
    from repro.netsim.simulator import Simulator
    from repro.workloads.scenarios import MonitoringSetup, RouterParams

    sim = Simulator()
    setup = MonitoringSetup(sim)
    setup.add_router(RouterParams(
        name="r1", ip="10.1.0.1",
        table=generate_table(1000, random.Random(1)),
    ))
    setup.start()
    sim.run(until_us=60_000_000)
    report = Pipeline().analyze(setup.sniffer.sorted_records())
"""
