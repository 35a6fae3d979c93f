"""Shared captures for the tool tests: one clean and one lossy transfer."""

import random

import pytest

from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import WindowLoss
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams


@pytest.fixture(scope="module")
def clean_capture(tmp_path_factory):
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(2000, random.Random(31))
    setup.add_router(RouterParams(name="r1", ip="10.1.0.1", table=table))
    setup.start()
    sim.run(until_us=seconds(60))
    path = tmp_path_factory.mktemp("cap") / "clean.pcap"
    setup.sniffer.write(path)
    return {
        "path": path,
        "records": setup.sniffer.sorted_records(),
        "table": table,
        "archived": setup.collector.archive,
    }


@pytest.fixture(scope="module")
def lossy_capture(tmp_path_factory):
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(4000, random.Random(32))
    setup.add_router(
        RouterParams(
            name="r1",
            ip="10.1.0.1",
            table=table,
            downstream_loss=WindowLoss([(30_000, 150_000)]),
        )
    )
    setup.start()
    sim.run(until_us=seconds(120))
    path = tmp_path_factory.mktemp("cap") / "lossy.pcap"
    setup.sniffer.write(path)
    return {
        "path": path,
        "records": setup.sniffer.sorted_records(),
        "table": table,
        "archived": setup.collector.archive,
    }
