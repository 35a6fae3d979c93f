"""The deadline-ordered linger sweep must match the per-packet rescan.

``linger_oracle.iter_connections`` is the original streaming ingest,
which rescans every open flow on every packet.  The properties below
replay generated packet schedules through both and compare everything
the sweep can perturb: connection keys in yield order, each
connection's packet indices and ``complete`` flag, the health ledger
and, under a budget, the ledger's :class:`DegradationSummary`.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import profile
from repro.analysis.budget import ResourceBudget, StateLedger
from repro.analysis.profile import iter_connections
from repro.core.health import TraceHealth
from repro.faults.stress import connection_flood
from repro.wire.frames import build_frame
from repro.wire.pcap import PcapRecord
from repro.wire.tcpw import ACK, FIN, PSH, RST, SYN, TcpHeader

from tests.analysis import linger_oracle

LINGER_US = 100
BASE_US = 1_000_000

#: a small endpoint pool, so schedules interleave flows and reuse a
#: 4-tuple after its flow has been emitted.
CLIENTS = (("10.0.0.2", 40001), ("10.0.0.3", 40002), ("10.0.0.2", 40003))
SERVER = ("10.0.0.1", 179)

FLAGS = {
    "syn": SYN,
    "data": ACK | PSH,
    "ack": ACK,
    "fin": FIN | ACK,
    "rst": RST,
}

#: time steps between packets: repeats, exact linger boundaries (one
#: step of LINGER_US, or two that add up to it) and backward jumps.
STEPS = (0, 0, 1, 50, 99, 100, 100, 101, 250, -1, -100, -150)

packet_events = st.tuples(
    st.integers(0, len(CLIENTS) - 1),  # which 4-tuple
    st.booleans(),  # client -> server?
    st.sampled_from(sorted(FLAGS) + ["junk"]),
    st.sampled_from((0, 8, 64)),  # payload bytes
    st.sampled_from(STEPS),
)
schedules = st.lists(packet_events, min_size=1, max_size=40)

budgets = st.builds(
    ResourceBudget,
    max_live_connections=st.sampled_from((1, 2, 3)),
    max_connection_packets=st.sampled_from((None, 2, 4)),
    max_state_bytes=st.sampled_from((None, 400, 800)),
)


def _records(schedule) -> list[PcapRecord]:
    records = []
    now = BASE_US
    seq = {}
    for flow, outbound, kind, payload_len, step in schedule:
        now = max(now + step, 0)
        if kind == "junk":
            records.append(PcapRecord(now, b"\x00" * 20))
            continue
        client = CLIENTS[flow]
        src, dst = (client, SERVER) if outbound else (SERVER, client)
        payload = bytes(payload_len) if kind == "data" else b""
        next_seq = seq.get(src, 1000 * (flow + 1))
        seq[src] = next_seq + len(payload)
        header = TcpHeader(
            src_port=src[1], dst_port=dst[1], seq=next_seq,
            ack=seq.get(dst, 0), flags=FLAGS[kind], window=65_535,
            payload=payload,
        )
        records.append(PcapRecord(now, build_frame(src[0], dst[0], header)))
    return records


def _run(ingest, records, budget):
    health = TraceHealth()
    ledger = StateLedger(budget, health=health) if budget else None
    connections = [
        (c.key, list(c.packets.index), c.complete)
        for c in ingest(
            records, health=health, linger_us=LINGER_US, ledger=ledger
        )
    ]
    degradation = ledger.summary.to_dict() if ledger else None
    return connections, health.to_dict(), degradation


def _assert_same(records, budget):
    assert _run(iter_connections, records, budget) == _run(
        linger_oracle.iter_connections, records, budget
    )


# Two post-FIN packets of one flow at the same timestamp, then a
# packet far past the linger: the flow is released once.
@example(schedule=[
    (0, True, "data", 8, 0), (0, True, "fin", 0, 1), (0, False, "fin", 0, 1),
    (0, True, "ack", 0, 0), (0, True, "ack", 0, 0), (1, True, "syn", 0, 250),
])
# Exactly at the boundary (not released), then one past it, then the
# 4-tuple reused after the flow was emitted.
@example(schedule=[
    (0, True, "rst", 0, 0), (1, True, "data", 8, 100), (1, True, "ack", 0, 1),
    (0, True, "syn", 0, 0),
])
# Two flows come due at one packet: the one seen first, though it
# closed last, is released first.
@example(schedule=[
    (1, True, "syn", 0, 0), (0, True, "syn", 0, 1), (0, True, "rst", 0, 1),
    (1, True, "rst", 0, 1), (2, True, "syn", 0, 250),
])
# A backward timestamp pulls a closed flow's clock back.
@example(schedule=[
    (0, True, "fin", 0, 0), (0, False, "fin", 0, 1), (1, True, "data", 8, 101),
    (0, True, "ack", 0, -150), (1, False, "ack", 0, 250),
])
@settings(max_examples=300, deadline=None)
@given(schedule=schedules)
def test_unbudgeted_sweep_matches_oracle(schedule):
    _assert_same(_records(schedule), None)


@settings(max_examples=300, deadline=None)
@given(schedule=schedules, budget=budgets)
def test_budgeted_sweep_matches_oracle(schedule, budget):
    _assert_same(_records(schedule), budget)


class _CountingHeap:
    """``heapq`` stand-in that counts heap entries pushed and popped."""

    def __init__(self) -> None:
        self.pushes = self.pops = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


@pytest.mark.parametrize("connections", [500, 2_000])
def test_sweep_work_per_packet_is_bounded(monkeypatch, connections):
    """Inspections per packet do not grow with the open-flow count.

    ``connection_flood`` holds every flow open at once and closes them
    all in a burst, the shape that cost the per-packet rescan
    O(open flows) ``closable`` checks per packet.
    """
    records = list(connection_flood(connections=connections))
    counter = _CountingHeap()
    checks = 0
    closable = profile._OpenFlow.closable

    def counting_closable(flow):
        nonlocal checks
        checks += 1
        return closable.fget(flow)

    monkeypatch.setattr(profile, "heapq", counter)
    monkeypatch.setattr(
        profile._OpenFlow, "closable", property(counting_closable)
    )
    emitted = sum(1 for _ in iter_connections(records))
    assert emitted == connections
    # Each decoded packet checks its own flow once and pushes at most
    # one entry; every entry is popped at most once.
    assert checks <= len(records)
    assert counter.pops <= counter.pushes <= len(records)
    assert (checks + counter.pops) / len(records) <= 2
