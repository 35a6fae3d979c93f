"""The column model must match the per-packet object path it replaced.

``connection_oracle`` is the analyzer's original object path: one
mutable ``TracePacket`` per segment, relative numbers re-derived per
question, linear rescans.  The properties below build one generated
connection both ways — as ingest rows transposed into columns, and as
oracle packets — and compare everything the layers derive from it: the
profile, the ACK shift (statistics and every shifted time), the labels,
every series in the catalog, the capture voids and the keepalive
pauses.

The generator covers out-of-order timestamps, long stuck windows
(stale and repeated ACKs while data flows), sequence and ACK numbers
that wrap at 2**32, captures without SYNs (lazy ISN), window scaling,
BGP keepalives and one-sided flows.
"""

from __future__ import annotations

from itertools import product
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis import detectors
from repro.analysis.ackshift import shift_acks, unshift_acks
from repro.analysis.detectors import detect_long_keepalive_pauses
from repro.analysis.labeling import label_connection
from repro.analysis.profile import Connection, canonical_key
from repro.analysis.columns import FirstAbove
from repro.analysis.series import (
    SERIES_NAMES,
    _advertised_window,
    _flight_cycles,
    _outstanding,
    generate_series,
)
from repro.analysis.tdat import analyze_connection
from repro.analysis.voids import find_capture_voids
from repro.bgp.messages import KeepaliveMessage, encode_message
from repro.wire.tcpw import ACK, FIN, PSH, RST, SYN

from tests.analysis import connection_oracle as oracle
from tests.analysis.helpers import TraceBuilder, address, is_keepalive

A = ("10.0.0.1", 40000)
B = ("10.0.0.2", 179)
KEEPALIVE = encode_message(KeepaliveMessage())
WRAP = 1 << 32

#: time steps between packets: repeats, ACK-clock spacing, long stalls
#: and backward jumps (out-of-order capture timestamps).
STEPS = (0, 0, 1, 40, 500, 3_000, 20_000, 200_000, -1, -700, -30_000)

events = st.tuples(
    st.booleans(),  # from A?
    st.sampled_from(
        ("data", "data", "data", "ack", "ack", "ack", "syn", "fin", "rst",
         "keepalive")
    ),
    st.sampled_from(STEPS),
    st.sampled_from(("next", "next", "retx", "skip")),  # data sequence
    st.sampled_from(("frontier", "frontier", "stale", "ahead")),  # ACK value
    st.sampled_from((1, 100, 536, 1400)),  # payload bytes
    st.sampled_from((0, 300, 1400, 8000, 65535)),  # advertised window
    st.sampled_from((1, 1, 2, 40_000)),  # IP ID step
)
connections = st.tuples(
    st.tuples(  # ISNs of A and B: plain, or a few KB short of the wrap
        st.sampled_from((0, 1000, WRAP - 2000)),
        st.sampled_from((5, 70_000, WRAP - 700)),
    ),
    st.sampled_from((None, 0, 2, 3, 14, 15)),  # A's SYN window scale
    st.sampled_from((None, 0, 3, 7)),  # B's SYN window scale
    st.lists(events, min_size=1, max_size=60),
)


def _packets(spec) -> list[oracle.TracePacket]:
    """Interpret a generated spec as the oracle's packet list."""
    (isn_a, isn_b), wscale_a, wscale_b, schedule = spec
    ends = {A: A, B: B}
    isn = {A: isn_a, B: isn_b}
    wscale = {A: wscale_a, B: wscale_b}
    sent = {A: 0, B: 0}  # next relative sequence per side
    ip_id = {A: 0, B: 0}
    saw_syn = set()
    packets = []
    now = 1_000_000
    for index, (from_a, kind, step, seq_mode, ack_mode, length, window,
                id_step) in enumerate(schedule):
        src, dst = (A, B) if from_a else (B, A)
        now = max(now + step, 0)
        ip_id[src] = (ip_id[src] + id_step) & 0xFFFF
        frontier = sent[dst]
        acked = {
            "frontier": frontier,
            "stale": frontier // 2,
            "ahead": frontier + 1400,  # bytes the capture never saw
        }[ack_mode]
        payload = b""
        mss = scale = None
        rel = sent[src]
        flags = ACK
        if kind == "syn":
            flags = SYN | ACK if dst in saw_syn else SYN
            saw_syn.add(src)
            rel = -1
            mss = 1400 if length > 100 else None
            scale = wscale[src]
        elif kind in ("data", "keepalive"):
            flags = ACK | PSH
            payload = KEEPALIVE if kind == "keepalive" else bytes(length)
            if kind == "data" and seq_mode == "retx":
                rel = max(sent[src] - 2 * length, 0)
            elif kind == "data" and seq_mode == "skip":
                rel = sent[src] + length
            sent[src] = max(sent[src], rel + len(payload))
        elif kind == "fin":
            flags = FIN | ACK
        elif kind == "rst":
            flags = RST
        packets.append(oracle.TracePacket(
            index=index,
            timestamp_us=now,
            src_ip=ends[src][0],
            src_port=ends[src][1],
            dst_ip=ends[dst][0],
            dst_port=ends[dst][1],
            seq=(isn[src] + 1 + rel) % WRAP,
            ack=(isn[dst] + 1 + acked) % WRAP,
            flags=flags,
            window=window,
            payload_len=len(payload),
            wire_len=54 + len(payload),
            ip_id=ip_id[src],
            payload=payload,
            mss_option=mss,
            wscale_option=scale,
        ))
    return packets


def _row(packet: oracle.TracePacket) -> tuple:
    """The ingest row of one oracle packet."""
    return (
        packet.index, packet.timestamp_us, address(packet.src_ip),
        packet.seq, packet.ack, packet.flags, packet.window,
        packet.payload_len, packet.wire_len, packet.ip_id,
        is_keepalive(packet.payload), packet.mss_option,
        packet.wscale_option,
    )


def _both(spec) -> tuple[Connection, oracle.Connection]:
    key = canonical_key(*A, *B)
    columns, objects = Connection(key), oracle.Connection(key)
    for packet in _packets(spec):
        columns.add(_row(packet))
        objects.add(packet)
    columns.finalize()
    objects.finalize()
    return columns, objects


def _ranges(series) -> list[tuple]:
    return [(r.start, r.end) for r in series.ranges]


def _labels(labeling) -> list[tuple]:
    """Each data packet's ``(kind, trigger, recovery)``."""
    times = {position: (t, r) for position, _, t, r in labeling.events}
    return [
        (kind, *times.get(position, (None, None)))
        for position, kind in enumerate(labeling.kinds)
    ]


def _oracle_labels(labeling) -> list[tuple]:
    return [
        (label.kind, label.trigger_time_us, label.recovery_time_us)
        for label in labeling.labels
    ]


def _steps(fn) -> tuple:
    """A step function's initial value and ``(time, value)`` samples."""
    return fn.initial, list(zip(fn._times, fn._values))


def _cycle(cycle) -> tuple:
    """The flight-cycle fields the series layer reads."""
    return (
        cycle.start_us, cycle.last_data_us, cycle.end_us, cycle.acked_us,
        cycle.next_start_us, cycle.last_ack_before_next_us,
    )


def _outcome(layer, *args):
    """``(result, None)``, or ``(None, message)`` when it raised."""
    try:
        return layer(*args), None
    except ValueError as exc:
        return None, str(exc)


def _assert_layers_match(columns, objects) -> None:
    assert columns.sender_ip == objects.sender_ip
    assert columns.profile == objects.profile

    assert shift_acks(columns) == oracle.shift_acks(objects)
    assert list(columns.acks.shifted) == [
        p.effective_time_us for p in objects.ack_packets()
    ]

    rtt_us = columns.profile.rtt_us
    cycles = _flight_cycles(columns.data, columns.acks, rtt_us)
    expected_cycles = oracle._flight_cycles(
        objects, objects.data_packets(), objects.ack_packets(), rtt_us
    )
    assert [_cycle(c) for c in cycles] == [_cycle(c) for c in expected_cycles]

    labeling = label_connection(columns)
    expected_labeling = oracle.label_connection(objects)
    assert _labels(labeling) == _oracle_labels(expected_labeling)
    assert [l.timestamp_us for l in labeling.retransmissions()] == [
        l.packet.timestamp_us for l in expected_labeling.retransmissions()
    ]

    # Timestamps running backwards can leave the default analysis
    # window reversed; both paths must then refuse it the same way.  The
    # capture's full extent is always a valid window.
    times = columns.packets.time
    for window in (None, (min(times), max(times) + 1)):
        series, error = _outcome(generate_series, columns, labeling, window)
        expected, expected_error = _outcome(
            oracle.generate_series, objects, expected_labeling, window
        )
        assert error == expected_error
        if error is None:
            _assert_series_match(series, expected)
    assert _steps(_outstanding(columns.data, columns.acks)[0]) == _steps(
        oracle._outstanding(
            objects, objects.data_packets(), objects.ack_packets()
        )[0]
    )
    assert _steps(_advertised_window(columns.acks)) == _steps(
        oracle._advertised_window(objects.ack_packets())
    )

    voids = find_capture_voids(columns)
    expected_voids = oracle.find_capture_voids(objects)
    assert voids.detected == expected_voids.detected
    assert voids.phantom_bytes == expected_voids.phantom_bytes
    assert voids.void_windows == expected_voids.void_windows

    # Generated connections last well under the 10 s threshold, so the
    # comparison also runs with it lowered on both sides.
    assert oracle.PEER_GROUP_MIN_BLOCK_US == detectors.PEER_GROUP_MIN_BLOCK_US
    for min_block_us in (1, 25_000, oracle.PEER_GROUP_MIN_BLOCK_US):
        with mock.patch.object(
            detectors, "PEER_GROUP_MIN_BLOCK_US", min_block_us
        ), mock.patch.object(oracle, "PEER_GROUP_MIN_BLOCK_US", min_block_us):
            pauses = detect_long_keepalive_pauses(columns)
            expected_pauses = oracle.detect_long_keepalive_pauses(objects)
        assert pauses.blocked_ranges == expected_pauses.blocked_ranges

    # The columns themselves, last: the oracle resolves ISNs lazily, on
    # first use, so asking for every packet's numbers goes after the
    # layers have asked for theirs.
    packets = columns.packets
    assert list(packets.window) == [p.window for p in objects.packets]
    assert list(packets.seq) == [
        objects.relative_seq(p) for p in objects.packets
    ]
    assert list(packets.ack) == [
        objects.relative_ack(p) for p in objects.packets
    ]


def _assert_series_match(series, expected) -> None:
    assert series.catalog.names() == expected.catalog.names()
    assert set(SERIES_NAMES) <= set(series.catalog.names())
    for name in series.catalog.names():
        assert _ranges(series.get(name)) == _ranges(expected.get(name)), name
    assert series.window == expected.window
    assert (
        series.serialization_us_per_byte
        == expected.serialization_us_per_byte
    )


# A handshake with window scaling on both sides, then in-order data.
@example(spec=(
    (1000, 70_000), 2, 3,
    [(True, "syn", 0, "next", "frontier", 1400, 65535, 1),
     (False, "syn", 40, "next", "frontier", 1400, 8000, 1),
     (True, "ack", 40, "next", "frontier", 1, 8000, 1),
     (True, "data", 40, "next", "frontier", 1400, 8000, 1),
     (False, "ack", 40, "next", "frontier", 1, 300, 1)],
))
# No SYNs, sequence numbers wrapping, keepalives inside a long pause.
@example(spec=(
    (WRAP - 2000, WRAP - 700), None, None,
    [(True, "data", 0, "next", "frontier", 1400, 65535, 1),
     (True, "data", 20_000, "next", "frontier", 1400, 65535, 1),
     (False, "ack", 500, "next", "frontier", 1, 65535, 1),
     (True, "keepalive", 200_000, "next", "frontier", 1, 65535, 1),
     (True, "data", 200_000, "next", "frontier", 1400, 65535, 1),
     (False, "ack", 500, "next", "ahead", 1, 65535, 1)],
))
# A stuck window: stale ACKs repeat while retransmissions arrive out
# of timestamp order.
@example(spec=(
    (0, 5), None, None,
    [(True, "data", 0, "next", "frontier", 1400, 65535, 1),
     (True, "data", 40, "next", "frontier", 1400, 65535, 1),
     (False, "ack", 500, "next", "stale", 1, 0, 1),
     (False, "ack", 500, "next", "stale", 1, 0, 1),
     (True, "data", -700, "retx", "frontier", 1400, 65535, 2),
     (False, "ack", 3_000, "next", "stale", 1, 0, 1),
     (True, "data", 20_000, "skip", "frontier", 1400, 65535, 40_000),
     (False, "ack", 40, "next", "frontier", 1, 1400, 1)],
))
# An ACK at the very instant of a retransmission does not end its
# recovery: only later ACKs do.
@example(spec=(
    (0, 5), None, None,
    [(True, "data", 0, "next", "frontier", 1400, 65535, 1),
     (True, "data", 40, "retx", "frontier", 1400, 65535, 1),
     (False, "ack", 0, "next", "frontier", 1, 65535, 1),
     (False, "ack", 500, "next", "frontier", 1, 65535, 1)],
))
# A keepalive at the very instant of a data packet does not make the
# pause that starts there a keepalive pause.
@example(spec=(
    (0, 5), None, None,
    [(True, "data", 0, "next", "frontier", 100, 65535, 1),
     (True, "keepalive", 0, "next", "frontier", 1, 65535, 1),
     (True, "data", 200_000, "next", "frontier", 100, 65535, 1)],
))
# A one-sided flow: data only.
@example(spec=(
    (1000, 5), None, None,
    [(True, "data", 0, "next", "frontier", 536, 65535, 1),
     (True, "data", 3_000, "next", "frontier", 536, 65535, 1)],
))
@settings(max_examples=300, deadline=None)
@given(spec=connections)
def test_columns_match_object_oracle(spec):
    _assert_layers_match(*_both(spec))


@settings(max_examples=300, deadline=None)
@given(spec=connections)
def test_shift_state_does_not_leak_between_analyses(spec):
    """An analysis depends only on its own ACK-shift setting.

    Whatever ran on the connection before — a shifted or an unshifted
    analysis — the series equal those of a fresh connection.
    """
    try:
        fresh_shifted = analyze_connection(_both(spec)[0])
        fresh_unshifted = analyze_connection(
            _both(spec)[0], enable_ack_shift=False
        )
    except ValueError:
        assume(False)  # a reversed default window; see above
    reused = _both(spec)[0]
    for enable in (True, True, False, False, True, False):
        analysis = analyze_connection(reused, enable_ack_shift=enable)
        reference = fresh_shifted if enable else fresh_unshifted
        for name in reference.series.catalog.names():
            assert _ranges(analysis.series.get(name)) == _ranges(
                reference.series.get(name)
            ), name


def test_unshift_restores_raw_ack_times():
    connection = (
        TraceBuilder().handshake(d2=8_000)
        .data(20_000, 0, 1400).data(20_100, 1400, 1400)
        .ack(21_000, 2800).data(29_500, 2800, 1400).ack(31_000, 4200)
        .build()
    )
    assert shift_acks(connection).shifted_flights > 0
    assert connection.acks.shifted != connection.acks.time
    unshift_acks(connection)
    assert connection.acks.shifted == connection.acks.time


def test_finalize_is_idempotent():
    """A second finalize must not scale the windows again."""
    spec = (
        (1000, 70_000), 2, 3,
        [(True, "syn", 0, "next", "frontier", 1400, 65535, 1),
         (False, "syn", 40, "next", "frontier", 1400, 2000, 1),
         (True, "data", 40, "next", "frontier", 1400, 8000, 1),
         (False, "ack", 40, "next", "frontier", 1, 1000, 1)],
    )
    connection = _both(spec)[0]
    profile = connection.profile
    columns = _columns(connection)
    assert profile.max_advertised_window == 1000 << 3 == 8000
    connection.finalize()
    assert connection.profile == profile
    assert _columns(connection) == columns


def _columns(connection) -> list:
    return [
        (name, getattr(part, name))
        for part in (connection.packets, connection.data, connection.acks)
        for name in part.__slots__
    ]


def test_first_above_matches_linear_scan():
    """Every start and bound over every short list of small values."""
    for n in range(8):
        for values in product(range(3), repeat=n):
            search = FirstAbove(values)
            for start in range(n + 1):
                for bound in range(-1, 3):
                    expected = next(
                        (i for i in range(start, n) if values[i] > bound),
                        None,
                    )
                    assert search.find(start, bound) == expected
