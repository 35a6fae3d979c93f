"""Tests for 4-byte AS support (RFC 6793) and OPEN capabilities."""

import struct

import pytest

from repro.bgp.attributes import (
    AS4_PATH,
    AS_SEQUENCE,
    AS_TRANS,
    AsPathSegment,
    PathAttributes,
)
from repro.bgp.messages import (
    CAP_ROUTE_REFRESH,
    OpenMessage,
    Prefix,
    UpdateMessage,
    decode_message,
    encode_message,
)


class TestAs4Path:
    def test_narrow_path_unchanged(self):
        attrs = PathAttributes.from_path([100, 200], "10.0.0.1")
        raw = attrs.encode()
        assert struct.pack("!H", AS_TRANS) not in raw
        decoded = PathAttributes.decode(raw)
        assert decoded.path_asns() == (100, 200)

    def test_wide_asn_uses_as_trans_plus_as4_path(self):
        attrs = PathAttributes.from_path([100, 400_000, 200], "10.0.0.1")
        raw = attrs.encode()
        # The 2-byte AS_PATH carries AS_TRANS where 400000 was...
        assert struct.pack("!H", AS_TRANS) in raw
        # ...and decoding reconstructs the true path from AS4_PATH.
        decoded = PathAttributes.decode(raw)
        assert decoded.path_asns() == (100, 400_000, 200)

    def test_wide_as_set(self):
        attrs = PathAttributes(
            as_path=(
                AsPathSegment(AS_SEQUENCE, (100,)),
                AsPathSegment(1, (70_000, 80_000)),  # AS_SET
            ),
            next_hop="10.0.0.1",
        )
        decoded = PathAttributes.decode(attrs.encode())
        assert decoded.as_path == attrs.as_path

    def test_update_roundtrip_with_wide_asns(self):
        msg = UpdateMessage(
            announced=(Prefix("10.0.0.0", 8),),
            attributes=PathAttributes.from_path(
                [65001, 4_200_000_000], "10.0.0.1"
            ),
        )
        decoded = decode_message(encode_message(msg))
        assert decoded.attributes.path_asns() == (65001, 4_200_000_000)

    def test_mismatched_as4_path_prefers_wide(self):
        from repro.bgp.attributes import _merge_as4_path

        narrow = (AsPathSegment(AS_SEQUENCE, (AS_TRANS, 1, 2)),)
        wide = (AsPathSegment(AS_SEQUENCE, (99_999,)),)
        merged = _merge_as4_path(narrow, wide)
        assert merged == wide


class TestOpenCapabilities:
    def test_plain_open_roundtrip(self):
        msg = OpenMessage(my_as=65001, hold_time_s=180, bgp_id="1.2.3.4")
        decoded = decode_message(encode_message(msg))
        assert decoded == msg

    def test_wide_as_roundtrip(self):
        msg = OpenMessage(my_as=400_000, hold_time_s=90, bgp_id="1.2.3.4")
        raw = encode_message(msg)
        # The fixed 2-byte field shows AS_TRANS on the wire.
        assert struct.unpack_from("!H", raw, 19 + 1)[0] == 23456
        decoded = decode_message(raw)
        assert decoded.my_as == 400_000

    def test_extra_capabilities_roundtrip(self):
        msg = OpenMessage(
            my_as=65001, hold_time_s=180, bgp_id="1.2.3.4",
            capabilities=((CAP_ROUTE_REFRESH, b""),),
        )
        decoded = decode_message(encode_message(msg))
        assert decoded.capabilities == ((CAP_ROUTE_REFRESH, b""),)

    def test_wide_as_with_extra_capabilities(self):
        msg = OpenMessage(
            my_as=200_000, hold_time_s=180, bgp_id="1.2.3.4",
            capabilities=((CAP_ROUTE_REFRESH, b""),),
        )
        decoded = decode_message(encode_message(msg))
        assert decoded.my_as == 200_000
        # AS4 is folded into my_as; the other capability is kept.
        assert decoded.capabilities == ((CAP_ROUTE_REFRESH, b""),)

    def test_truncated_capabilities_rejected(self):
        from repro.bgp.messages import BgpError

        msg = OpenMessage(my_as=400_000, hold_time_s=180, bgp_id="1.2.3.4")
        raw = bytearray(encode_message(msg))
        raw[19 + 9] = 50  # inflate opt_len beyond the body
        # Header length field must also grow for the parser to look.
        with pytest.raises(BgpError):
            from repro.bgp.messages import OpenMessage as OM

            OM.from_body(bytes(raw[19:]))


class TestAs4Session:
    def test_session_with_wide_asn_transfers(self):
        import random

        from repro.bgp.table import generate_table
        from repro.core.units import seconds
        from repro.netsim.simulator import Simulator
        from repro.workloads.scenarios import MonitoringSetup, RouterParams

        sim = Simulator()
        setup = MonitoringSetup(sim)
        table = generate_table(500, random.Random(95))
        handle = setup.add_router(
            RouterParams(
                name="r1", ip="10.95.0.1", table=table, local_as=4_200_000_123
            )
        )
        setup.start()
        sim.run(until_us=seconds(60))
        assert setup.collector.updates_archived == len(table.to_updates())
        # The collector's session learned the peer's true 4-byte AS.
        session = setup.collector.sessions[0]
        assert session.peer_open.my_as == 4_200_000_123
