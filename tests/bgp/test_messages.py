"""Unit tests for BGP message and attribute codecs."""

import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.attributes import (
    AS_SEQUENCE,
    AS_SET,
    ORIGIN_INCOMPLETE,
    AsPathSegment,
    PathAttributes,
)
from repro.bgp.header import MARKER
from repro.bgp.messages import (
    BgpError,
    KeepaliveMessage,
    MessageDecoder,
    NotificationMessage,
    OpenMessage,
    Prefix,
    UpdateMessage,
    decode_message,
    decode_nlri,
    encode_message,
)
from repro.wire.ip import IpError


class TestPrefix:
    def test_str_and_parse(self):
        p = Prefix.parse("192.0.2.0/24")
        assert str(p) == "192.0.2.0/24"
        assert p.length == 24

    def test_invalid_length(self):
        with pytest.raises(BgpError):
            Prefix("10.0.0.0", 33)

    def test_encode_minimal_bytes(self):
        assert Prefix("10.0.0.0", 8).encode() == b"\x08\x0a"
        assert Prefix("192.0.2.0", 24).encode() == b"\x18\xc0\x00\x02"
        assert Prefix("0.0.0.0", 0).encode() == b"\x00"

    def test_decode_nlri_roundtrip(self):
        prefixes = [
            Prefix("10.0.0.0", 8),
            Prefix("172.16.0.0", 12),
            Prefix("192.0.2.128", 25),
        ]
        blob = b"".join(p.encode() for p in prefixes)
        keys = decode_nlri(blob)
        assert keys == [p.key for p in prefixes]
        assert [Prefix.from_key(k) for k in keys] == prefixes

    def test_decode_truncated(self):
        with pytest.raises(BgpError):
            decode_nlri(b"\x18\xc0")

    def test_decode_bad_length(self):
        with pytest.raises(BgpError):
            decode_nlri(b"\x40\x01")

    @pytest.mark.parametrize("text", ["10.0.0.1/8", "192.0.2.128/25", "0.0.0.0/0"])
    def test_copies_and_pickles_are_equal(self, text):
        p = Prefix.parse(text)
        for clone in (
            pickle.loads(pickle.dumps(p)),
            pickle.loads(pickle.dumps(p, protocol=0)),
            copy.copy(p),
            copy.deepcopy(p),
            copy.deepcopy([p, p])[0],
        ):
            assert clone == p and hash(clone) == hash(p)
            assert type(clone) is Prefix
            assert (clone.network, clone.length, clone.encode()) == (
                p.network, p.length, p.encode()
            )

    def test_immutable(self):
        p = Prefix("10.0.0.0", 8)
        for name, value in (("network", "11.0.0.0"), ("length", 9), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(p, name, value)
        assert p == Prefix("10.0.0.0", 8)

    def test_hash_and_equality_keep_host_bits(self):
        assert Prefix("10.0.0.1", 8) != Prefix("10.0.0.0", 8)
        assert Prefix("10.0.0.1", 8).encode() == Prefix("10.0.0.0", 8).encode()
        assert Prefix("10.0.0.0", 8) != Prefix("10.0.0.0", 9)
        assert Prefix("10.0.0.0", 8) == Prefix.parse("10.0.0.0/8")
        assert len({Prefix("10.0.0.0", 8), Prefix.parse("10.0.0.0/8")}) == 1

    def test_repr(self):
        assert repr(Prefix("192.0.2.0", 24)) == (
            "Prefix(network='192.0.2.0', length=24)"
        )

    def test_parse_inverts_str(self):
        for p in (Prefix("10.0.0.1", 8), Prefix("255.255.255.255", 32)):
            assert Prefix.parse(str(p)) == p

    def test_network_is_canonical_and_checked_at_construction(self):
        assert Prefix("010.0.0.0", 8).network == "10.0.0.0"
        assert Prefix.from_int(0x0A000001, 8) == Prefix("10.0.0.1", 8)
        with pytest.raises(IpError):
            Prefix("10.0.0", 8)
        with pytest.raises(IpError):
            Prefix.from_int(1 << 32, 8)
        with pytest.raises(BgpError):
            Prefix.from_int(0, 33)


class TestPathAttributes:
    def test_roundtrip_basic(self):
        attrs = PathAttributes.from_path([65001, 65002, 3356], "10.1.2.3")
        decoded = PathAttributes.decode(attrs.encode())
        assert decoded.path_asns() == (65001, 65002, 3356)
        assert decoded.next_hop == "10.1.2.3"

    def test_roundtrip_all_fields(self):
        attrs = PathAttributes.from_path(
            [1, 2], "10.0.0.1", origin=ORIGIN_INCOMPLETE, med=100, local_pref=200
        )
        decoded = PathAttributes.decode(attrs.encode())
        assert decoded == attrs

    def test_as_set_segment(self):
        attrs = PathAttributes(
            as_path=(
                AsPathSegment(AS_SEQUENCE, (1, 2)),
                AsPathSegment(AS_SET, (3, 4, 5)),
            ),
            next_hop="10.0.0.1",
        )
        decoded = PathAttributes.decode(attrs.encode())
        assert decoded.as_path == attrs.as_path

    def test_empty_as_path(self):
        attrs = PathAttributes.from_path([], "10.0.0.1")
        decoded = PathAttributes.decode(attrs.encode())
        assert decoded.path_asns() == ()

    def test_truncated_attribute(self):
        from repro.bgp.attributes import AttributeError_

        attrs = PathAttributes.from_path([1], "10.0.0.1")
        with pytest.raises(AttributeError_):
            PathAttributes.decode(attrs.encode()[:-2])

    @given(st.lists(st.integers(min_value=1, max_value=65535), max_size=20))
    def test_as_path_roundtrip_property(self, asns):
        attrs = PathAttributes.from_path(asns, "192.0.2.1")
        assert PathAttributes.decode(attrs.encode()).path_asns() == tuple(asns)


class TestMessages:
    def test_open_roundtrip(self):
        msg = OpenMessage(my_as=65000, hold_time_s=180, bgp_id="10.0.0.1")
        decoded = decode_message(encode_message(msg))
        assert decoded == msg

    def test_keepalive_roundtrip(self):
        raw = encode_message(KeepaliveMessage())
        assert len(raw) == 19
        assert decode_message(raw) == KeepaliveMessage()

    def test_notification_roundtrip(self):
        msg = NotificationMessage(error_code=4, error_subcode=0, data=b"why")
        assert decode_message(encode_message(msg)) == msg

    def test_update_roundtrip(self):
        msg = UpdateMessage(
            announced=(Prefix("10.0.0.0", 8), Prefix("192.0.2.0", 24)),
            attributes=PathAttributes.from_path([65001], "10.0.0.1"),
            withdrawn=(Prefix("172.16.0.0", 12),),
        )
        assert decode_message(encode_message(msg)) == msg

    def test_update_copies_and_pickles_are_equal(self):
        msg = UpdateMessage(
            announced=(Prefix("10.0.0.0", 8), Prefix("192.0.2.0", 24)),
            attributes=PathAttributes.from_path([65001], "10.0.0.1"),
            withdrawn=(Prefix("172.16.0.0", 12),),
        )
        decoded = decode_message(encode_message(msg))
        for original in (msg, decoded):
            for clone in (
                pickle.loads(pickle.dumps(original)),
                copy.copy(original),
                copy.deepcopy(original),
            ):
                assert clone == original and hash(clone) == hash(original)
                assert encode_message(clone) == encode_message(original)
                assert clone.announced_keys == original.announced_keys

    def test_withdraw_only_update(self):
        msg = UpdateMessage(withdrawn=(Prefix("10.0.0.0", 8),))
        decoded = decode_message(encode_message(msg))
        assert decoded.attributes is None
        assert decoded.withdrawn == msg.withdrawn

    def test_bad_marker_rejected(self):
        raw = bytearray(encode_message(KeepaliveMessage()))
        raw[0] = 0
        with pytest.raises(BgpError):
            decode_message(bytes(raw))

    def test_trailing_bytes_rejected(self):
        raw = encode_message(KeepaliveMessage()) + b"\x00"
        with pytest.raises(BgpError):
            decode_message(raw)

    def test_oversized_message_rejected(self):
        msg = UpdateMessage(
            announced=tuple(
                Prefix(f"10.{i >> 8}.{i & 255}.0", 24) for i in range(1500)
            ),
            attributes=PathAttributes.from_path([1], "10.0.0.1"),
        )
        with pytest.raises(BgpError):
            encode_message(msg)

    def test_unknown_type_rejected(self):
        raw = bytearray(encode_message(KeepaliveMessage()))
        raw[18] = 9
        with pytest.raises(BgpError):
            decode_message(bytes(raw))


class TestMessageDecoder:
    def messages(self):
        return [
            OpenMessage(my_as=1, hold_time_s=180, bgp_id="1.1.1.1"),
            KeepaliveMessage(),
            UpdateMessage(
                announced=(Prefix("10.0.0.0", 8),),
                attributes=PathAttributes.from_path([1, 2], "10.0.0.1"),
            ),
            KeepaliveMessage(),
        ]

    def test_whole_stream_at_once(self):
        stream = b"".join(encode_message(m) for m in self.messages())
        decoder = MessageDecoder()
        assert decoder.feed(stream) == self.messages()
        assert decoder.pending_bytes == 0

    def test_byte_by_byte(self):
        stream = b"".join(encode_message(m) for m in self.messages())
        decoder = MessageDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == self.messages()

    def test_random_chunking(self):
        stream = b"".join(encode_message(m) for m in self.messages())
        rng = random.Random(7)
        decoder = MessageDecoder()
        out = []
        i = 0
        while i < len(stream):
            n = rng.randint(1, 40)
            out.extend(decoder.feed(stream[i : i + n]))
            i += n
        assert out == self.messages()
        assert decoder.messages_decoded == 4

    def test_desync_detected(self):
        decoder = MessageDecoder()
        with pytest.raises(BgpError):
            decoder.feed(b"\x00" * 19)

    def test_partial_message_pends(self):
        raw = encode_message(KeepaliveMessage())
        decoder = MessageDecoder()
        assert decoder.feed(raw[:10]) == []
        assert decoder.pending_bytes == 10
        assert decoder.feed(raw[10:]) == [KeepaliveMessage()]

    def test_marker_constant(self):
        assert MARKER == b"\xff" * 16


class TestMessageDecoderResync:
    """RFC 7606-spirit containment: one bad message, not a dead session."""

    def stream(self):
        messages = [
            OpenMessage(my_as=1, hold_time_s=180, bgp_id="1.1.1.1"),
            KeepaliveMessage(),
            UpdateMessage(
                announced=(Prefix("10.0.0.0", 8),),
                attributes=PathAttributes.from_path([1, 2], "10.0.0.1"),
            ),
            KeepaliveMessage(),
        ]
        return messages, [encode_message(m) for m in messages]

    def test_garbage_prefix_skipped(self):
        messages, encoded = self.stream()
        garbage = b"\x00\x01\x02" * 7
        decoder = MessageDecoder(resync=True)
        got = decoder.feed(garbage + b"".join(encoded))
        assert got == messages
        assert decoder.resync_count == 1
        assert decoder.bytes_skipped == len(garbage)

    def test_corrupt_marker_costs_one_message(self):
        messages, encoded = self.stream()
        damaged = bytearray(encoded[1])
        damaged[3] ^= 0xFF  # break the KEEPALIVE's marker
        blob = encoded[0] + bytes(damaged) + encoded[2] + encoded[3]
        issues = []
        decoder = MessageDecoder(
            resync=True,
            on_issue=lambda kind, lost, detail: issues.append(kind),
        )
        got = decoder.feed(blob)
        assert got == [messages[0], messages[2], messages[3]]
        assert "bad-marker" in issues
        assert decoder.bytes_skipped > 0

    def test_bad_length_field_recovers(self):
        messages, encoded = self.stream()
        bogus = MARKER + b"\x00\x05\x04"  # length 5 < minimum header
        decoder = MessageDecoder(resync=True)
        got = decoder.feed(encoded[0] + bogus + b"".join(encoded[1:]))
        assert got == messages

    # An UPDATE whose LOCAL_PREF attribute is 14 bytes long.
    BAD_LOCAL_PREF = bytes.fromhex(
        "ffffffffffffffffffffffffffffffff004b020000002e400101004002080203"
        "000100025ba04039040a000001c0050e020300000001000095020001117080040"
        "400000005088d18c00002"
    )

    def test_bad_attribute_length_costs_only_its_message(self):
        messages, encoded = self.stream()
        issues = []
        decoder = MessageDecoder(
            resync=True,
            on_issue=lambda kind, lost, detail: issues.append((kind, detail)),
        )
        got = decoder.feed(
            encoded[0] + self.BAD_LOCAL_PREF + b"".join(encoded[1:])
        )
        assert got == messages
        assert issues == [("malformed-message", "LOCAL_PREF must be 4 bytes")]

    @pytest.mark.parametrize("attribute", [
        b"\x40\x01\x02\x00\x00",  # ORIGIN of 2 bytes
        b"\x80\x04\x02\x00\x00",  # MULTI_EXIT_DISC of 2 bytes
        b"\x40\x03\x03\x0a\x00\x00",  # NEXT_HOP of 3 bytes
    ])
    def test_bad_attribute_is_a_bgp_error_without_resync(self, attribute):
        body = b"\x00\x00" + len(attribute).to_bytes(2, "big") + attribute
        raw = MARKER + (19 + len(body)).to_bytes(2, "big") + b"\x02" + body
        with pytest.raises(BgpError):
            MessageDecoder().feed(raw)
        with pytest.raises(BgpError):
            MessageDecoder().feed(self.BAD_LOCAL_PREF)

    def test_malformed_body_costs_only_itself(self):
        messages, encoded = self.stream()
        # Valid framing, impossible body: KEEPALIVE with trailing bytes.
        bogus = MARKER + b"\x00\x15\x04" + b"xx"
        issues = []
        decoder = MessageDecoder(
            resync=True,
            on_issue=lambda kind, lost, detail: issues.append((kind, lost)),
        )
        got = decoder.feed(encoded[0] + bogus + b"".join(encoded[1:]))
        assert got == messages
        assert ("malformed-message", len(bogus)) in issues

    def test_byte_by_byte_resync(self):
        messages, encoded = self.stream()
        damaged = bytearray(encoded[2])
        damaged[0] ^= 0x01
        blob = encoded[0] + encoded[1] + bytes(damaged) + encoded[3]
        decoder = MessageDecoder(resync=True)
        got = []
        for i in range(len(blob)):
            got.extend(decoder.feed(blob[i : i + 1]))
        assert got == [messages[0], messages[1], messages[3]]

    def test_without_resync_still_raises(self):
        _, encoded = self.stream()
        decoder = MessageDecoder()
        with pytest.raises(BgpError):
            decoder.feed(b"junk" * 5 + encoded[0])
