"""Tests for pcap2bgp, tcptrace-lite, bgplot and the CLIs."""

import pytest

from repro.analysis.tdat import analyze_pcap
from repro.bgp.messages import (
    KeepaliveMessage,
    OpenMessage,
    UpdateMessage,
    encode_message,
)
from repro.bgp.mrt import read_mrt
from repro.core.health import TraceHealth
from repro.core.units import seconds
from repro.tools import bgplot, pcap2bgp, tcptrace_lite
from repro.tools.tdat_cli import main
from repro.wire import frames
from repro.wire.pcap import PcapRecord
from repro.wire.tcpw import SYN

ROUTER_IP = "10.1.0.1"


def archived_updates(capture):
    """The UPDATE records the collector archived: pcap2bgp's oracle."""
    return [
        record for record in capture["archived"]
        if isinstance(record.message, UpdateMessage)
    ]


def router_data(record) -> bool:
    packet = frames.parse_packet(record.data)
    return bool(packet.payload) and packet.src_ip == ROUTER_IP


def swap_two_data_segments(records):
    """The capture with two data segments' frames exchanged (network
    reordering: each record keeps its timestamp)."""
    data = [i for i, record in enumerate(records) if router_data(record)]
    i, j = data[len(data) // 3], data[len(data) // 3 + 1]
    swapped = list(records)
    swapped[i] = PcapRecord(records[i].timestamp_us, records[j].data)
    swapped[j] = PcapRecord(records[j].timestamp_us, records[i].data)
    return swapped


def strip_syns(records):
    """The capture as if it had started mid-connection."""
    return [
        record for record in records
        if not frames.parse_packet(record.data).flags & SYN
    ]


class TestPcap2Bgp:
    def test_reconstructs_all_updates(self, clean_capture):
        results = pcap2bgp.pcap_to_bgp(clean_capture["records"])
        (result,) = results.values()
        expected = len(clean_capture["table"].to_updates())
        assert len(result.updates()) == expected
        assert result.missing_bytes == 0
        assert result.decode_error is None

    def test_reconstruction_handles_retransmissions(self, lossy_capture):
        results = pcap2bgp.pcap_to_bgp(lossy_capture["records"])
        (result,) = results.values()
        expected = len(lossy_capture["table"].to_updates())
        assert len(result.updates()) == expected
        assert result.decode_error is None

    @pytest.mark.parametrize("source", ["path", "records"])
    def test_counts_each_record_once(self, clean_capture, source):
        health = TraceHealth()
        results = pcap2bgp.pcap_to_bgp(clean_capture[source], health=health)
        assert len(results) == 1
        assert health.records_read == len(clean_capture["records"])

    def test_damage_reported_at_feeding_segment(self, clean_capture):
        """A smashed marker is reported at the capture time of the segment
        that fed it; a hole at the time of the last contiguous bytes."""
        records = list(clean_capture["records"])
        starts = [
            i for i, record in enumerate(records)
            if frames.parse_packet(record.data).payload[:16] == b"\xff" * 16
            and frames.parse_packet(record.data).src_ip == ROUTER_IP
        ]
        hit, cut = starts[3], starts[-2]
        data = bytearray(records[hit].data)
        data[-len(frames.parse_packet(records[hit].data).payload)] = 0
        records[hit] = PcapRecord(records[hit].timestamp_us, bytes(data))
        del records[cut]
        health = TraceHealth()
        (result,) = pcap2bgp.pcap_to_bgp(records, health=health).values()
        kinds: dict = {}
        for issue in health.issues:
            kinds.setdefault(issue.kind, issue)
        assert kinds["bad-marker"].timestamp_us == records[hit].timestamp_us
        assert result.decode_error.startswith("bad-marker: ")
        hole = kinds["stream-hole"]
        assert hole.benign and hole.bytes_lost == result.missing_bytes > 0
        assert hole.timestamp_us == records[cut - 1].timestamp_us

    @pytest.mark.parametrize("attribute, length, error", [
        (b"\x80\x04\x04", 2, "MULTI_EXIT_DISC must be 4 bytes"),
        (b"\x40\x01\x01", 2, "ORIGIN must be 1 byte"),
    ], ids=["med", "origin"])
    def test_bad_attribute_length_is_a_decode_error(
        self, clean_capture, attribute, length, error
    ):
        """A malformed attribute costs exactly one message, kept in
        ``decode_error``; it never escapes ``pcap_to_bgp``."""
        records = list(clean_capture["records"])
        for index, record in enumerate(records):
            payload = frames.parse_packet(record.data).payload
            at = payload.find(attribute)
            start = payload.rfind(b"\xff" * 16, 0, max(at, 0))
            if at > 0 and start >= 0 and payload[start + 18] == 2:
                break
        data = bytearray(record.data)
        data[len(data) - len(payload) + at + 2] = length
        records[index] = PcapRecord(record.timestamp_us, bytes(data))
        health = TraceHealth()
        (result,) = pcap2bgp.pcap_to_bgp(records, health=health).values()
        expected = len(clean_capture["table"].to_updates())
        assert result.decode_error == f"malformed-message: {error}"
        assert result.resync_events == 1
        assert len(result.updates()) == expected - 1
        assert [i.kind for i in health.issues] == ["malformed-message"]

    def test_message_timestamps_monotone(self, clean_capture):
        (result,) = pcap2bgp.pcap_to_bgp(clean_capture["records"]).values()
        stamps = [m.timestamp_us for m in result.messages]
        assert stamps == sorted(stamps)

    def test_matches_collector_archive(self, clean_capture):
        """pcap2bgp must recover exactly what the Quagga archive holds."""
        (result,) = pcap2bgp.pcap_to_bgp(clean_capture["records"]).values()
        reconstructed = [m.message for m in result.updates()]
        archived = [r.message for r in archived_updates(clean_capture)]
        assert reconstructed == archived

    @pytest.mark.parametrize("case", ["lossy", "swapped", "no-syn"])
    def test_matches_collector_archive_despite(
        self, clean_capture, lossy_capture, case
    ):
        """Retransmissions, reordering and a capture that starts
        mid-connection still recover the archive, in stamp order."""
        capture = lossy_capture if case == "lossy" else clean_capture
        records = capture["records"]
        if case == "swapped":
            records = swap_two_data_segments(records)
        elif case == "no-syn":
            records = strip_syns(records)
        (result,) = pcap2bgp.pcap_to_bgp(records).values()
        assert result.sender_ip == ROUTER_IP
        assert [m.message for m in result.updates()] == [
            r.message for r in archived_updates(capture)
        ]
        assert result.missing_bytes == 0
        assert result.decode_error is None
        stamps = [m.timestamp_us for m in result.messages]
        assert stamps == sorted(stamps)

    def test_decodes_every_stream_byte(self, clean_capture):
        """The router's direction decodes to its OPEN and every message
        after it, and their encodings account for each stream byte."""
        (result,) = pcap2bgp.pcap_to_bgp(clean_capture["records"]).values()
        assert isinstance(result.messages[0].message, OpenMessage)
        assert result.stream_bytes == sum(
            len(encode_message(m.message)) for m in result.messages
        )
        assert result.missing_bytes == result.resync_events == 0
        assert len(result.updates()) == len(
            clean_capture["table"].to_updates()
        )

    def test_handles_retransmissions(self, lossy_capture):
        """A retransmitted segment's bytes are decoded once: the lossy
        capture repeats a data segment, yet every UPDATE comes out once,
        in stamp order."""
        records = lossy_capture["records"]
        seqs = [
            frames.parse_packet(r.data).seq for r in records if router_data(r)
        ]
        assert len(seqs) > len(set(seqs))
        (result,) = pcap2bgp.pcap_to_bgp(records).values()
        assert result.stream_bytes == sum(
            len(encode_message(m.message)) for m in result.messages
        )
        updates = result.updates()
        assert len(updates) == len(lossy_capture["table"].to_updates())
        stamps = [u.timestamp_us for u in updates]
        assert stamps == sorted(stamps)

    def test_messages_stamped_at_completing_segment(self, clean_capture):
        """Each message carries the capture time of the router's data
        segment that completed it, never later than the collector
        archived it: messages surface as their bytes arrive, not at the
        end of the capture."""
        records = clean_capture["records"]
        (result,) = pcap2bgp.pcap_to_bgp(records).values()
        segment_times = {r.timestamp_us for r in records if router_data(r)}
        archived = archived_updates(clean_capture)
        assert len(result.updates()) == len(archived)
        for timed, record in zip(result.updates(), archived):
            assert timed.timestamp_us in segment_times
            assert timed.timestamp_us <= record.timestamp_us
        middle = records[len(records) // 2].timestamp_us
        assert result.messages[0].timestamp_us < middle

    def test_garbage_frame_is_a_health_issue(self, clean_capture):
        """A 30-byte frame that decodes as nothing costs one health
        issue and no message."""
        records = list(clean_capture["records"])
        middle = len(records) // 2
        records.insert(
            middle, PcapRecord(records[middle].timestamp_us, b"\x01" * 30)
        )
        health = TraceHealth()
        (result,) = pcap2bgp.pcap_to_bgp(records, health=health).values()
        assert [i.kind for i in health.issues] == ["undecodable-frame"]
        assert [m.message for m in result.updates()] == [
            r.message for r in archived_updates(clean_capture)
        ]

    def test_pcap_to_mrt_roundtrip(self, clean_capture, tmp_path):
        out = tmp_path / "out.mrt"
        count = pcap2bgp.pcap_to_mrt(clean_capture["path"], out, local_as=65000)
        records = list(read_mrt(out))
        assert len(records) == count > 0
        assert all(r.local_as == 65000 for r in records)


class TestReassembler:
    def test_longer_segment_at_a_stashed_seq_is_kept(self):
        """A short segment stashed first must not shadow a longer one
        (a repacketized retransmission) that starts at the same
        sequence number."""
        stream_bytes = encode_message(KeepaliveMessage()) * 10
        stream = pcap2bgp._Reassembler(on_issue=None)
        messages = []
        for seq, end in [(38, 57), (38, 190), (0, 38)]:
            messages += stream.add(seq, stream_bytes[seq:end], end)
        assert len(messages) == 10
        assert stream.next_seq == 190
        assert stream.missing_bytes() == 0

    def test_overlapping_stashed_segments_count_once(self):
        stream = pcap2bgp._Reassembler(on_issue=None)
        stream.add(100, b"\x00" * 50, 1)
        stream.add(120, b"\x00" * 50, 2)
        assert stream.next_seq == 0
        assert stream.missing_bytes() == 70  # bytes 100-170


class TestTcptraceLite:
    def test_summary_row(self, clean_capture):
        rows = tcptrace_lite.summarize(clean_capture["path"])
        assert len(rows) == 1
        row = rows[0]
        assert row.sender_ip == "10.1.0.1"
        assert row.data_bytes > 8_000
        assert row.retransmissions == 0
        assert row.saw_syn

    def test_lossy_capture_counts_retransmissions(self, lossy_capture):
        (row,) = tcptrace_lite.summarize(lossy_capture["path"])
        assert row.retransmissions > 0
        assert row.downstream_losses > 0

    def test_format_report(self, clean_capture):
        rows = tcptrace_lite.summarize(clean_capture["path"])
        text = tcptrace_lite.format_report(rows)
        assert "1 TCP connection(s)" in text
        assert "10.1.0.1" in text


class TestBgplot:
    def test_render_panel(self, clean_capture):
        report = analyze_pcap(clean_capture["records"])
        analysis = next(iter(report))
        panel = bgplot.render_panel(analysis.series, width=60)
        assert "Transmission" in panel
        assert "█" in panel

    def test_render_analysis_mentions_factors(self, clean_capture):
        report = analyze_pcap(clean_capture["records"])
        text = bgplot.render_analysis(next(iter(report)))
        assert "delay ratios" in text
        assert "major factors" in text

    def test_csv_export(self, clean_capture):
        report = analyze_pcap(clean_capture["records"])
        csv = bgplot.series_to_csv(next(iter(report)).series)
        lines = csv.splitlines()
        assert lines[0] == "series,start_us,end_us,duration_us"
        assert len(lines) > 3

    def test_square_wave_resolution(self):
        from repro.core.events import EventSeries

        series = EventSeries("X", [(0, 50)])
        wave = bgplot.render_square_wave(series, 0, 100, width=10)
        assert wave == "█████·····"

    def test_time_sequence_plot(self, lossy_capture):
        report = analyze_pcap(lossy_capture["records"])
        analysis = next(iter(report))
        plot = bgplot.render_time_sequence(
            analysis, width=60, height=12, window=(0, seconds(2))
        )
        lines = plot.splitlines()
        assert len(lines) == 13  # header + 12 rows
        body = "\n".join(lines[1:])
        assert "." in body  # data points
        assert "R" in body  # the injected retransmissions
        assert "a" in body  # the ACK frontier

    def test_time_sequence_empty(self):
        from repro.analysis.tdat import analyze_connection
        from repro.analysis.profile import Connection

        # A connection object with no data renders a placeholder.
        from tests.analysis.helpers import TraceBuilder

        conn = TraceBuilder().handshake().data(20_000, 0, 100).ack(
            21_000, 100
        ).build()
        analysis = analyze_connection(conn)
        plot = bgplot.render_time_sequence(analysis, width=20, height=5)
        assert "time-sequence" in plot


class TestClis:
    def test_tdat_cli(self, clean_capture, capsys):
        rc = main(["analyze", str(clean_capture["path"])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "connection" in out
        assert "major factors" in out

    def test_tdat_cli_empty_trace(self, tmp_path, capsys):
        from repro.wire.pcap import write_pcap

        empty = tmp_path / "empty.pcap"
        write_pcap(empty, [])
        rc = main(["analyze", str(empty)])
        assert rc == 1

    def test_pcap2bgp_cli(self, clean_capture, tmp_path, capsys):
        out_path = tmp_path / "cli.mrt"
        rc = main(["pcap2bgp", str(clean_capture["path"]), str(out_path)])
        assert rc == 0
        assert out_path.exists()
        assert "MRT records" in capsys.readouterr().out

    def test_tcptrace_cli(self, clean_capture, capsys):
        rc = main(["tcptrace", str(clean_capture["path"])])
        assert rc == 0
        assert "TCP connection" in capsys.readouterr().out

    def test_bgplot_cli_csv(self, clean_capture, capsys):
        rc = main(["bgplot", str(clean_capture["path"]), "--csv"])
        assert rc == 0
        assert "series,start_us" in capsys.readouterr().out

    def test_tdat_cli_json(self, clean_capture, capsys):
        import json

        rc = main(["analyze", str(clean_capture["path"]), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["connections"]) == 1
        entry = payload["connections"][0]
        assert entry["sender"] == "10.1.0.1"
        assert set(entry["factors"]["groups"]) == {"sender", "receiver", "network"}
        assert "timer_gaps" in entry["detectors"]
        assert entry["profile"]["mss"] == 1400
        assert payload["health"]["ok"] is True
        assert payload["health"]["issue_count"] == 0
