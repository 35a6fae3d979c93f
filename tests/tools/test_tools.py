"""Tests for pcap2bgp, tcptrace-lite, bgplot and the CLIs."""

import random

import pytest

from repro.analysis.profile import Trace
from repro.analysis.tdat import analyze_pcap
from repro.bgp.messages import UpdateMessage
from repro.bgp.mrt import read_mrt
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import WindowLoss
from repro.netsim.simulator import Simulator
from repro.tools import bgplot, pcap2bgp, tcptrace_lite
from repro.tools.tdat_cli import main
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
    return {"path": path, "records": setup.sniffer.sorted_records(), "table": table}


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

    def test_message_timestamps_monotone(self, clean_capture):
        (result,) = pcap2bgp.pcap_to_bgp(clean_capture["records"]).values()
        stamps = [m.timestamp_us for m in result.messages]
        assert stamps == sorted(stamps)

    def test_matches_collector_archive(self, clean_capture):
        """pcap2bgp must recover exactly what the Quagga archive holds."""
        (result,) = pcap2bgp.pcap_to_bgp(clean_capture["records"]).values()
        reconstructed = [m.message for m in result.updates()]
        archived = [
            r.message
            for r in clean_capture["archived"]
            if isinstance(r.message, UpdateMessage)
        ]
        assert reconstructed == archived

    def test_pcap_to_mrt_roundtrip(self, clean_capture, tmp_path):
        out = tmp_path / "out.mrt"
        count = pcap2bgp.pcap_to_mrt(clean_capture["path"], out, local_as=65000)
        records = list(read_mrt(out))
        assert len(records) == count > 0
        assert all(r.local_as == 65000 for r in records)


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

    def test_sequence_points_csv(self, clean_capture):
        report = analyze_pcap(clean_capture["records"])
        csv = bgplot.sequence_points_csv(next(iter(report)))
        assert csv.splitlines()[0] == "kind,time_us,relative_seq"
        assert any(line.startswith("data,") for line in csv.splitlines())
        assert any(line.startswith("ack,") for line in csv.splitlines())

    def test_square_wave_resolution(self):
        from repro.core.events import EventSeries

        series = EventSeries("X", [(0, 50)])
        wave = bgplot.render_square_wave(series, 0, 100, width=10)
        assert wave == "█████·····"

    def test_time_sequence_plot(self, lossy_capture):
        report = analyze_pcap(lossy_capture["records"], min_data_packets=2)
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
