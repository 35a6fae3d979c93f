"""The unified ``tdat`` command: subcommands, legacy form, exit codes."""

import json

import pytest

from repro.faults.fuzz import clean_trace_bytes
from repro.tools import tdat_cli
from repro.tools.tdat_cli import (
    EXIT_ERROR,
    EXIT_INTERRUPTED,
    EXIT_ISSUES,
    EXIT_NOTHING,
    EXIT_OK,
    main,
)


@pytest.fixture(scope="module")
def clean_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("tdat") / "clean.pcap"
    path.write_bytes(clean_trace_bytes(table_prefixes=2_000, duration_s=60))
    return path


class TestAnalyze:
    def test_explicit_subcommand(self, clean_pcap, capsys):
        assert main(["analyze", str(clean_pcap)]) == EXIT_OK
        assert "major factors" in capsys.readouterr().out

    def test_legacy_bare_pcap_still_works(self, clean_pcap, capsys):
        """``tdat trace.pcap`` predates subcommands and must keep working."""
        assert main([str(clean_pcap)]) == EXIT_OK
        assert "major factors" in capsys.readouterr().out

    def test_legacy_flags_without_subcommand(self, clean_pcap, capsys):
        rc = main([str(clean_pcap), "--json", "--strict"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert payload["health"]["ok"] is True
        assert len(payload["connections"]) == 1

    def test_streaming_flag_same_output(self, clean_pcap, capsys):
        assert main(["analyze", str(clean_pcap), "--json"]) == EXIT_OK
        buffered = json.loads(capsys.readouterr().out)
        rc = main(["analyze", str(clean_pcap), "--json", "--streaming"])
        streamed = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert streamed == buffered

    def test_missing_file_one_line_error(self, capsys):
        rc = main(["analyze", "/nonexistent/trace.pcap"])
        err = capsys.readouterr().err
        assert rc == EXIT_ERROR
        assert err.count("\n") == 1
        assert "error: no such file" in err

    def test_unknown_word_is_treated_as_a_trace_path(self, capsys):
        # Not a subcommand -> legacy form -> analyze a file that isn't there.
        rc = main(["frobnicate"])
        assert rc == EXIT_ERROR
        assert "no such file" in capsys.readouterr().err

    def test_junk_input_is_nothing_to_analyze(self, tmp_path, capsys):
        junk = tmp_path / "junk.pcap"
        junk.write_bytes(b"not a pcap at all")
        assert main(["analyze", str(junk)]) == EXIT_NOTHING


class TestCampaign:
    def test_run_json_with_injected_crash(self, capsys):
        rc = main([
            "campaign", "ISP_A-Quagga",
            "--transfers", "2", "--seed", "5", "--workers", "2",
            "--fail-episode", "0", "--json",
        ])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        # The injected crash is contained: the sibling transfer and the
        # zero-ack-bug episode completed, the ledger says what was lost.
        assert rc == EXIT_ISSUES
        assert payload["health"]["ok"] is False
        assert payload["health"]["by_kind"].get("transfer-crashed") == 1
        assert payload["records"]
        assert "transfer-crashed" in captured.err

    def test_unknown_campaign_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "no-such-campaign"])
        assert "invalid choice" in capsys.readouterr().err


class TestCampaignOnlyFlags:
    """``--workers``, ``--task-timeout`` and ``--max-retries`` configure
    how a campaign's episodes fan out; analysis runs serially, so the
    commands that analyze or serve a capture reject them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "PCAP", "--workers", "2"],
            ["PCAP", "--workers", "2"],
            ["analyze", "PCAP", "--task-timeout", "5"],
            ["serve", "--workers", "2"],
            ["serve", "--max-retries", "1"],
            ["serve", "--json"],
        ],
        ids=[
            "analyze-workers", "legacy-workers", "analyze-task-timeout",
            "serve-workers", "serve-max-retries", "serve-json",
        ],
    )
    def test_rejected_outside_campaigns(
        self, clean_pcap, argv, capsys, monkeypatch
    ):
        def serve(*args, **kwargs):
            raise AssertionError("serve started with a rejected flag")

        # An accepted flag would start a blocking server.
        monkeypatch.setattr("repro.api.Pipeline.serve", serve)
        argv = [str(clean_pcap) if arg == "PCAP" else arg for arg in argv]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == EXIT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["campaign", "report"])
    def test_campaign_commands_keep_them(self, command, capsys):
        with pytest.raises(SystemExit) as caught:
            main([command, "--help"])
        assert caught.value.code == EXIT_OK
        out = capsys.readouterr().out
        for flag in ("--workers", "--task-timeout", "--max-retries"):
            assert flag in out


class TestOtherSubcommands:
    def test_tcptrace(self, clean_pcap, capsys):
        assert main(["tcptrace", str(clean_pcap)]) == EXIT_OK
        assert "conn" in capsys.readouterr().out

    def test_pcap2bgp(self, clean_pcap, tmp_path, capsys):
        out = tmp_path / "out.mrt"
        assert main(["pcap2bgp", str(clean_pcap), str(out)]) == EXIT_OK
        assert out.exists()

    def test_anonymize(self, clean_pcap, tmp_path, capsys):
        out = tmp_path / "anon.pcap"
        rc = main(["anonymize", str(clean_pcap), str(out), "--key", "k"])
        assert rc == EXIT_OK
        assert out.exists()

    def test_fuzz_smoke(self, capsys):
        rc = main(["fuzz", "--seeds", "2", "--table", "500"])
        assert rc == EXIT_OK
        assert "fuzz" in capsys.readouterr().out

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in tdat_cli.SUBCOMMANDS:
            assert name in out


class TestSupervision:
    def test_retries_recover_injected_crash(self, capsys):
        rc = main([
            "campaign", "ISP_A-Quagga",
            "--transfers", "2", "--seed", "5", "--workers", "2",
            "--fail-episode", "0", "--max-retries", "2", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        # The transient crash was retried away: full record set, the
        # recovery accounted as a benign issue, exit code clean.
        assert rc == EXIT_OK
        assert payload["health"]["by_kind"].get("task-retried") == 1
        assert payload["health"]["by_kind"].get("transfer-crashed") is None

    def test_checkpoint_then_resume_round_trip(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        args = [
            "campaign", "ISP_A-Quagga", "--transfers", "2", "--seed", "5",
            "--checkpoint-dir", str(ckpt), "--json",
        ]
        assert main(args) == EXIT_OK
        first = json.loads(capsys.readouterr().out)
        rc = main(args + ["--resume"])
        resumed = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK  # campaign-resumed marker is benign
        assert resumed["records"] == first["records"]
        assert resumed["health"]["by_kind"].get("campaign-resumed") == 1

    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "ISP_A-Quagga", "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_resume_with_changed_seed_is_an_error(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        base = ["campaign", "ISP_A-Quagga", "--transfers", "2",
                "--checkpoint-dir", str(ckpt)]
        assert main(base + ["--seed", "5"]) == EXIT_OK
        capsys.readouterr()
        rc = main(base + ["--seed", "6", "--resume"])
        assert rc == EXIT_ERROR
        assert "different" in capsys.readouterr().err

    def test_exit_code_table_in_help(self, capsys):
        for argv in (["--help"], ["campaign", "--help"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 0
            out = capsys.readouterr().out
            assert "exit codes:" in out
            assert "re-run with --resume" in out

    def test_exit_code_values_documented(self):
        # The numeric contract the table and CI scripts rely on.
        assert (EXIT_OK, EXIT_NOTHING, EXIT_ERROR, EXIT_ISSUES,
                EXIT_INTERRUPTED) == (0, 1, 2, 3, 4)
        assert tdat_cli.EXIT_DEGRADED == 6


@pytest.fixture(scope="module")
def flood_pcap(tmp_path_factory):
    from repro.faults.stress import connection_flood, write_stress_pcap

    path = tmp_path_factory.mktemp("tdat-budget") / "flood.pcap"
    write_stress_pcap(path, connection_flood(connections=80))
    return path


class TestBudgetFlags:
    def test_tight_budget_exits_degraded(self, flood_pcap, capsys):
        rc = main([
            "analyze", str(flood_pcap), "--json",
            "--max-live-connections", "12",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == tdat_cli.EXIT_DEGRADED
        degradation = payload["degradation"]
        assert degradation["degraded"] is True
        assert degradation["peak_live_connections"] <= 12
        # Degradation is noisy but benign: exit 6, not exit 3.
        assert all(issue["benign"] for issue in payload["health"]["issues"])

    def test_ample_budget_exits_clean(self, flood_pcap, capsys):
        rc = main([
            "analyze", str(flood_pcap), "--json",
            "--max-live-connections", "200",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert payload["degradation"]["degraded"] is False

    def test_connection_packet_cap_flag(self, flood_pcap, capsys):
        # Cap 6 admits the handshake plus both data segments, so the
        # capped flows stay above the analyzable-data floor.
        rc = main([
            "analyze", str(flood_pcap), "--json",
            "--max-connection-packets", "6",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == tdat_cli.EXIT_DEGRADED
        assert payload["degradation"]["packets_shed"] > 0
        # Partial-result semantics surface per connection.
        assert any(
            conn["complete"] is False and conn["confidence"] == "reduced"
            for conn in payload["connections"]
        )

    def test_unbudgeted_json_has_no_degradation_key(self, flood_pcap, capsys):
        rc = main(["analyze", str(flood_pcap), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert "degradation" not in payload
        assert all(conn["complete"] for conn in payload["connections"])

    def test_help_documents_the_degraded_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "resource budget shed state" in out
        assert "--max-live-connections" in out
        assert "--max-state-bytes" in out
        assert "--max-connection-packets" in out


class TestObservability:
    def test_json_stdout_pipes_into_json_tool(self, clean_pcap):
        """The satellite contract, literally: ``tdat analyze --json |
        python -m json.tool`` must succeed — every human-facing line
        belongs on stderr."""
        import subprocess
        import sys

        analyze = subprocess.run(
            [
                sys.executable, "-m", "repro.tools.tdat_cli",
                "analyze", str(clean_pcap), "--json",
            ],
            capture_output=True,
        )
        assert analyze.returncode == 0, analyze.stderr.decode()
        pretty = subprocess.run(
            [sys.executable, "-m", "json.tool"],
            input=analyze.stdout, capture_output=True,
        )
        assert pretty.returncode == 0, pretty.stderr.decode()
        json.loads(pretty.stdout)

    def test_campaign_json_stdout_is_machine_clean(self, capsys):
        rc = main([
            "campaign", "ISP_A-Quagga",
            "--transfers", "2", "--seed", "5", "--json",
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        json.loads(captured.out)  # nothing but the payload on stdout
        assert "campaign ISP_A-Quagga" in captured.err  # chatter -> stderr

    def test_quiet_suppresses_stderr_chatter(self, capsys):
        rc = main([
            "campaign", "ISP_A-Quagga",
            "--transfers", "2", "--seed", "5", "--json", "--quiet",
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        json.loads(captured.out)
        assert captured.err == ""

    def test_trace_and_metrics_exports(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        rc = main([
            "campaign", "ISP_A-Quagga",
            "--transfers", "2", "--seed", "5", "--json",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        json.loads(captured.out)
        assert "wrote Chrome trace" in captured.err
        assert "wrote metrics" in captured.err

        trace = json.loads(trace_path.read_text())
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert spans
        for event in spans:
            for key in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert key in event
        names = {e["name"] for e in spans}
        assert {"campaign.episode", "episode.simulate",
                "episode.analyze"} <= names

        metrics = json.loads(metrics_path.read_text())
        # 2 transfers + the campaign's zero-ack-bug probe episode
        assert metrics["campaign.episodes"]["value"] == 3
        assert "sim.events" in metrics

    def test_stats_renders_metrics_table(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        rc = main([
            "campaign", "ISP_A-Quagga",
            "--transfers", "2", "--seed", "5", "--json", "--quiet",
            "--metrics-out", str(metrics_path),
        ])
        capsys.readouterr()
        assert rc == EXIT_OK

        assert main(["stats", str(metrics_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "campaign.episodes" in out
        assert "sim.events" in out
        assert "pool.spawned" not in out or "*" in out  # wall marked

        rc = main(["stats", str(metrics_path), "--deterministic-only"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "campaign.episodes" in out
        assert "checkpoint.write_s" not in out

    def test_stats_on_junk_is_an_error(self, tmp_path, capsys):
        junk = tmp_path / "metrics.json"
        junk.write_text("[1, 2, 3]\n")
        assert main(["stats", str(junk)]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err
