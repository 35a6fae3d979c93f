"""Error handling for every capture-reading ``tdat`` subcommand.

Each of the five subcommands must turn operational mishaps — missing
files, non-pcap input, damaged captures — into a single diagnostic line
on stderr and a nonzero exit status, never a traceback.
"""

import struct

import pytest

from repro.faults.fuzz import clean_trace_bytes
from repro.tools.tdat_cli import (
    EXIT_ERROR,
    EXIT_ISSUES,
    EXIT_NOTHING,
    EXIT_OK,
    main,
)
from repro.wire.pcap import GLOBAL_HEADER, RECORD_HEADER

MISSING = "/nonexistent/trace.pcap"

ENTRY_POINTS = [
    ("tdat", ["analyze", MISSING]),
    ("pcap2bgp", ["pcap2bgp", MISSING, "/tmp/out.mrt"]),
    ("tcptrace", ["tcptrace", MISSING]),
    ("pcap-anonymize", ["anonymize", MISSING, "/tmp/out.pcap", "--key", "k"]),
    ("bgplot", ["bgplot", MISSING]),
]


@pytest.fixture(scope="module")
def clean_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "clean.pcap"
    path.write_bytes(clean_trace_bytes(table_prefixes=2_000, duration_s=60))
    return path


@pytest.fixture(scope="module")
def damaged_pcap(tmp_path_factory):
    """A clean capture with one record header smashed mid-file."""
    blob = bytearray(clean_trace_bytes(table_prefixes=2_000, duration_s=60))
    # Walk to the third record and make its header implausible.
    i = GLOBAL_HEADER.size
    for _ in range(2):
        incl_len = struct.unpack_from("<I", blob, i + 8)[0]
        i += RECORD_HEADER.size + incl_len
    struct.pack_into("<I", blob, i + 8, 0xFFFFFFFF)
    path = tmp_path_factory.mktemp("cli") / "damaged.pcap"
    path.write_bytes(bytes(blob))
    return path


class TestMissingFile:
    @pytest.mark.parametrize("prog,argv", ENTRY_POINTS,
                             ids=[e[0] for e in ENTRY_POINTS])
    def test_missing_file_one_line_error(self, prog, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_ERROR
        assert err.count("\n") == 1
        assert "error: no such file" in err
        assert "Traceback" not in err


class TestBadInput:
    def test_tdat_directory_argument(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_ERROR
        assert "is a directory" in err

    def test_tdat_strict_rejects_junk(self, tmp_path, capsys):
        junk = tmp_path / "junk.pcap"
        junk.write_bytes(b"this is not a pcap file at all, not even close")
        rc = main(["analyze", str(junk), "--strict"])
        err = capsys.readouterr().err
        assert rc == EXIT_ERROR
        assert "unrecognized pcap magic" in err
        assert "Traceback" not in err

    def test_tdat_tolerant_junk_is_empty_not_fatal(self, tmp_path, capsys):
        junk = tmp_path / "junk.pcap"
        junk.write_bytes(b"this is not a pcap file at all, not even close")
        rc = main(["analyze", str(junk)])
        err = capsys.readouterr().err
        assert rc == EXIT_NOTHING
        assert "bad-magic" in err
        assert "no analyzable TCP connections" in err

    def test_tcptrace_rejects_junk(self, tmp_path, capsys):
        junk = tmp_path / "junk.pcap"
        junk.write_bytes(b"\x00" * 64)
        rc = main(["tcptrace", str(junk)])
        err = capsys.readouterr().err
        assert rc == EXIT_ERROR
        assert err.count("\n") == 1

    def test_pcap2bgp_rejects_junk(self, tmp_path, capsys):
        junk = tmp_path / "junk.pcap"
        junk.write_bytes(b"\x00" * 64)
        rc = main(["pcap2bgp", str(junk), str(tmp_path / "out.mrt")])
        assert rc == EXIT_ERROR

    def test_anonymize_rejects_junk(self, tmp_path, capsys):
        junk = tmp_path / "junk.pcap"
        junk.write_bytes(b"\x00" * 64)
        rc = main(
            ["anonymize", str(junk), str(tmp_path / "out.pcap"), "--key", "k"]
        )
        assert rc == EXIT_ERROR


class TestDamagedCapture:
    def test_tdat_reports_issues_with_exit_3(self, damaged_pcap, capsys):
        rc = main(["analyze", str(damaged_pcap)])
        captured = capsys.readouterr()
        assert rc == EXIT_ISSUES
        assert "major factors" in captured.out  # analysis still produced
        assert "trace health:" in captured.err
        assert "bad-record-header" in captured.err

    def test_tdat_json_carries_health(self, damaged_pcap, capsys):
        import json

        rc = main(["analyze", str(damaged_pcap), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == EXIT_ISSUES
        assert payload["health"]["ok"] is False
        assert payload["health"]["issue_count"] >= 1
        assert payload["health"]["by_stage"].get("pcap", 0) >= 1
        assert len(payload["connections"]) == 1

    def test_clean_capture_still_exits_zero(self, clean_pcap, capsys):
        rc = main(["analyze", str(clean_pcap)])
        capsys.readouterr()
        assert rc == EXIT_OK
