"""Cold start: the facade and each ``tdat`` command load only their engine.

Each check runs in a fresh interpreter and reads its ``sys.modules``,
because the test process itself has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults.fuzz import clean_trace_bytes

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: what no analysis needs: the simulator and its campaigns, the work
#: pool, and the chaos, fault-injection and lint tooling.
NOT_FOR_ANALYSIS = (
    "repro.workloads", "repro.netsim", "repro.exec",
    "repro.chaos", "repro.faults", "repro.lint",
)


def loaded_modules(code: str) -> tuple[int | None, set[str]]:
    """Run ``code`` in a fresh interpreter; what ``rc`` it left (if
    any) and every module it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "import contextlib, io, json, sys\n"
        "rc = None\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps([rc, sorted(sys.modules)]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout
    rc, modules = json.loads(out)
    return rc, set(modules)


def under(modules: set[str], packages) -> list[str]:
    return sorted(
        name for name in modules
        if any(name == pkg or name.startswith(pkg + ".") for pkg in packages)
    )


def test_facade_import_loads_only_the_analysis_engine():
    _, modules = loaded_modules("import repro.api")
    assert "repro.analysis.tdat" in modules
    assert not under(modules, NOT_FOR_ANALYSIS + (
        "repro.tcp", "repro.tools", "repro.serve", "repro.bgp.messages",
        "multiprocessing",
    ))


@pytest.fixture(scope="module")
def clean_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "clean.pcap"
    path.write_bytes(clean_trace_bytes(table_prefixes=2_000, duration_s=60))
    return path


def test_tdat_analyze_loads_no_simulator_or_tooling(clean_pcap):
    rc, modules = loaded_modules(
        "from repro.tools.tdat_cli import main\n"
        f"rc = main(['analyze', {str(clean_pcap)!r}, '--json'])"
    )
    assert rc == 0
    assert "repro.analysis.render" in modules
    assert not under(modules, NOT_FOR_ANALYSIS)


def test_tdat_serve_loads_no_simulator_or_tooling():
    # The server is built from the parsed flags but not run.
    rc, modules = loaded_modules(
        "from repro.serve.http import AnalysisServer\n"
        "AnalysisServer.run = lambda self, on_ready=None: False\n"
        "from repro.tools.tdat_cli import main\n"
        "rc = main(['serve', '--port', '0', '--max-live-connections', '64'])"
    )
    assert rc == 0
    assert "repro.serve.session" in modules
    assert not under(modules, NOT_FOR_ANALYSIS)


@pytest.mark.parametrize("command", ["campaign", "report"])
def test_campaign_help_loads_no_simulator(command):
    # The help lists every campaign name; the simulator that runs them
    # loads only when a campaign does.
    rc, modules = loaded_modules(
        "from repro.tools.tdat_cli import main\n"
        "try:\n"
        f"    main([{command!r}, '--help'])\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code"
    )
    assert rc == 0
    assert "repro.workloads.names" in modules
    assert not under(modules, (
        "repro.netsim", "repro.tcp", "repro.exec", "repro.chaos",
        "repro.faults", "repro.lint", "repro.workloads.campaign",
    ))
