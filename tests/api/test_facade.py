"""The repro.api facade, its knobs, and one import path per symbol."""

import ast
import importlib
from pathlib import Path

import pytest

import repro.analysis
from repro.api import Pipeline
from repro.faults.fuzz import clean_trace_bytes
from repro.obs import get_obs
from repro.workloads.campaign import isp_quagga_config

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: name -> package that no longer re-exports it (use repro.api or the
#: engine module instead).
SHIMMED = {
    "analyze_pcap": "repro.analysis",
    "pcap_to_bgp": "repro.tools",
    "run_campaign": "repro.workloads",
}


@pytest.fixture(scope="module")
def clean_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("api") / "clean.pcap"
    path.write_bytes(clean_trace_bytes(table_prefixes=2_000, duration_s=60))
    return path


class TestPipelineAnalyze:
    def test_analyze_matches_engine(self, clean_pcap):
        from repro.analysis.tdat import analyze_pcap

        facade = Pipeline().analyze(clean_pcap)
        engine = analyze_pcap(clean_pcap)
        assert list(facade.analyses) == list(engine.analyses)
        assert facade.health.ok == engine.health.ok

    @pytest.mark.parametrize("knobs", [{"streaming": True}])
    def test_execution_knobs_preserve_results(self, clean_pcap, knobs):
        base = Pipeline().analyze(clean_pcap)
        tuned = Pipeline(**knobs).analyze(clean_pcap)
        assert list(tuned.analyses) == list(base.analyses)

    def test_analyze_accepts_a_path_string(self, clean_pcap):
        report = Pipeline().analyze(str(clean_pcap))
        assert len(report) == 1

    def test_workers_zero_means_all_cpus(self):
        from repro.exec.pool import available_parallelism

        assert Pipeline(workers=0).workers == available_parallelism()

    def test_iter_analyze(self, clean_pcap):
        analyses = list(Pipeline().iter_analyze(clean_pcap))
        assert len(analyses) == 1

    def test_iter_analyze_records_under_the_pipeline_obs(self, clean_pcap):
        eager = Pipeline(obs=True)
        eager.analyze(clean_pcap)
        lazy = Pipeline(obs=True)
        ambient = get_obs()
        for _ in lazy.iter_analyze(clean_pcap):
            assert get_obs() is ambient
        assert get_obs() is ambient
        assert "analysis.connections" in eager.obs.metrics
        assert lazy.obs.metrics.names() == eager.obs.metrics.names()

    def test_closing_iter_analyze_restores_the_ambient_obs(self, clean_pcap):
        ambient = get_obs()
        analyses = Pipeline(obs=True).iter_analyze(clean_pcap)
        next(analyses)
        analyses.close()
        assert get_obs() is ambient

    def test_extract_bgp(self, clean_pcap):
        streams = Pipeline().extract_bgp(clean_pcap)
        assert len(streams) == 1

    @pytest.mark.parametrize("knob", ["workers", "streaming", "budget"])
    def test_pipeline_knobs_are_not_call_arguments(self, clean_pcap, knob):
        # A knob lives on the Pipeline only; passing it per call used
        # to be accepted and, for iter_analyze, silently ignored.
        with pytest.raises(TypeError, match=knob):
            Pipeline().analyze(clean_pcap, **{knob: None})
        with pytest.raises(TypeError, match=knob):
            Pipeline().iter_analyze(clean_pcap, **{knob: None})

    def test_misspelled_sniffer_location_raises(self, clean_pcap):
        with pytest.raises(ValueError, match="receiver, sender, middle"):
            Pipeline().analyze(clean_pcap, sniffer_location="recever")
        with pytest.raises(ValueError, match="receiver, sender, middle"):
            Pipeline().iter_analyze(clean_pcap, sniffer_location="recever")


class TestPipelineCampaign:
    @pytest.fixture
    def run_campaign(self, monkeypatch):
        """Capture the config and options ``run_campaign`` receives."""
        calls = []

        def fake(config, **options):
            calls.append((config, options))
            return "result"

        monkeypatch.setattr("repro.workloads.campaign.run_campaign", fake)
        return calls

    def test_by_name_with_seed_and_transfers(self, run_campaign):
        assert Pipeline().campaign(
            "ISP_A-Quagga", seed=9, transfers=4
        ) == "result"
        ((config, options),) = run_campaign
        assert (config.name, config.seed, config.transfers) == (
            "ISP_A-Quagga", 9, 4,
        )
        assert options["checkpoint_dir"] is None
        assert options["resume"] is False

    def test_explicit_config_with_overrides(self, run_campaign, tmp_path):
        base = isp_quagga_config()
        Pipeline(strict=True).campaign(
            base, transfers=2, overrides={"zero_bug_episodes": 0},
            checkpoint_dir=tmp_path, resume=True,
        )
        ((config, options),) = run_campaign
        assert config.transfers == 2
        assert config.zero_bug_episodes == 0
        assert config.seed == base.seed
        assert base.transfers != 2  # original untouched
        assert options["strict"] is True
        assert options["checkpoint_dir"] == tmp_path
        assert options["resume"] is True

    def test_needs_a_name_or_a_config(self, run_campaign):
        with pytest.raises(ValueError, match="unknown campaign"):
            Pipeline().campaign(None)
        with pytest.raises(ValueError, match="unknown campaign"):
            Pipeline().campaign("nope")
        assert not run_campaign


class TestDeprecationShims:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.analysis.does_not_exist
        for name, package in SHIMMED.items():
            assert not hasattr(importlib.import_module(package), name)


class TestNoShimImportsInRepo:
    """A symbol has one import path: its defining module.

    A package ``__init__`` may re-export a name only while some module
    in ``src/`` or ``bench/`` imports that name through the package.
    """

    @staticmethod
    def _from_imports(path: Path, body_only: bool = False):
        """``(module, alias)`` of each ``from module import name [as x]``."""
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body if body_only else ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    yield node.module, alias

    def test_every_reexport_has_an_importer(self):
        inits = list((REPO_ROOT / "src").rglob("__init__.py"))
        reexports = {
            (".".join(init.parent.relative_to(REPO_ROOT / "src").parts),
             alias.asname or alias.name)
            for init in inits
            for module, alias in self._from_imports(init, body_only=True)
            if module != "__future__"
        }
        imported = {
            (module, alias.name)
            for tree in ("src", "bench")
            for path in (REPO_ROOT / tree).rglob("*.py")
            if path not in inits
            for module, alias in self._from_imports(path)
        }
        unused = sorted(f"{pkg}.{name}" for pkg, name in reexports - imported)
        assert not unused, (
            "re-exports nothing in src/ or bench/ imports through the "
            "package:\n" + "\n".join(unused)
        )

    @pytest.mark.parametrize("tree", ["src", "examples", "benchmarks", "tests"])
    def test_no_deprecated_import_paths(self, tree):
        """Every ``from <package> import <name>`` names a submodule or a
        name the package still exports."""
        hits = []
        for path in (REPO_ROOT / tree).rglob("*.py"):
            for module_name, alias in self._from_imports(path):
                name = alias.name
                package = REPO_ROOT.joinpath("src", *module_name.split("."))
                if not (package / "__init__.py").exists():
                    continue
                if not (hasattr(importlib.import_module(module_name), name)
                        or (package / f"{name}.py").exists()
                        or (package / name).is_dir()):
                    hits.append(f"{path}: from {module_name} import {name}")
        assert not hits, "deprecated import paths:\n" + "\n".join(hits)
