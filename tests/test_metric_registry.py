"""The engine metric registry: one declaration per metric, every surface.

Every scalar in ``engine-stats.json`` is declared once in
``repro.engine.metrics.METRICS`` (and every labelled or live Prometheus
series in ``SERIES``).  These tests hold the surfaces to it: a real
traced sweep must show every registered metric on every surface and no
unregistered scalar, EXPERIMENTS.md must document exactly the
registered names, and the lease ledger is the one source of per-agent
rows.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cpu.config import ARCH_CONFIGS
from repro.engine.metrics import METRICS, SERIES, EngineMetrics
from repro.engine.planner import RunRequest
from repro.experiments.__main__ import main
from repro.obs import history as obs_history
from repro.obs.dashboard import _live_section
from repro.obs.live import lint_prometheus
from repro.techniques.registry import FAMILIES, permutations
from repro.workloads.spec import BENCHMARK_NAMES, get_workload

from tests.test_distributed import make_ledger
from tests.test_engine import SCALE

ROOT = Path(__file__).resolve().parents[1]

#: Engine-context fields ``engine-stats.json`` and history records add
#: beside the metrics: configuration knobs, not measurements.
CONTEXT_FIELDS = {
    "scale", "jobs", "run_timeout_s", "max_retries", "batch_configs",
    "remote_batch_configs", "results_epoch", "schema_version",
    "checkpoint_interval_m",
}


def _scalars(document: dict) -> set:
    return {
        name for name, value in document.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _help_lines(text: str) -> dict:
    return {
        line.split(" ", 3)[2]: line.split(" ", 3)[3]
        for line in text.splitlines() if line.startswith("# HELP ")
    }


@pytest.fixture(scope="module")
def traced_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("registry")
    cache = root / "cache"
    metrics_file = root / "metrics.prom"
    assert main([
        "figure6", "--cache-dir", str(cache), "--jobs", "1",
        "--depth", "quick", "--benchmarks", "gzip", "--profile", "tiny",
        "--trace", "--metrics-file", str(metrics_file),
    ]) == 0
    records = obs_history.read_records(cache)
    assert len(records) == 1
    return {
        "stats": json.loads((cache / "engine-stats.json").read_text()),
        "live": json.loads((cache / "v1" / "live.json").read_text())["metrics"],
        "history": records[0]["stats"],
        "prom": metrics_file.read_text(),
    }


class TestRegistryCoverage:
    def test_every_metric_on_every_json_surface(self, traced_sweep):
        for surface in ("stats", "live", "history"):
            document = traced_sweep[surface]
            missing = [m.key for m in METRICS if m.value(document) is None]
            assert not missing, (surface, missing)

    def test_every_metric_in_textfile_with_its_help(self, traced_sweep):
        helps = _help_lines(traced_sweep["prom"])
        for metric in METRICS:
            name = f"repro_sweep_{metric.name}"
            assert helps.get(name) == metric.help, name
            assert re.search(rf"^{name} \S+$", traced_sweep["prom"], re.M), name

    def test_nothing_unregistered(self, traced_sweep):
        flat = {m.key for m in METRICS if "." not in m.key}
        nested = {m.key.split(".")[1] for m in METRICS if "." in m.key}
        assert _scalars(traced_sweep["live"]) == flat
        for surface in ("stats", "history"):
            document = traced_sweep[surface]
            assert _scalars(document) - CONTEXT_FIELDS == flat, surface
        assert nested <= _scalars(traced_sweep["stats"]["resources"])
        series = {f"repro_sweep_{m.name}" for m in METRICS + SERIES}
        assert set(_help_lines(traced_sweep["prom"])) <= series

    def test_textfile_lints_clean(self, traced_sweep):
        assert lint_prometheus(traced_sweep["prom"]) == []


class TestRegistryDeclarations:
    def test_names_unique(self):
        names = [m.name for m in METRICS + SERIES]
        assert len(names) == len(set(names))

    def test_experiments_table_lists_exactly_the_registry(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        start = text.index("| metric | unit | compare | meaning |")
        table = text[start:text.index("\n\n", start)].splitlines()[2:]
        names = [re.match(r"\| `([^`]+)` \|", row).group(1) for row in table]
        assert names == [m.key for m in METRICS]

    def test_unregistered_delta_raises(self):
        metrics = EngineMetrics()
        metrics.fold({"trace_cache_hits": 2})
        assert metrics.trace_cache_hits == 2
        with pytest.raises(ValueError, match="unregistered"):
            metrics.fold({"trace_cache_hitz": 1})

    def test_per_agent_comes_from_the_ledger(self):
        ledger, _clock, _supply = make_ledger()
        ledger.join("a1")
        ledger.observe("a1", artifacts={"hits": 3, "misses": 1})
        metrics = EngineMetrics(agents_source=ledger.agents_snapshot)
        assert metrics.snapshot()["per_agent"] == {
            "a1": {"runs": 0, "wall_time_s": 0.0,
                   "artifact_hits": 3, "artifact_misses": 1},
        }


class TestLiveAgentsTable:
    def test_rows_render_ledger_fields(self):
        ledger, clock, _supply = make_ledger()
        ledger.join("a1")
        clock.advance(2.5)
        section = _live_section({"agents": ledger.agents_snapshot()})
        table = section[section.index("Connected agents"):]
        cells = re.findall(r"<td>([^<]*)</td>", table)
        assert cells[:4] == ["a1", "idle", "0", "2.5"]
        assert "-" not in cells


class TestTechniqueSignatures:
    """A technique's result key covers all of its state."""

    @pytest.mark.parametrize("bench", BENCHMARK_NAMES)
    def test_signature_keeps_every_attribute(self, bench):
        kept = (bool, int, float, str, type(None))
        for family in FAMILIES:
            for technique in permutations(family, bench, extras=True):
                dropped = {
                    attr: type(value).__name__
                    for attr, value in vars(technique).items()
                    if not isinstance(value, kept)
                }
                assert not dropped, (family, technique.permutation, dropped)

    @pytest.mark.parametrize("bench", BENCHMARK_NAMES)
    def test_distinct_permutations_have_distinct_keys(self, bench):
        workload = get_workload(bench)
        keys = {}
        for family in FAMILIES:
            for technique in permutations(family, bench, extras=True):
                request = RunRequest(technique, workload, ARCH_CONFIGS[0])
                key = request.content_key(SCALE)
                label = (family, technique.permutation)
                assert keys.setdefault(key, label) == label, (key, label)
