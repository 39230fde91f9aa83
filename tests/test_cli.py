"""Tests for the `python -m repro.experiments` command line."""

import json

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "figure1", "figure7", "survey"):
            assert name in out

    def test_registry_complete(self):
        # Every table/figure of the paper is runnable by id, plus the
        # batch-shaped latency-sweep drivers.
        expected = {
            "table1", "table2", "table3",
            "figure1", "figure2", "figure3", "figure4", "figure5",
            "figure6", "figure7",
            "latency-sweep", "pb-latency",
            "section52-profile", "section52-architectural", "survey",
        }
        assert set(EXPERIMENTS) == expected

    def test_run_cheap_experiments(self, capsys):
        assert main(["table3", "survey", "figure7"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "survey" in out
        assert "Figure 7" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_profile_option(self, capsys):
        assert main(["table2", "--profile", "tiny"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_benchmark_subset(self, capsys):
        # table drivers ignore the context, but the option must parse.
        assert main(["table1", "--benchmarks", "gzip,mcf", "--depth", "quick"]) == 0


class TestEngineOptions:
    def test_jobs_flag(self, capsys):
        assert main(["table3", "--jobs", "2"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["table3", "--jobs", "0"])

    def test_full_flag(self, capsys):
        # --full parses and switches the default benchmark tuple.
        assert main(["table2", "--full"]) == 0

    def test_env_jobs_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert main(["table3"]) == 0

    def test_env_jobs_garbage_rejected_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(SystemExit):
            main(["table3"])
        assert "REPRO_JOBS must be an integer" in capsys.readouterr().err

    def test_cache_dir_flag_writes_stats(self, tmp_path, capsys):
        assert main(
            [
                "figure6",
                "--cache-dir", str(tmp_path),
                "--jobs", "1",
                "--depth", "quick",
                "--benchmarks", "gzip",
                "--profile", "tiny",
            ]
        ) == 0
        stats_path = tmp_path / "engine-stats.json"
        assert stats_path.exists()
        document = json.loads(stats_path.read_text())
        assert document["runs_launched"] > 0
        assert document["cache_hits"] == 0

        # Second invocation with the same cache dir: everything served
        # from the persistent store.
        assert main(
            [
                "figure6",
                "--cache-dir", str(tmp_path),
                "--jobs", "1",
                "--depth", "quick",
                "--benchmarks", "gzip",
                "--profile", "tiny",
            ]
        ) == 0
        document = json.loads(stats_path.read_text())
        assert document["runs_launched"] == 0
        assert document["hit_rate"] >= 0.95

    def test_no_cache_disables_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table3", "--no-cache"]) == 0
        assert not (tmp_path / "engine-stats.json").exists()


class TestSupervisorOptions:
    def test_run_timeout_flag_parses(self, capsys):
        assert main(["table3", "--run-timeout", "300"]) == 0

    def test_run_timeout_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["table3", "--run-timeout", "0"])

    def test_max_retries_flag_parses(self, capsys):
        assert main(["table3", "--max-retries", "0"]) == 0

    def test_max_retries_must_be_nonnegative(self):
        with pytest.raises(SystemExit):
            main(["table3", "--max-retries", "-1"])

    def test_resume_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["table3", "--no-cache", "--resume"])
        assert "--resume requires a cache directory" in capsys.readouterr().err

    def test_resume_with_cache_dir(self, tmp_path, capsys):
        args = [
            "figure6",
            "--cache-dir", str(tmp_path),
            "--jobs", "1",
            "--depth", "quick",
            "--benchmarks", "gzip",
            "--profile", "tiny",
        ]
        assert main(args) == 0
        assert main(args + ["--resume"]) == 0
        document = json.loads((tmp_path / "engine-stats.json").read_text())
        assert document["runs_launched"] == 0
        assert document["resumed"] > 0
        assert document["run_timeout_s"] is None

    def test_trace_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["table3", "--no-cache", "--trace"])
        assert "--trace requires a cache directory" in capsys.readouterr().err

    def test_traced_sweep_writes_observability_files(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.prom"
        assert main(
            [
                "figure6",
                "--cache-dir", str(tmp_path / "cache"),
                "--jobs", "1",
                "--depth", "quick",
                "--benchmarks", "gzip",
                "--profile", "tiny",
                "--trace",
                "--metrics-file", str(metrics_file),
            ]
        ) == 0
        versioned = tmp_path / "cache" / "v1"
        assert (versioned / "trace.jsonl").exists()
        assert (versioned / "live.json").exists()
        assert "repro_sweep_runs_succeeded" in metrics_file.read_text()
        assert "trace:" in capsys.readouterr().err
        # The report command renders the trace this sweep left behind.
        assert main(["report", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "accounted" in capsys.readouterr().out

    def test_no_trace_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert main(
            [
                "table3",
                "--cache-dir", str(tmp_path),
                "--no-trace",
            ]
        ) == 0
        assert not (tmp_path / "v1" / "trace.jsonl").exists()

    def test_stats_include_supervisor_fields(self, tmp_path, capsys):
        assert main(
            [
                "table3",
                "--cache-dir", str(tmp_path),
                "--run-timeout", "120",
                "--max-retries", "3",
            ]
        ) == 0
        document = json.loads((tmp_path / "engine-stats.json").read_text())
        for field in (
            "runs_succeeded", "quarantined", "timeouts", "crashes",
            "degradations", "failed_runs", "degraded_runs", "resumed",
        ):
            assert field in document
        assert document["run_timeout_s"] == 120.0
        assert document["max_retries"] == 3


class TestBatchingOptions:
    def _stats(self, tmp_path, *extra):
        assert main(["table3", "--cache-dir", str(tmp_path), *extra]) == 0
        return json.loads((tmp_path / "engine-stats.json").read_text())

    def test_flag_reaches_engine_stats(self, tmp_path, capsys):
        assert self._stats(tmp_path, "--batch-configs", "8")["batch_configs"] == 8

    def test_defaults_to_off(self, tmp_path, capsys):
        document = self._stats(tmp_path)
        assert document["batch_configs"] == 1
        assert document["batches"] == 0

    def test_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CONFIGS", "4")
        assert self._stats(tmp_path)["batch_configs"] == 4

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CONFIGS", "4")
        assert self._stats(tmp_path, "--batch-configs", "2")["batch_configs"] == 2

    def test_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["table3", "--batch-configs", "0"])
        assert "--batch-configs must be >= 1" in capsys.readouterr().err

    def test_env_garbage_rejected_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CONFIGS", "many")
        with pytest.raises(SystemExit):
            main(["table3"])
        assert "REPRO_BATCH_CONFIGS must be an integer" in capsys.readouterr().err

    def test_env_zero_rejected_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CONFIGS", "0")
        with pytest.raises(SystemExit):
            main(["table3"])
        assert "--batch-configs must be >= 1" in capsys.readouterr().err



class _Spy:
    """Stands in for an experiment driver and keeps the context it got."""

    def __call__(self, context):
        self.context = context
        return self

    def render(self):
        return "spy"


class TestSettingsTable:
    @pytest.mark.parametrize("raw", ["0", "false", "off"])
    def test_env_full_off_runs_the_default_benchmarks(
        self, raw, monkeypatch, capsys
    ):
        from repro.experiments.common import DEFAULT_BENCHMARKS

        spy = _Spy()
        monkeypatch.setitem(EXPERIMENTS, "table3", spy)
        monkeypatch.setenv("REPRO_FULL", raw)
        assert main(["table3"]) == 0
        assert spy.context.benchmarks == DEFAULT_BENCHMARKS

    def test_env_full_on_runs_all_ten(self, monkeypatch, capsys):
        from repro.workloads.spec import BENCHMARK_NAMES

        spy = _Spy()
        monkeypatch.setitem(EXPERIMENTS, "table3", spy)
        monkeypatch.setenv("REPRO_FULL", "1")
        assert main(["table3"]) == 0
        assert spy.context.benchmarks == BENCHMARK_NAMES

    def test_help_lists_every_flag_variable_and_default(self, capsys):
        from repro.settings import SETTINGS

        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        for setting in SETTINGS.values():
            for flag in setting.flag.split("/"):
                assert flag in out
            shown = " ".join(setting.shown.split())
            if setting.env is not None:
                assert f"${setting.env} or {shown}" in out
            else:
                assert f"(default: {shown})" in out


#: A malformed value, then an out-of-range one where the setting has a
#: range check, for every ``SETTINGS`` variable.
BAD_ENV_VALUES = {
    "REPRO_PROFILE": ["bogus"],
    "REPRO_DEPTH": ["bogus"],
    "REPRO_FULL": ["maybe"],
    "REPRO_JOBS": ["abc", "-1"],
    "REPRO_RUN_TIMEOUT": ["soon", "0"],
    "REPRO_MAX_RETRIES": ["many", "-1"],
    "REPRO_CHECKPOINT_INTERVAL": ["often", "-1"],
    "REPRO_BACKEND": ["numba"],
    "REPRO_TRACE": ["maybe"],
    "REPRO_HISTORY": ["maybe"],
    "REPRO_BATCH_CONFIGS": ["many", "0"],
    "REPRO_REMOTE_BATCH_CONFIGS": ["many", "0"],
    "REPRO_LEASE_TTL": ["long", "0"],
}

#: Path-valued settings: every string is a well-formed path.
PATH_ENV_VARS = {"REPRO_CACHE_DIR", "REPRO_METRICS_FILE"}


def _env_cases():
    from repro.settings import SETTINGS

    for setting in SETTINGS.values():
        for raw in BAD_ENV_VALUES.get(setting.env, []):
            yield pytest.param(setting.env, raw, id=f"{setting.env}={raw}")


class TestEnvironmentErrors:
    def test_every_variable_has_bad_values(self):
        from repro.settings import SETTINGS

        variables = {s.env for s in SETTINGS.values() if s.env}
        assert variables == set(BAD_ENV_VALUES) | PATH_ENV_VARS
        for setting in SETTINGS.values():
            numeric = setting.parse in (int, float)
            if setting.env and setting.check is not None and numeric:
                # A numeric range: one unparseable, one out-of-range.
                assert len(BAD_ENV_VALUES[setting.env]) == 2

    @pytest.mark.parametrize("variable, raw", list(_env_cases()))
    def test_bad_value_is_a_clean_usage_error(
        self, variable, raw, monkeypatch, capsys
    ):
        monkeypatch.setenv(variable, raw)
        with pytest.raises(SystemExit) as excinfo:
            main(["table3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert variable in err
        assert "Traceback" not in err

    def test_lease_ttl_zero_with_listen(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEASE_TTL", "0")
        with pytest.raises(SystemExit) as excinfo:
            main(["table3", "--listen", "127.0.0.1:0", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "REPRO_LEASE_TTL" in capsys.readouterr().err
