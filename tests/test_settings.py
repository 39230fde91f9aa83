"""Unit tests for the flag > environment > default settings resolver.

One test per precedence rule, plus the error contract for malformed
environment values and the ``REPRO_BATCH_CONFIGS`` and ``REPRO_TRACE``
entries of the ``SETTINGS`` table resolved through ``value()``.
"""

from pathlib import Path

import pytest

from repro.settings import SETTINGS, resolve, value

ROOT = Path(__file__).resolve().parents[1]

ENV_VAR = "REPRO_TEST_SETTING"
BATCH_CONFIGS_ENV_VAR = SETTINGS["batch_configs"].env
TRACE_ENV_VAR = SETTINGS["trace"].env


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.delenv(BATCH_CONFIGS_ENV_VAR, raising=False)
    monkeypatch.delenv(TRACE_ENV_VAR, raising=False)


class TestResolve:
    def test_flag_wins_over_env_and_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "7")
        assert resolve(3, ENV_VAR, 9, int) == 3

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "7")
        assert resolve(None, ENV_VAR, 9, int) == 7

    def test_default_when_flag_and_env_absent(self):
        assert resolve(None, ENV_VAR, 9, int) == 9

    def test_empty_env_value_falls_through_to_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert resolve(None, ENV_VAR, 9, int) == 9

    def test_callable_default_evaluated_lazily(self, monkeypatch):
        calls = []

        def expensive_default():
            calls.append(1)
            return 42

        monkeypatch.setenv(ENV_VAR, "7")
        assert resolve(None, ENV_VAR, expensive_default, int) == 7
        assert calls == []  # env hit: the default was never computed
        assert resolve(None, "REPRO_TEST_UNSET", expensive_default, int) == 42
        assert calls == [1]

    def test_falsy_flag_still_wins(self, monkeypatch):
        # Only None means "no flag given"; 0 is a real value.
        monkeypatch.setenv(ENV_VAR, "7")
        assert resolve(0, ENV_VAR, 9, int) == 0

    def test_malformed_env_error_names_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "many")
        with pytest.raises(ValueError) as excinfo:
            resolve(None, ENV_VAR, 9, int, description="an integer")
        assert str(excinfo.value) == (
            f"${ENV_VAR} must be an integer, got 'many'"
        )


class TestDefaultBatchConfigs:
    def test_defaults_to_one(self):
        assert value("batch_configs") == 1

    def test_reads_env(self, monkeypatch):
        monkeypatch.setenv(BATCH_CONFIGS_ENV_VAR, "16")
        assert value("batch_configs") == 16

    def test_rejects_widths_below_one(self, monkeypatch):
        monkeypatch.setenv(BATCH_CONFIGS_ENV_VAR, "0")
        with pytest.raises(ValueError, match="must be >= 1"):
            value("batch_configs")

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(BATCH_CONFIGS_ENV_VAR, "lots")
        with pytest.raises(ValueError, match="must be an integer"):
            value("batch_configs")


class TestDefaultTrace:
    def test_default_trace_parses_env(self, monkeypatch):
        for raw, expected in (
            ("", False), ("0", False), ("false", False), ("off", False),
            ("no", False), ("1", True), ("true", True), ("yes", True),
        ):
            monkeypatch.setenv(TRACE_ENV_VAR, raw)
            assert value("trace") is expected

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "maybe")
        with pytest.raises(ValueError, match="must be a boolean"):
            value("trace")


class TestValue:
    def test_given_value_wins_and_is_checked(self, monkeypatch):
        monkeypatch.setenv(BATCH_CONFIGS_ENV_VAR, "4")
        assert value("batch_configs", 2) == 2
        with pytest.raises(ValueError) as excinfo:
            value("batch_configs", 0)
        assert str(excinfo.value) == "--batch-configs must be >= 1, got 0"

    def test_range_error_from_env_names_flag_and_variable(self, monkeypatch):
        monkeypatch.setenv(BATCH_CONFIGS_ENV_VAR, "0")
        with pytest.raises(ValueError) as excinfo:
            value("batch_configs")
        assert str(excinfo.value) == (
            "--batch-configs must be >= 1, got 0 (from $REPRO_BATCH_CONFIGS)"
        )

    def test_parse_error_names_variable_and_flag(self, monkeypatch):
        monkeypatch.setenv(BATCH_CONFIGS_ENV_VAR, "lots")
        with pytest.raises(ValueError) as excinfo:
            value("batch_configs")
        assert str(excinfo.value) == (
            "$REPRO_BATCH_CONFIGS must be an integer, got 'lots'; "
            "it sets --batch-configs"
        )

    def test_default_override_is_lazy_and_checked(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert value("jobs") == 1
        assert value("jobs", default=lambda: 6) == 6
        with pytest.raises(ValueError, match="--jobs must be >= 0"):
            value("jobs", default=-1)

    def test_table_names_each_variable_and_flag_once(self):
        variables = [s.env for s in SETTINGS.values() if s.env]
        flags = [f for s in SETTINGS.values() for f in s.flag.split("/")]
        assert len(variables) == len(set(variables))
        assert len(flags) == len(set(flags))
        assert all(v.startswith("REPRO_") for v in variables)
        assert all(f.startswith("--") for f in flags)


class TestReadmeTable:
    def test_rows_equal_the_settings_table(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        start = text.index("| flag | variable | default | effect |")
        rows = text[start:text.index("\n\n", start)].splitlines()[2:]
        documented = []
        for row in rows:
            flag, variable, default = (
                cell.strip() for cell in row.strip("|").split("|")[:3]
            )
            documented.append((
                flag.strip("`").split()[0],
                None if variable == "—" else variable.strip("`"),
                default,
            ))
        assert documented == [
            (s.flag, s.env, s.shown) for s in SETTINGS.values()
        ]
