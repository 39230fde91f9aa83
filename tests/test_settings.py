"""Unit tests for the flag > environment > default settings resolver.

One test per precedence rule, plus the error contract for malformed
environment values and the ``REPRO_BATCH_CONFIGS`` and ``REPRO_TRACE``
helpers built on top.
"""

import pytest

from repro.settings import (
    BATCH_CONFIGS_ENV_VAR,
    TRACE_ENV_VAR,
    default_batch_configs,
    default_trace,
    resolve,
)

ENV_VAR = "REPRO_TEST_SETTING"


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
        assert default_batch_configs() == 1

    def test_reads_env(self, monkeypatch):
        monkeypatch.setenv(BATCH_CONFIGS_ENV_VAR, "16")
        assert default_batch_configs() == 16

    def test_rejects_widths_below_one(self, monkeypatch):
        monkeypatch.setenv(BATCH_CONFIGS_ENV_VAR, "0")
        with pytest.raises(ValueError, match="must be >= 1"):
            default_batch_configs()

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(BATCH_CONFIGS_ENV_VAR, "lots")
        with pytest.raises(ValueError, match="must be an integer"):
            default_batch_configs()


class TestDefaultTrace:
    def test_default_trace_parses_env(self, monkeypatch):
        for value, expected in (
            ("", False), ("0", False), ("false", False), ("off", False),
            ("no", False), ("1", True), ("true", True), ("yes", True),
        ):
            monkeypatch.setenv(TRACE_ENV_VAR, value)
            assert default_trace() is expected

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "maybe")
        with pytest.raises(ValueError, match="must be a boolean"):
            default_trace()
