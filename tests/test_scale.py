"""Tests for the paper-unit scale model."""

import os

import pytest

from repro.scale import PROFILES, Scale, scale_from_profile
from repro.settings import SETTINGS, value

PROFILE_ENV_VAR = SETTINGS["scale"].env


class TestScale:
    def test_instructions_round_trip(self):
        scale = Scale(100)
        assert scale.instructions(1) == 100
        assert scale.paper_m(100) == 1.0

    def test_fractional_paper_m(self):
        scale = Scale(25)
        assert scale.instructions(0.5) == 12  # rounds

    def test_large_values(self):
        scale = Scale(500)
        assert scale.instructions(8000) == 4_000_000

    def test_zero_instructions(self):
        assert Scale(25).instructions(0) == 0

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            Scale(0)
        with pytest.raises(ValueError):
            Scale(-5)

    def test_profile_names(self):
        for name, value in PROFILES.items():
            assert Scale(value).name == name
        assert Scale(123456).name == "custom"

    def test_frozen(self):
        scale = Scale(25)
        with pytest.raises(AttributeError):
            scale.instructions_per_m = 50


class TestProfiles:
    def test_known_profiles(self):
        assert scale_from_profile("tiny").instructions_per_m == PROFILES["tiny"]
        assert scale_from_profile("full").instructions_per_m == PROFILES["full"]

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile"):
            scale_from_profile("gigantic")

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "quick")
        assert value("scale").instructions_per_m == PROFILES["quick"]
        monkeypatch.delenv(PROFILE_ENV_VAR)
        assert value("scale").instructions_per_m == PROFILES["tiny"]

    def test_profiles_ordered(self):
        assert PROFILES["tiny"] < PROFILES["quick"] < PROFILES["full"]
