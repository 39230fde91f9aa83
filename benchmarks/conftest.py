"""Shared state for the benchmark harness.

All figure benches share one :class:`ExperimentContext` so simulation
runs (especially the 44-configuration Plackett-Burman sweeps) are
cached across benches, mirroring how the study reused its simulations.

Environment knobs:

* ``REPRO_PROFILE``   = tiny | quick | full -- simulation scale,
* ``REPRO_DEPTH``     = quick | standard | full -- permutations per family
  (default quick here),
* ``REPRO_FULL``      = 1 -- run all ten benchmarks instead of four,
* ``REPRO_JOBS``      = N -- engine worker processes (default serial),
* ``REPRO_CACHE_DIR`` = DIR -- persist results across harness runs.

Each bench writes the regenerated table to ``results/<id>.txt``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.common import ExperimentContext
from repro.settings import value

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    # The benches default to quick depth; $REPRO_DEPTH still wins.
    return ExperimentContext(depth=value("depth", default="quick"))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_report(results_dir: pathlib.Path, name: str, report) -> None:
    """Persist a rendered experiment report next to the bench output."""
    path = results_dir / f"{name}.txt"
    path.write_text(report.render() + "\n")
