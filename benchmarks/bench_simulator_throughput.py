"""Microbenchmarks of the simulation substrate itself.

These are true pytest-benchmark timings (multiple rounds): detailed
simulation, functional warming, trace generation and SimPoint
clustering throughput.  They document the cost model used by the
speed-versus-accuracy analysis.
"""

import pytest

from repro.cpu.config import ProcessorConfig
from repro.cpu.functional import run_functional_warming
from repro.cpu.kernels.registry import BACKEND_NAMES
from repro.cpu.simulator import Simulator
from repro.scale import Scale
from repro.techniques.simpoint import SimPointTechnique
from repro.workloads.generator import generate_trace
from repro.workloads.spec import get_benchmark, get_workload

SCALE = Scale(25)
REGION = 50_000


@pytest.fixture(scope="module")
def trace():
    return get_workload("gzip").trace(SCALE)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_detailed_simulation_throughput(benchmark, trace, backend):
    simulator = Simulator(ProcessorConfig(), backend=backend)

    def run():
        return simulator.run_region(trace, 0, REGION)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.stats.instructions == REGION


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_functional_warming_throughput(benchmark, trace, backend):
    simulator = Simulator(ProcessorConfig(), backend=backend)

    def run():
        machine = simulator.new_machine()
        return run_functional_warming(machine, trace, 0, REGION)

    warmed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert warmed.instructions == REGION


def test_trace_generation_throughput(benchmark):
    program = get_benchmark("gzip").program
    schedule = [(0, 2_000), (1, 24_000), (2, 24_000)]

    def run():
        return generate_trace(program, schedule, seed=7)

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(trace) == 50_000


def test_simpoint_selection_throughput(benchmark):
    workload = get_workload("gzip")
    technique = SimPointTechnique(interval_m=10, max_k=30, warmup_m=1)

    def run():
        return technique.select(workload, SCALE)

    selection = benchmark.pedantic(run, rounds=2, iterations=1)
    assert selection.k >= 1
