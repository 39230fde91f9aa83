"""Backend registry and cross-backend parity tests.

Both simulation backends (``python`` reference, ``numpy`` vectorized)
must produce bit-identical statistics; these tests pin that contract
with fixed scenarios and a hypothesis sweep over random configurations
and warm-up/measure splits.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.checkpoint import snapshot_machine, state_arrays
from repro.cpu.config import Enhancements, ProcessorConfig
from repro.cpu.functional import run_functional_warming
from repro.cpu.kernels.numpy_impl import RegionResolution, resolve_region
from repro.cpu.kernels.registry import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    NumpyBackend,
    SMALL_REGION,
    PythonBackend,
    activate,
    get_backend,
    resolve_backend_name,
)
from repro.cpu.machine import Machine
from repro.cpu.pipeline import run_detailed
from repro.cpu.simulator import Simulator
from repro.isa.instructions import OpClass
from repro.isa.trace import FLAG_COND_BRANCH, FLAG_TAKEN, Trace

from tests.conftest import TEST_SCALE, make_micro_workload

#: Backends compared against the python reference.  Fresh instances so
#: an explicit object (rather than a registry name) also takes the
#: ``get_backend`` instance path.
ARRAY_BACKENDS = [NumpyBackend()]


@pytest.fixture(scope="module")
def trace():
    # ~6000 instructions: long enough that the numpy backend's
    # vectorized path engages (regions >= SMALL_REGION) on both the
    # warming and the detailed segment of every scenario below.
    return make_micro_workload(length_m=1200).trace(TEST_SCALE)


def run_scenario(backend, trace, config, enhancements, warm_end, measure_from):
    """Warm ``[0, warm_end)`` then detail the rest; return all counters."""
    machine = Machine(config, enhancements, backend=backend)
    warming = run_functional_warming(machine, trace, 0, warm_end)
    stats = run_detailed(
        machine, trace, warm_end, len(trace), measure_from=measure_from
    )
    return warming, stats, machine.cache_snapshot()


class TestRegistry:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend_name() == "numpy"
        assert resolve_backend_name("auto") == "numpy"

    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend_name() == "python"
        assert Machine(ProcessorConfig()).backend.name == "python"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend_name("python") == "python"

    def test_unknown_backend_rejected(self):
        for name in ("fortran", "numba"):
            with pytest.raises(ValueError, match="unknown simulation backend"):
                resolve_backend_name(name)

    def test_available_backends(self):
        assert BACKEND_NAMES == ("python", "numpy")

    def test_get_backend_accepts_instance(self):
        backend = NumpyBackend()
        assert get_backend(backend) is backend

    def test_get_backend_caches_by_name(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_cli_flag_activates_backend(self, monkeypatch, capsys):
        from repro.experiments.__main__ import main

        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert main(["list", "--backend", "python"]) == 0
        # The flag wins over the environment and is activated as the
        # process default (forked workers inherit it); nothing is
        # exported through the environment.
        assert activate(None) == "python"
        assert os.environ[BACKEND_ENV_VAR] == "numpy"

    def test_activation_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert activate("python") is None
        assert resolve_backend_name() == "python"
        assert Machine(ProcessorConfig()).backend.name == "python"
        assert resolve_backend_name("numpy") == "numpy"  # argument wins
        assert activate(None) == "python"
        assert resolve_backend_name() == "numpy"

    def test_cli_rejects_unknown_env_backend(self, monkeypatch, capsys):
        from repro.experiments.__main__ import main

        monkeypatch.setenv(BACKEND_ENV_VAR, "numba")
        with pytest.raises(SystemExit) as excinfo:
            main(["list"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown simulation backend 'numba'" in err
        assert "('python', 'numpy', 'auto')" in err
        assert "Traceback" not in err


class TestFixedScenarioParity:
    """Hand-picked configurations covering every structure variant."""

    SCENARIOS = {
        "default": (ProcessorConfig(), Enhancements()),
        "bimodal": (ProcessorConfig(branch_predictor="bimodal"), Enhancements()),
        "gshare": (
            ProcessorConfig(branch_predictor="gshare", bht_entries=1024),
            Enhancements(),
        ),
        "taken": (ProcessorConfig(branch_predictor="taken"), Enhancements()),
        "perfect": (ProcessorConfig(branch_predictor="perfect"), Enhancements()),
        "enhanced": (
            ProcessorConfig(),
            Enhancements(trivial_computation=True, next_line_prefetch=True),
        ),
        "direct-mapped": (
            ProcessorConfig(il1_assoc=1, dl1_assoc=1, btb_assoc=1),
            Enhancements(),
        ),
        "small-window": (
            ProcessorConfig(rob_entries=16, lsq_entries=8, ifq_size=4),
            Enhancements(),
        ),
    }

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_matches_reference(self, trace, backend, scenario):
        config, enhancements = self.SCENARIOS[scenario]
        warm_end = len(trace) // 3
        measure_from = warm_end + (len(trace) - warm_end) // 4
        expected = run_scenario(
            PythonBackend(), trace, config, enhancements, warm_end, measure_from
        )
        actual = run_scenario(
            backend, trace, config, enhancements, warm_end, measure_from
        )
        assert actual == expected

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS, ids=lambda b: b.name)
    def test_reference_warm_segment_handoff(self, trace, backend):
        # A warming call shorter than SMALL_REGION runs the reference
        # loop even on array backends, and a short detail-warm segment
        # hands its timing state (function-unit pools included) to the
        # measured segment inside one resolved call.  Both handoffs
        # must leave the statistics of the reference backend.
        config = ProcessorConfig(
            branch_predictor="combined", bht_entries=512, btb_entries=256,
            btb_assoc=1, il1_assoc=1, dl1_assoc=1, l2_assoc=2,
            rob_entries=64, lsq_entries=8, ras_entries=4,
        )
        enhancements = Enhancements(
            trivial_computation=False, next_line_prefetch=False
        )
        warm_end = len(trace) // 7          # reference warming (< SMALL_REGION)
        measure_from = warm_end + 765       # short detail-warm segment
        expected = run_scenario(
            PythonBackend(), trace, config, enhancements, warm_end, measure_from
        )
        actual = run_scenario(
            backend, trace, config, enhancements, warm_end, measure_from
        )
        assert actual == expected

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS, ids=lambda b: b.name)
    def test_cold_full_trace(self, trace, backend):
        reference = Simulator(backend=PythonBackend()).run_reference(trace)
        result = Simulator(backend=backend).run_reference(trace)
        assert result.stats == reference.stats

    def test_simulator_accepts_backend_names(self, trace):
        reference = Simulator(backend="python").run_region(trace, 0, 2000)
        result = Simulator(backend="numpy").run_region(trace, 0, 2000)
        assert result.stats == reference.stats


class TestBatchedParity:
    """``run_regions`` with N configs must be bit-identical, per config,
    to N independent ``run_region`` calls -- against both the numpy
    backend's own per-run path and the python reference backend."""

    #: Latency / core-width variants of one geometry: every field a
    #: batch is allowed to vary, including ``int_alu_lat`` (which
    #: selects a different generated timing loop per config).
    def variants(self):
        base = ProcessorConfig()
        return [
            base,
            base.replace(name="lat1", l2_latency=6, mem_latency_first=120),
            base.replace(name="lat2", mem_latency_next=9, mem_bus_width=4),
            base.replace(name="lat3", int_alu_lat=2, int_mult_lat=5),
            base.replace(name="lat4", rob_entries=32, lsq_entries=16,
                         ifq_size=8, mispredict_penalty=3),
        ]

    def per_run(self, backend, trace, specs, start, end, **kwargs):
        return [
            Simulator(config, enh, backend=backend).run_region(
                trace, start, end, **kwargs
            )
            for config, enh in specs
        ]

    def batched(self, trace, specs, start, end, backend="numpy", **kwargs):
        return Simulator(backend=backend).run_regions(
            trace,
            (start, end),
            configs=[config for config, _ in specs],
            enhancements=[enh for _, enh in specs],
            **kwargs,
        )

    def test_latency_batch_matches_per_run(self, trace):
        # Trivial-computation members may share a batch with baseline
        # members (TC affects timing codes, not structure outcomes).
        specs = [
            (config, Enhancements(trivial_computation=(i % 2 == 1)))
            for i, config in enumerate(self.variants())
        ]
        start, end = 2000, len(trace)
        expected = self.per_run("numpy", trace, specs, start, end)
        assert self.batched(trace, specs, start, end) == expected

    def test_batch_matches_reference_backend(self, trace):
        specs = [(config, Enhancements()) for config in self.variants()]
        start, end = 1500, len(trace)
        reference = self.per_run("python", trace, specs, start, end)
        results = self.batched(trace, specs, start, end)
        assert [r.stats for r in results] == [r.stats for r in reference]

    def test_reference_backend_run_regions_falls_back(self, trace):
        # The API holds on the python backend too: it reports no
        # batching support, so run_regions loops per config.
        specs = [(config, Enhancements()) for config in self.variants()[:3]]
        start, end = 2000, len(trace)
        expected = self.per_run("python", trace, specs, start, end)
        assert self.batched(trace, specs, start, end, backend="python") == expected

    def test_warmed_prefix_batch(self, trace):
        specs = [(config, Enhancements()) for config in self.variants()]
        start, end = len(trace) // 2, len(trace)
        for backend in ("python", "numpy"):
            expected = self.per_run(
                backend, trace, specs, start, end,
                warmup_instructions=300, warmed_prefix=True,
            )
            results = self.batched(
                trace, specs, start, end,
                warmup_instructions=300, warmed_prefix=True,
            )
            assert [r.stats for r in results] == [r.stats for r in expected]
        assert results == expected  # full work profile on numpy too

    def test_checkpoint_resume_batch(self, trace, tmp_path):
        from repro.cpu import checkpoint
        from repro.cpu.checkpoint import CheckpointStore

        specs = [(config, Enhancements()) for config in self.variants()]
        start, end = len(trace) // 2, len(trace)
        expected = self.per_run(
            "numpy", trace, specs, start, end, warmed_prefix=True
        )
        checkpoint.activate(CheckpointStore(tmp_path, 1000))
        try:
            first = self.batched(
                trace, specs, start, end,
                warmed_prefix=True, checkpoint_key="batch-chain",
            )
            # Second batch resumes its shared warming prefix from the
            # checkpoint the first one stored.
            resumed = self.batched(
                trace, specs, start, end,
                warmed_prefix=True, checkpoint_key="batch-chain",
            )
        finally:
            checkpoint.activate(None)
        assert [r.stats for r in first] == [r.stats for r in expected]
        assert [r.stats for r in resumed] == [r.stats for r in expected]

    def test_nlp_batch_falls_back_and_matches(self, trace):
        specs = [
            (config, Enhancements(next_line_prefetch=True))
            for config in self.variants()[:3]
        ]
        start, end = 2000, len(trace)
        expected = self.per_run("numpy", trace, specs, start, end)
        assert self.batched(trace, specs, start, end) == expected

    def test_nlp_batch_kernel_matches_reference(self, trace):
        # Next-line prefetch members with different latencies share one
        # serial cache walk; each member's statistics and the shared
        # structures equal that config's own python-backend run.
        from repro.cpu.kernels import numpy_impl

        nlp = Enhancements(next_line_prefetch=True)
        configs = self.variants()[:3]
        start, measure_from, end = 1000, 1500, len(trace)
        machine = Machine(configs[0], nlp, backend="numpy")
        run_functional_warming(machine, trace, 0, start)
        (batched,) = numpy_impl.detail_regions(
            machine, trace, [(start, measure_from, end)],
            [(config, nlp) for config in configs],
        )
        for config, stats in zip(configs, batched):
            reference = Machine(config, nlp, backend="python")
            run_functional_warming(reference, trace, 0, start)
            expected = run_detailed(
                reference, trace, start, end, measure_from=measure_from
            )
            assert stats == expected
            assert machine.cache_snapshot() == reference.cache_snapshot()
            assert _warm_state(machine) == _warm_state(reference)
        # The members' latencies really differ in the result.
        assert len({stats.cycles for stats in batched}) == len(batched)

    def test_heterogeneous_geometry_batches(self, trace):
        # Geometry-varying members are eligible: the simulator groups
        # them per geometry internally, and each group's batched pass
        # stays bit-identical to independent runs.
        base = ProcessorConfig()
        specs = [
            (base, Enhancements()),
            (base.replace(name="big-l2", l2_size_kb=2048), Enhancements()),
            (base.replace(name="lat", l2_latency=6), Enhancements()),
            (base.replace(name="gshare", branch_predictor="gshare"),
             Enhancements()),
        ]
        start, end = 2000, len(trace)
        expected = self.per_run("numpy", trace, specs, start, end)
        assert self.batched(trace, specs, start, end) == expected

    def test_geometry_varying_batch_warmed_prefix(self, trace):
        # Mixed geometries through the warmed-prefix path: each
        # geometry group warms its own machine and the per-config
        # checkpoint keys keep results identical to independent runs.
        base = ProcessorConfig()
        specs = [
            (base, Enhancements()),
            (base.replace(name="small-bht", bht_entries=512),
             Enhancements()),
            (base.replace(name="lat", mem_latency_first=120),
             Enhancements(trivial_computation=True)),
        ]
        start, end = len(trace) // 2, len(trace)
        expected = self.per_run(
            "numpy", trace, specs, start, end,
            warmup_instructions=300, warmed_prefix=True,
        )
        results = self.batched(
            trace, specs, start, end,
            warmup_instructions=300, warmed_prefix=True,
        )
        assert results == expected

    def test_mismatched_enhancement_count_rejected(self, trace):
        with pytest.raises(ValueError, match="configs but"):
            Simulator(backend="numpy").run_regions(
                trace,
                (0, 2000),
                configs=[ProcessorConfig(), ProcessorConfig()],
                enhancements=[Enhancements()] * 3,
            )


@st.composite
def batch_scenarios(draw):
    """A batch of 2-4 latency/width variants over one shared geometry
    (next-line prefetch on or off for all), with per-member
    trivial-computation and a warm-up split."""
    base = ProcessorConfig(
        branch_predictor=draw(st.sampled_from(["combined", "bimodal", "taken"])),
        il1_assoc=draw(st.sampled_from([1, 2])),
        dl1_assoc=draw(st.sampled_from([1, 4])),
        bht_entries=draw(st.sampled_from([512, 4096])),
    )
    next_line_prefetch = draw(st.booleans())
    members = []
    for index in range(draw(st.integers(2, 4))):
        config = base.replace(
            name=f"member{index}",
            l2_latency=draw(st.integers(2, 14)),
            mem_latency_first=draw(st.integers(40, 260)),
            mem_latency_next=draw(st.integers(1, 10)),
            mem_bus_width=draw(st.sampled_from([4, 8, 16])),
            int_alu_lat=draw(st.sampled_from([1, 2])),
            rob_entries=draw(st.sampled_from([16, 64])),
            lsq_entries=draw(st.sampled_from([8, 32])),
        )
        enh = Enhancements(
            trivial_computation=draw(st.booleans()),
            next_line_prefetch=next_line_prefetch,
        )
        members.append((config, enh))
    warm_frac = draw(st.floats(0.0, 0.5))
    warmed_prefix = draw(st.booleans())
    return members, warm_frac, warmed_prefix


class TestBatchedHypothesisParity:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=batch_scenarios())
    def test_batched_bit_identical_per_config(self, trace, scenario):
        members, warm_frac, warmed_prefix = scenario
        start = int(len(trace) * warm_frac)
        end = len(trace)
        reference = [
            Simulator(config, enh, backend="python").run_region(
                trace, start, end, warmed_prefix=warmed_prefix
            )
            for config, enh in members
        ]
        per_run = [
            Simulator(config, enh, backend="numpy").run_region(
                trace, start, end, warmed_prefix=warmed_prefix
            )
            for config, enh in members
        ]
        batched = Simulator(backend="numpy").run_regions(
            trace,
            (start, end),
            configs=[config for config, _ in members],
            enhancements=[enh for _, enh in members],
            warmed_prefix=warmed_prefix,
        )
        assert batched == per_run
        assert [r.stats for r in batched] == [r.stats for r in reference]


def _resolution_fields(res):
    """A resolved region's outcome fields as plain comparable values."""
    fields = {}
    for name in RegionResolution.__slots__:
        value = getattr(res, name)
        if isinstance(value, np.ndarray):
            value = (str(value.dtype), value.tolist())
        fields[name] = value
    return fields


class TestResolveInvariant:
    """The invariant config batching rests on: every latency/width-only
    variant of one geometry resolves a region to the same structural
    outcomes and leaves the structures in the same warm state."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=batch_scenarios())
    def test_resolution_latency_independent(self, trace, scenario):
        members, warm_frac, _ = scenario
        start = int(len(trace) * warm_frac)
        count_trivial = any(e.trivial_computation for _, e in members)
        resolutions, warm_states = [], []
        for config, enh in members:
            machine = Machine(config, enh, backend="numpy")
            run_functional_warming(machine, trace, 0, start)
            res = resolve_region(
                machine, trace, [(start, start, len(trace))],
                count_trivial=count_trivial,
            )
            resolutions.append(_resolution_fields(res))
            warm_states.append(snapshot_machine(machine))
        assert all(r == resolutions[0] for r in resolutions[1:])
        assert all(w == warm_states[0] for w in warm_states[1:])


@st.composite
def scenarios(draw):
    config = ProcessorConfig(
        branch_predictor=draw(
            st.sampled_from(["combined", "bimodal", "gshare", "taken", "perfect"])
        ),
        bht_entries=draw(st.sampled_from([512, 2048, 8192])),
        btb_entries=draw(st.sampled_from([256, 2048])),
        btb_assoc=draw(st.sampled_from([1, 2, 4])),
        ras_entries=draw(st.sampled_from([4, 16])),
        il1_assoc=draw(st.sampled_from([1, 2])),
        dl1_assoc=draw(st.sampled_from([1, 4])),
        l2_assoc=draw(st.sampled_from([2, 8])),
        rob_entries=draw(st.sampled_from([16, 64])),
        lsq_entries=draw(st.sampled_from([8, 32])),
    )
    enhancements = Enhancements(
        trivial_computation=draw(st.booleans()),
        next_line_prefetch=draw(st.booleans()),
    )
    warm_frac = draw(st.floats(0.0, 0.5))
    measure_frac = draw(st.floats(0.0, 0.4))
    return config, enhancements, warm_frac, measure_frac


class TestHypothesisParity:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=scenarios())
    def test_backends_bit_identical(self, trace, scenario):
        config, enhancements, warm_frac, measure_frac = scenario
        warm_end = int(len(trace) * warm_frac)
        measure_from = warm_end + int((len(trace) - warm_end) * measure_frac)
        results = [
            run_scenario(
                backend, trace, config, enhancements, warm_end, measure_from
            )
            for backend in (PythonBackend(), NumpyBackend())
        ]
        assert results[1] == results[0]


@st.composite
def warm_detail_scenarios(draw):
    """A geometry/predictor, a warmed prefix and a region that is either
    below or above ``SMALL_REGION`` (the array backend's fallback)."""
    config = ProcessorConfig(
        branch_predictor=draw(
            st.sampled_from(["combined", "bimodal", "gshare", "taken", "perfect"])
        ),
        bht_entries=draw(st.sampled_from([512, 4096])),
        btb_assoc=draw(st.sampled_from([1, 4])),
        ras_entries=draw(st.sampled_from([4, 16])),
        il1_assoc=draw(st.sampled_from([1, 2])),
        dl1_assoc=draw(st.sampled_from([1, 4])),
        l2_assoc=draw(st.sampled_from([2, 8])),
    )
    # Next-line prefetch is excluded: on a dl1 miss ``Cache.access``
    # also hands the L2 the prefetched ``block + 1`` while
    # ``Cache.warm`` does not, so the two modes leave different L2
    # state by design (see DESIGN.md, "One structure set").
    enhancements = Enhancements(trivial_computation=draw(st.booleans()))
    start = draw(st.integers(0, 2000))
    if draw(st.booleans()):
        length = draw(st.integers(1, SMALL_REGION - 1))
    else:
        length = draw(st.integers(SMALL_REGION, 3 * SMALL_REGION))
    return config, enhancements, start, length


def _warm_state(machine):
    """Every warm-state array except the statistics counters."""
    return {
        name: list(values)
        for name, values in state_arrays(machine)
        if not name.endswith(".stats")
    }


class TestWarmingIsTheStructurePass:
    """Functional warming trains the structures exactly as a detailed
    run over the same region does; only the counters differ."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=warm_detail_scenarios())
    def test_warm_and_detail_leave_equal_state(self, trace, backend, scenario):
        config, enhancements, start, length = scenario
        end = min(len(trace), start + length)
        simulator = Simulator(config, enhancements, backend=backend)
        detailed, warmed = simulator.new_machine(), simulator.new_machine()
        for machine in (detailed, warmed):
            simulator.warm(machine, trace, 0, start)
        simulator.detail(detailed, trace, start, end)
        simulator.warm(warmed, trace, start, end)
        assert _warm_state(warmed) == _warm_state(detailed)


def _flagged_load_trace(length=4 * SMALL_REGION):
    """A hand-built trace whose loads at ``i % 16 == 5`` also carry a
    conditional-branch flag, beside ordinary block-ending branches."""
    rng = np.random.default_rng(11)
    i = np.arange(length)
    op = np.full(length, int(OpClass.IALU), dtype=np.uint8)
    op[i % 4 == 1] = int(OpClass.LOAD)
    op[i % 8 == 3] = int(OpClass.STORE)
    op[i % 16 == 15] = int(OpClass.BRANCH)
    pc = 0x40_0000 + 4 * (i % 512)
    mem = (op == int(OpClass.LOAD)) | (op == int(OpClass.STORE))
    addr = np.where(mem, 0x1000_0000 + 8 * rng.integers(0, 8192, length), 0)
    branch = (op == int(OpClass.BRANCH)) | (i % 16 == 5)
    taken = branch & (rng.random(length) < 0.6)
    flags = np.where(branch, FLAG_COND_BRANCH, 0) | np.where(taken, FLAG_TAKEN, 0)
    dst = np.where(op == int(OpClass.STORE), -1, i % 32)
    return Trace(
        op=op,
        dst=dst.astype(np.int16),
        src1=((i + 7) % 32).astype(np.int16),
        src2=np.full(length, -1, dtype=np.int16),
        pc=pc.astype(np.int64),
        block=(i // 16 % 32).astype(np.int32),
        addr=addr.astype(np.int64),
        flags=flags.astype(np.uint8),
        target=np.where(taken, pc + 256, 0).astype(np.int64),
    )


class TestBranchFlaggedMemoryOp:
    """A memory op that carries a branch flag is a branch to warming
    and to detailed runs alike, on both backends."""

    def test_warming_and_detailed_count_the_same_branches(self):
        trace = _flagged_load_trace()
        flagged = int(np.count_nonzero(trace.flags & FLAG_COND_BRANCH))
        counts = {}
        for backend in (PythonBackend(), NumpyBackend()):
            warming = run_functional_warming(
                Machine(ProcessorConfig(), backend=backend), trace, 0, len(trace)
            )
            detailed = run_detailed(
                Machine(ProcessorConfig(), backend=backend), trace, 0, len(trace)
            )
            assert warming.branches == detailed.branches == flagged
            assert warming.mispredictions == detailed.mispredictions
            counts[backend.name] = (warming, detailed)
        assert counts["numpy"] == counts["python"]


@st.composite
def plan_scenarios(draw):
    """A config, a warmed prefix and a random plan after it.

    Gaps of length 0 and more, detailed warm-ups W and measured parts U
    below and above ``SMALL_REGION``, and (sometimes) a call that ends
    at the trace end."""
    config = ProcessorConfig(
        branch_predictor=draw(
            st.sampled_from(["combined", "bimodal", "gshare", "taken", "perfect"])
        ),
        bht_entries=draw(st.sampled_from([512, 4096])),
        btb_assoc=draw(st.sampled_from([1, 4])),
        ras_entries=draw(st.sampled_from([4, 16])),
        il1_assoc=draw(st.sampled_from([1, 2])),
        dl1_assoc=draw(st.sampled_from([1, 4])),
        rob_entries=draw(st.sampled_from([16, 64])),
        int_alu_lat=draw(st.sampled_from([1, 2])),
    )
    enhancements = Enhancements(
        trivial_computation=draw(st.booleans()),
        next_line_prefetch=draw(st.booleans()),
    )
    short = st.integers(1, SMALL_REGION - 1)
    long = st.integers(SMALL_REGION, 2 * SMALL_REGION)
    items = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            items.append(("gap", draw(st.one_of(st.just(0), short, long))))
        items.append((
            "call",
            draw(st.one_of(st.just(0), short, long)),
            draw(st.one_of(short, long)),
        ))
    if draw(st.booleans()):
        items.append(("gap", draw(st.one_of(short, long))))
    prefix = draw(st.integers(0, 1500))
    to_end = draw(st.booleans())
    return config, enhancements, prefix, items, to_end


def _build_plan(items, prefix, length, to_end):
    """Lay ``items`` out contiguously from ``prefix``, clipped to the
    trace; with ``to_end`` the last call runs to the trace end."""
    plan = []
    position = prefix
    for item in items:
        if item[0] == "gap":
            end = min(length, position + item[1])
            plan.append((position, end))
        else:
            measure_from = min(length, position + item[1])
            end = min(length, measure_from + item[2])
            plan.append((position, measure_from, end))
        position = plan[-1][-1]
    if to_end:
        calls = [i for i, item in enumerate(plan) if len(item) == 3]
        last = calls[-1]
        start, measure_from, _ = plan[last]
        plan[last] = (start, measure_from, length)
        plan = plan[: last + 1]
    return plan


class TestDetailRegionsParity:
    """One structural pass over a plan equals the per-call loop: every
    call's statistics, every gap's warming counts, the phase ledger's
    instruction totals and the machine's whole state afterwards."""

    @staticmethod
    def run_plan(backend, trace, config, enhancements, prefix, plan):
        from repro.obs import phases as obs_phases

        simulator = Simulator(config, enhancements, backend=backend)
        machine = simulator.new_machine()
        simulator.warm(machine, trace, 0, prefix)
        obs_phases.drain()
        outcomes = simulator.detail_regions(machine, trace, plan)
        ledger = {
            phase: entry["instructions"]
            for phase, entry in obs_phases.drain().items()
        }
        state = {name: list(values) for name, values in state_arrays(machine)}
        return outcomes, ledger, state

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=plan_scenarios())
    def test_pass_equals_per_call_loop(self, trace, scenario):
        config, enhancements, prefix, items, to_end = scenario
        plan = _build_plan(items, prefix, len(trace), to_end)
        expected = self.run_plan(
            "python", trace, config, enhancements, prefix, plan
        )
        actual = self.run_plan("numpy", trace, config, enhancements, prefix, plan)
        assert actual[0] == expected[0]
        assert actual[1] == expected[1]
        assert actual[2] == expected[2]

    def test_plan_must_be_contiguous(self, trace):
        simulator = Simulator(backend="numpy")
        machine = simulator.new_machine()
        with pytest.raises(ValueError, match="does not start"):
            simulator.detail_regions(machine, trace, [(0, 10), (20, 30, 40)])
        with pytest.raises(ValueError, match="measure_from"):
            simulator.detail_regions(machine, trace, [(0, 30, 20)])
        with pytest.raises(ValueError, match="trace length"):
            simulator.detail_regions(machine, trace, [(0, len(trace) + 1)])


def _payload_bytes(technique, workload, config, backend, **kwargs):
    import json

    previous = activate(backend)
    try:
        result = technique.run(workload, config, TEST_SCALE, **kwargs)
    finally:
        activate(previous)
    return result, json.dumps(result.to_payload(), sort_keys=True)


class TestSampledTechniqueParity:
    """Sampled techniques store the same payload bytes on both backends."""

    def test_smarts_rerun(self):
        from repro.techniques.smarts import SmartsTechnique

        workload = make_micro_workload(length_m=1200)
        technique = SmartsTechnique(
            1000, 2000, target_relative=0.001, initial_samples=4
        )
        python, expected = _payload_bytes(
            technique, workload, ProcessorConfig(), "python"
        )
        _, actual = _payload_bytes(
            technique, workload, ProcessorConfig(), "numpy"
        )
        assert python.runs > 1  # n grew: the pass ran again
        assert actual == expected

    def test_simpoint_with_detailed_warmup(self):
        from repro.techniques.simpoint import SimPointTechnique

        workload = make_micro_workload(length_m=1200)
        technique = SimPointTechnique(interval_m=40, max_k=4, warmup_m=30)
        selection = technique.select(workload, TEST_SCALE)
        python, expected = _payload_bytes(
            technique, workload, ProcessorConfig(), "python",
            selection=selection,
        )
        _, actual = _payload_bytes(
            technique, workload, ProcessorConfig(), "numpy",
            selection=selection,
        )
        assert python.warm_detailed_instructions > 0
        assert python.functional_warm_instructions > 0
        assert actual == expected


class TestSampledRunsAreOnePass:
    """On numpy, a SMARTS run (no next-line prefetch) and a SimPoint run
    resolve their structures once per pass, plus the cold prefix's
    warming calls, and never fall back to the reference loops."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.cpu import functional, pipeline
        from repro.cpu.kernels import numpy_impl

        counts = {}
        for module, name in (
            (pipeline, "_run_region"),
            (functional, "_python_warming"),
            (numpy_impl, "resolve_structures"),
        ):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        activate("numpy")
        return counts

    def test_smarts_pass(self, calls):
        from repro.techniques.smarts import SmartsTechnique

        workload = make_micro_workload(length_m=1200)
        # Four units over ~6000 instructions: the cold prefix (one
        # warming call) is longer than SMALL_REGION.
        technique = SmartsTechnique(
            10000, 20000, target_relative=10.0, initial_samples=4
        )
        result = technique.run(workload, ProcessorConfig(), TEST_SCALE)
        assert result.runs == 1
        assert calls == {"resolve_structures": 2}

    def test_simpoint_pass(self, calls):
        from repro.techniques.simpoint import SimPointTechnique

        workload = make_micro_workload(length_m=1200)
        technique = SimPointTechnique(interval_m=40, max_k=4, warmup_m=30)
        selection = technique.select(workload, TEST_SCALE)
        result = technique.run(
            workload, ProcessorConfig(), TEST_SCALE, selection=selection
        )
        assert len(result.regions) > 1
        assert calls == {"resolve_structures": 1}


class TestMemoKeys:
    def test_dl1_feed_is_keyed_by_block_size(self, trace):
        # Equal set count and associativity, different dl1 block size:
        # the second geometry must not reuse the first one's memoized
        # dl1 feed.
        first = ProcessorConfig(dl1_size_kb=16, dl1_block=32, dl1_assoc=4)
        second = ProcessorConfig(dl1_size_kb=32, dl1_block=64, dl1_assoc=4)
        Simulator(first, backend="numpy").run_reference(trace)
        numpy_stats = Simulator(second, backend="numpy").run_reference(trace)
        python_stats = Simulator(second, backend="python").run_reference(trace)
        assert numpy_stats.stats == python_stats.stats
