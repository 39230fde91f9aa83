"""Tests for the deterministic fault-injection harness."""

import pytest

from repro.engine import faults
from repro.engine.faults import (
    EVERY_ATTEMPT,
    FAULT_PLAN_ENV_VAR,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    parse_plan,
)


class TestPlanParsing:
    def test_empty_plan(self):
        assert parse_plan("") == []
        assert parse_plan("   ") == []

    def test_compact_entries(self):
        plan = parse_plan("exc@2,hang@5:30,kill@7,kernel@3:numpy")
        assert plan == [
            FaultSpec(kind="exc", slot=2),
            FaultSpec(kind="hang", slot=5, arg="30"),
            FaultSpec(kind="kill", slot=7),
            FaultSpec(kind="kernel", slot=3, arg="numpy"),
        ]

    def test_compact_repeats(self):
        assert parse_plan("exc@2x9") == [
            FaultSpec(kind="exc", slot=2, max_attempt=9)
        ]
        assert parse_plan("exc@2x*") == [
            FaultSpec(kind="exc", slot=2, max_attempt=EVERY_ATTEMPT)
        ]

    def test_json_entries(self):
        plan = parse_plan(
            '[{"fault": "hang", "slot": 4, "arg": "2.5", "max_attempt": 3}]'
        )
        assert plan == [
            FaultSpec(kind="hang", slot=4, arg="2.5", max_attempt=3)
        ]

    def test_bad_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            parse_plan("meltdown@3")
        with pytest.raises(FaultPlanError):
            parse_plan('[{"fault": "meltdown", "slot": 3}]')

    def test_bad_shapes_rejected(self):
        with pytest.raises(FaultPlanError):
            parse_plan("exc")
        with pytest.raises(FaultPlanError):
            parse_plan("exc@notanumber")
        with pytest.raises(FaultPlanError):
            parse_plan("[not json")

    def test_network_verbs(self):
        plan = parse_plan("dead@1,drop@2,delay@3:400")
        assert plan == [
            FaultSpec(kind="dead", slot=1),
            FaultSpec(kind="drop", slot=2),
            FaultSpec(kind="delay", slot=3, arg="400"),
        ]

    def test_artifact_verbs(self):
        """``corrupt`` flips a fetched chunk byte; ``drop@N:fetch``
        severs mid-``artifact_fetch`` instead of after execution."""
        plan = parse_plan("corrupt@2,drop@1:fetch")
        assert plan == [
            FaultSpec(kind="corrupt", slot=2),
            FaultSpec(kind="drop", slot=1, arg="fetch"),
        ]


class TestNetworkFaults:
    """``network_fault`` keys on the agent's Nth granted lease."""

    def test_matches_lease_ordinal(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_PLAN_ENV_VAR, "drop@2,delay@4:250")
        assert faults.network_fault(1) is None
        spec = faults.network_fault(2)
        assert spec is not None and spec.kind == "drop"
        assert faults.network_fault(3) is None
        spec = faults.network_fault(4)
        assert spec is not None and spec.kind == "delay" and spec.arg == "250"

    def test_ignores_process_fault_verbs(self, monkeypatch):
        # kill@1 targets plan slot 1 inside a worker process; it must
        # never fire on an agent's lease ordinal.
        monkeypatch.setenv(faults.FAULT_PLAN_ENV_VAR, "kill@1,exc@2")
        assert faults.network_fault(1) is None
        assert faults.network_fault(2) is None

    def test_no_plan(self, monkeypatch):
        monkeypatch.delenv(faults.FAULT_PLAN_ENV_VAR, raising=False)
        assert faults.network_fault(1) is None


class TestMatching:
    def test_first_attempt_only_by_default(self):
        spec = FaultSpec(kind="exc", slot=3)
        assert spec.matches(3, 1)
        assert not spec.matches(3, 2)
        assert not spec.matches(4, 1)

    def test_every_attempt(self):
        spec = FaultSpec(kind="exc", slot=3, max_attempt=EVERY_ATTEMPT)
        assert spec.matches(3, 1) and spec.matches(3, 99)

    def test_bounded_attempts(self):
        spec = FaultSpec(kind="exc", slot=3, max_attempt=2)
        assert spec.matches(3, 2)
        assert not spec.matches(3, 3)


class TestActivation:
    @pytest.fixture(autouse=True)
    def _deactivate(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV_VAR, raising=False)
        yield
        faults.deactivate()

    def test_no_plan_is_noop(self, monkeypatch):
        faults.activate(0, 1)
        faults.kernel_check("numpy")  # nothing armed: must not raise

    def test_exc_fires_on_matching_slot(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@2")
        faults.activate(0, 1)  # other slot: no fault
        with pytest.raises(InjectedFault):
            faults.activate(2, 1)
        faults.activate(2, 2)  # retry attempt: transient fault is gone

    def test_kernel_fault_matches_backend(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kernel@1:numpy")
        faults.activate(1, 1)
        faults.kernel_check("python")  # other backend: no fault
        with pytest.raises(InjectedFault):
            faults.kernel_check("numpy")

    def test_kernel_fault_without_backend_hits_any(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kernel@1")
        faults.activate(1, 1)
        with pytest.raises(InjectedFault):
            faults.kernel_check("python")

    def test_kernel_check_inactive_outside_run(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kernel@1:numpy")
        faults.deactivate()
        faults.kernel_check("numpy")  # no active run: must not raise

    def test_plan_reparsed_when_env_changes(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@5")
        faults.activate(0, 1)
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@0")
        with pytest.raises(InjectedFault):
            faults.activate(0, 1)

    def test_activate_raising_does_not_leave_plan_armed(self, monkeypatch):
        # An exc fault propagates out of activate() before the worker's
        # try/finally (and deactivate()) is ever entered; the kernel
        # guard must not see a stale armed run afterwards.
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@2,kernel@2")
        with pytest.raises(InjectedFault):
            faults.activate(2, 1)
        faults.kernel_check("numpy")  # no active run: must not raise

    def test_injected_fault_signature_is_stable(self, monkeypatch):
        # Quarantine keys on identical failure signatures, so the same
        # injected fault must raise the same message every time.
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "exc@2x*")
        messages = set()
        for attempt in (1, 2, 3):
            with pytest.raises(InjectedFault) as excinfo:
                faults.activate(2, attempt)
            messages.add(str(excinfo.value))
        assert len(messages) == 1


class TestKernelGuard:
    def test_kernel_error_carries_fallback(self):
        from repro.cpu.kernels.registry import KERNEL_FALLBACK, KernelError

        assert KERNEL_FALLBACK == {"numpy": "python"}
        assert KernelError("numpy", "boom").fallback == "python"
        assert KernelError("python", "boom").fallback is None

    def test_kernel_error_pickles(self):
        import pickle

        from repro.cpu.kernels.registry import KernelError

        error = KernelError("numpy", "kernel exploded")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, KernelError)
        assert clone.backend == "numpy"
        assert str(clone) == "kernel exploded"

    def test_guarded_backend_raises_kernel_error(self, monkeypatch, micro_workload, test_scale):
        from repro.cpu.kernels.registry import KernelError, get_backend
        from repro.cpu.machine import Machine
        from repro.cpu.config import ARCH_CONFIGS

        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kernel@0:numpy")
        faults.activate(0, 1)
        try:
            machine = Machine(ARCH_CONFIGS[0], backend="numpy")
            trace = micro_workload.trace(test_scale)
            with pytest.raises(KernelError) as excinfo:
                machine.backend.run_warming(machine, trace, 0, min(64, len(trace)))
            assert excinfo.value.backend == "numpy"
            assert excinfo.value.fallback == "python"
        finally:
            faults.deactivate()
