"""Shared fixtures: micro-scale workloads so tests run fast."""

from __future__ import annotations

import pytest

from repro.isa.instructions import InstructionTemplate, OpClass
from repro.scale import Scale
from repro.workloads.inputs import InputSetSpec, Workload
from repro.workloads.program import (
    BasicBlock,
    LoopNest,
    LoopStep,
    MemoryStream,
    Phase,
    SyntheticProgram,
    TerminatorKind,
)

#: A very small scale used throughout the tests (5 instructions per
#: paper-M keeps even "reference" runs to a few thousand instructions).
TEST_SCALE = Scale(5)


@pytest.fixture(autouse=True)
def _isolate_process_state(monkeypatch):
    """Start and end every test with no active trace store, checkpoint
    store, tracer or backend, and without the user-level trace/metrics
    settings.

    An engine activates its stores process-wide (so its forked workers
    inherit them); a test that does not close its engine, or that
    activates a store itself and fails before cleaning up, would
    otherwise leak an active store into every later test.
    """
    from repro.cpu import checkpoint
    from repro.cpu.kernels import registry
    from repro.obs import phases, trace
    from repro.settings import SETTINGS
    from repro.workloads import trace_store

    def reset() -> None:
        trace_store.activate(None)
        checkpoint.activate(None)
        trace.deactivate()
        registry.activate(None)

    for name in ("trace", "metrics_file"):
        monkeypatch.delenv(SETTINGS[name].env, raising=False)
    reset()
    yield
    reset()
    phases.set_notifier(None)
    phases.drain()


def make_micro_program(name: str = "micro") -> SyntheticProgram:
    """A tiny hand-built two-phase program exercising every op class."""
    stream_a = MemoryStream(base=0x1000_0000, footprint=1 << 14, stride=8)
    stream_b = MemoryStream(
        base=0x2000_0000, footprint=1 << 18, stride=16, random_fraction=0.3,
        reuse_shift=4,
    )
    blocks = [
        # 0: compute + load, conditional terminator
        BasicBlock(
            block_id=0,
            templates=(
                InstructionTemplate(OpClass.IALU, dst=1, src1=2, src2=3),
                InstructionTemplate(OpClass.LOAD, dst=4, src1=1),
                InstructionTemplate(OpClass.IMULT, dst=5, src1=4, src2=1,
                                    trivial_probability=0.5),
                InstructionTemplate(OpClass.BRANCH, src1=5),
            ),
            terminator=TerminatorKind.COND_BRANCH,
            fallthrough=1,
            memory=(None, stream_a, None, None),
        ),
        # 1: fp + store
        BasicBlock(
            block_id=1,
            templates=(
                InstructionTemplate(OpClass.FPALU, dst=6, src1=7, src2=8),
                InstructionTemplate(OpClass.STORE, src1=6, src2=9),
                InstructionTemplate(OpClass.BRANCH, src1=6),
            ),
            terminator=TerminatorKind.COND_BRANCH,
            fallthrough=None,
            memory=(None, stream_b, None),
        ),
        # 2: alternate path
        BasicBlock(
            block_id=2,
            templates=(
                InstructionTemplate(OpClass.IDIV, dst=10, src1=11, src2=12),
                InstructionTemplate(OpClass.BRANCH, src1=10),
            ),
            terminator=TerminatorKind.COND_BRANCH,
            fallthrough=None,
        ),
        # 3: call site
        BasicBlock(
            block_id=3,
            templates=(
                InstructionTemplate(OpClass.IALU, dst=13, src1=14, src2=15),
                InstructionTemplate(OpClass.CALL),
            ),
            terminator=TerminatorKind.CALL,
        ),
        # 4: callee body
        BasicBlock(
            block_id=4,
            templates=(
                InstructionTemplate(OpClass.FPMULT, dst=16, src1=17, src2=18),
            ),
            terminator=TerminatorKind.FALLTHROUGH,
            fallthrough=5,
        ),
        # 5: return
        BasicBlock(
            block_id=5,
            templates=(
                InstructionTemplate(OpClass.IALU, dst=19, src1=16, src2=20),
                InstructionTemplate(OpClass.RETURN),
            ),
            terminator=TerminatorKind.RETURN,
        ),
    ]
    nest_main = LoopNest(
        steps=(
            LoopStep(block=0, alt_block=2, alt_probability=0.2),
            LoopStep(block=1),
        ),
        mean_trips=8,
    )
    nest_call = LoopNest(
        steps=(
            LoopStep(block=3),
            LoopStep(block=4),
            LoopStep(block=5),
            LoopStep(block=0),
        ),
        mean_trips=4,
    )
    phases = [
        Phase(name="alpha", nests=(nest_main,), weights=(1.0,)),
        Phase(
            name="beta",
            nests=(nest_main, nest_call),
            weights=(0.4, 0.6),
            footprint_scale=2.0,
            divert_scale=1.5,
        ),
    ]
    return SyntheticProgram(name=name, blocks=blocks, phases=phases)


def make_micro_workload(
    length_m: float = 400.0,
    footprint_scale: float = 1.0,
    input_name: str = "reference",
    seed: int = 99,
) -> Workload:
    """A workload over the micro program (about 2000 instructions at
    TEST_SCALE for the default length)."""
    program = make_micro_program()
    spec = InputSetSpec(
        name=input_name,
        length_m=length_m,
        phase_fractions=(("alpha", 0.5), ("beta", 0.5)),
        footprint_scale=footprint_scale,
    )
    return Workload(
        benchmark="micro", program=program, input_set=spec, seed=seed
    )


@pytest.fixture(scope="session")
def micro_program() -> SyntheticProgram:
    return make_micro_program()


@pytest.fixture(scope="session")
def micro_workload() -> Workload:
    return make_micro_workload()


@pytest.fixture(scope="session")
def micro_trace(micro_workload):
    return micro_workload.trace(TEST_SCALE)


@pytest.fixture(scope="session")
def test_scale() -> Scale:
    return TEST_SCALE
