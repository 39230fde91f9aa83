"""Tests for vectorized trace generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import OpClass
from repro.isa.trace import (
    FLAG_ANY_BRANCH,
    FLAG_CALL,
    FLAG_COND_BRANCH,
    FLAG_RETURN,
    FLAG_TAKEN,
    FLAG_TRIVIAL,
)
from repro.workloads.generator import generate_trace
from repro.workloads.spec import (
    BENCHMARK_NAMES,
    available_input_sets,
    get_workload,
)

from tests.conftest import TEST_SCALE, make_micro_program


@pytest.fixture(scope="module")
def program():
    return make_micro_program()


@pytest.fixture(scope="module")
def trace(program):
    return generate_trace(program, [(0, 1500), (1, 1500)], seed=5)


class TestGeneration:
    def test_exact_length(self, trace):
        assert len(trace) == 3000

    def test_deterministic(self, program):
        a = generate_trace(program, [(0, 500)], seed=9)
        b = generate_trace(program, [(0, 500)], seed=9)
        assert np.array_equal(a.op, b.op)
        assert np.array_equal(a.addr, b.addr)
        assert np.array_equal(a.flags, b.flags)

    def test_seed_changes_stream(self, program):
        a = generate_trace(program, [(0, 500)], seed=1)
        b = generate_trace(program, [(0, 500)], seed=2)
        assert not np.array_equal(a.addr, b.addr)

    def test_empty_schedule_rejected(self, program):
        with pytest.raises(ValueError):
            generate_trace(program, [], seed=1)
        with pytest.raises(ValueError):
            generate_trace(program, [(0, 0)], seed=1)

    def test_block_ids_valid(self, trace, program):
        assert trace.block.min() >= 0
        assert trace.block.max() < program.num_blocks

    def test_pc_matches_program_layout(self, trace, program):
        # Every pc must be one of the program's static pcs, consistent
        # with its block id.
        for i in (0, 100, 1777):
            block = trace.block[i]
            offset = program.block_offsets[block]
            n = program.block_lens[block]
            pcs = program.flat_pc[offset : offset + n]
            assert trace.pc[i] in pcs


class TestBranchSemantics:
    def test_branch_flags_only_at_block_ends(self, trace, program):
        branch_positions = np.nonzero(trace.flags & FLAG_ANY_BRANCH)[0]
        for pos in branch_positions[:200]:
            block = trace.block[pos]
            offset = program.block_offsets[block]
            n = program.block_lens[block]
            last_pc = program.flat_pc[offset + n - 1]
            assert trace.pc[pos] == last_pc

    def test_taken_iff_next_is_not_fallthrough(self, trace, program):
        cond = np.nonzero(trace.flags & FLAG_COND_BRANCH)[0]
        cond = cond[cond < len(trace) - 1]
        for pos in cond[:300]:
            block = trace.block[pos]
            next_block = trace.block[pos + 1]
            taken = bool(trace.flags[pos] & FLAG_TAKEN)
            fallthrough = program.block_fallthrough[block]
            assert taken == (next_block != fallthrough)

    def test_taken_branches_have_targets(self, trace, program):
        taken = (trace.flags & FLAG_TAKEN) != 0
        has_branch = (trace.flags & FLAG_ANY_BRANCH) != 0
        positions = np.nonzero(taken & has_branch)[0]
        positions = positions[positions < len(trace) - 1]
        for pos in positions[:300]:
            expected = program.block_pc_base[trace.block[pos + 1]]
            assert trace.target[pos] == expected

    def test_calls_and_returns_balance_roughly(self, trace):
        calls = int(((trace.flags & FLAG_CALL) != 0).sum())
        returns = int(((trace.flags & FLAG_RETURN) != 0).sum())
        assert abs(calls - returns) <= 2  # trace may end mid-pair

    def test_terminator_opclasses_rewritten(self, trace):
        cond = (trace.flags & FLAG_COND_BRANCH) != 0
        assert (trace.op[cond] == int(OpClass.BRANCH)).all()
        calls = (trace.flags & FLAG_CALL) != 0
        assert (trace.op[calls] == int(OpClass.CALL)).all()

    @settings(max_examples=20, deadline=None)
    @given(
        benchmark=st.sampled_from(BENCHMARK_NAMES),
        input_index=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_no_memory_op_carries_a_branch_flag(
        self, benchmark, input_index, seed
    ):
        # Warming and detailed runs agree on memory ops that carry a
        # branch flag; no benchmark trace has one, so that choice
        # cannot move a stored result.
        inputs = available_input_sets(benchmark)
        workload = get_workload(
            benchmark, inputs[input_index % len(inputs)], seed=seed
        )
        trace = workload.trace(TEST_SCALE)
        mem = (trace.op == int(OpClass.LOAD)) | (trace.op == int(OpClass.STORE))
        assert not (trace.flags[mem] & FLAG_ANY_BRANCH).any()


class TestMemorySemantics:
    def test_non_memory_has_zero_addr(self, trace):
        mem = (trace.op == int(OpClass.LOAD)) | (trace.op == int(OpClass.STORE))
        assert (trace.addr[~mem] == 0).all()

    def test_memory_has_addresses(self, trace):
        mem = (trace.op == int(OpClass.LOAD)) | (trace.op == int(OpClass.STORE))
        assert mem.any()
        assert (trace.addr[mem] != 0).all()

    def test_addresses_word_aligned(self, trace):
        assert (trace.addr & 3 == 0).all()

    def test_footprint_scale_shrinks_span(self, program):
        big = generate_trace(program, [(0, 2000)], seed=3, footprint_scale=1.0)
        small = generate_trace(program, [(0, 2000)], seed=3, footprint_scale=0.01)

        def span(trace):
            mem = trace.addr != 0
            # Per-region span: use the second stream's region only.
            region = trace.addr[mem & (trace.addr >= 0x2000_0000)]
            if len(region) == 0:
                return 0
            return int(region.max() - region.min())

        assert span(small) < span(big)

    def test_phase_footprint_scale_applies(self, program):
        alpha = generate_trace(program, [(0, 2000)], seed=3)
        beta = generate_trace(program, [(1, 2000)], seed=3)
        # Phase beta scales footprints by 2.0 for the same streams.
        def span(trace):
            region = trace.addr[(trace.addr >= 0x2000_0000)]
            return int(region.max() - region.min()) if len(region) else 0
        assert span(beta) > span(alpha)


class TestTrivialFlags:
    def test_trivial_only_on_candidates(self, trace, program):
        trivial = np.nonzero(trace.flags & FLAG_TRIVIAL)[0]
        assert len(trivial) > 0  # probability 0.5 on a common template
        for pos in trivial[:200]:
            assert trace.op[pos] == int(OpClass.IMULT)

    def test_trivial_rate_plausible(self, trace):
        imult = trace.op == int(OpClass.IMULT)
        trivial = (trace.flags & FLAG_TRIVIAL) != 0
        rate = trivial[imult].mean()
        assert 0.3 < rate < 0.7  # configured probability is 0.5
