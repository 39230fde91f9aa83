"""The detailed timing model: a one-pass out-of-order core approximation.

The model walks the dynamic trace once, tracking for every instruction
its dispatch, issue, completion and commit cycles under the configured
resource constraints:

* fetch throughput (``fetch_width``), I-cache/ITLB stalls, IFQ depth;
* dispatch throughput (min of decode/issue width) and ROB occupancy;
* register dependences through a register-ready scoreboard;
* function-unit contention per class (divides occupy their unit);
* LSQ occupancy, D-TLB translation, D-cache/L2/memory latencies;
* branch misprediction redirects (direction predictor + BTB + RAS);
* commit throughput (``commit_width``) and store write-buffer drain.

This is the style of one-pass model used in trace-driven studies: not
cycle-exact, but monotone and sensitive in every parameter the paper's
Plackett-Burman design varies -- which is what the characterization
methods need.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.functional import run_functional_warming
from repro.cpu.machine import Machine
from repro.cpu.stats import SimulationStats
from repro.obs import phases as obs_phases
from repro.isa.trace import (
    FLAG_CALL,
    FLAG_COND_BRANCH,
    FLAG_RETURN,
    FLAG_TAKEN,
    FLAG_TRIVIAL,
    FLAG_UNCOND,
    Trace,
)
from repro.isa.instructions import NUM_REGS, OpClass

_CHUNK = 1 << 16

# Op-class integers (hoisted for the hot loop).
_IALU = int(OpClass.IALU)
_IMULT = int(OpClass.IMULT)
_IDIV = int(OpClass.IDIV)
_FPALU = int(OpClass.FPALU)
_FPMULT = int(OpClass.FPMULT)
_FPDIV = int(OpClass.FPDIV)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)

_FLAG_ANY_BRANCH = FLAG_COND_BRANCH | FLAG_CALL | FLAG_RETURN | FLAG_UNCOND


class _TimingState:
    """Mutable core-timing state carried across regions of one run."""

    __slots__ = (
        "reg_ready",
        "rob_ring",
        "lsq_ring",
        "wb_ring",
        "ifq_ring",
        "pools",
        "fc",
        "fetch_count",
        "last_fetch_block",
        "last_fetch_page",
        "dc",
        "dcount",
        "cc",
        "ccount",
        "instr_index",
        "mem_index",
        "store_index",
        "branches",
        "mispredictions",
        "loads",
        "stores",
        "trivial_simplified",
    )

    def __init__(self, machine: Machine, config=None) -> None:
        # ``config`` overrides the ring/pool sizing for batched runs,
        # where one machine's structures serve several configs that may
        # differ in window sizes (ROB/LSQ/IFQ/FU counts are timing-only
        # parameters; they build no shared structure).
        cfg = config or machine.config
        # Two extra register slots implement the kernel backends'
        # sentinel mapping: NUM_REGS is a write-only scratch slot for
        # instructions without a destination, NUM_REGS + 1 is a source
        # slot that is permanently ready at cycle 0.  The reference
        # loop guards on register validity and never touches either.
        self.reg_ready = [0] * (NUM_REGS + 2)
        self.rob_ring = [0] * cfg.rob_entries
        self.lsq_ring = [0] * cfg.lsq_entries
        self.wb_ring = [0] * cfg.write_buffer_entries
        self.ifq_ring = [0] * cfg.ifq_size
        self.pools = [
            [0] * cfg.int_alus,
            [0] * cfg.int_mult_divs,
            [0] * cfg.fp_alus,
            [0] * cfg.fp_mult_divs,
            [0] * cfg.mem_ports,
        ]
        self.fc = 0
        self.fetch_count = 0
        self.last_fetch_block = -1
        self.last_fetch_page = -1
        self.dc = 0
        self.dcount = 0
        self.cc = 0
        self.ccount = 0
        self.instr_index = 0
        self.mem_index = 0
        self.store_index = 0
        self.branches = 0
        self.mispredictions = 0
        self.loads = 0
        self.stores = 0
        self.trivial_simplified = 0


def run_detailed(
    machine: Machine,
    trace: Trace,
    start: int,
    end: int,
    measure_from: Optional[int] = None,
) -> SimulationStats:
    """Detailed-simulate ``trace[start:end)``; measure from ``measure_from``.

    Instructions in ``[start, measure_from)`` are simulated in full
    detail but excluded from the returned statistics -- this implements
    the "warm up for Y, measure Z" pattern.  Machine state (caches,
    predictors) carries whatever history ``machine`` already holds.
    This is the one-call plan of :func:`detail_plan` for one config.
    """
    specs = [(machine.config, machine.enhancements)]
    return detail_plan(machine, trace, [_call(start, end, measure_from)], specs)[0][0]


def run_detailed_batch(
    machine: Machine,
    trace: Trace,
    start: int,
    end: int,
    specs,
    measure_from: Optional[int] = None,
) -> "list[SimulationStats]":
    """Detailed-simulate ``trace[start:end)`` for N configs in one pass.

    ``machine`` holds the structures shared by every entry of ``specs``
    (a list of ``(config, enhancements)`` pairs with identical
    geometry); each config keeps its own :class:`_TimingState`.  The
    returned statistics are, per config, bit-identical to a separate
    :func:`run_detailed` run of that config alone -- the structures
    advance identically because outcomes are trace-determined, and the
    cache/TLB counter deltas are geometry properties shared by the
    whole batch.
    """
    return detail_plan(machine, trace, [_call(start, end, measure_from)], specs)[0]


def _call(start, end, measure_from):
    return (start, start if measure_from is None else measure_from, end)


def detail_plan(machine: Machine, trace: Trace, plan, specs) -> list:
    """Run ``plan`` on ``machine`` for the configs in ``specs``.

    A plan is a contiguous list of functional-warming gaps ``(start,
    end)`` and detailed calls ``(start, measure_from, end)``.  Returns
    one entry per item: the gap's :class:`WarmingStats`, or the call's
    per-config statistics list.  Every backend gives the result of
    :func:`detail_each`, the per-call loop; the numpy backend resolves
    the whole plan in one structural pass.
    """
    position = plan[0][0] if plan else 0
    for item in plan:
        if item[0] != position:
            raise ValueError(f"plan item {item} does not start at {position}")
        if list(item) != sorted(item):
            raise ValueError("need start <= measure_from <= end")
        position = item[-1]
    if position > len(trace):
        raise ValueError(f"plan ends at {position}, past trace length {len(trace)}")
    if not plan:
        return []
    return machine.backend.detail_regions(machine, trace, plan, specs)


def detail_each(machine: Machine, trace: Trace, plan, specs, detail_call) -> list:
    """The per-call loop: warm each gap and ``detail_call`` each call.

    Each call starts from a fresh timing state and a fetch unit with no
    previous block, and so does each warming call.
    """
    return [
        run_functional_warming(machine, trace, *item)
        if len(item) == 2
        else detail_call(machine, trace, item, specs)
        for item in plan
    ]


def reference_call(machine: Machine, trace: Trace, call, specs) -> "list[SimulationStats]":
    """One detailed call through the reference loop (one config).

    The cache and TLB statistics are the machine counters' deltas over
    the measured part, so they include nothing the warm-up counted.
    """
    ((config, _enhancements),) = specs  # the reference loop serves one config
    start, measure_from, end = call
    state = _TimingState(machine, config=config)
    if measure_from > start:
        with obs_phases.measured(
            "warm_detailed",
            instructions=measure_from - start,
            backend=machine.backend.name,
            configs=1,
        ):
            _run_region(machine, trace, start, measure_from, state)

    cycles_before = state.cc
    snapshot = machine.cache_snapshot()
    before = (
        state.branches,
        state.mispredictions,
        state.loads,
        state.stores,
        state.trivial_simplified,
    )
    if end > measure_from:
        with obs_phases.measured(
            "detailed",
            instructions=end - measure_from,
            backend=machine.backend.name,
            configs=1,
        ):
            _run_region(machine, trace, measure_from, end, state)

    after = machine.cache_snapshot()
    stats = SimulationStats()
    stats.instructions = end - measure_from
    stats.cycles = max(1, state.cc - cycles_before)
    stats.branches = state.branches - before[0]
    stats.mispredictions = state.mispredictions - before[1]
    stats.loads = state.loads - before[2]
    stats.stores = state.stores - before[3]
    stats.trivial_simplified = state.trivial_simplified - before[4]
    stats.il1_accesses = (after["il1_hits"] + after["il1_misses"]) - (
        snapshot["il1_hits"] + snapshot["il1_misses"]
    )
    stats.il1_misses = after["il1_misses"] - snapshot["il1_misses"]
    stats.dl1_accesses = (after["dl1_hits"] + after["dl1_misses"]) - (
        snapshot["dl1_hits"] + snapshot["dl1_misses"]
    )
    stats.dl1_misses = after["dl1_misses"] - snapshot["dl1_misses"]
    stats.l2_accesses = (after["l2_hits"] + after["l2_misses"]) - (
        snapshot["l2_hits"] + snapshot["l2_misses"]
    )
    stats.l2_misses = after["l2_misses"] - snapshot["l2_misses"]
    stats.itlb_misses = after["itlb_misses"] - snapshot["itlb_misses"]
    stats.dtlb_misses = after["dtlb_misses"] - snapshot["dtlb_misses"]
    stats.prefetches = after["prefetches"] - snapshot["prefetches"]
    return [stats]


def _run_region(
    machine: Machine, trace: Trace, start: int, end: int, state: _TimingState
) -> None:
    """Advance the timing model over ``trace[start:end)``."""
    cfg = machine.config

    # Hoist machine structures and config scalars to locals.
    il1_access = machine.il1.access
    dl1_access = machine.dl1.access
    itlb_access = machine.itlb.access
    dtlb_access = machine.dtlb.access
    predict_update = machine.predictor.predict_update
    btb_lookup = machine.btb.lookup_update
    ras_push = machine.ras.push
    ras_pop = machine.ras.pop

    tc_enabled = machine.enhancements.trivial_computation

    fetch_width = cfg.fetch_width
    disp_width = min(cfg.decode_width, cfg.issue_width)
    commit_width = cfg.commit_width
    front_depth = cfg.front_depth
    mispredict_penalty = cfg.mispredict_penalty
    il1_block_shift = cfg.il1_block.bit_length() - 1
    il1_hit_latency = cfg.il1_latency
    rob_size = cfg.rob_entries
    lsq_size = cfg.lsq_entries
    wb_size = cfg.write_buffer_entries
    ifq_size = cfg.ifq_size

    # Per-opclass execution latencies and FU pool ids.
    latency = [1] * 16
    latency[_IALU] = cfg.int_alu_lat
    latency[_IMULT] = cfg.int_mult_lat
    latency[_IDIV] = cfg.int_div_lat
    latency[_FPALU] = cfg.fp_alu_lat
    latency[_FPMULT] = cfg.fp_mult_lat
    latency[_FPDIV] = cfg.fp_div_lat
    pool_of = [0] * 16
    pool_of[_IMULT] = 1
    pool_of[_IDIV] = 1
    pool_of[_FPALU] = 2
    pool_of[_FPMULT] = 3
    pool_of[_FPDIV] = 3

    reg_ready = state.reg_ready
    rob_ring = state.rob_ring
    lsq_ring = state.lsq_ring
    wb_ring = state.wb_ring
    ifq_ring = state.ifq_ring
    pools = state.pools

    fc = state.fc
    fetch_count = state.fetch_count
    last_fetch_block = state.last_fetch_block
    last_fetch_page = state.last_fetch_page
    dc = state.dc
    dcount = state.dcount
    cc = state.cc
    ccount = state.ccount
    instr_index = state.instr_index
    mem_index = state.mem_index
    store_index = state.store_index
    branches = state.branches
    mispredictions = state.mispredictions
    loads = state.loads
    stores = state.stores
    trivial_simplified = state.trivial_simplified

    for chunk_start in range(start, end, _CHUNK):
        chunk_end = min(chunk_start + _CHUNK, end)
        (op_l, dst_l, s1_l, s2_l, pc_l, _blk_l, addr_l, fl_l, tg_l) = (
            trace.column_lists(chunk_start, chunk_end)
        )
        for k in range(chunk_end - chunk_start):
            pc = pc_l[k]
            opc = op_l[k]
            flags = fl_l[k]

            # ---- Fetch
            fetch_block = pc >> il1_block_shift
            if fetch_block != last_fetch_block:
                last_fetch_block = fetch_block
                stall = il1_access(pc) - il1_hit_latency
                page = pc >> 12
                if page != last_fetch_page:
                    last_fetch_page = page
                    stall += itlb_access(pc)
                if stall > 0:
                    fc += stall
                    fetch_count = 0
            if fetch_count >= fetch_width:
                fc += 1
                fetch_count = 0
            fetch_count += 1
            ifq_slot = instr_index % ifq_size
            limit = ifq_ring[ifq_slot]
            if fc < limit:  # IFQ full: fetch waits for dispatch of i-ifq
                fc = limit
                fetch_count = 1

            # ---- Dispatch (decode/issue width gate + ROB occupancy)
            d = fc + front_depth
            rob_slot = instr_index % rob_size
            limit = rob_ring[rob_slot]
            if d < limit:
                d = limit
            if d <= dc:
                if dcount >= disp_width:
                    dc += 1
                    dcount = 0
                d = dc
            else:
                dc = d
                dcount = 0
            dcount += 1
            ifq_ring[ifq_slot] = d

            # ---- Issue and execute
            ready = d + 1
            r = s1_l[k]
            if r >= 0 and reg_ready[r] > ready:
                ready = reg_ready[r]
            r = s2_l[k]
            if r >= 0 and reg_ready[r] > ready:
                ready = reg_ready[r]

            is_mem = opc == _LOAD or opc == _STORE
            store_drain = 0
            if is_mem:
                lsq_slot = mem_index % lsq_size
                mem_index += 1
                limit = lsq_ring[lsq_slot]
                if ready < limit:
                    ready = limit
                pool = pools[4]
                free = pool[0]
                free_index = 0
                for j in range(1, len(pool)):
                    v = pool[j]
                    if v < free:
                        free = v
                        free_index = j
                issue = free if free > ready else ready
                pool[free_index] = issue + 1
                addr = addr_l[k]
                tlb_extra = dtlb_access(addr)
                cache_latency = dl1_access(addr)
                if opc == _LOAD:
                    loads += 1
                    complete = issue + cache_latency + tlb_extra
                else:
                    stores += 1
                    # Stores retire quickly; the write drains through
                    # the write buffer after commit.
                    complete = issue + 1 + tlb_extra
                    store_drain = cache_latency
            else:
                if tc_enabled and (flags & FLAG_TRIVIAL):
                    # Trivial computation eliminated: no function unit,
                    # result forwarded as soon as operands are ready.
                    trivial_simplified += 1
                    complete = ready
                else:
                    pool = pools[pool_of[opc]]
                    free = pool[0]
                    free_index = 0
                    for j in range(1, len(pool)):
                        v = pool[j]
                        if v < free:
                            free = v
                            free_index = j
                    issue = free if free > ready else ready
                    exec_latency = latency[opc]
                    # Divides occupy their unit (unpipelined).
                    if opc == _IDIV or opc == _FPDIV:
                        pool[free_index] = issue + exec_latency
                    else:
                        pool[free_index] = issue + 1
                    complete = issue + exec_latency

            dst = dst_l[k]
            if dst >= 0:
                reg_ready[dst] = complete

            # ---- Branch resolution
            if flags & _FLAG_ANY_BRANCH:
                branches += 1
                taken = flags & FLAG_TAKEN
                if flags & FLAG_COND_BRANCH:
                    correct = predict_update(pc, bool(taken))
                    if correct and taken:
                        correct = btb_lookup(pc, tg_l[k])
                elif flags & FLAG_CALL:
                    ras_push()
                    correct = btb_lookup(pc, tg_l[k])
                elif flags & FLAG_RETURN:
                    correct = ras_pop()
                else:  # unconditional jump
                    correct = btb_lookup(pc, tg_l[k])
                if not correct:
                    mispredictions += 1
                    redirect = complete + mispredict_penalty
                    if redirect > fc:
                        fc = redirect
                        fetch_count = 0

            # ---- Commit (in order, width-gated)
            c = complete
            if c <= cc:
                if ccount >= commit_width:
                    cc += 1
                    ccount = 0
                c = cc
            else:
                cc = c
                ccount = 0
            ccount += 1

            if store_drain:
                wb_slot = store_index % wb_size
                store_index += 1
                limit = wb_ring[wb_slot]
                if limit > c:  # write buffer full: commit stalls
                    c = limit
                    cc = c
                    ccount = 1
                wb_ring[wb_slot] = c + store_drain

            rob_ring[rob_slot] = c
            if is_mem:
                lsq_ring[lsq_slot] = c

            instr_index += 1

    state.fc = fc
    state.fetch_count = fetch_count
    state.last_fetch_block = last_fetch_block
    state.last_fetch_page = last_fetch_page
    state.dc = dc
    state.dcount = dcount
    state.cc = cc
    state.ccount = ccount
    state.instr_index = instr_index
    state.mem_index = mem_index
    state.store_index = store_index
    state.branches = branches
    state.mispredictions = mispredictions
    state.loads = loads
    state.stores = stores
    state.trivial_simplified = trivial_simplified
