"""Functional simulation: fast-forwarding and functional warming.

Fast-forwarding skips a region entirely (architectural state lives in
the trace, so skipping costs nothing and leaves microarchitectural
state cold -- exactly the semantics of ``FF X`` in the paper).

Functional *warming* (SMARTS-style) walks a region updating only the
long-history structures -- caches, TLBs, branch predictor, BTB, RAS --
without computing any timing.  It is several times faster than detailed
simulation, which is what gives SMARTS its speed advantage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.cpu import checkpoint
from repro.cpu.machine import Machine
from repro.obs import phases as obs_phases
from repro.isa.instructions import OpClass
from repro.isa.trace import (
    FLAG_CALL,
    FLAG_COND_BRANCH,
    FLAG_RETURN,
    FLAG_TAKEN,
    FLAG_UNCOND,
    Trace,
)

_CHUNK = 1 << 16

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)

_FLAG_ANY_BRANCH = FLAG_COND_BRANCH | FLAG_CALL | FLAG_RETURN | FLAG_UNCOND


@dataclass
class WarmingStats:
    """Event counts observed while functionally warming a region.

    SMARTS reports microarchitectural *rate* statistics (branch
    accuracy, cache hit rates) from functional warming, which observes
    every access -- the tiny detailed samples alone would make those
    rates quantization noise.
    """

    instructions: int = 0
    branches: int = 0
    mispredictions: int = 0
    loads: int = 0
    stores: int = 0

    def merge(self, other: "WarmingStats") -> "WarmingStats":
        """Accumulate ``other`` into this instance (and return it)."""
        self.instructions += other.instructions
        self.branches += other.branches
        self.mispredictions += other.mispredictions
        self.loads += other.loads
        self.stores += other.stores
        return self


_STATS_NAMES = [field.name for field in fields(WarmingStats)]


def warm_prefix(
    machine: Machine,
    trace: Trace,
    end: int,
    checkpoint_key: "str | None" = None,
) -> WarmingStats:
    """Warm ``trace[0, end)`` on a *cold* machine, checkpoint-assisted.

    Without an active checkpoint store (or a key) this is exactly
    ``run_functional_warming(machine, trace, 0, end)``.  With one, the
    nearest stored checkpoint at-or-below ``end`` is restored and only
    the remainder is warmed -- and fresh checkpoints are dropped at
    every ``interval`` boundary crossed on the way, so the next run
    (any backend, any latency variant) starts even closer.  The warmed
    state and the returned event counts are bit-identical to the full
    replay: snapshots hold every warm-state array and cumulative counts
    ride along with each checkpoint.
    """
    store = checkpoint.active_store()
    if store is None or checkpoint_key is None or end <= 0:
        return run_functional_warming(machine, trace, 0, max(0, end))

    position = 0
    stats = WarmingStats()
    with obs_phases.measured("checkpoint_restore"):
        found = store.nearest(
            checkpoint_key, end, checkpoint.layout(machine), _STATS_NAMES
        )
        if found is not None:
            position, state, saved = found
            checkpoint.restore_machine(machine, state)
            stats = WarmingStats(**saved)
            checkpoint.record_hit(position)
        else:
            checkpoint.record_miss()

    interval = store.interval
    while position < end:
        boundary = (position // interval + 1) * interval
        stop = min(end, boundary)
        stats.merge(run_functional_warming(machine, trace, position, stop))
        position = stop
        if position == boundary:
            with obs_phases.measured("checkpoint_save"):
                store.save(
                    checkpoint_key,
                    position,
                    checkpoint.snapshot_machine(machine),
                    asdict(stats),
                )
    return stats


def run_functional_warming(
    machine: Machine, trace: Trace, start: int, end: int
) -> WarmingStats:
    """Warm caches/TLBs/predictor over ``trace[start:end)``.

    Dispatches to the machine's simulation backend (all backends
    produce identical warmed state and counts); returns the event
    counts observed while warming.
    """
    if end > len(trace):
        raise ValueError(f"region [{start}, {end}) exceeds trace length {len(trace)}")
    with obs_phases.measured(
        "warming",
        instructions=max(0, end - start),
        backend=machine.backend.name,
    ):
        return machine.backend.run_warming(machine, trace, start, end)


def _python_warming(
    machine: Machine, trace: Trace, start: int, end: int
) -> WarmingStats:
    """The reference per-instruction warming loop."""
    il1_warm = machine.il1.warm
    dl1_warm = machine.dl1.warm
    itlb_warm = machine.itlb.warm
    dtlb_warm = machine.dtlb.warm
    predict_update = machine.predictor.predict_update
    btb_lookup = machine.btb.lookup_update
    ras_push = machine.ras.push
    ras_pop = machine.ras.pop

    il1_block_shift = machine.config.il1_block.bit_length() - 1
    last_block = -1
    last_page = -1

    branches = 0
    mispredictions = 0
    loads = 0
    stores = 0

    for chunk_start in range(start, end, _CHUNK):
        chunk_end = min(chunk_start + _CHUNK, end)
        (op_l, _dst, _s1, _s2, pc_l, _blk, addr_l, fl_l, tg_l) = trace.column_lists(
            chunk_start, chunk_end
        )
        for k in range(chunk_end - chunk_start):
            pc = pc_l[k]
            block = pc >> il1_block_shift
            if block != last_block:
                last_block = block
                il1_warm(pc)
                page = pc >> 12
                if page != last_page:
                    last_page = page
                    itlb_warm(pc)
            opc = op_l[k]
            if opc == _LOAD or opc == _STORE:
                if opc == _LOAD:
                    loads += 1
                else:
                    stores += 1
                addr = addr_l[k]
                dtlb_warm(addr)
                dl1_warm(addr)
            flags = fl_l[k]
            if flags & _FLAG_ANY_BRANCH:
                branches += 1
                if flags & FLAG_COND_BRANCH:
                    taken = bool(flags & FLAG_TAKEN)
                    correct = predict_update(pc, taken)
                    if correct and taken:
                        correct = btb_lookup(pc, tg_l[k])
                elif flags & FLAG_CALL:
                    ras_push()
                    correct = btb_lookup(pc, tg_l[k])
                elif flags & FLAG_RETURN:
                    correct = ras_pop()
                else:
                    correct = btb_lookup(pc, tg_l[k])
                if not correct:
                    mispredictions += 1
    return WarmingStats(
        instructions=max(0, end - start),
        branches=branches,
        mispredictions=mispredictions,
        loads=loads,
        stores=stores,
    )
