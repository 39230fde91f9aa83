"""The ``numpy`` backend: vectorized resolve passes + a lean timing loop.

The key observation making this backend possible is that every
microarchitectural *outcome* in the model -- cache hit/miss, TLB
hit/miss, branch direction correctness, BTB/RAS correctness -- is
fully determined by the trace order alone; the timing loop feeds
nothing back into the structures.  Detailed simulation therefore
splits into two phases that together are bit-identical to the
reference interleaved loop:

1. **Resolve**: build the event streams with NumPy (block-change
   masks, memory indices, branch kinds), then replay each structure's
   events through a set-grouped, unrolled LRU loop.  Only the L2 is
   shared between il1 and dl1, so only its stream needs a global-order
   merge (il1 before dl1 within one instruction, matching the
   fetch-before-execute order of the reference loop).
2. **Timing**: run the config-specialized loop from
   :mod:`repro.cpu.kernels.codegen` over the precomputed latencies,
   sparse stall events and sparse mispredict redirects.

Because no resolved outcome depends on a latency, one resolution
serves every latency config of a geometry, and because no outcome
depends on timing state, one resolution serves a whole plan of
warming gaps and detailed calls: :func:`detail_regions` is the one
detailed entry point.  A single config is its one-member batch and a
single detailed call its one-call plan.

:func:`resolve_structures` is the only code that trains the
structures.  Detailed passes (:func:`resolve_region`) add the cache,
TLB and memory statistics of their calls and the timing loop's event
union on top of it; functional warming (:func:`run_warming`) is the
same pass with those counters discarded.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.cpu.branch import PRED_BIMODAL, PRED_GSHARE, PRED_PERFECT, PRED_TAKEN
from repro.cpu.cache import STAT_HITS, STAT_MISSES
from repro.cpu.kernels.codegen import (
    btb_events,
    cond_combined_events,
    cond_counter_events,
    lru_grouped,
    ras_events,
    timing_loop_for,
)
from repro.cpu.kernels.state import LatencyTable
from repro.cpu.stats import SimulationStats
from repro.isa.trace import BK_CALL, BK_COND, BK_RETURN, BK_UNCOND
from repro.obs import phases as obs_phases

_INF = 1 << 62


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _change_mask(values: np.ndarray, previous: int) -> np.ndarray:
    """True where ``values[i]`` differs from its predecessor."""
    mask = np.empty(len(values), dtype=bool)
    if len(values):
        mask[0] = values[0] != previous
        np.not_equal(values[1:], values[:-1], out=mask[1:])
    return mask


def _dedup_filter(blocks: np.ndarray, set_mask: int, assoc: int):
    """Pure trivial-hit filter over an access stream, in set order.

    Any access leaves its block MRU in its set, so an event whose
    *previous same-set* event touched the same block is a guaranteed
    way-0 hit with no state change.  Those events (the vast majority:
    loop bodies re-fetching the same I-blocks, stack traffic hitting
    the same D-blocks) are filtered out vectorized and only the
    remainder needs LRU replay.  Returns ``(bases, blocks, pos)``
    lists *sorted by set* for :func:`lru_grouped`, where ``pos`` is
    each survivor's position in the original stream.  Depends only on
    the stream and the geometry, so results are memoizable per region.
    """
    n = len(blocks)
    if n == 0:
        return [], [], []
    sets = blocks & set_mask
    # Small unsigned keys let the stable argsort take its radix path,
    # which is ~7x faster than the int64 merge sort.
    if set_mask < 1 << 8:
        sort_keys = sets.astype(np.uint8)
    elif set_mask < 1 << 16:
        sort_keys = sets.astype(np.uint16)
    else:
        sort_keys = sets
    order = np.argsort(sort_keys, kind="stable")
    sb = sets[order]
    bb = blocks[order]
    live = np.empty(n, dtype=bool)
    live[0] = True
    np.not_equal(sb[1:], sb[:-1], out=live[1:])
    np.logical_or(live[1:], bb[1:] != bb[:-1], out=live[1:])
    return (
        (sb[live] * assoc).tolist(),
        bb[live].tolist(),
        order[live].tolist(),
    )


def _replay(structure, feed) -> list:
    """Replay a filtered feed through a structure; miss positions.

    The positions index the *original* (unfiltered) stream and come
    back in set-grouped order; callers use them as an index set.  Hit
    counts are ``len(stream) - len(misses)`` by construction.
    """
    bases, blks, pos = feed
    return lru_grouped(structure.assoc)(bases, blks, pos, structure.tags)


def _structure_events(structure, blocks: np.ndarray) -> np.ndarray:
    """Filter + replay for streams that are not worth memoizing."""
    miss = _replay(
        structure, _dedup_filter(blocks, structure.set_mask, structure.assoc)
    )
    return _int64(miss)


def _mem_feed(trace, start, end, memo):
    """Memory-op index artifacts for one region."""
    def build():
        op_r = trace.op[start:end]
        mem_idx = np.flatnonzero((op_r == 6) | (op_r == 7))
        is_load = op_r[mem_idx] == 6
        return mem_idx, is_load, int(np.count_nonzero(is_load))

    return memo(("mem", start, end), build)


def _branch_feed(trace, start, end, memo):
    """Branch index sets for one region."""
    def build():
        bk = trace.branch_kinds()[start:end]
        cond_idx = np.flatnonzero(bk == BK_COND)
        t_cond = trace.taken_bits()[start:end][cond_idx]
        cr_idx = np.flatnonzero((bk == BK_CALL) | (bk == BK_RETURN))
        cr_is_call = bk[cr_idx] == BK_CALL
        unc_idx = np.flatnonzero(bk == BK_UNCOND)
        return (
            int(np.count_nonzero(bk)),
            cond_idx,
            t_cond,
            trace.pc[start:end][cond_idx],
            cr_idx,
            cr_is_call,
            cr_is_call.tolist(),
            unc_idx,
        )

    return memo(("branch", start, end), build)


def _correct_mask(wrong_l, count) -> np.ndarray:
    """Bool correctness array from a sparse mispredict-position list."""
    correct = np.ones(count, dtype=bool)
    if wrong_l:
        correct[_int64(wrong_l)] = False
    return correct


def _btb_resolve(machine, n, pc_r, tg_r, cond_btb_idx, call_idx, unc_idx):
    """Replay BTB lookups in instruction order; correctness flags.

    The three sorted index sets are merged by scattering into a
    full-length flag array and reading the nonzero positions back --
    O(n) but branch-free, cheaper than sorting the concatenation.
    Returns a full-length 0/1 array indexable by any of the inputs.
    """
    btb = machine.btb
    sel = np.zeros(n, dtype=bool)
    sel[cond_btb_idx] = True
    sel[call_idx] = True
    sel[unc_idx] = True
    merged = np.flatnonzero(sel)
    bkeys = pc_r[merged] >> 2
    bbases = ((bkeys & btb.set_mask) * btb.assoc).tolist()
    bmiss_l = btb_events(btb.assoc)(
        bbases, bkeys.tolist(), tg_r[merged].tolist(), btb.keys, btb.targets
    )
    btb.stats[STAT_HITS] += len(merged) - len(bmiss_l)
    btb.stats[STAT_MISSES] += len(bmiss_l)
    bcorrect_full = np.zeros(n, dtype=bool)
    bcorrect_full[merged] = True
    if bmiss_l:
        bcorrect_full[merged[_int64(bmiss_l)]] = False
    return bcorrect_full


def _resolve_predictor(start, end, predictor, pc_cond, t_cond, memo):
    """Direction-predictor correctness per conditional branch.

    The global history register is trace-determined, so the gshare
    index of every event is precomputed vectorized: history before
    event ``j`` is the previous ``W`` taken bits (plus the incoming
    register shifted in for the first ``W`` events).  The whole index
    feed is pure given the entry history, so ``memo`` may keep it per
    region; only the counter-table replay runs per call.
    """
    kind = predictor.kind
    count = len(pc_cond)
    if kind == PRED_TAKEN:
        return t_cond != 0
    if kind == PRED_PERFECT:
        return np.ones(count, dtype=bool)
    mask = predictor.mask
    h0 = int(predictor.state[0])

    def build():
        taken_l = t_cond.tolist()
        base_index = (pc_cond >> 2) & mask
        if kind == PRED_BIMODAL:
            return taken_l, base_index.tolist(), None, 0
        width = mask.bit_length()
        history = np.zeros(count + 1, dtype=np.int64)
        if h0:
            span = min(width, count + 1)
            history[:span] |= h0 << np.arange(span, dtype=np.int64)
        for age in range(1, width + 1):
            if age > count:
                break
            np.bitwise_or(
                history[age:],
                t_cond[: count + 1 - age] << (age - 1),
                out=history[age:],
            )
        history &= mask
        gs_index = (base_index ^ history[:count]) & mask
        return taken_l, base_index.tolist(), gs_index.tolist(), int(history[count])

    taken_l, base_l, gs_l, h_final = memo(
        ("pred", start, end, kind, mask, h0), build
    )
    if kind == PRED_BIMODAL:
        wrong_l = cond_counter_events(base_l, taken_l, predictor.bimodal)
        return _correct_mask(wrong_l, count)
    if kind == PRED_GSHARE:
        wrong_l = cond_counter_events(gs_l, taken_l, predictor.gshare)
    else:  # combined
        wrong_l = cond_combined_events(
            base_l, gs_l, taken_l,
            predictor.bimodal, predictor.gshare, predictor.chooser,
        )
    predictor.state[0] = h_final
    return _correct_mask(wrong_l, count)


class RegionResolution:
    """Latency-independent outcomes of one resolved pass.

    Everything a config needs that is *not* a latency: sparse miss
    index sets with per-miss L2-missness flags, the redirect positions,
    the shared sparse event union for the segmented timing loop, and
    the per-segment event counts.  Positions are relative to the pass
    start.  One resolution serves any number of latency configs -- the
    structures were advanced while producing it, and no field depends
    on a latency parameter.
    """

    __slots__ = (
        "n", "n_mem", "n_loads", "n_branches", "n_redir",
        "fetch_idx", "il1_miss", "il1_l2miss", "itlb_pos", "itlb_miss",
        "mem_idx", "is_load", "dl1_miss", "dl1_l2miss", "dtlb_miss",
        "redir_pos", "stall_ev", "stall_slot", "ev_pos", "ev_redir",
        "counts",
    )


def _unmemoized(_key, build):
    return build()


def resolve_structures(
    machine, trace, start, end, resets=None, warm: bool = False,
) -> RegionResolution:
    """Train every structure over ``trace[start:end)``; record outcomes.

    The one structure pass of this backend, shared by detailed passes
    (:func:`resolve_region`) and functional warming
    (:func:`run_warming`).  Caches, TLBs, predictor, BTB and RAS are
    advanced and the returned resolution records which accesses missed
    and which branches redirect fetch.  Only BTB statistics are
    counted here (both modes count them); the cache, TLB and memory
    counters are the detailed path's.  ``warm`` selects the caches'
    state-only ``warm`` methods on the serial prefetch path, which then
    records no cache miss sets.

    Fetch starts with no previous block or page, as every warming and
    detailed call of the reference loops does; ``resets`` (an int64
    array of positions relative to ``start``) lists where it forgets
    them again, one per later call of a plan.  A region without resets
    memoizes its pure feeds per region.  A pass with resets builds them
    afresh: its feeds span most of the trace, and keeping them per plan
    and geometry would hold tens of MB per process.
    """
    il1 = machine.il1
    dl1 = machine.dl1
    l2 = machine.l2
    n = end - start
    memo = trace.region_memo if resets is None else _unmemoized

    res = RegionResolution()
    res.n = n

    pc_r = trace.pc[start:end]
    addr_r = trace.addr[start:end]
    mem_idx, is_load, n_loads = _mem_feed(trace, start, end, memo)
    res.n_mem = len(mem_idx)
    res.n_loads = n_loads
    res.mem_idx = mem_idx
    res.is_load = is_load

    # ---- fetch events (I-cache block changes and resets; page changes
    # within them)
    fb = trace.fetch_blocks(il1.block_shift)[start:end]

    def fetch_events():
        mask = _change_mask(fb, -1)
        if resets is not None:
            mask[resets] = True
        return np.flatnonzero(mask)

    fetch_idx = memo(("fetch", start, end, il1.block_shift), fetch_events)
    pgs = trace.pages()[start:end][fetch_idx]
    page_mask = _change_mask(pgs, -1)
    if resets is not None:
        # Every reset position is a fetch event; this finds its slot.
        page_mask[np.searchsorted(fetch_idx, resets)] = True
    itlb_pos = np.flatnonzero(page_mask)
    res.fetch_idx = fetch_idx
    res.itlb_pos = itlb_pos

    # ---- caches
    if machine.enhancements.next_line_prefetch:
        res.il1_miss = res.il1_l2miss = None
        res.dl1_miss = res.dl1_l2miss = None
        if warm:
            _caches_serial(il1.warm, dl1.warm, pc_r, addr_r, fetch_idx, mem_idx)
        else:
            il1_lat, dl1_lat = _caches_serial(
                il1.access, dl1.access, pc_r, addr_r, fetch_idx, mem_idx
            )
            # ``access`` returns hit, hit + L2 hit or hit + L2 hit +
            # fill; every latency is at least 1, so the three values
            # are distinct and the miss sets come out latency-free.
            il1_lat = _int64(il1_lat)
            dl1_lat = _int64(dl1_lat)
            res.il1_miss = np.flatnonzero(il1_lat > il1.hit_latency)
            res.il1_l2miss = (
                il1_lat[res.il1_miss] > il1.hit_latency + l2.hit_latency
            )
            res.dl1_miss = np.flatnonzero(dl1_lat > dl1.hit_latency)
            res.dl1_l2miss = (
                dl1_lat[res.dl1_miss] > dl1.hit_latency + l2.hit_latency
            )
    else:
        il1_feed = memo(
            ("il1", start, end, il1.block_shift, il1.set_mask, il1.assoc),
            lambda: _dedup_filter(fb[fetch_idx], il1.set_mask, il1.assoc),
        )
        il1_miss = _int64(_replay(il1, il1_feed))
        dl1_feed = memo(
            ("dl1", start, end, dl1.block_shift, dl1.set_mask, dl1.assoc),
            lambda: _dedup_filter(
                trace.data_blocks(dl1.block_shift)[start:end][mem_idx],
                dl1.set_mask, dl1.assoc,
            ),
        )
        dl1_miss = _int64(_replay(dl1, dl1_feed))

        # L2 sees L1 misses merged in global instruction order, il1
        # (fetch) before dl1 (execute) within one instruction.
        il1_g = fetch_idx[il1_miss]
        dl1_g = mem_idx[dl1_miss]
        merge_keys = np.concatenate([il1_g * 2, dl1_g * 2 + 1])
        order = np.argsort(merge_keys)
        l2_blocks = (
            np.concatenate([pc_r[il1_g], addr_r[dl1_g]]) >> l2.block_shift
        )[order]
        l2_miss = _structure_events(l2, l2_blocks)

        # Only hit-or-miss is resolved here; the fill *latency* of each
        # L2 miss is a per-config quantity applied during assembly.
        n_merge = len(l2_blocks)
        l2_missmask = np.zeros(n_merge, dtype=bool)
        l2_missmask[l2_miss] = True
        inverse = np.empty(n_merge, dtype=np.int64)
        inverse[order] = np.arange(n_merge, dtype=np.int64)
        n_il1_miss = len(il1_g)
        res.il1_miss = il1_miss
        res.il1_l2miss = l2_missmask[inverse[:n_il1_miss]]
        res.dl1_miss = dl1_miss
        res.dl1_l2miss = l2_missmask[inverse[n_il1_miss:]]

    # ---- TLBs (independent structures; no timing feedback)
    res.itlb_miss = _structure_events(machine.itlb, pgs[itlb_pos])
    dtlb = machine.dtlb
    dtlb_feed = memo(
        ("dtlb", start, end, dtlb.set_mask, dtlb.assoc),
        lambda: _dedup_filter(
            trace.data_pages()[start:end][mem_idx], dtlb.set_mask, dtlb.assoc
        ),
    )
    res.dtlb_miss = _int64(_replay(dtlb, dtlb_feed))

    # ---- branches: direction predictor, RAS, BTB
    tg_r = trace.target[start:end]
    (
        n_branches, cond_idx, t_cond, pc_cond,
        cr_idx, cr_is_call, cr_push_l, unc_idx,
    ) = _branch_feed(trace, start, end, memo)

    pred_correct = _resolve_predictor(
        start, end, machine.predictor, pc_cond, t_cond, memo
    )

    ras = machine.ras
    depth, overflow_delta, ret_correct_l = ras_events(
        cr_push_l, int(ras.state[0]), ras.entries
    )
    ras.state[0] = depth
    ras.state[1] += overflow_delta
    call_idx = cr_idx[cr_is_call]
    ret_idx = cr_idx[~cr_is_call]
    ret_correct = _int64(ret_correct_l) != 0

    taken_sel = pred_correct & (t_cond != 0)
    cond_btb_idx = cond_idx[taken_sel]
    bcorrect_full = _btb_resolve(
        machine, n, pc_r, tg_r, cond_btb_idx, call_idx, unc_idx
    )
    cond_correct = pred_correct.copy()
    cond_correct[taken_sel] = bcorrect_full[cond_btb_idx]

    # Every instruction has one branch kind, so the four sets are
    # disjoint and their union counts each redirect once.
    res.redir_pos = np.sort(np.concatenate([
        cond_idx[~cond_correct],
        call_idx[~bcorrect_full[call_idx]],
        ret_idx[~ret_correct],
        unc_idx[~bcorrect_full[unc_idx]],
    ]))
    res.n_branches = n_branches
    res.n_redir = len(res.redir_pos)
    return res


#: Phase-ledger names of a plan's segments: a gap warms; a call warms
#: up in detail (W), then measures (U).
_GAP, _WARM, _MEASURE = "warming", "warm_detailed", "detailed"


def _segments(plan):
    """A plan's segment edges (trace positions) and kinds."""
    edges = [plan[0][0]]
    kinds = []
    for item in plan:
        edges.extend(item[1:])
        kinds.extend((_GAP,) if len(item) == 2 else (_WARM, _MEASURE))
    return edges, kinds


def _charge(structure, accesses: int, misses: int) -> None:
    structure.stats[STAT_HITS] += accesses - misses
    structure.stats[STAT_MISSES] += misses


def resolve_region(machine, trace, plan, count_trivial: bool = False):
    """Phase 1 for a plan: one structure pass, its counters and events.

    ``plan`` is a contiguous list of functional-warming gaps
    ``(start, end)`` and detailed calls ``(start, measure_from, end)``.
    The structure pass covers all of it, resetting fetch at each
    item's start as the per-call loop does.  The cache, TLB and memory
    statistics are then charged for the calls' positions only (warming
    counts none of them), ``counts`` records every per-segment event
    count the gap and call statistics need, and the sparse event union
    for the timing loop is built -- but no latency is applied, so the
    resolution is valid for every latency configuration sharing this
    geometry.
    """
    start, end = plan[0][0], plan[-1][-1]
    resets = None
    if len(plan) > 1:
        resets = _int64([item[0] - start for item in plan[1:] if item[0] < end])
    res = resolve_structures(machine, trace, start, end, resets)
    fetch_idx = res.fetch_idx
    mem_idx = res.mem_idx

    # ---- per-segment event counts, from sorted position sets (named
    # after the ``SimulationStats`` fields they fill)
    il1_miss_pos = fetch_idx[res.il1_miss]
    dl1_miss_pos = mem_idx[res.dl1_miss]
    positions = {
        "branches": np.flatnonzero(trace.branch_kinds()[start:end]),
        "mispredictions": res.redir_pos,
        "loads": mem_idx[res.is_load],
        "il1_accesses": fetch_idx,
        "il1_misses": np.sort(il1_miss_pos),
        "dl1_accesses": mem_idx,
        "dl1_misses": np.sort(dl1_miss_pos),
        "l2_misses": np.sort(np.concatenate([
            il1_miss_pos[res.il1_l2miss], dl1_miss_pos[res.dl1_l2miss],
        ])),
        "itlb_accesses": fetch_idx[res.itlb_pos],
        "itlb_misses": fetch_idx[res.itlb_pos[np.sort(res.itlb_miss)]],
        "dtlb_misses": mem_idx[np.sort(res.dtlb_miss)],
    }
    if count_trivial:
        op_r = trace.op[start:end]
        positions["trivial_simplified"] = np.flatnonzero(
            (trace.trivial_bits()[start:end] != 0) & (op_r != 6) & (op_r != 7)
        )
    edges, kinds = _segments(plan)
    rel = _int64(edges) - start
    res.counts = {
        name: np.diff(np.searchsorted(pos, rel)).tolist()
        for name, pos in positions.items()
    }

    # ---- statistics for the calls' positions (the serial prefetch walk
    # counted its caches inside ``access``; its plans have no gaps)
    charged = {
        name: sum(c for c, kind in zip(counts, kinds) if kind != _GAP)
        for name, counts in res.counts.items()
    }
    if not machine.enhancements.next_line_prefetch:
        _charge(machine.il1, charged["il1_accesses"], charged["il1_misses"])
        _charge(machine.dl1, charged["dl1_accesses"], charged["dl1_misses"])
        _charge(
            machine.l2, charged["il1_misses"] + charged["dl1_misses"],
            charged["l2_misses"],
        )
        machine.memory.stats[0] += charged["l2_misses"]
    _charge(machine.itlb, charged["itlb_accesses"], charged["itlb_misses"])
    _charge(machine.dtlb, charged["dl1_accesses"], charged["dtlb_misses"])

    # ---- fetch-stall event positions (il1 miss fill + ITLB walk).
    # Every stall contribution is strictly positive (validated
    # latencies), so the *set* of stalling fetch events is latency-
    # independent: il1 misses unioned with ITLB walks.
    stall_sel = np.zeros(len(fetch_idx), dtype=bool)
    stall_sel[res.il1_miss] = True
    stall_sel[res.itlb_pos[res.itlb_miss]] = True
    stall_ev = np.flatnonzero(stall_sel)
    res.stall_ev = stall_ev
    stall_pos = fetch_idx[stall_ev]

    # ---- merged sparse events for the segmented timing loop: one
    # entry per instruction that stalls fetch and/or redirects it.
    # Redirects are scattered straight into a full-length flag array
    # (no sort needed); the union with the sorted stall positions
    # falls out of a flatnonzero over the two scatter arrays.  The
    # union is shared by every config; only the stall *values* are
    # per-config, so ``stall_slot`` records where the stall events
    # land inside the union for the assembly scatter.
    redir_full = np.zeros(res.n, dtype=np.int64)
    redir_full[res.redir_pos] = 1
    stall_flag = np.zeros(res.n, dtype=np.int64)
    stall_flag[stall_pos] = 1
    res.ev_pos = np.flatnonzero(stall_flag | redir_full)
    res.ev_redir = redir_full[res.ev_pos]
    res.stall_slot = np.searchsorted(res.ev_pos, stall_pos)
    return res


def assemble_timing_tables(res: RegionResolution, lat: LatencyTable):
    """Every config's timing feed as int64 matrices, vectorized.

    Applies each config's latencies to the resolution's miss sets:
    memory completion latencies per mem event, write-buffer drains per
    store, and the per-event stall magnitudes over the shared event
    union.  Every latency application runs as one 2-D operation over
    the latency table's leading ``n_configs`` axis.  Returns ``(ml,
    drain, ev_stall)`` matrices whose row ``i`` is config ``i``'s feed.
    """
    k = lat.n_configs
    n_mem = res.n_mem
    dtlb_extra = np.zeros((k, n_mem), dtype=np.int64)
    dtlb_extra[:, res.dtlb_miss] = lat.dtlb_miss[:, None]
    dl1_lat = np.broadcast_to(lat.dl1_hit[:, None], (k, n_mem)).copy()
    if len(res.dl1_miss):
        dl1_lat[:, res.dl1_miss] += (
            lat.l2_hit[:, None] + res.dl1_l2miss[None, :] * lat.l2_fill[:, None]
        )
    ml = np.where(res.is_load[None, :], dl1_lat + dtlb_extra, 1 + dtlb_extra)
    # Write-buffer drain times are consumed by stores only, so the
    # timing loop walks a store-only iterator instead of indexing a
    # list parallel to every memory event.
    drain = dl1_lat[:, ~res.is_load]
    fetch_stall = np.zeros((k, len(res.fetch_idx)), dtype=np.int64)
    fetch_stall[:, res.il1_miss] = (
        lat.l2_hit[:, None] + res.il1_l2miss[None, :] * lat.l2_fill[:, None]
    )
    if len(res.itlb_miss):
        fetch_stall[:, res.itlb_pos[res.itlb_miss]] += lat.itlb_miss[:, None]
    ev_stall = np.zeros((k, len(res.ev_pos)), dtype=np.int64)
    ev_stall[:, res.stall_slot] = fetch_stall[:, res.stall_ev]
    return ml, drain, ev_stall


def _time_window(a, b, res, store_pos, feeds, states) -> None:
    """Phase 2 over the pass positions ``[a, b)``: every config's
    specialized timing loop, continuing its own timing state."""
    m0, m1 = np.searchsorted(res.mem_idx, (a, b)).tolist()
    s0, s1 = np.searchsorted(store_pos, (a, b)).tolist()
    e0, e1 = np.searchsorted(res.ev_pos, (a, b)).tolist()
    ev_pos_l = (res.ev_pos[e0:e1] - a).tolist()
    ev_redir_l = res.ev_redir[e0:e1].tolist()
    for (run_timing, rows, shift, ml, drain, ev_stall), state in zip(
        feeds, states
    ):
        (
            state.fc,
            state.fetch_count,
            state.dc,
            state.dcount,
            state.cc,
            state.ccount,
        ) = run_timing(
            rows[shift + a:shift + b],
            ml[m0:m1].tolist(),
            drain[s0:s1].tolist(),
            ev_pos_l,
            ev_stall[e0:e1].tolist(),
            ev_redir_l,
            state.reg_ready,
            state.rob_ring,
            state.lsq_ring,
            state.wb_ring,
            state.ifq_ring,
            state.pools,
            state.fc,
            state.fetch_count,
            state.dc,
            state.dcount,
            state.cc,
            state.ccount,
            state.instr_index,
            state.mem_index,
            state.store_index,
        )
        state.instr_index += b - a
        state.mem_index += m1 - m0
        state.store_index += s1 - s0


def detail_regions(machine, trace, plan, batch):
    """Run a plan's gaps and detailed calls in one structural pass.

    Phase 1 resolves the whole plan once (:func:`resolve_region`).
    Phase 2 runs each config's specialized timing loop over every
    call's detailed warm-up W and measured part U, from a fresh timing
    state per call, over slices of the pass-wide feeds.  ``batch`` is
    a list of ``(config, enhancements)`` pairs sharing ``machine``'s
    geometry.  Returns, per plan item, a gap's ``WarmingStats`` or a
    call's per-config ``SimulationStats`` -- bit-identical to the
    python backend's per-call loop.

    The phase ledger gets that loop's instruction totals.  Each timing
    window is measured under its own phase; the resolve is measured
    under the phase covering most of the pass (``warming`` for a
    sampled pass, the measured part for a single call).  Under
    next-line prefetch a gap would train the L2 differently from
    warming, so the backend runs plans with gaps per call instead.
    """
    from repro.cpu.functional import WarmingStats
    from repro.cpu.pipeline import _TimingState

    start, end = plan[0][0], plan[-1][-1]
    edges, kinds = _segments(plan)
    covered = {}  # phase -> positions, for every phase the loop records
    for seg, kind in enumerate(kinds):
        length = edges[seg + 1] - edges[seg]
        if kind == _GAP or length:
            covered[kind] = covered.get(kind, 0) + length
    resolve_phase = max(covered, key=covered.get, default=None)
    backend = machine.backend.name
    with (
        obs_phases.measured(
            resolve_phase,
            instructions=covered[_GAP] if resolve_phase == _GAP else 0,
            backend=backend,
        ) if resolve_phase else nullcontext()
    ):
        res = resolve_region(
            machine, trace, plan,
            count_trivial=any(e.trivial_computation for _, e in batch),
        )
        ml, drain, ev_stall = assemble_timing_tables(
            res, LatencyTable([config for config, _ in batch])
        )
        # Compile every member's loop up front (cached per timing
        # signature): a codegen failure then surfaces before any
        # per-config state has advanced, leaving the batch retryable.
        feeds = []
        for (config, enh), ml_row, drain_row, stall_row in zip(
            batch, ml, drain, ev_stall
        ):
            merge = config.int_alu_lat == 1
            if len(plan) == 1:  # memoized per region, like its resolve
                rows = trace.timing_lists(
                    enh.trivial_computation, start, end, merge_ctrl=merge
                )
                shift = 0
            else:  # slices of the cached full-trace rows
                rows = trace.timing_lists(
                    enh.trivial_computation, merge_ctrl=merge
                )
                shift = start
            feeds.append((
                timing_loop_for(config), rows, shift, ml_row, drain_row,
                stall_row,
            ))
    if _GAP in covered and resolve_phase != _GAP:
        obs_phases.record(_GAP, 0.0, covered[_GAP])

    k = len(batch)
    nlp = machine.enhancements.next_line_prefetch
    store_pos = res.mem_idx[~res.is_load]
    outcomes = []
    for seg, kind in enumerate(kinds):
        a, b = edges[seg] - start, edges[seg + 1] - start
        counts = {name: values[seg] for name, values in res.counts.items()}
        stores = counts["dl1_accesses"] - counts["loads"]
        if kind == _GAP:
            outcomes.append(WarmingStats(
                instructions=b - a,
                branches=counts["branches"],
                mispredictions=counts["mispredictions"],
                loads=counts["loads"],
                stores=stores,
            ))
            continue
        if kind == _WARM:
            states = [_TimingState(machine, config=c) for c, _ in batch]
        if b > a:
            with obs_phases.measured(
                kind, instructions=(b - a) * k, backend=backend, configs=k
            ), (
                obs_phases.measured(
                    "timing_batch", instructions=(b - a) * k, configs=k
                ) if k > 1 else nullcontext()
            ):
                _time_window(a, b, res, store_pos, feeds, states)
        if kind == _WARM:
            warm_cycles = [state.cc for state in states]
            continue
        trivial = counts.pop("trivial_simplified", 0)
        del counts["itlb_accesses"]
        outcomes.append([
            SimulationStats(
                instructions=b - a,
                cycles=max(1, state.cc - cycles),
                stores=stores,
                l2_accesses=counts["il1_misses"] + counts["dl1_misses"],
                trivial_simplified=trivial if enh.trivial_computation else 0,
                prefetches=counts["dl1_misses"] if nlp else 0,
                **counts,
            )
            for (_, enh), state, cycles in zip(batch, states, warm_cycles)
        ])
    return outcomes


def _caches_serial(il1_fn, dl1_fn, pc_r, addr_r, fetch_idx, mem_idx):
    """Reference-order cache walk (next-line prefetch enabled).

    Prefetching couples the dl1 with the L2 outside the per-structure
    event streams (a dl1 miss also warms ``block + 1`` through the
    shared L2), so the per-structure replay is no longer valid; fall
    back to walking the merged fetch/memory event stream through the
    per-access callables (``access`` for detailed runs, ``warm`` for
    warming).  Returns their per-event return values, from which the
    detailed path reads the same miss sets the replay records.  Still
    much faster than the reference loop: only events are visited, not
    every instruction.
    """
    f_l = fetch_idx.tolist()
    m_l = mem_idx.tolist()
    pc_ev = pc_r[fetch_idx].tolist()
    addr_ev = addr_r[mem_idx].tolist()
    nf = len(f_l)
    nm = len(m_l)
    il1_out = [0] * nf
    dl1_out = [0] * nm
    fpos = 0
    mpos = 0
    next_f = f_l[0] if nf else _INF
    next_m = m_l[0] if nm else _INF
    while fpos < nf or mpos < nm:
        if next_f <= next_m:  # fetch precedes execute at the same index
            il1_out[fpos] = il1_fn(pc_ev[fpos])
            fpos += 1
            next_f = f_l[fpos] if fpos < nf else _INF
        else:
            dl1_out[mpos] = dl1_fn(addr_ev[mpos])
            mpos += 1
            next_m = m_l[mpos] if mpos < nm else _INF
    return il1_out, dl1_out


def run_warming(machine, trace, start, end):
    """Vectorized functional warming over ``trace[start:end)``.

    The structure pass with its counters discarded: it starts from the
    reference loop's per-call "no previous block" state and leaves the
    cache, TLB and memory statistics untouched (BTB statistics are
    counted, as in the reference loop).
    """
    from repro.cpu.functional import WarmingStats

    n = end - start
    if n <= 0:
        return WarmingStats(instructions=max(0, n))
    res = resolve_structures(machine, trace, start, end, warm=True)
    return WarmingStats(
        instructions=n,
        branches=res.n_branches,
        mispredictions=res.n_redir,
        loads=res.n_loads,
        stores=res.n_mem - res.n_loads,
    )
