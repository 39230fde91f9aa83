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

:func:`resolve_structures` is the only code that trains the
structures.  Detailed runs (:func:`resolve_region`) add the cache, TLB
and memory statistics and the timing loop's event union on top of it;
functional warming (:func:`run_warming`) is the same pass with those
counters discarded.
"""

from __future__ import annotations

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
    timing_loops_for,
)
from repro.cpu.kernels.state import LatencyTable
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


def _mem_feed(trace, start, end):
    """Memoized memory-op index artifacts for one region."""
    def build():
        op_r = trace.op[start:end]
        mem_mask = (op_r == 6) | (op_r == 7)
        mem_idx = np.flatnonzero(mem_mask)
        is_load = op_r[mem_idx] == 6
        return mem_mask, mem_idx, is_load, int(np.count_nonzero(is_load))

    return trace.region_memo(("mem", start, end), build)


def _cache_feed(trace, tag, start, end, blocks_fn, set_mask, assoc):
    """Memoized dedup feed for one structure stream over one region."""
    return trace.region_memo(
        (tag, start, end, set_mask, assoc),
        lambda: _dedup_filter(blocks_fn(), set_mask, assoc),
    )


def _branch_feed(trace, start, end):
    """Memoized branch index sets for one region."""
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

    return trace.region_memo(("branch", start, end), build)


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


def _resolve_predictor(trace, start, end, predictor, pc_cond, t_cond):
    """Direction-predictor correctness per conditional branch.

    The global history register is trace-determined, so the gshare
    index of every event is precomputed vectorized: history before
    event ``j`` is the previous ``W`` taken bits (plus the incoming
    register shifted in for the first ``W`` events).  The whole index
    feed is pure given the entry history, so it is memoized per
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

    taken_l, base_l, gs_l, h_final = trace.region_memo(
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
    """Latency-independent outcomes of one resolved region.

    Everything a config needs that is *not* a latency: sparse miss
    index sets with per-miss L2-missness flags, the redirect positions,
    the shared sparse event union for the segmented timing loop, and
    the event counts.  One resolution serves any number of latency
    configs -- the structures were advanced while producing it, and no
    field depends on a latency parameter (the serial prefetch path is
    the one exception; it bakes its single config's latencies into
    ``stall_cache``/``dl1_lat_ev`` and is never used for batches).
    """

    __slots__ = (
        "n", "n_mem", "n_loads", "n_branches", "n_redir", "n_trivial",
        "fetch_idx", "il1_miss", "il1_l2miss", "itlb_pos", "itlb_miss",
        "is_load", "dl1_miss", "dl1_l2miss", "dtlb_miss", "redir_pos",
        "stall_cache", "dl1_lat_ev", "stall_ev", "stall_slot",
        "ev_pos_l", "ev_redir", "last_fetch_block", "last_fetch_page",
    )


def resolve_structures(
    machine, trace, start, end,
    last_fetch_block: int, last_fetch_page: int,
    warm: bool = False,
) -> RegionResolution:
    """Train every structure over ``trace[start:end)``; record outcomes.

    The one structure pass of this backend, shared by detailed runs
    (:func:`resolve_region`) and functional warming
    (:func:`run_warming`).  Caches, TLBs, predictor, BTB and RAS are
    advanced and the returned resolution records which accesses missed
    and which branches redirect fetch.  Only BTB statistics are
    counted here (both modes count them); the cache, TLB and memory
    counters are the detailed path's.  ``warm`` selects the caches'
    state-only ``warm`` methods on the serial prefetch path, whose
    latencies are then not captured.
    """
    il1 = machine.il1
    dl1 = machine.dl1
    l2 = machine.l2
    n = end - start

    res = RegionResolution()
    res.n = n
    res.stall_cache = None
    res.dl1_lat_ev = None

    pc_r = trace.pc[start:end]
    addr_r = trace.addr[start:end]
    _mem_mask, mem_idx, is_load, n_loads = _mem_feed(trace, start, end)
    res.n_mem = len(mem_idx)
    res.n_loads = n_loads
    res.is_load = is_load

    # ---- fetch events (I-cache block changes; page changes within them)
    fb = trace.fetch_blocks(il1.block_shift)[start:end]
    pg = trace.pages()[start:end]
    fetch_idx = trace.region_memo(
        ("fetch", start, end, il1.block_shift),
        lambda: np.flatnonzero(_change_mask(fb, -1)),
    )
    # The memoized index set assumes the first instruction starts a new
    # fetch block (always true from reset); on a warm machine whose
    # last block matches, drop that leading event.
    first_in = int(fb[0]) != last_fetch_block
    if not first_in:
        fetch_idx = fetch_idx[1:]
    pgs = pg[fetch_idx]
    itlb_pos = np.flatnonzero(_change_mask(pgs, last_fetch_page))
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
            res.stall_cache = _int64(il1_lat) - il1.hit_latency
            res.dl1_lat_ev = _int64(dl1_lat)
    else:
        il1_feed = trace.region_memo(
            ("il1", start, end, il1.block_shift, il1.set_mask, il1.assoc, first_in),
            lambda: _dedup_filter(fb[fetch_idx], il1.set_mask, il1.assoc),
        )
        il1_miss = _int64(_replay(il1, il1_feed))
        dl1_feed = _cache_feed(
            trace, "dl1", start, end,
            lambda: trace.data_blocks(dl1.block_shift)[start:end][mem_idx],
            dl1.set_mask, dl1.assoc,
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
    dtlb_feed = _cache_feed(
        trace, "dtlb", start, end,
        lambda: trace.data_pages()[start:end][mem_idx],
        machine.dtlb.set_mask, machine.dtlb.assoc,
    )
    res.dtlb_miss = _int64(_replay(machine.dtlb, dtlb_feed))

    # ---- branches: direction predictor, RAS, BTB
    tg_r = trace.target[start:end]
    (
        n_branches, cond_idx, t_cond, pc_cond,
        cr_idx, cr_is_call, cr_push_l, unc_idx,
    ) = _branch_feed(trace, start, end)

    pred_correct = _resolve_predictor(
        trace, start, end, machine.predictor, pc_cond, t_cond
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
    res.redir_pos = np.concatenate([
        cond_idx[~cond_correct],
        call_idx[~bcorrect_full[call_idx]],
        ret_idx[~ret_correct],
        unc_idx[~bcorrect_full[unc_idx]],
    ])
    res.n_branches = n_branches
    res.n_redir = len(res.redir_pos)
    if len(fetch_idx):
        res.last_fetch_block = int(fb[-1])
        res.last_fetch_page = int(pgs[-1])
    else:
        res.last_fetch_block = None
        res.last_fetch_page = None
    return res


def resolve_region(
    machine, trace, start, end,
    last_fetch_block: int, last_fetch_page: int,
    count_trivial: bool = False,
) -> RegionResolution:
    """Advance the structures over ``trace[start:end)``; resolve events.

    This is phase 1 of the split: the structure pass, then the cache,
    TLB and memory statistics it implies, then the sparse event union
    the timing loop walks -- but no latency is applied.  Because the
    model feeds no timing back into the structures, the same
    resolution is valid for *every* latency configuration sharing this
    geometry.
    """
    res = resolve_structures(
        machine, trace, start, end, last_fetch_block, last_fetch_page
    )
    n_mem = res.n_mem
    fetch_idx = res.fetch_idx
    n_fetch = len(fetch_idx)
    itlb = machine.itlb
    dtlb = machine.dtlb

    # ---- statistics (the serial prefetch path counted its caches
    # inside ``access``)
    if res.il1_miss is not None:
        il1_stats = machine.il1.stats
        dl1_stats = machine.dl1.stats
        l2 = machine.l2
        n_il1_miss = len(res.il1_miss)
        n_dl1_miss = len(res.dl1_miss)
        n_l2_miss = int(res.il1_l2miss.sum() + res.dl1_l2miss.sum())
        il1_stats[STAT_HITS] += n_fetch - n_il1_miss
        il1_stats[STAT_MISSES] += n_il1_miss
        dl1_stats[STAT_HITS] += n_mem - n_dl1_miss
        dl1_stats[STAT_MISSES] += n_dl1_miss
        l2.stats[STAT_HITS] += n_il1_miss + n_dl1_miss - n_l2_miss
        l2.stats[STAT_MISSES] += n_l2_miss
        l2.memory.stats[0] += n_l2_miss
    itlb_pos = res.itlb_pos
    itlb_miss = res.itlb_miss
    itlb.stats[STAT_HITS] += len(itlb_pos) - len(itlb_miss)
    itlb.stats[STAT_MISSES] += len(itlb_miss)
    dtlb.stats[STAT_HITS] += n_mem - len(res.dtlb_miss)
    dtlb.stats[STAT_MISSES] += len(res.dtlb_miss)

    # ---- fetch-stall event positions (il1 miss fill + ITLB walk).
    # Every stall contribution is strictly positive (validated
    # latencies), so the *set* of stalling fetch events is latency-
    # independent: il1 misses unioned with ITLB walks.  The serial
    # prefetch path has its single config's values in hand and scans
    # them directly.
    if res.stall_cache is not None:
        if len(itlb_miss):
            res.stall_cache[itlb_pos[itlb_miss]] += itlb.miss_latency
        stall_ev = np.flatnonzero(res.stall_cache)
    else:
        stall_sel = np.zeros(n_fetch, dtype=bool)
        stall_sel[res.il1_miss] = True
        stall_sel[itlb_pos[itlb_miss]] = True
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
    if len(stall_pos) or res.n_redir:
        redir_full = np.zeros(res.n, dtype=np.int64)
        redir_full[res.redir_pos] = 1
        stall_flag = np.zeros(res.n, dtype=np.int64)
        stall_flag[stall_pos] = 1
        ev_pos = np.flatnonzero(stall_flag | redir_full)
        res.ev_pos_l = ev_pos.tolist()
        res.ev_redir = redir_full[ev_pos].tolist()
        res.stall_slot = np.searchsorted(ev_pos, stall_pos)
    else:
        res.ev_pos_l = []
        res.ev_redir = []
        res.stall_slot = np.empty(0, dtype=np.int64)

    res.n_trivial = 0
    if count_trivial:
        mem_mask = _mem_feed(trace, start, end)[0]
        tv = trace.trivial_bits()[start:end]
        res.n_trivial = int(np.count_nonzero((tv != 0) & ~mem_mask))
    return res


def assemble_timing_feed(machine, res: RegionResolution):
    """One config's timing feed from a resolved region (the N=1 case).

    Applies ``machine``'s own latencies to the resolution's miss sets:
    memory completion latencies per mem event, write-buffer drains per
    store, and the per-event stall magnitudes over the shared event
    union.  Returns ``(ml_l, drain_l, ev_stall)`` ready for the timing
    loop.
    """
    dtlb_extra = np.zeros(res.n_mem, dtype=np.int64)
    dtlb_extra[res.dtlb_miss] = machine.dtlb.miss_latency
    if res.dl1_lat_ev is not None:  # serial (prefetch) resolve
        dl1_lat_ev = res.dl1_lat_ev
        l2_hit = l2_fill = 0  # already folded into the serial values
    else:
        l2 = machine.l2
        l2_hit = l2.hit_latency
        l2_fill = l2.memory.fill_latency(l2.block_bytes)
        dl1_lat_ev = np.full(res.n_mem, machine.dl1.hit_latency, dtype=np.int64)
        if len(res.dl1_miss):
            dl1_lat_ev[res.dl1_miss] += l2_hit + res.dl1_l2miss * l2_fill
    ml = np.where(res.is_load, dl1_lat_ev + dtlb_extra, 1 + dtlb_extra)
    # Write-buffer drain times are consumed by stores only, so the
    # timing loop walks a store-only iterator instead of indexing a
    # list parallel to every memory event.
    drain = dl1_lat_ev[~res.is_load]
    if res.ev_pos_l:
        if res.stall_cache is not None:
            stall_cache = res.stall_cache
        else:
            stall_cache = np.zeros(len(res.fetch_idx), dtype=np.int64)
            stall_cache[res.il1_miss] = l2_hit + res.il1_l2miss * l2_fill
            if len(res.itlb_miss):
                stall_cache[res.itlb_pos[res.itlb_miss]] += (
                    machine.itlb.miss_latency
                )
        ev_stall_arr = np.zeros(len(res.ev_pos_l), dtype=np.int64)
        ev_stall_arr[res.stall_slot] = stall_cache[res.stall_ev]
        ev_stall = ev_stall_arr.tolist()
    else:
        ev_stall = []
    return ml.tolist(), drain.tolist(), ev_stall


def assemble_timing_tables(res: RegionResolution, lat: LatencyTable):
    """All configs' timing feeds as int64 matrices, vectorized.

    The batched counterpart of :func:`assemble_timing_feed`: every
    latency application runs as one 2-D operation over the latency
    table's leading ``n_configs`` axis.  Returns ``(ml, drain,
    ev_stall)`` matrices whose row ``i`` is bit-identical to config
    ``i``'s single-config feed.
    """
    k = lat.n_configs
    n_mem = res.n_mem
    dtlb_extra = np.zeros((k, n_mem), dtype=np.int64)
    dtlb_extra[:, res.dtlb_miss] = lat.dtlb_miss[:, None]
    dl1_lat_ev = np.broadcast_to(lat.dl1_hit[:, None], (k, n_mem)).copy()
    if len(res.dl1_miss):
        dl1_lat_ev[:, res.dl1_miss] += (
            lat.l2_hit[:, None] + res.dl1_l2miss[None, :] * lat.l2_fill[:, None]
        )
    ml = np.where(res.is_load[None, :], dl1_lat_ev + dtlb_extra, 1 + dtlb_extra)
    drain = dl1_lat_ev[:, ~res.is_load]
    if res.ev_pos_l:
        stall_cache = np.zeros((k, len(res.fetch_idx)), dtype=np.int64)
        stall_cache[:, res.il1_miss] = (
            lat.l2_hit[:, None] + res.il1_l2miss[None, :] * lat.l2_fill[:, None]
        )
        if len(res.itlb_miss):
            stall_cache[:, res.itlb_pos[res.itlb_miss]] += (
                lat.itlb_miss[:, None]
            )
        ev_stall = np.zeros((k, len(res.ev_pos_l)), dtype=np.int64)
        ev_stall[:, res.stall_slot] = stall_cache[:, res.stall_ev]
    else:
        ev_stall = np.zeros((k, 0), dtype=np.int64)
    return ml, drain, ev_stall


def _run_timing_phase(
    cfg, trace, start, end, tc_enabled, res, ml_l, drain_l, ev_stall, state,
    run_timing=None,
) -> None:
    """Phase 2: one config's specialized timing loop + counter updates."""
    instr_l = trace.timing_lists(
        tc_enabled, start, end, merge_ctrl=cfg.int_alu_lat == 1
    )
    if run_timing is None:
        run_timing = timing_loop_for(cfg)
    (
        state.fc,
        state.fetch_count,
        state.dc,
        state.dcount,
        state.cc,
        state.ccount,
    ) = run_timing(
        instr_l,
        ml_l,
        drain_l,
        res.ev_pos_l,
        ev_stall,
        res.ev_redir,
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
    state.instr_index += res.n
    state.mem_index += res.n_mem
    state.store_index += res.n_mem - res.n_loads
    state.branches += res.n_branches
    state.mispredictions += res.n_redir
    state.loads += res.n_loads
    state.stores += res.n_mem - res.n_loads
    if tc_enabled:
        state.trivial_simplified += res.n_trivial
    if res.last_fetch_block is not None:
        state.last_fetch_block = res.last_fetch_block
        state.last_fetch_page = res.last_fetch_page


def advance_detailed(machine, trace, start, end, state) -> None:
    """Advance the detailed model over ``trace[start:end)`` (split-phase)."""
    if end - start <= 0:
        return
    tc_enabled = machine.enhancements.trivial_computation
    res = resolve_region(
        machine, trace, start, end,
        state.last_fetch_block, state.last_fetch_page,
        count_trivial=tc_enabled,
    )
    ml_l, drain_l, ev_stall = assemble_timing_feed(machine, res)
    _run_timing_phase(
        machine.config, trace, start, end, tc_enabled,
        res, ml_l, drain_l, ev_stall, state,
    )


def advance_detailed_batch(machine, trace, start, end, batch, states) -> None:
    """Advance N latency configs over ``trace[start:end)`` in one pass.

    ``machine`` carries the *shared* structures -- every entry of
    ``batch`` (a list of ``(config, enhancements)`` pairs) builds the
    same geometry, so one resolve pass advances them for all.  The
    assembly broadcasts the resolution across the latency table's
    leading ``n_configs`` axis, and each config then runs its own
    specialized timing loop over its private state in ``states``.
    Per config, the result is bit-identical to N independent
    :func:`advance_detailed` calls.
    """
    if end - start <= 0:
        return
    if machine.enhancements.next_line_prefetch:
        raise ValueError(
            "config batching requires per-structure event streams; "
            "next-line prefetch resolves serially (callers fall back "
            "to per-config runs)"
        )
    lead = states[0]
    res = resolve_region(
        machine, trace, start, end,
        lead.last_fetch_block, lead.last_fetch_page,
        count_trivial=any(e.trivial_computation for _, e in batch),
    )
    lat = LatencyTable([config for config, _ in batch])
    ml, drain, ev_stall_table = assemble_timing_tables(res, lat)
    # Compile every member's loop up front (deduplicated): a codegen
    # failure then surfaces before any per-config state has advanced,
    # leaving the whole batch cleanly retryable.
    loops = timing_loops_for([config for config, _ in batch])
    with obs_phases.measured(
        "timing_batch", instructions=res.n * len(batch),
        configs=len(batch),
    ):
        for (config, enhancements), state, ml_l, drain_l, ev_stall, run_timing in zip(
            batch, states, ml.tolist(), drain.tolist(), ev_stall_table.tolist(),
            loops,
        ):
            _run_timing_phase(
                config, trace, start, end, enhancements.trivial_computation,
                res, ml_l, drain_l, ev_stall, state, run_timing,
            )


def _caches_serial(il1_fn, dl1_fn, pc_r, addr_r, fetch_idx, mem_idx):
    """Reference-order cache walk (next-line prefetch enabled).

    Prefetching couples the dl1 with the L2 outside the per-structure
    event streams (a dl1 miss also warms ``block + 1`` through the
    shared L2), so the per-structure replay is no longer valid; fall
    back to walking the merged fetch/memory event stream through the
    per-access callables (``access`` for detailed runs, ``warm`` for
    warming).  Returns their per-event return values.  Still much
    faster than the reference loop: only events are visited, not
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
    res = resolve_structures(machine, trace, start, end, -1, -1, warm=True)
    return WarmingStats(
        instructions=n,
        branches=res.n_branches,
        mispredictions=res.n_redir,
        loads=res.n_loads,
        stores=res.n_mem - res.n_loads,
    )
