"""Specialized inner loops for the ``numpy`` backend.

The split-phase detailed model spends its time in two places: LRU
updates over pre-filtered event streams, and the lean per-instruction
timing loop.  Both are generated with ``exec`` so that structure
geometry (associativity) and processor configuration (widths, queue
sizes, latencies) become compile-time literals: the interpreter then
runs straight-line unrolled code with no attribute lookups, no generic
``range`` scans over ways, and no validity branches.

Generated functions are cached -- one per associativity for the
set-grouped LRU loop and the BTB loop, one per configuration signature
for the timing loop -- so a parameter sweep compiles each shape once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

_LRU_GROUPED_CACHE: Dict[int, Callable] = {}
_BTB_CACHE: Dict[int, Callable] = {}
_TIMING_CACHE: Dict[Tuple, Callable] = {}


# ---------------------------------------------------------------------------
# Set-grouped LRU loop
# ---------------------------------------------------------------------------

def _lru_grouped_source(assoc: int) -> str:
    """Source of a set-grouped LRU loop holding one set's tags in locals.

    The caller feeds events *sorted by set* (``bases``/``blocks``/
    ``pos`` parallel lists, where ``pos`` is each event's original
    stream position).  Within a set's run of events the tags live in
    scalar locals, so a hit costs compares and local moves instead of
    flat-list reads and writes; tags are spilled back to the flat list
    only at group boundaries.  Returns the original-stream positions
    of the misses (in set-grouped order -- callers use them as an
    index set, never as an ordered stream).
    """
    lines: List[str] = [
        "def lru_grouped(bases, blocks, pos, tags):",
        "    miss = []",
        "    madd = miss.append",
        "    cur = -1",
        "    for base, blk, p in zip(bases, blocks, pos):",
        "        if base != cur:",
        "            if cur >= 0:",
    ]
    for way in range(assoc):
        lines.append(f"                tags[cur + {way}] = t{way}" if way else "                tags[cur] = t0")
    lines.append("            cur = base")
    for way in range(assoc):
        lines.append(f"            t{way} = tags[base + {way}]" if way else "            t0 = tags[base]")
    ind = "        "
    if assoc == 1:
        lines += [
            ind + "if t0 != blk:",
            ind + "    madd(p)",
            ind + "    t0 = blk",
        ]
    else:
        lines.append(ind + "if t0 != blk:")
        ind += "    "
        for way in range(1, assoc):
            lines.append(ind + f"if t{way} == blk:")
            for j in range(way, 0, -1):
                lines.append(ind + f"    t{j} = t{j - 1}")
            lines.append(ind + "    t0 = blk")
            lines.append(ind + "else:")
            ind += "    "
        lines.append(ind + "madd(p)")
        for j in range(assoc - 1, 0, -1):
            lines.append(ind + f"t{j} = t{j - 1}")
        lines.append(ind + "t0 = blk")
    lines.append("    if cur >= 0:")
    for way in range(assoc):
        lines.append(f"        tags[cur + {way}] = t{way}" if way else "        tags[cur] = t0")
    lines.append("    return miss")
    return "\n".join(lines)


def lru_grouped(assoc: int) -> Callable:
    """The set-grouped LRU event loop for ``assoc`` ways (cached)."""
    fn = _LRU_GROUPED_CACHE.get(assoc)
    if fn is None:
        namespace: dict = {}
        exec(_lru_grouped_source(assoc), namespace)
        fn = namespace["lru_grouped"]
        _LRU_GROUPED_CACHE[assoc] = fn
    return fn


# ---------------------------------------------------------------------------
# BTB event loop
# ---------------------------------------------------------------------------

def _btb_source(assoc: int) -> str:
    """Source of an unrolled BTB lookup/update loop.

    Unrolls :meth:`repro.cpu.branch.BranchTargetBuffer.lookup_update`
    over the same flat ``keys``/``targets`` lists the method updates:
    a way-0 hit updates the target in place (no reorder); deeper hits
    move the (retargeted) entry to the front; a miss inserts at the
    front, evicting the LRU way.  A wrong-target hit counts as a miss,
    so the miss/correct classifications coincide and the loop returns
    only the miss *positions*; callers derive hits as
    ``len(events) - len(misses)``.
    """
    lines: List[str] = [
        "def btb_events(bases, bkeys, btgts, keys, targets):",
        "    miss = []",
        "    madd = miss.append",
        "    i = 0",
        "    for base, key, tgt in zip(bases, bkeys, btgts):",
    ]
    ind = "        "
    lines.append(ind + "k0 = keys[base]")
    lines.append(ind + "if k0 == key:")
    lines += [
        ind + "    if targets[base] != tgt:",
        ind + "        targets[base] = tgt",
        ind + "        madd(i)",
    ]
    for way in range(1, assoc):
        lines.append(ind + "else:")
        ind += "    "
        lines.append(ind + f"k{way} = keys[base + {way}]")
        lines.append(ind + f"if k{way} == key:")
        body = ind + "    "
        lines.append(body + f"if targets[base + {way}] != tgt:")
        lines.append(body + "    madd(i)")
        for j in range(way, 0, -1):
            lines.append(body + f"keys[base + {j}] = k{j - 1}")
            lines.append(body + f"targets[base + {j}] = targets[base + {j - 1}]")
        lines.append(body + "keys[base] = key")
        lines.append(body + "targets[base] = tgt")
    lines.append(ind + "else:")
    body = ind + "    "
    lines.append(body + "madd(i)")
    for j in range(assoc - 1, 0, -1):
        lines.append(body + f"keys[base + {j}] = k{j - 1}")
        lines.append(body + f"targets[base + {j}] = targets[base + {j - 1}]")
    lines.append(body + "keys[base] = key")
    lines.append(body + "targets[base] = tgt")
    lines.append("        i += 1")
    lines.append("    return miss")
    return "\n".join(lines)


def btb_events(assoc: int) -> Callable:
    """The unrolled BTB event loop for ``assoc`` ways (cached)."""
    fn = _BTB_CACHE.get(assoc)
    if fn is None:
        namespace: dict = {}
        exec(_btb_source(assoc), namespace)
        fn = namespace["btb_events"]
        _BTB_CACHE[assoc] = fn
    return fn


# ---------------------------------------------------------------------------
# Predictor training loops (indices precomputed and vectorized)
# ---------------------------------------------------------------------------

def cond_counter_events(idx_l, taken_l, table) -> List[int]:
    """Train a 2-bit counter table over precomputed indices.

    Serves both bimodal (per-PC indices) and gshare (PC xor history
    indices, which the caller precomputes vectorized since the history
    sequence is trace-determined).  Returns the positions of the
    mispredicted events; most branches predict correctly, so appending
    only the wrong ones keeps the common path to a counter bump.
    """
    wrong: List[int] = []
    wadd = wrong.append
    i = 0
    for index, taken in zip(idx_l, taken_l):
        counter = table[index]
        if taken:
            if counter < 3:
                table[index] = counter + 1
            if counter < 2:
                wadd(i)
        else:
            if counter > 0:
                table[index] = counter - 1
            if counter >= 2:
                wadd(i)
        i += 1
    return wrong


def cond_combined_events(bi_l, gi_l, taken_l, bimodal, gshare, chooser) -> List[int]:
    """Train the combined predictor's tables; mispredict positions."""
    wrong: List[int] = []
    wadd = wrong.append
    i = 0
    for bi, gi, taken in zip(bi_l, gi_l, taken_l):
        b = bimodal[bi]
        g = gshare[gi]
        b_pred = b >= 2
        g_pred = g >= 2
        ch = chooser[bi]
        pred = g_pred if ch >= 2 else b_pred
        if taken:
            if b < 3:
                bimodal[bi] = b + 1
            if g < 3:
                gshare[gi] = g + 1
        else:
            if b > 0:
                bimodal[bi] = b - 1
            if g > 0:
                gshare[gi] = g - 1
        if b_pred != g_pred:
            if g_pred == taken:
                if ch < 3:
                    chooser[bi] = ch + 1
            elif ch > 0:
                chooser[bi] = ch - 1
        if pred != taken:
            wadd(i)
        i += 1
    return wrong


def ras_events(push_l, depth: int, entries: int) -> Tuple[int, int, List[int]]:
    """Replay call/return events against the depth-counter RAS.

    ``push_l`` holds one truthy entry per call and one falsy entry per
    return, in program order.  Returns the final depth, the overflow
    count, and a 0/1 correctness flag per *return* event.
    """
    out: List[int] = []
    oadd = out.append
    overflows = 0
    for is_push in push_l:
        if is_push:
            if depth >= entries:
                overflows += 1
            else:
                depth += 1
        elif depth > 0:
            depth -= 1
            oadd(1)
        else:
            oadd(0)
    return depth, overflows, out


# ---------------------------------------------------------------------------
# Config-specialized timing loop
# ---------------------------------------------------------------------------

def _scan_lines(names: List[str], occ: str) -> List[str]:
    """Issue against a pool of scalar locals kept sorted ascending.

    The reference model picks the earliest-free unit, issues at
    ``max(free, ready)`` and charges it ``occ`` cycles of occupancy.
    Only the *multiset* of free times affects any outcome (the issue
    time is always against the minimum), so the pool can be kept
    sorted: ``names[0]`` is the earliest-free unit, and the common
    case -- an idle pool, ``ready`` past every free time -- is a single
    comparison plus a shift instead of a full min-scan.
    """
    if len(names) == 1:
        only = names[0]
        return [
            f"issue = {only} if {only} > ready else ready",
            f"{only} = issue + {occ}",
        ]
    first, last = names[0], names[-1]
    lines = [f"if ready >= {last}:", "    issue = ready"]
    for a, b in zip(names, names[1:]):
        lines.append(f"    {a} = {b}")
    lines.append(f"    {last} = ready + {occ}")
    lines.append("else:")
    lines.append(f"    issue = {first} if {first} > ready else ready")
    lines.append(f"    v = issue + {occ}")
    body = "    "
    for j in range(1, len(names) - 1):
        lines.append(body + f"if v <= {names[j]}:")
        for k in range(j - 1):
            lines.append(body + f"    {names[k]} = {names[k + 1]}")
        lines.append(body + f"    {names[j - 1]} = v")
        lines.append(body + "else:")
        body += "    "
    lines.append(body + f"if v <= {last}:")
    for k in range(len(names) - 2):
        lines.append(body + f"    {names[k]} = {names[k + 1]}")
    lines.append(body + f"    {names[-2]} = v")
    lines.append(body + "else:")
    for k in range(len(names) - 1):
        lines.append(body + f"    {names[k]} = {names[k + 1]}")
    lines.append(body + f"    {last} = v")
    return lines


def _wrap_lines(slot: str, size: int) -> List[str]:
    """Ring-slot advance; a single masked add for power-of-two rings."""
    if size & (size - 1) == 0:
        return [f"{slot} = {slot} + 1 & {size - 1}"]
    return [f"{slot} += 1", f"if {slot} == {size}:", f"    {slot} = 0"]


def _tail_lines(kind: str, literals: dict, redirect: bool) -> List[str]:
    """Write-back / redirect / commit epilogue, specialized per op kind.

    Duplicating the epilogue into every dispatch arm removes the
    ``is_mem``/``store`` re-tests the reference loop performs per
    instruction.  ``redirect`` is only emitted in the slow body that
    handles sparse event instructions; the fast inter-event body skips
    the test entirely.  Bandwidth counters run as countdowns (``crem``
    = commit slots left in cycle ``cc``) so the common path tests
    truthiness instead of comparing against the width.
    """
    lines = ["reg_ready[dst] = complete"]
    if redirect:
        lines += [
            "if redir:",
            "    redirect = complete + {PEN}".format(**literals),
            "    if redirect > fc:",
            "        fc = redirect",
            "        frem = {FW}".format(**literals),
        ]
    lines += [
        "if complete <= cc:",
        "    if not crem:",
        "        cc += 1",
        "        crem = {CW}".format(**literals),
        "    c = cc",
        "    crem -= 1",
        "else:",
        "    cc = c = complete",
        "    crem = {CWm1}".format(**literals),
    ]
    if kind == "store":
        lines += [
            "limit = wb_ring[wb_slot]",
            "if limit > c:",
            "    c = limit",
            "    cc = c",
            "    crem = {CWm1}".format(**literals),
            "wb_ring[wb_slot] = c + drain",
        ] + _wrap_lines("wb_slot", literals["WB"])
    lines += ["rob_ring[rob_slot] = c"] + _wrap_lines("rob_slot", literals["ROB"])
    if kind in ("load", "store"):
        lines += ["lsq_ring[lsq_slot] = c"] + _wrap_lines("lsq_slot", literals["LSQ"])
    return lines


def _timing_key(cfg) -> Tuple:
    return (
        cfg.fetch_width,
        min(cfg.decode_width, cfg.issue_width),
        cfg.commit_width,
        cfg.front_depth,
        cfg.ifq_size,
        cfg.rob_entries,
        cfg.lsq_entries,
        cfg.write_buffer_entries,
        cfg.int_alus,
        cfg.int_mult_divs,
        cfg.fp_alus,
        cfg.fp_mult_divs,
        cfg.mem_ports,
        cfg.int_alu_lat,
        cfg.int_mult_lat,
        cfg.int_div_lat,
        cfg.fp_alu_lat,
        cfg.fp_mult_lat,
        cfg.fp_div_lat,
        cfg.mispredict_penalty,
    )


def _body_lines(cfg, literals: dict, pool_names: List[List[str]], redirect: bool) -> List[str]:
    """One instruction's worth of timing-loop body (front end + dispatch).

    ``redirect`` selects the slow variant used for sparse event
    instructions; the fast variant carries no event bookkeeping at all.
    """
    lines = [
        "if not frem:",
        "    fc += 1",
        "    frem = {FW}".format(**literals),
        "frem -= 1",
        "if fc < ifq_ring[ifq_slot]:",
        "    fc = ifq_ring[ifq_slot]",
        "    frem = {FWm1}".format(**literals),
        "d = fc + {FD}".format(**literals),
        "if d < rob_ring[rob_slot]:",
        "    d = rob_ring[rob_slot]",
        "if d <= dc:",
        "    if not drem:",
        "        dc += 1",
        "        drem = {DW}".format(**literals),
        "    d = dc",
        "    drem -= 1",
        "else:",
        "    dc = d",
        "    drem = {DWm1}".format(**literals),
        "ifq_ring[ifq_slot] = d",
    ] + _wrap_lines("ifq_slot", literals["IFQ"]) + [
        "ready = d + 1",
        "if reg_ready[s1] > ready:",
        "    ready = reg_ready[s1]",
        "if reg_ready[s2] > ready:",
        "    ready = reg_ready[s2]",
    ]

    def arm(cond: str, body: List[str]) -> None:
        lines.append(cond)
        lines.extend("    " + line for line in body)

    mem_prologue = [
        "limit = lsq_ring[lsq_slot]",
        "if ready < limit:",
        "    ready = limit",
    ]
    # Dispatch arms ordered by typical dynamic frequency.
    arm(
        "if code == 0:",  # integer ALU
        _scan_lines(pool_names[0], "1")
        + [f"complete = issue + {cfg.int_alu_lat}"]
        + _tail_lines("std", literals, redirect),
    )
    arm(
        "elif code == 6:",  # load
        mem_prologue
        + _scan_lines(pool_names[4], "1")
        + ["complete = issue + next(mlit)"]
        + _tail_lines("load", literals, redirect),
    )
    if cfg.int_alu_lat != 1:
        # Control/NOP ops (code 8): pool 0 at unit latency.  When the
        # integer-ALU latency is itself 1 the arm is identical to code
        # 0, so the trace conversion folds 8 into 0 (``merge_ctrl``)
        # and the dispatch chain drops one test per instruction.
        arm(
            "elif code == 8:",
            _scan_lines(pool_names[0], "1")
            + ["complete = issue + 1"]
            + _tail_lines("std", literals, redirect),
        )
    arm(
        "elif code == 7:",  # store
        mem_prologue
        + _scan_lines(pool_names[4], "1")
        + ["complete = issue + next(mlit)", "drain = next(drit)"]
        + _tail_lines("store", literals, redirect),
    )
    arm(
        "elif code == 1:",  # integer multiply (pipelined)
        _scan_lines(pool_names[1], "1")
        + [f"complete = issue + {cfg.int_mult_lat}"]
        + _tail_lines("std", literals, redirect),
    )
    arm(
        "elif code == 3:",  # FP add
        _scan_lines(pool_names[2], "1")
        + [f"complete = issue + {cfg.fp_alu_lat}"]
        + _tail_lines("std", literals, redirect),
    )
    arm(
        "elif code == 15:",  # trivial computation: forwarded at ready
        ["complete = ready"] + _tail_lines("std", literals, redirect),
    )
    arm(
        "elif code == 2:",  # integer divide (occupies its unit)
        _scan_lines(pool_names[1], str(cfg.int_div_lat))
        + [f"complete = issue + {cfg.int_div_lat}"]
        + _tail_lines("std", literals, redirect),
    )
    arm(
        "elif code == 4:",  # FP multiply (pipelined)
        _scan_lines(pool_names[3], "1")
        + [f"complete = issue + {cfg.fp_mult_lat}"]
        + _tail_lines("std", literals, redirect),
    )
    arm(
        "else:",  # FP divide (occupies its unit)
        _scan_lines(pool_names[3], str(cfg.fp_div_lat))
        + [f"complete = issue + {cfg.fp_div_lat}"]
        + _tail_lines("std", literals, redirect),
    )
    return lines


def _timing_source(cfg) -> str:
    """Source of the config-specialized segmented timing loop.

    Fetch stalls and mispredict redirects are sparse (one per cache
    miss / one per misprediction), so the loop consumes the trace from
    a single shared iterator in *segments*: between events it runs a
    fast body with no index tracking and no event tests; at each event
    instruction it runs a slow body that applies the stall before
    fetch and the redirect after completion.
    """
    literals = {
        "FW": cfg.fetch_width,
        "FWm1": cfg.fetch_width - 1,
        "DW": min(cfg.decode_width, cfg.issue_width),
        "DWm1": min(cfg.decode_width, cfg.issue_width) - 1,
        "CW": cfg.commit_width,
        "CWm1": cfg.commit_width - 1,
        "FD": cfg.front_depth,
        "IFQ": cfg.ifq_size,
        "ROB": cfg.rob_entries,
        "LSQ": cfg.lsq_entries,
        "WB": cfg.write_buffer_entries,
        "PEN": cfg.mispredict_penalty,
    }
    pool_names = [
        [f"p0_{j}" for j in range(cfg.int_alus)],
        [f"p1_{j}" for j in range(cfg.int_mult_divs)],
        [f"p2_{j}" for j in range(cfg.fp_alus)],
        [f"p3_{j}" for j in range(cfg.fp_mult_divs)],
        [f"p4_{j}" for j in range(cfg.mem_ports)],
    ]
    fast = _body_lines(cfg, literals, pool_names, redirect=False)
    slow = _body_lines(cfg, literals, pool_names, redirect=True)

    lines: List[str] = [
        "from itertools import islice",
        "def timing_loop(instr_l, ml_l, drain_l,",
        "                ev_pos, ev_stall, ev_redir,",
        "                reg_ready, rob_ring, lsq_ring, wb_ring, ifq_ring, pools,",
        "                fc, fetch_count, dc, dcount, cc, ccount,",
        "                instr_index, mem_index, store_index):",
    ]
    # The issue scan keeps each pool's free times sorted ascending and
    # the exit spill preserves that order, but the *reference* loop
    # (used for small regions and shared warm segments) min-scans and
    # writes back in place, handing over pools in arbitrary order.
    # Sorting on entry restores the invariant; only the multiset of
    # free times is observable, so this never changes a result.
    for p, names in enumerate(pool_names):
        if len(names) > 1:
            lines.append(f"    pools[{p}].sort()")
        for j, name in enumerate(names):
            lines.append(f"    {name} = pools[{p}][{j}]")
    lines += [
        "    ifq_slot = instr_index % {IFQ}".format(**literals),
        "    rob_slot = instr_index % {ROB}".format(**literals),
        "    lsq_slot = mem_index % {LSQ}".format(**literals),
        "    wb_slot = store_index % {WB}".format(**literals),
        "    frem = {FW} - fetch_count".format(**literals),
        "    drem = {DW} - dcount".format(**literals),
        "    crem = {CW} - ccount".format(**literals),
        "    mlit = iter(ml_l)",
        "    drit = iter(drain_l)",
        "    prev = 0",
        "    it = iter(instr_l)",
        "    for epos, sadd, redir in zip(ev_pos, ev_stall, ev_redir):",
        "        for code, dst, s1, s2 in islice(it, epos - prev):",
    ]
    lines += ["            " + line for line in fast]
    lines += [
        "        prev = epos + 1",
        "        code, dst, s1, s2 = next(it)",
        "        if sadd:",
        "            fc += sadd",
        "            frem = {FW}".format(**literals),
    ]
    lines += ["        " + line for line in slow]
    lines.append("    for code, dst, s1, s2 in it:")
    lines += ["        " + line for line in fast]
    for p, names in enumerate(pool_names):
        for j, name in enumerate(names):
            lines.append(f"    pools[{p}][{j}] = {name}")
    lines.append(
        "    return fc, {FW} - frem, dc, {DW} - drem, cc, {CW} - crem".format(**literals)
    )
    return "\n".join(lines)


def timing_loop_for(cfg) -> Callable:
    """The specialized timing loop for one configuration (cached)."""
    key = _timing_key(cfg)
    fn = _TIMING_CACHE.get(key)
    if fn is None:
        namespace: dict = {}
        exec(_timing_source(cfg), namespace)
        fn = namespace["timing_loop"]
        _TIMING_CACHE[key] = fn
    return fn


def timing_loops_for(configs) -> "list[Callable]":
    """Per-config timing loops for a batch, compiled with dedup.

    Batch members usually vary only in memory-hierarchy latencies,
    which the timing loop never sees (they arrive via the precomputed
    feeds) -- so a 16-config latency sweep typically compiles exactly
    one loop and shares it across every member.  Members that *do*
    differ in a core parameter (widths, window sizes, FU latencies,
    mispredict penalty) each get their own specialization.
    """
    return [timing_loop_for(cfg) for cfg in configs]
