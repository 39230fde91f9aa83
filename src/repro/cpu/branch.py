"""Branch direction predictors, BTB and return-address stack.

The default predictor is SimpleScalar's *combined* predictor: a
bimodal table and a gshare (global-history) table arbitrated by a
chooser table of 2-bit counters.  Predictors expose a single
``predict_update(pc, taken)`` call that returns whether the prediction
was correct and trains the tables -- one call per branch keeps the hot
loop cheap.

Like the caches (:mod:`repro.cpu.cache`), every structure here holds
its state in flat lists that the kernels index directly, named once in
``STATE_ARRAYS``; the BTB uses the same MRU-first set layout with
``-1`` marking an invalid way.
"""

from __future__ import annotations

from repro.cpu.cache import STAT_HITS, STAT_MISSES

# Branch-predictor kind codes shared with the kernels.
PRED_BIMODAL = 0
PRED_GSHARE = 1
PRED_COMBINED = 2
PRED_TAKEN = 3
PRED_PERFECT = 4

PREDICTOR_KINDS = {
    "bimodal": PRED_BIMODAL,
    "gshare": PRED_GSHARE,
    "combined": PRED_COMBINED,
    "taken": PRED_TAKEN,
    "perfect": PRED_PERFECT,
}


class Predictor:
    """Branch direction predictor of any configured kind.

    ``kind`` is one of :data:`PREDICTOR_KINDS`: per-PC 2-bit counters
    (``bimodal``), PC xor global history (``gshare``), both arbitrated
    by a chooser table (``combined``, SimpleScalar ``comb``), always
    taken (``taken``) or an oracle (``perfect``).  Counters start
    weakly not-taken; the chooser starts with a slight gshare bias.

    ``state[0]`` holds the global history register so kernels can read
    and write it in place; unused component tables are single-slot
    dummies so one uniform signature covers every predictor kind.
    """

    STATE_ARRAYS = ("bimodal", "gshare", "chooser", "state")

    def __init__(self, kind: str, entries: int) -> None:
        try:
            self.kind = PREDICTOR_KINDS[kind]
        except KeyError:
            raise ValueError(f"unknown predictor kind {kind!r}") from None
        self.kind_name = kind
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.mask = entries - 1
        if self.kind in (PRED_BIMODAL, PRED_GSHARE, PRED_COMBINED):
            if entries & self.mask:
                raise ValueError("entries must be a power of two")
        table = entries if self.kind in (PRED_BIMODAL, PRED_COMBINED) else 1
        gtable = entries if self.kind in (PRED_GSHARE, PRED_COMBINED) else 1
        ctable = entries if self.kind == PRED_COMBINED else 1
        self.bimodal = [1] * table
        self.gshare = [1] * gtable
        self.chooser = [2] * ctable
        self.state = [0]

    @property
    def history(self) -> int:
        return int(self.state[0])

    def predict_update(self, pc: int, taken: bool) -> bool:
        kind = self.kind
        if kind == PRED_TAKEN:
            return taken
        if kind == PRED_PERFECT:
            return True
        mask = self.mask
        base_index = (pc >> 2) & mask
        if kind == PRED_BIMODAL:
            counter = self.bimodal[base_index]
            prediction = counter >= 2
            if taken:
                if counter < 3:
                    self.bimodal[base_index] = counter + 1
            elif counter > 0:
                self.bimodal[base_index] = counter - 1
            return prediction == taken
        if kind == PRED_GSHARE:
            index = (base_index ^ self.state[0]) & mask
            counter = self.gshare[index]
            prediction = counter >= 2
            if taken:
                if counter < 3:
                    self.gshare[index] = counter + 1
            elif counter > 0:
                self.gshare[index] = counter - 1
            self.state[0] = ((self.state[0] << 1) | (1 if taken else 0)) & mask
            return prediction == taken
        # combined
        gs_index = (base_index ^ self.state[0]) & mask
        b_counter = self.bimodal[base_index]
        g_counter = self.gshare[gs_index]
        b_pred = b_counter >= 2
        g_pred = g_counter >= 2
        choose_gshare = self.chooser[base_index] >= 2
        prediction = g_pred if choose_gshare else b_pred
        if taken:
            if b_counter < 3:
                self.bimodal[base_index] = b_counter + 1
            if g_counter < 3:
                self.gshare[gs_index] = g_counter + 1
        else:
            if b_counter > 0:
                self.bimodal[base_index] = b_counter - 1
            if g_counter > 0:
                self.gshare[gs_index] = g_counter - 1
        if b_pred != g_pred:
            chooser = self.chooser[base_index]
            if g_pred == taken:
                if chooser < 3:
                    self.chooser[base_index] = chooser + 1
            elif chooser > 0:
                self.chooser[base_index] = chooser - 1
        self.state[0] = ((self.state[0] << 1) | (1 if taken else 0)) & mask
        return prediction == taken


class BranchTargetBuffer:
    """Set-associative BTB mapping branch PCs to predicted targets.

    The BTB counts hits and misses during functional warming too, so
    its ``stats`` are part of the warm state.
    """

    STATE_ARRAYS = ("keys", "targets", "stats")

    def __init__(self, entries: int, assoc: int) -> None:
        if entries <= 0 or assoc <= 0:
            raise ValueError("BTB geometry must be positive")
        assoc = min(assoc, entries)
        num_sets = max(1, entries // assoc)
        num_sets = 1 << (num_sets.bit_length() - 1)
        self.assoc = max(1, entries // num_sets)
        self.set_mask = num_sets - 1
        self.num_sets = num_sets
        self.keys = [-1] * (num_sets * self.assoc)
        self.targets = [0] * (num_sets * self.assoc)
        self.stats = [0] * 2

    @property
    def hits(self) -> int:
        return int(self.stats[STAT_HITS])

    @property
    def misses(self) -> int:
        return int(self.stats[STAT_MISSES])

    def lookup_update(self, pc: int, target: int) -> bool:
        """Look up ``pc``; train with the actual ``target``.

        Returns ``True`` when the BTB held the correct target (i.e. the
        front end would have fetched down the right path).
        """
        key = pc >> 2
        assoc = self.assoc
        base = (key & self.set_mask) * assoc
        keys = self.keys
        targets = self.targets
        for way in range(assoc):
            if keys[base + way] == key:
                correct = targets[base + way] == target
                for shift in range(way, 0, -1):
                    keys[base + shift] = keys[base + shift - 1]
                    targets[base + shift] = targets[base + shift - 1]
                keys[base] = key
                targets[base] = target
                if correct:
                    self.stats[STAT_HITS] += 1
                else:
                    self.stats[STAT_MISSES] += 1
                return bool(correct)
        self.stats[STAT_MISSES] += 1
        for shift in range(assoc - 1, 0, -1):
            keys[base + shift] = keys[base + shift - 1]
            targets[base + shift] = targets[base + shift - 1]
        keys[base] = key
        targets[base] = target
        return False


class ReturnAddressStack:
    """Counter-based return-address stack.

    The synthetic ISA pairs calls and returns dynamically, so target
    values are always consistent; the RAS therefore mispredicts exactly
    when its finite depth was exceeded between the push and the pop
    (the classic overflow failure mode), or on pop of an empty stack.
    A crushed (overflowed) entry is dropped, not kept, so the stack
    only ever holds valid entries and its observable state reduces to
    a depth counter: ``state`` holds ``[depth, overflows]``.
    """

    STATE_ARRAYS = ("state",)

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("RAS entries must be positive")
        self.entries = entries
        self.state = [0, 0]

    @property
    def depth(self) -> int:
        return int(self.state[0])

    @property
    def overflows(self) -> int:
        return int(self.state[1])

    def push(self) -> None:
        if self.state[0] >= self.entries:
            self.state[1] += 1
        else:
            self.state[0] += 1

    def pop(self) -> bool:
        """Pop for a return; returns ``True`` if predicted correctly."""
        if self.state[0] <= 0:
            return False
        self.state[0] -= 1
        return True
