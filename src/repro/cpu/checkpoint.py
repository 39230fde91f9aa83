"""Functional warm-state checkpoints for O(interval) fast-forward.

Warmed fast-forward (and SMARTS' whole-run functional warming) spends
time proportional to the warm-start position X: every run walks the
trace prefix ``[0, X)`` through the cache/TLB/predictor warm paths.
Across a sweep the same prefixes are warmed again and again -- per
run-length point, per configuration, per worker.

A *checkpoint* snapshots the complete functional-warming state -- the
cache hierarchy, TLBs, branch predictor, BTB, return-address stack and
the cumulative warming event counts -- every ``interval`` instructions
along the prefix.  A later run resumes from the nearest checkpoint at
or below its warm-start and warms only the remainder, so prefix
warming costs O(interval) instead of O(X).  Snapshots are *canonical*
(each structure's ``warm_state()``, in its per-set form, not object
dumps), and every backend drives the same structures, so a checkpoint
written under the numpy backend restores bit-identically under the
python one and vice versa.

Checkpoints are keyed by the trace identity (benchmark, input-set
content, seed, scale, generator epoch) plus the *geometry fingerprint*
of the machine -- sizes, associativities, block sizes, predictor
shape.  Latency parameters are deliberately excluded: warming never
computes latency, so a latency sweep shares one checkpoint chain.

On-disk layout (one JSON file per checkpoint)::

    <root>/<key[:2]>/<key>-<position>.json

Writes go through :func:`repro.files.atomic_write`; an existing file
is never rewritten (same key + position => same bytes by
construction).  Corrupt or unreadable files are skipped, never
trusted.

Activation mirrors the trace store: the engine installs the store
with :func:`activate` and forked workers inherit it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.files import atomic_write

#: Bump when the snapshot content or file layout changes.
CHECKPOINT_VERSION = 1

#: The Machine attributes that make up the functional-warming state,
#: in snapshot order.
_STRUCTURES = (
    "memory",
    "l2",
    "il1",
    "dl1",
    "itlb",
    "dtlb",
    "predictor",
    "btb",
    "ras",
)


# -- snapshots ----------------------------------------------------------------


def snapshot_machine(machine) -> Dict[str, dict]:
    """Canonical warm-state snapshot of every structure on ``machine``."""
    return {name: getattr(machine, name).warm_state() for name in _STRUCTURES}


def restore_machine(machine, state: Dict[str, dict]) -> None:
    """Restore a :func:`snapshot_machine` snapshot onto ``machine``.

    The machine must have the same geometry the snapshot was taken
    under (enforced per-structure); its backend may differ.
    """
    for name in _STRUCTURES:
        getattr(machine, name).restore_warm_state(state[name])


# -- keys ---------------------------------------------------------------------


def geometry_fingerprint(config, enhancements) -> Dict[str, object]:
    """Every config field the warm state depends on.

    Latencies (hit, miss, walk, memory) are excluded on purpose:
    warming updates state without computing latency, so configurations
    differing only in latency share checkpoints.
    """
    return {
        "il1": [config.il1_size_kb, config.il1_assoc, config.il1_block],
        "dl1": [config.dl1_size_kb, config.dl1_assoc, config.dl1_block],
        "l2": [config.l2_size_kb, config.l2_assoc, config.l2_block],
        "itlb_entries": config.itlb_entries,
        "dtlb_entries": config.dtlb_entries,
        "branch_predictor": config.branch_predictor,
        "bht_entries": config.bht_entries,
        "btb_entries": config.btb_entries,
        "btb_assoc": config.btb_assoc,
        "ras_entries": config.ras_entries,
        "next_line_prefetch": bool(enhancements.next_line_prefetch),
    }


def state_key(workload, scale, config, enhancements) -> str:
    """Content key for one ``(trace identity, geometry)`` checkpoint chain."""
    from repro.workloads.generator import TRACE_EPOCH

    document = {
        "version": CHECKPOINT_VERSION,
        "epoch": TRACE_EPOCH,
        "benchmark": workload.benchmark,
        "input_set": dataclasses.asdict(workload.input_set),
        "seed": workload.seed,
        "scale": scale.instructions_per_m,
        "geometry": geometry_fingerprint(config, enhancements),
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- the store ----------------------------------------------------------------


class CheckpointStore:
    """Directory of warm-state checkpoints spaced ``interval`` apart."""

    def __init__(self, root: os.PathLike, interval: int) -> None:
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.root = Path(root)
        self.interval = int(interval)

    def path_for(self, key: str, position: int) -> Path:
        return self.root / key[:2] / f"{key}-{position}.json"

    def nearest(
        self, key: str, position: int
    ) -> Optional[Tuple[int, Dict[str, dict], Dict[str, int]]]:
        """The stored checkpoint nearest at-or-below ``position``.

        Returns ``(checkpoint_position, machine_state, warming_stats)``
        or ``None``.  Unreadable files are skipped (the next-lower
        checkpoint is tried), never trusted.
        """
        directory = self.root / key[:2]
        prefix = f"{key}-"
        candidates = []
        try:
            for entry in os.listdir(directory):
                if not (entry.startswith(prefix) and entry.endswith(".json")):
                    continue
                try:
                    at = int(entry[len(prefix) : -len(".json")])
                except ValueError:
                    continue
                if 0 < at <= position:
                    candidates.append(at)
        except OSError:
            return None
        for at in sorted(candidates, reverse=True):
            try:
                with open(self.path_for(key, at), "r", encoding="utf-8") as handle:
                    document = json.load(handle)
                if document["version"] != CHECKPOINT_VERSION:
                    continue
                if document["position"] != at:
                    continue
                return at, document["state"], document["stats"]
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return None

    def save(
        self,
        key: str,
        position: int,
        state: Dict[str, dict],
        stats: Dict[str, int],
    ) -> Optional[Path]:
        """Persist a checkpoint (atomic; no-op if it already exists).

        Returns None when the file cannot be written (a read-only or
        full cache directory): checkpoints only ever save time.

        ``stats`` is the *cumulative* warming event count from trace
        position 0, so a resumed run reports bit-identical statistics.
        """
        path = self.path_for(key, position)
        if path.exists():
            return path
        document = {
            "version": CHECKPOINT_VERSION,
            "position": int(position),
            "stats": dict(stats),
            "state": state,
        }
        try:
            atomic_write(path, json.dumps(document, separators=(",", ":")))
        except OSError:
            return None
        return path


# -- activation ---------------------------------------------------------------

_ACTIVE: Optional[CheckpointStore] = None


def activate(store: Optional[CheckpointStore]) -> Optional[CheckpointStore]:
    """Install (or, with None, remove) the process-wide store; returns
    the store it replaces, so the caller can restore it."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, store
    return previous


def active_store() -> Optional[CheckpointStore]:
    """The store in effect, or None."""
    return _ACTIVE


# -- counters -----------------------------------------------------------------

_COUNTERS = {
    "checkpoint_hits": 0,
    "checkpoint_misses": 0,
    "instructions_skipped": 0,
}


def record_hit(instructions_skipped: int) -> None:
    _COUNTERS["checkpoint_hits"] += 1
    _COUNTERS["instructions_skipped"] += int(instructions_skipped)


def record_miss() -> None:
    _COUNTERS["checkpoint_misses"] += 1


def consume_counters() -> Dict[str, int]:
    """Drain (return and reset) the accumulated checkpoint counters."""
    drained = dict(_COUNTERS)
    for name in _COUNTERS:
        _COUNTERS[name] = 0
    return drained
