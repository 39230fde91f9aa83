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
warming costs O(interval) instead of O(X).  A snapshot is the flat
state lists each structure names in its ``STATE_ARRAYS``; every
backend drives the same structures through the same lists, so a
checkpoint written under the numpy backend restores bit-identically
under the python one and vice versa.

Checkpoints are keyed by the trace identity (benchmark, input-set
content, seed, scale, generator epoch) plus the *geometry fingerprint*
of the machine -- sizes, associativities, block sizes, predictor
shape.  Latency parameters are deliberately excluded: warming never
computes latency, so a latency sweep shares one checkpoint chain.

On-disk layout (one file per checkpoint)::

    <root>/<key[:2]>/<key>-<position>.ckpt

A file is one JSON header line -- ``version``, ``position``, the
cumulative warming ``stats`` and the ``[name, length]`` of every
array -- followed by the arrays' values as little-endian int64, in
header order.  Files are never unpickled (agents install them from
the wire).  A restore checks the header and the exact body size
against the target machine before it writes anything; a checkpoint
that does not match is skipped, never trusted.

Writes go through :func:`repro.files.atomic_write`; an existing file
is never rewritten (same key + position => same bytes by
construction).

Activation mirrors the trace store: the engine installs the store
with :func:`activate` and forked workers inherit it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.files import atomic_write

#: Bump when the snapshot content or file layout changes.
CHECKPOINT_VERSION = 2

_SUFFIX = ".ckpt"

#: Every array value is stored as one little-endian int64.
_DTYPE = np.dtype("<i8")

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


def state_arrays(machine) -> List[Tuple[str, list]]:
    """``(name, live list)`` for every warm-state array on ``machine``,
    named ``<structure>.<array>``, in snapshot order."""
    arrays = []
    for structure in _STRUCTURES:
        owner = getattr(machine, structure)
        for name in owner.STATE_ARRAYS:
            arrays.append((f"{structure}.{name}", getattr(owner, name)))
    return arrays


def layout(machine) -> List[list]:
    """``[name, length]`` of every warm-state array on ``machine``: the
    ``arrays`` a checkpoint header must list to restore onto it."""
    return [[name, len(array)] for name, array in state_arrays(machine)]


def snapshot_machine(machine) -> Dict[str, List[int]]:
    """A copy of every warm-state array on ``machine``."""
    return {name: list(array) for name, array in state_arrays(machine)}


def restore_machine(machine, state: Dict[str, Sequence[int]]) -> None:
    """Restore a :func:`snapshot_machine` snapshot onto ``machine``.

    Raises ValueError, before writing anything, unless ``state`` holds
    exactly the machine's arrays at exactly their lengths (same
    geometry; the backend may differ).
    """
    arrays = state_arrays(machine)
    if [[name, len(values)] for name, values in state.items()] != [
        [name, len(array)] for name, array in arrays
    ]:
        raise ValueError("checkpoint arrays do not match the machine")
    for name, array in arrays:
        array[:] = state[name]


def encode(position: int, state: Dict[str, Sequence[int]],
           stats: Dict[str, int]) -> List[bytes]:
    """The file chunks of one checkpoint: header line, then arrays."""
    header = {
        "version": CHECKPOINT_VERSION,
        "position": int(position),
        "stats": {name: int(value) for name, value in stats.items()},
        "arrays": [[name, len(values)] for name, values in state.items()],
    }
    chunks = [(json.dumps(header, separators=(",", ":")) + "\n").encode()]
    chunks.extend(np.asarray(values, _DTYPE).tobytes()
                  for values in state.values())
    return chunks


def decode(
    data: bytes, position: int, arrays: List[list], stats_names: Sequence[str]
) -> Tuple[Dict[str, int], Dict[str, List[int]]]:
    """``(stats, state)`` from the bytes of the checkpoint stored at
    ``position``.  ValueError unless the header parses, its version
    and position match, its stats are integers named exactly
    ``stats_names``, it lists exactly ``arrays`` (a :func:`layout`)
    and the body holds exactly their values.
    """
    end = data.find(b"\n")
    try:
        header = json.loads(data[:end]) if end >= 0 else None
        stats = header["stats"]
        valid = (
            header["version"] == CHECKPOINT_VERSION
            and header["position"] == position
            and header["arrays"] == arrays
            and sorted(stats) == sorted(stats_names)
            and all(type(value) is int for value in stats.values())
        )
    except (KeyError, TypeError, AttributeError, ValueError):
        valid = False
    body = len(data) - end - 1
    if not valid or body != _DTYPE.itemsize * sum(n for _, n in arrays):
        raise ValueError(f"not a valid checkpoint at position {position}")
    values = np.frombuffer(data, _DTYPE, offset=end + 1)
    state, offset = {}, 0
    for name, length in arrays:
        state[name] = values[offset : offset + length].tolist()
        offset += length
    return stats, state


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
        return self.root / key[:2] / f"{key}-{int(position)}{_SUFFIX}"

    def positions(self, key: str) -> List[int]:
        """Positions of the stored checkpoints of ``key``, ascending."""
        prefix = f"{key}-"
        try:
            entries = os.listdir(self.root / key[:2])
        except OSError:
            return []
        found = []
        for entry in entries:
            if entry.startswith(prefix) and entry.endswith(_SUFFIX):
                digits = entry[len(prefix) : -len(_SUFFIX)]
                if digits.isascii() and digits.isdigit():
                    found.append(int(digits))
        return sorted(found)

    def nearest(
        self,
        key: str,
        position: int,
        arrays: List[list],
        stats_names: Sequence[str],
    ) -> Optional[Tuple[int, Dict[str, List[int]], Dict[str, int]]]:
        """The stored checkpoint nearest at-or-below ``position`` whose
        arrays are exactly ``arrays`` (the target machine's
        :func:`layout`) and whose stats are named ``stats_names``.

        Returns ``(checkpoint_position, machine_state, warming_stats)``
        or ``None``.  A file that is unreadable or does not match is
        skipped (the next-lower checkpoint is tried), never trusted.
        """
        for at in reversed(self.positions(key)):
            if 0 < at <= position:
                try:
                    data = self.path_for(key, at).read_bytes()
                    stats, state = decode(data, at, arrays, stats_names)
                except (OSError, ValueError):
                    continue
                return at, state, stats
        return None

    def save(
        self,
        key: str,
        position: int,
        state: Dict[str, Sequence[int]],
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
        try:
            atomic_write(path, encode(position, state, stats))
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
