"""Zero-copy shared trace store.

Trace generation is deterministic but not free, and a parallel sweep
pays it once *per worker process*: every worker that touches a
benchmark regenerates its trace from scratch.  The trace store
materializes each trace exactly once per machine instead -- the
parent (or whichever worker gets there first) serializes the trace's
nine columns as flat arrays into a content-addressed file under the
cache directory, and every other process opens that file
*memory-mapped read-only*.  The page cache then shares the physical
pages across all workers, so an 8-worker sweep holds one copy of each
trace in RAM, not eight, and "loading" a trace is an ``mmap`` plus a
header parse.

On-disk format (one file per ``(workload identity, scale, epoch)``)::

    <root>/<key[:2]>/<key>.npt

    magic "RPTRACE1" | uint64-le header length | JSON header | columns

The JSON header carries the store version, the generator epoch, the
full workload identity (benchmark, input-set *content*, seed), the
scale, the trace length / block count and a per-column ``(name,
dtype, offset, count)`` table.  Loads re-validate every identity
field against what the caller asked for: a stale-epoch or
wrong-scale file is treated as a miss (and overwritten by the
regenerated trace), never trusted.  Writes go through
:func:`repro.files.atomic_write`, so concurrent workers racing to
create the same trace converge on one intact file -- last rename
wins, and both renames carry identical bytes.

The engine installs the store for its process with :func:`activate`;
forked workers inherit the activation.  Hit and miss counts
accumulate module-wide and are drained with :func:`consume_counters`
-- workers report them to the parent, which folds them into the
engine metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.files import atomic_write
from repro.isa.trace import _COLUMN_NAMES, Trace

#: Bump when the container format changes (header layout, magic).
STORE_VERSION = 1

#: File magic; doubles as the format version tag in the first 8 bytes.
MAGIC = b"RPTRACE1"

#: Filename suffix for serialized traces ("numpy trace").
_SUFFIX = ".npt"

#: Header length field: unsigned 64-bit little-endian.
_LEN_BYTES = 8


def _workload_identity(workload, scale) -> Dict[str, object]:
    """Every field that determines a generated trace's content.

    The input set is included as its full *content* (not just its
    name): two custom :class:`InputSetSpec` objects sharing a name but
    differing in length or phase schedule must never alias one file.
    """
    return {
        "store_version": STORE_VERSION,
        "epoch": _trace_epoch(),
        "benchmark": workload.benchmark,
        "input_set": dataclasses.asdict(workload.input_set),
        "seed": workload.seed,
        "scale": scale.instructions_per_m,
    }


def _trace_epoch() -> int:
    from repro.workloads.generator import TRACE_EPOCH

    return TRACE_EPOCH


class TraceStore:
    """Directory of serialized, mmap-loadable traces."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    # -- keys and paths ------------------------------------------------------

    def key_for(self, workload, scale) -> str:
        document = _workload_identity(workload, scale)
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    # -- load ----------------------------------------------------------------

    def load(self, workload, scale) -> Optional[Trace]:
        """The stored trace for this workload at this scale, or None.

        Columns are served as read-only memory maps: nothing is copied
        until (and unless) a derived column materializes, and the OS
        page cache shares the mapped pages across every process on the
        machine.  Any mismatch -- wrong magic, stale epoch, different
        scale or input-set content, truncated file -- is a miss.
        """
        path = self.path_for(self.key_for(workload, scale))
        try:
            header, data_offset = self._read_header(path)
        except (OSError, ValueError, json.JSONDecodeError):
            record_miss()
            return None
        expected = _workload_identity(workload, scale)
        # Canonical-JSON comparison: the header came through JSON, so
        # tuples in the identity (phase schedules) compare as lists.
        found = {k: header.get(k) for k in expected}
        if json.dumps(found, sort_keys=True) != json.dumps(expected, sort_keys=True):
            record_miss()
            return None
        try:
            columns = {}
            for spec in header["columns"]:
                columns[spec["name"]] = np.memmap(
                    path,
                    dtype=np.dtype(spec["dtype"]),
                    mode="r",
                    offset=data_offset + spec["offset"],
                    shape=(spec["count"],),
                )
            trace = Trace(
                *[columns[name] for name in _COLUMN_NAMES],
                num_blocks=int(header["num_blocks"]),
            )
        except (KeyError, TypeError, ValueError, OSError):
            record_miss()
            return None
        record_hit()
        return trace

    @staticmethod
    def _read_header(path: Path):
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic != MAGIC:
                raise ValueError(f"bad magic {magic!r}")
            length = int.from_bytes(handle.read(_LEN_BYTES), "little")
            if length <= 0 or length > 1 << 20:
                raise ValueError(f"implausible header length {length}")
            header = json.loads(handle.read(length).decode("utf-8"))
        data_offset = len(MAGIC) + _LEN_BYTES + length
        return header, data_offset

    # -- save ----------------------------------------------------------------

    def save(self, workload, scale, trace: Trace) -> Path:
        """Serialize ``trace`` for this workload (atomic; idempotent).

        Concurrent savers race harmlessly: each writes a private temp
        file holding identical bytes (generation is deterministic) and
        the final rename is atomic, so readers only ever see a complete
        file.
        """
        path = self.path_for(self.key_for(workload, scale))
        header = dict(_workload_identity(workload, scale))
        header["length"] = len(trace)
        header["num_blocks"] = trace.num_blocks
        specs = []
        offset = 0
        arrays = []
        for name in _COLUMN_NAMES:
            column = np.ascontiguousarray(getattr(trace, name))
            arrays.append(column)
            specs.append(
                {
                    "name": name,
                    "dtype": column.dtype.str,
                    "offset": offset,
                    "count": len(column),
                }
            )
            offset += column.nbytes
        header["columns"] = specs
        payload = json.dumps(header, sort_keys=True).encode("utf-8")
        head = [MAGIC, len(payload).to_bytes(_LEN_BYTES, "little"), payload]
        atomic_write(path, head + arrays)  # contiguous arrays write raw
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()


# -- activation ---------------------------------------------------------------

_ACTIVE: Optional[TraceStore] = None


def activate(store: Optional[TraceStore]) -> Optional[TraceStore]:
    """Install (or, with None, remove) the process-wide store; returns
    the store it replaces, so the caller can restore it."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, store
    return previous


def active_store() -> Optional[TraceStore]:
    """The store in effect, or None."""
    return _ACTIVE


# -- counters ----------------------------------------------------------------

_COUNTERS = {"trace_cache_hits": 0, "trace_cache_misses": 0}


def record_hit() -> None:
    _COUNTERS["trace_cache_hits"] += 1


def record_miss() -> None:
    _COUNTERS["trace_cache_misses"] += 1


def consume_counters() -> Dict[str, int]:
    """Drain (return and reset) the accumulated hit/miss counts."""
    drained = dict(_COUNTERS)
    for name in _COUNTERS:
        _COUNTERS[name] = 0
    return drained
