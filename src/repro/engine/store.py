"""Persistent, content-addressed result store.

Layout (one JSON file per run, sharded on the key prefix to keep
directories small)::

    <root>/v<schema>/<key[:2]>/<key>.json

The key is :meth:`RunRequest.content_key` -- a hash over every input
that can change the result, plus :data:`~repro.engine.planner.RESULTS_EPOCH`.
Simulator changes are invalidated by bumping the epoch; schema changes
(the payload format itself) by bumping :data:`SCHEMA_VERSION`, which
moves the store to a fresh subdirectory.

Every entry embeds a payload checksum (:data:`CHECKSUM_FIELD`, a
sha256 over the canonical payload JSON) that is verified on read: a
corrupt or truncated entry -- bit rot, a torn copy between hosts, a
crash from an older layout -- counts as a miss (the run regenerates)
and increments the ``corrupt_entries`` counter that the engine
surfaces as ``store_corrupt_entries``; it never crashes a sweep.
Entries written before the checksum existed simply lack the field and
are accepted as legacy.  Writes go through
:func:`repro.files.atomic_write`, so a reader never sees a torn entry.

The result store's root doubles as the engine's cache directory; its
full layout is::

    <root>/v<schema>/...           this result store
    <root>/v<schema>/events/       per-worker trace event files
                                   (:mod:`repro.obs.trace`)
    <root>/v<schema>/trace.jsonl   merged run trace (written on close)
    <root>/v<schema>/live.json     live sweep telemetry snapshot
                                   (:mod:`repro.obs.live`)
    <root>/journal.jsonl           crash-safe sweep journal
    <root>/engine-stats.json       machine-readable engine metrics
    <root>/traces/                 shared memory-mapped trace store
                                   (:mod:`repro.workloads.trace_store`)
    <root>/checkpoints/            functional warm-state checkpoints
                                   (:mod:`repro.cpu.checkpoint`)
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from repro.files import atomic_write
from repro.techniques.base import TechniqueResult

#: Version of the on-disk payload format.
SCHEMA_VERSION = 1

#: Key under which the payload's own sha256 is embedded.  Kept inside
#: the payload object (rather than bumping :data:`SCHEMA_VERSION`) so
#: checksummed and legacy entries share one store directory.
CHECKSUM_FIELD = "_sha256"


def _payload_checksum(payload: dict) -> str:
    """sha256 over the canonical payload JSON (checksum field absent)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultStore:
    """Directory of serialized :class:`TechniqueResult` payloads."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        #: Entries rejected by the read-side checksum/parse since the
        #: last :meth:`consume_corrupt_entries` (engine-stats feeds on
        #: the deltas).
        self.corrupt_entries = 0

    @property
    def directory(self) -> Path:
        """The schema-versioned subdirectory entries live in."""
        return self.root / f"v{SCHEMA_VERSION}"

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def consume_corrupt_entries(self) -> int:
        """Drain the corrupt-entry counter (delta since last call)."""
        count, self.corrupt_entries = self.corrupt_entries, 0
        return count

    def get_payload(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, checksum-verified, or None.

        A missing entry is a plain miss; an unparseable or
        checksum-mismatching entry is a miss *and* counted corrupt --
        the caller regenerates the run rather than crashing the sweep.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self.corrupt_entries += 1
            return None
        if not isinstance(payload, dict):
            self.corrupt_entries += 1
            return None
        expected = payload.pop(CHECKSUM_FIELD, None)
        if expected is not None and _payload_checksum(payload) != expected:
            self.corrupt_entries += 1
            return None
        return payload

    def get(self, key: str) -> Optional[TechniqueResult]:
        """The stored result for ``key``, or None.

        Unreadable, truncated or checksum-failing entries count as
        misses, never as errors.
        """
        payload = self.get_payload(key)
        if payload is None:
            return None
        try:
            return TechniqueResult.from_payload(payload)
        except (KeyError, TypeError, ValueError):
            self.corrupt_entries += 1
            return None

    def put(self, key: str, result: TechniqueResult) -> None:
        """Persist ``result`` under ``key`` (atomic per entry)."""
        self.put_payload(key, result.to_payload())

    def put_payload(self, key: str, payload: dict) -> None:
        """Persist a raw payload dict verbatim (plus its checksum).

        This is the write path for remotely-executed runs: the agent's
        wire payload is stored as-is, so a distributed sweep's entry
        bytes are identical to the local ``put`` of the same result
        (both serialize the same canonical payload the same way).
        """
        payload = {k: v for k, v in payload.items() if k != CHECKSUM_FIELD}
        payload[CHECKSUM_FIELD] = _payload_checksum(payload)
        atomic_write(self.path_for(key), json.dumps(payload, sort_keys=True))

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))
