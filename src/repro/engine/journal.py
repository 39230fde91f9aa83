"""Crash-safe sweep journal: append-only JSONL run accounting.

The journal is the engine's durable record of a sweep: which runs were
planned, which completed, which failed and which were quarantined.  A
sweep killed at run 4,800 of 5,000 resumes by replaying the journal --
completed runs are served from the persistent result store instead of
re-executing, quarantined runs are skipped instead of re-poisoning the
fleet, and the final output is bit-identical to an uninterrupted sweep
because results are content-addressed.

The journal is a durable :class:`repro.files.JsonlLog`, so crash
safety comes from the shared log's two properties:

* every event is one JSON line, synced to disk before the engine acts
  on the run's result, so a kill can lose at most the event being
  written;
* replay reads through :func:`repro.files.read_jsonl`, which ignores
  the truncated final line (the partial write of the crash itself).

Events (all but ``start`` carry the run's content ``key``)::

    {"event": "start", "scale": ..., "epoch": ..., "schema": ...}
    {"event": "planned",     "key": k, "run": "<description>"}
    {"event": "retry",       "key": k, "kind": ...}
    {"event": "degraded",    "key": k, "from": ..., "to": ...}
    {"event": "completed",   "key": k, "wall_s": ..., "backend": ..., "agent": ...}
    {"event": "failed",      "key": k, "kind": ..., "error": ..., "attempts": ...}
    {"event": "quarantined", "key": k, "kind": ..., "error": ..., "attempts": ...}

Distributed sweeps add lease-lifecycle events (written by the lease
server's connection threads -- appends are lock-serialized -- and
skipped by replay, which only trusts terminal run states)::

    {"event": "agent_joined",  "agent": ..., "host": ...}
    {"event": "agent_lost",    "agent": ..., "reason": ...}
    {"event": "leased",        "key": k, "agent": ..., "delivery": ...}
    {"event": "lease_expired", "key": k, "agent": ..., "reason": ...}

A ``--resume`` of a partially distributed sweep therefore needs no
special handling: completed runs are keyed identically however they
executed, and an expired lease never wrote a ``completed`` record.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.files import JsonlLog, read_jsonl

#: Default journal filename inside a cache directory.
JOURNAL_FILENAME = "journal.jsonl"

#: Version of the journal line format.
JOURNAL_VERSION = 1


class JournalMismatch(RuntimeError):
    """A journal cannot be resumed under the current engine settings
    (different scale or results epoch: its runs name different work)."""


@dataclass
class JournalState:
    """Replayed journal contents, keyed by run content key."""

    completed: Set[str] = field(default_factory=set)
    quarantined: Dict[str, dict] = field(default_factory=dict)
    failed: Dict[str, dict] = field(default_factory=dict)
    planned: Set[str] = field(default_factory=set)
    scale: Optional[float] = None
    epoch: Optional[int] = None

    def check_compatible(self, scale: float, epoch: int) -> None:
        if self.scale is not None and self.scale != scale:
            raise JournalMismatch(
                f"journal was recorded at scale {self.scale}, engine is at "
                f"{scale}; refusing to resume across scales"
            )
        if self.epoch is not None and self.epoch != epoch:
            raise JournalMismatch(
                f"journal was recorded at results epoch {self.epoch}, code "
                f"is at {epoch}; refusing to resume across epochs"
            )


class SweepJournal(JsonlLog):
    """The sweep's durable log: one synced JSONL line per record."""

    def __init__(self, path: os.PathLike) -> None:
        super().__init__(path, durable=True)

    def record(self, event: str, **fields) -> None:
        """Append ``{"event": event, **fields}``, dropping None fields."""
        document = {k: v for k, v in fields.items() if v is not None}
        document["event"] = event
        self.append(document)

    # -- replay ------------------------------------------------------------------

    @classmethod
    def load(cls, path: os.PathLike) -> JournalState:
        """Replay a journal into a :class:`JournalState`.

        A missing file is an empty state; a truncated final line (the
        crash's own partial write) is ignored; any other malformed line
        is skipped rather than fatal -- the journal is an optimization
        over the content-addressed store, never the source of truth.
        """
        state = JournalState()
        for event in read_jsonl(path):
            kind = event.get("event")
            key = event.get("key")
            if kind == "start":
                state.scale = event.get("scale")
                state.epoch = event.get("epoch")
            elif kind == "planned" and key:
                state.planned.add(key)
            elif kind == "completed" and key:
                state.completed.add(key)
                state.failed.pop(key, None)
                state.quarantined.pop(key, None)
            elif kind == "failed" and key:
                state.failed[key] = event
            elif kind == "quarantined" and key:
                state.quarantined[key] = event
        return state
