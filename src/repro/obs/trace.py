"""Low-overhead structured event/span tracer (JSONL, per-process files).

The tracer mirrors the shape of an OpenTelemetry SDK without the
dependency: code opens *spans* (named, attributed, monotonic-clock
timed, parent/child nested through a per-thread stack) and emits point
*events*; every record is one JSON line appended to this process's own
file under the events directory, so concurrent workers never contend
on a shared handle.  The supervisor merges the per-worker files into
one ``trace.jsonl`` with :func:`merge`, ordered by span start time.

The engine opens the tracer for its process with :func:`activate`.
A worker forked *after* the parent activated inherits the parent's
tracer object; the first emit in the child notices the PID change and
re-opens a fresh per-PID file, so two processes never interleave
writes.  Each file is a non-durable :class:`repro.files.JsonlLog`: one
unbuffered ``write`` per event, nothing batched across a fork, and a
kill can only truncate the final line, which the shared reader skips.

Disabled (not activated), a span costs one global check and
allocates nothing -- the hot simulation paths stay at
reference speed.

Record shapes (one JSON object per line)::

    {"event": "meta", "version": 1, "worker": w, "pid": p,
     "mono": m, "wall": t, "seq": 0}
    {"event": "span", "name": n, "ts": start, "dur": seconds,
     "worker": w, "pid": p, "seq": i, "id": s, "parent": s_or_null,
     "attrs": {...}}
    {"event": "point", "name": n, "ts": t, "worker": w, "pid": p,
     "seq": i, "parent": s_or_null, "attrs": {...}}

``ts`` values are ``time.monotonic()`` readings.  ``CLOCK_MONOTONIC``
is machine-wide, so timestamps are directly comparable across the
supervisor and its workers; the meta line anchors them to wall-clock
time for export.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.files import JsonlLog, atomic_write, dumps_line, read_jsonl

#: Filename of the merged, time-ordered event stream.
MERGED_FILENAME = "trace.jsonl"

#: Subdirectory (under the store's versioned dir) holding worker files.
EVENTS_SUBDIR = "events"

#: Version of the event line format.
TRACE_SCHEMA_VERSION = 1

#: Keys every merged event must carry (schema check).
REQUIRED_KEYS = {
    "meta": ("worker", "pid", "mono", "wall"),
    "span": ("name", "ts", "dur", "worker", "pid", "seq"),
    "point": ("name", "ts", "worker", "pid", "seq"),
}


class _Tracer:
    """One process's tracer: its own append-only JSONL event log."""

    __slots__ = (
        "directory", "worker", "pid", "log", "seq", "ids",
        "context", "local", "lock",
    )

    def __init__(self, directory: Path, worker: Optional[str] = None) -> None:
        self.directory = Path(directory)
        self.pid = os.getpid()
        self.worker = worker if worker is not None else f"w{self.pid}"
        # Unbuffered: every event is one write() call, so a fork can
        # never duplicate half-flushed parent events into a child.
        self.log = JsonlLog(self.directory / f"{self.worker}.jsonl")
        self.seq = 0
        self.ids = 0
        self.context: Dict[str, object] = {}
        self.local = threading.local()
        self.lock = threading.Lock()
        self._write(
            {
                "event": "meta",
                "version": TRACE_SCHEMA_VERSION,
                "worker": self.worker,
                "pid": self.pid,
                "mono": time.monotonic(),
                "wall": time.time(),
            }
        )

    # -- low-level emission ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _write(self, document: dict, attrs: Optional[dict] = None) -> None:
        merged = dict(self.context)
        if attrs:
            merged.update(attrs)
        if merged:
            document["attrs"] = merged
        with self.lock:
            document["seq"] = self.seq
            self.seq += 1
            self.log.append(document)  # dropped once closed

    def new_id(self) -> int:
        with self.lock:
            self.ids += 1
            return self.ids

    def emit_span(
        self,
        name: str,
        start: float,
        duration: float,
        span_id: Optional[int] = None,
        parent: Optional[int] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        document = {
            "event": "span",
            "name": name,
            "ts": start,
            "dur": duration,
            "worker": self.worker,
            "pid": self.pid,
            "id": span_id if span_id is not None else self.new_id(),
            "parent": parent,
        }
        self._write(document, attrs)

    def emit_point(self, name: str, attrs: Optional[dict] = None) -> None:
        stack = self._stack()
        document = {
            "event": "point",
            "name": name,
            "ts": time.monotonic(),
            "worker": self.worker,
            "pid": self.pid,
            "parent": stack[-1] if stack else None,
        }
        self._write(document, attrs)


#: The process-wide tracer (None = tracing off).
_tracer: Optional[_Tracer] = None


def activate(
    directory: os.PathLike, worker: Optional[str] = None
) -> Optional[_Tracer]:
    """Open this process's event file under ``directory``; returns the
    tracer it replaces, for :func:`deactivate` to reinstate."""
    global _tracer
    previous, _tracer = _tracer, _Tracer(Path(directory), worker)
    return previous


def deactivate(previous: Optional[_Tracer] = None) -> None:
    """Close the event file and reinstate ``previous`` (None: tracing
    off; safe to call repeatedly)."""
    global _tracer
    if _tracer is not None:
        _tracer.log.close()
    _tracer = previous


def active() -> bool:
    return _current() is not None


def _current() -> Optional[_Tracer]:
    """The live tracer for *this* process, or None.

    A tracer inherited across ``fork`` is replaced with a fresh per-PID
    one -- the inherited log is abandoned (it is unbuffered, so it holds
    nothing).
    """
    global _tracer
    tracer = _tracer
    if tracer is not None and tracer.pid != os.getpid():
        tracer = _tracer = _Tracer(tracer.directory)
    return tracer


# -- context ------------------------------------------------------------------


def set_context(**attrs: object) -> None:
    """Stamp ``attrs`` onto every event this process emits (until
    cleared); the worker uses it to tag all of a run's spans with the
    run key / family / benchmark so reports can group flatly."""
    tracer = _current()
    if tracer is not None:
        tracer.context = dict(attrs)


def clear_context() -> None:
    tracer = _current()
    if tracer is not None:
        tracer.context = {}


# -- spans and events ---------------------------------------------------------


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("tracer", "name", "attrs", "span_id", "parent", "start")

    def __init__(self, tracer: _Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack()
        self.parent = stack[-1] if stack else None
        self.span_id = tracer.new_id()
        stack.append(self.span_id)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.monotonic() - self.start
        tracer = self.tracer
        stack = tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        tracer.emit_span(
            self.name, self.start, duration,
            span_id=self.span_id, parent=self.parent, attrs=self.attrs,
        )


def span(name: str, **attrs: object):
    """A context manager timing ``name``; no-op when tracing is off."""
    tracer = _current()
    if tracer is None:
        return _NOOP
    return _Span(tracer, name, attrs)


def emit_span(name: str, start: float, duration: float, **attrs: object) -> None:
    """Record an already-measured span (e.g. queue wait, whose start
    happened in another process)."""
    tracer = _current()
    if tracer is not None:
        tracer.emit_span(name, start, duration, attrs=attrs)


def event(name: str, **attrs: object) -> None:
    """Record a point event (a state transition: retry, degraded, ...)."""
    tracer = _current()
    if tracer is not None:
        tracer.emit_point(name, attrs)


# -- reading and merging ------------------------------------------------------


#: One event file, skipping a killed worker's truncated final line.
read_events = read_jsonl


def _merge_key(event_doc: dict):
    # Meta lines first (per worker), then span-start order across
    # workers with per-worker sequence numbers breaking ties -- within
    # one worker this is monotonic-timestamp order.
    return (
        event_doc.get("ts", float("-inf")),
        str(event_doc.get("worker", "")),
        event_doc.get("seq", 0),
    )


def merge_events(events_dir: os.PathLike) -> List[dict]:
    """All worker files under ``events_dir``, merged and time-ordered."""
    paths = sorted(Path(events_dir).glob("*.jsonl"))
    return sorted(
        (event for path in paths for event in read_jsonl(path)),
        key=_merge_key,
    )


def merge(events_dir: os.PathLike, out_path: os.PathLike) -> int:
    """Merge worker event files into ``out_path`` (atomic write).

    Returns the number of merged events.  An empty events directory
    still produces an (empty) output file, so downstream tooling can
    distinguish "traced, nothing happened" from "not traced".
    """
    events = merge_events(events_dir)
    atomic_write(out_path, (dumps_line(event_doc) for event_doc in events))
    return len(events)


def validate_events(events: List[dict]) -> List[str]:
    """Schema problems in a merged event stream (empty = well-formed)."""
    problems: List[str] = []
    for index, event_doc in enumerate(events):
        kind = event_doc.get("event")
        required = REQUIRED_KEYS.get(kind)
        if required is None:
            problems.append(f"line {index + 1}: unknown event kind {kind!r}")
            continue
        missing = [key for key in required if key not in event_doc]
        if missing:
            problems.append(
                f"line {index + 1}: {kind} event missing {missing}"
            )
            continue
        if kind == "span" and event_doc["dur"] < 0:
            problems.append(f"line {index + 1}: negative span duration")
    return problems
