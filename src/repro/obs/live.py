"""Live sweep telemetry: in-flight snapshots and Prometheus export.

The executor keeps an :class:`InflightTracker` up to date as runs
start, change phase, retry and finish; a :class:`LiveMonitor` daemon
thread snapshots it -- along with the engine's counters -- to
``<cache-dir>/v1/live.json`` atomically every second, and optionally
renders the counters as a Prometheus textfile (node_exporter's
textfile collector format) for scrape-based monitoring.

Both files are written with :func:`repro.files.atomic_write`, so a
reader polling ``live.json`` never observes a torn write.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.files import atomic_write

#: Filename of the live snapshot under the store's versioned directory.
LIVE_FILENAME = "live.json"

#: Version of the live.json document format.
LIVE_SCHEMA_VERSION = 1


class InflightTracker:
    """Thread-safe view of what the sweep is doing *right now*.

    The executor (and its in-process runner) mutate it; the
    :class:`LiveMonitor` and :class:`ProgressReporter
    <repro.engine.metrics.ProgressReporter>` read it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runs: Dict[int, dict] = {}
        self.queued = 0
        self.done = 0
        self.total = 0

    def start(
        self,
        slot: int,
        *,
        key: str = "",
        description: str = "",
        attempt: int = 1,
        backend: Optional[str] = None,
        pid: Optional[int] = None,
        started: Optional[float] = None,
        runs: int = 1,
    ) -> None:
        with self._lock:
            self._runs[slot] = {
                "slot": slot,
                "key": key,
                "description": description,
                "attempt": attempt,
                "backend": backend,
                "pid": pid,
                "phase": None,
                "phase_attrs": {},
                "started": started if started is not None else time.monotonic(),
                "runs": max(1, runs),
            }

    def set_phase(
        self, slot: int, phase: str, attrs: Optional[dict] = None
    ) -> None:
        """Record the slot's current phase, with optional attributes
        (e.g. ``timing_batch`` carries ``configs``)."""
        with self._lock:
            run = self._runs.get(slot)
            if run is not None:
                run["phase"] = phase
                run["phase_attrs"] = dict(attrs) if attrs else {}

    def set_pid(self, slot: int, pid: int) -> None:
        with self._lock:
            run = self._runs.get(slot)
            if run is not None:
                run["pid"] = pid

    def finish(self, slot: int) -> None:
        with self._lock:
            self._runs.pop(slot, None)

    def sync(self, runs: List[dict], queued: int) -> None:
        """Replace the whole in-flight view (parallel-supervisor path).

        Rebuilding from scratch every poll keeps the view self-healing
        across worker kills and requeues; each entry needs ``slot`` and
        ``started`` plus whatever else is known.
        """
        with self._lock:
            self._runs = {
                run["slot"]: {
                    "slot": run["slot"],
                    "key": run.get("key", ""),
                    "description": run.get("description", ""),
                    "attempt": run.get("attempt", 1),
                    "backend": run.get("backend"),
                    "pid": run.get("pid"),
                    "phase": run.get("phase"),
                    "phase_attrs": run.get("phase_attrs") or {},
                    "started": run.get("started", time.monotonic()),
                    "runs": max(1, run.get("runs", 1)),
                }
                for run in runs
            }
            self.queued = queued

    def set_queue(self, queued: int) -> None:
        with self._lock:
            self.queued = queued

    def set_progress(self, done: int, total: int) -> None:
        with self._lock:
            self.done = done
            self.total = total

    def clear(self) -> None:
        with self._lock:
            self._runs.clear()
            self.queued = 0

    def counts(self) -> Dict[str, int]:
        """Member-weighted counts: a config-batched execution is one
        tracker entry but ``len(members)`` in-flight runs, so ETAs and
        gauges stay in run units rather than task units."""
        with self._lock:
            return {
                "in_flight": sum(
                    run.get("runs", 1) for run in self._runs.values()
                ),
                "queued": self.queued,
            }

    def snapshot(self) -> dict:
        now = time.monotonic()
        with self._lock:
            in_flight = [
                {
                    "slot": run["slot"],
                    "key": run["key"],
                    "description": run["description"],
                    "attempt": run["attempt"],
                    "backend": run["backend"],
                    "pid": run["pid"],
                    "phase": run["phase"],
                    "phase_attrs": run.get("phase_attrs") or {},
                    "elapsed_s": round(now - run["started"], 3),
                    "runs": run.get("runs", 1),
                }
                for run in sorted(self._runs.values(), key=lambda r: r["slot"])
            ]
            return {
                "in_flight": in_flight,
                "in_flight_runs": sum(run["runs"] for run in in_flight),
                "queued": self.queued,
                "done": self.done,
                "total": self.total,
            }


def _prometheus_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _samples(metric, source: dict) -> List[Tuple[str, object]]:
    """(labels, value) samples of one registered series in ``source``."""
    if not metric.label:
        value = metric.value(source)
        if value is None and metric.derive is not None:
            value = metric.derive(source)
        return [] if value is None else [("", value)]
    table, _, column = metric.key.partition(".")
    return [
        ('{%s="%s"}' % (metric.label, _prometheus_escape(str(name))),
         entry.get(column, 0) if column else entry)
        for name, entry in sorted((source.get(table) or {}).items())
        if not column or isinstance(entry, dict)
    ]


def render_prometheus(
    metrics: dict,
    tracker_counts: Dict[str, int],
    agents: Optional[List[dict]] = None,
) -> str:
    """Engine metrics as Prometheus textfile-collector gauges.

    Every series is declared in :mod:`repro.engine.metrics`: the
    top-level :data:`METRICS` sorted by name, then the nested ones, then
    the labelled and live :data:`SERIES` (``tracker_counts`` and the
    lease server's ``agents`` snapshot, when distributed, feed the live
    gauges).  Each series is one contiguous group with exactly one
    ``# HELP`` and one ``# TYPE`` preamble, as the exposition format
    requires (:func:`lint_prometheus` checks the invariant).
    """
    # Imported here: repro.engine imports this module at start-up.
    from repro.engine.metrics import METRICS, SERIES

    source = dict(metrics, live=tracker_counts, agents=agents)
    declared = sorted(
        (m for m in METRICS if not m.path), key=lambda m: m.name
    ) + [m for m in METRICS if m.path] + list(SERIES)
    lines: List[str] = []
    for metric in declared:
        samples = _samples(metric, source)
        if not samples:
            continue
        name = f"repro_sweep_{metric.name}"
        lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} gauge")
        lines.extend(f"{name}{labels} {value}" for labels, value in samples)
    return "\n".join(lines) + "\n"


#: Exposition-format grammar fragments for :func:`lint_prometheus`.
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>\S+)$"
)
_LABELS_RE = re.compile(
    r'^\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\}$'
)


def lint_prometheus(text: str) -> List[str]:
    """Strict exposition-format problems in a textfile (empty = clean).

    Enforces what a picky scraper would: every sample's metric has a
    ``# HELP`` and ``# TYPE`` preamble *before* its first sample, each
    emitted exactly once, all of a metric's lines form one contiguous
    group, names and label syntax match the grammar, and values parse
    as floats.
    """
    problems: List[str] = []
    helped: set = set()
    typed: set = set()
    sampled: set = set()
    closed: set = set()
    current: Optional[str] = None

    def enter_group(name: str, line_no: int) -> None:
        nonlocal current
        if name == current:
            return
        if name in closed:
            problems.append(
                f"line {line_no}: metric {name} reappears after its "
                "group ended (series must be contiguous)"
            )
        if current is not None:
            closed.add(current)
        current = name

    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            keyword = line[2:6]
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                problems.append(
                    f"line {line_no}: malformed {keyword} line"
                )
                continue
            name = parts[2]
            if not _METRIC_NAME_RE.match(name):
                problems.append(
                    f"line {line_no}: invalid metric name {name!r}"
                )
                continue
            enter_group(name, line_no)
            registry = helped if keyword == "HELP" else typed
            if name in registry:
                problems.append(
                    f"line {line_no}: duplicate # {keyword} for {name}"
                )
            registry.add(name)
            if keyword == "TYPE":
                kind = parts[3].strip()
                if kind not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(
                        f"line {line_no}: invalid TYPE {kind!r} for {name}"
                    )
                if name in sampled:
                    problems.append(
                        f"line {line_no}: # TYPE for {name} after its "
                        "samples"
                    )
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {line_no}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        labels = match.group("labels")
        enter_group(name, line_no)
        if name not in helped:
            problems.append(
                f"line {line_no}: sample for {name} without # HELP"
            )
        if name not in typed:
            problems.append(
                f"line {line_no}: sample for {name} without # TYPE"
            )
        if labels is not None and not _LABELS_RE.match(labels):
            problems.append(
                f"line {line_no}: malformed labels {labels!r} on {name}"
            )
        try:
            float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {line_no}: non-numeric value "
                f"{match.group('value')!r} for {name}"
            )
        sampled.add(name)
    for name in sorted((helped | typed) - sampled):
        problems.append(f"metric {name} has a preamble but no samples")
    return problems


class LiveMonitor:
    """Heartbeat thread: ``live.json`` + Prometheus textfile each tick."""

    def __init__(
        self,
        tracker: InflightTracker,
        live_path: Optional[os.PathLike] = None,
        metrics_path: Optional[os.PathLike] = None,
        metrics_source: Optional[Callable[[], dict]] = None,
        interval: float = 1.0,
        agents_source: Optional[Callable[[], List[dict]]] = None,
    ) -> None:
        self.tracker = tracker
        self.live_path = Path(live_path) if live_path is not None else None
        self.metrics_path = Path(metrics_path) if metrics_path is not None else None
        self.metrics_source = metrics_source
        #: Lease-server agents snapshot (settable after construction:
        #: the engine builds the server after its telemetry).
        self.agents_source = agents_source
        self.interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def write_once(self) -> None:
        metrics = {}
        if self.metrics_source is not None:
            try:
                metrics = self.metrics_source()
            except Exception:
                metrics = {}
        agents: Optional[List[dict]] = None
        if self.agents_source is not None:
            try:
                agents = self.agents_source()
            except Exception:
                agents = None
        if self.live_path is not None:
            document = {
                "version": LIVE_SCHEMA_VERSION,
                "updated_unix": time.time(),
                "pid": os.getpid(),
            }
            document.update(self.tracker.snapshot())
            if agents is not None:
                document["agents"] = agents
            document["metrics"] = metrics
            atomic_write(
                self.live_path,
                json.dumps(document, indent=2, sort_keys=True, default=str) + "\n",
            )
        if self.metrics_path is not None:
            atomic_write(
                self.metrics_path,
                render_prometheus(metrics, self.tracker.counts(), agents),
            )

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.write_once()
            except Exception:
                pass  # telemetry must never take a sweep down

    def start(self) -> None:
        if self._thread is not None:
            return
        self.write_once()
        self._thread = threading.Thread(
            target=self._run, name="repro-live-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        try:
            self.write_once()  # final state, with the sweep quiesced
        except Exception:
            pass
