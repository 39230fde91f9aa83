"""Trace reporting: attribution, replay, Chrome export, sweep history.

``python -m repro.experiments report`` lands here.  The input is the
merged ``trace.jsonl`` a traced sweep leaves under ``<cache-dir>/v1/``
(the per-worker files under ``events/`` are merged on the fly when the
sweep was killed before its supervisor could merge them):

* the default view is a wall-time attribution table -- per family /
  benchmark / phase / backend -- plus a coverage summary stating how
  much of the batch wall time the run spans account for;
* ``--run KEY`` replays one run's full event history (every attempt,
  queue wait, phase, retry and degradation) in time order; for a sweep
  that was not traced it prints the run's journal records instead
  (planned, leased, retry, degraded, completed, failed);
* ``--chrome FILE`` writes a ``chrome://tracing`` / Perfetto-compatible
  JSON export (one timeline row per worker process; remote agents get
  their own rows, named by agent);
* ``--check`` validates the event stream's schema and (optionally)
  enforces ``--min-coverage``, for CI smoke jobs.

Three subcommands sit on top of the sweep-history store
(:mod:`repro.obs.history`):

* ``report history`` lists recorded sweeps (id, time, backend, runs,
  wall/CPU time, peak RSS);
* ``report compare A B`` diffs two recorded sweeps -- counters, phase
  p50s and resource totals -- flagging shifts beyond each metric's
  noise band (derived from the within-sweep p50/p90 spread) as
  regressions; ``--check`` exits nonzero when any are flagged;
* ``report dashboard --html OUT`` renders the whole history (plus
  ``live.json`` and any ``BENCH_*.json`` reports) as one
  self-contained static HTML file.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.journal import JOURNAL_FILENAME
from repro.engine.metrics import EXACT, METRICS
from repro.files import read_jsonl
from repro.obs import history as obs_history
from repro.obs import phases as obs_phases
from repro.obs import trace as obs_trace
from repro.settings import SETTINGS, value

#: Span names that represent per-run simulation phases (the attribution
#: table rows); lifecycle/engine spans are summarized separately.
_RUN_SPAN = "run"
#: Supervisor-side record of a run executed by a remote worker agent
#: (distributed sweeps); counted as run time, never as a phase.
_REMOTE_RUN_SPAN = "remote_run"
_ENGINE_SPANS = ("batch", "plan", "dedup")


def _attr(event: dict, name: str, default: str = "-") -> str:
    value = (event.get("attrs") or {}).get(name)
    return str(value) if value is not None else default


def load_trace(cache_dir: Path) -> List[dict]:
    """The merged event stream for ``cache_dir`` (merging worker files
    when the supervisor never got to)."""
    directory = cache_dir / "v1"
    merged = directory / obs_trace.MERGED_FILENAME
    if merged.exists():
        return obs_trace.read_events(merged)
    return obs_trace.merge_events(directory / obs_trace.EVENTS_SUBDIR)


def attribution_rows(events: List[dict]) -> List[Sequence[object]]:
    """(family, benchmark, phase, backend, seconds, instructions, spans)
    rows, sorted by descending wall time."""
    buckets: Dict[tuple, List[float]] = defaultdict(lambda: [0.0, 0, 0])
    for event in events:
        if event.get("event") != "span":
            continue
        name = event.get("name")
        if name == _RUN_SPAN or name == _REMOTE_RUN_SPAN or name in _ENGINE_SPANS:
            continue
        attrs = event.get("attrs") or {}
        key = (
            str(attrs.get("family", "-")),
            str(attrs.get("benchmark", attrs.get("workload", "-"))),
            str(name),
            str(attrs.get("backend", "-")),
        )
        bucket = buckets[key]
        bucket[0] += float(event.get("dur", 0.0))
        bucket[1] += int(attrs.get("instructions", 0))
        bucket[2] += 1
    rows = [
        [family, benchmark, phase, backend, seconds, instructions, spans]
        for (family, benchmark, phase, backend), (
            seconds, instructions, spans,
        ) in buckets.items()
    ]
    rows.sort(key=lambda row: -row[4])
    return rows


def coverage(events: List[dict]) -> Dict[str, float]:
    """How much measured batch wall time the trace spans account for.

    ``batch_s`` sums the engine's batch spans; ``run_s`` sums worker
    run spans; ``supervisor_s`` sums supervisor-side work performed
    inside the batch but outside any run (technique analysis, trace
    generation, store writes).  ``accounted`` is their combined ratio,
    capped at 1 for parallel sweeps, where run spans overlap and
    legitimately sum past the batch."""
    batch_s = sum(
        float(e.get("dur", 0.0))
        for e in events
        if e.get("event") == "span" and e.get("name") == "batch"
    )
    run_s = sum(
        float(e.get("dur", 0.0))
        for e in events
        if e.get("event") == "span"
        and e.get("name") in (_RUN_SPAN, _REMOTE_RUN_SPAN)
    )
    supervisor_s = sum(
        float(e.get("dur", 0.0))
        for e in events
        if e.get("event") == "span"
        and e.get("worker") == "supervisor"
        and e.get("name") not in _ENGINE_SPANS
        and e.get("name") != "queue_wait"
        and e.get("name") != _REMOTE_RUN_SPAN
    )
    phase_s = sum(
        float(e.get("dur", 0.0))
        for e in events
        if e.get("event") == "span"
        and e.get("name") not in _ENGINE_SPANS
        and e.get("name") != _RUN_SPAN
        and e.get("name") != _REMOTE_RUN_SPAN
        and e.get("name") != "queue_wait"
    )
    accounted = (
        min(1.0, (run_s + supervisor_s) / batch_s) if batch_s > 0 else 0.0
    )
    return {
        "batch_s": batch_s,
        "run_s": run_s,
        "supervisor_s": supervisor_s,
        "phase_s": phase_s,
        "accounted": accounted,
    }


def agent_rows(
    events: List[dict],
    per_agent: Optional[Dict[str, dict]] = None,
) -> List[Sequence[object]]:
    """(agent, runs, seconds, phases, artifact hits/misses) rows from
    ``remote_run`` spans and streamed ``remote_phase`` events (empty
    for single-host sweeps), sorted by descending wall time.
    ``per_agent`` is engine-stats.json's table, which carries each
    agent's artifact-cache probe counters."""
    buckets: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0])
    for event in events:
        name = event.get("name")
        if event.get("event") == "span" and name == _REMOTE_RUN_SPAN:
            bucket = buckets[_attr(event, "agent", "?")]
            bucket[0] += 1
            bucket[1] += float(event.get("dur", 0.0))
        elif event.get("event") == "point" and name == "remote_phase":
            buckets[_attr(event, "agent", "?")][2] += 1
    stats = per_agent or {}
    rows = []
    for agent, (runs, seconds, phases) in buckets.items():
        entry = stats.get(agent, {})
        rows.append([
            agent, runs, seconds, phases,
            entry.get("artifact_hits", 0),
            entry.get("artifact_misses", 0),
        ])
    rows.sort(key=lambda row: -row[2])
    return rows


def per_agent_stats(cache_dir: Path) -> Dict[str, dict]:
    """engine-stats.json's ``per_agent`` table, if the sweep wrote one."""
    try:
        stats = json.loads(
            (cache_dir / "engine-stats.json").read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return {}
    return stats.get("per_agent", {}) or {}


def replay_lines(events: List[dict], run_prefix: str) -> List[str]:
    """One run's event history, in time order.

    ``run_prefix`` matches any event whose ``run`` attribute starts
    with it (content keys are long; a short unique prefix suffices).
    """
    origin: Optional[float] = None
    for event in events:
        ts = event.get("ts", event.get("mono"))
        if ts is not None:
            origin = ts if origin is None else min(origin, ts)
    lines: List[str] = []
    for event in events:
        run = _attr(event, "run", "")
        if not run.startswith(run_prefix):
            continue
        ts = event.get("ts")
        offset = (ts - origin) if (ts is not None and origin is not None) else 0.0
        attrs = dict(event.get("attrs") or {})
        attrs.pop("run", None)
        detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        span = event.get("event") == "span"
        duration = f"{event.get('dur', 0.0):.3f}s" if span else "(event)"
        lines.append(
            f"+{offset:9.3f}s  {event.get('worker', '?'):>12}  "
            f"{event['name']:<18} {duration}  {detail}"
        )
    return lines


def journal_lines(cache_dir: Path, run_prefix: str) -> List[str]:
    """One run's ``journal.jsonl`` records, in the order written: what
    ``--run`` shows for a sweep that was not traced."""
    lines: List[str] = []
    for record in read_jsonl(cache_dir / JOURNAL_FILENAME):
        key = record.pop("key", None)
        if not isinstance(key, str) or not key.startswith(run_prefix):
            continue
        event = record.pop("event", "?")
        detail = " ".join(f"{k}={v}" for k, v in sorted(record.items()))
        lines.append(f"{event:<18} {detail}")
    return lines


def _chrome_track(event: dict) -> str:
    """The timeline row an event belongs on.

    Supervisor-side records of remote work -- ``remote_run`` spans and
    the ``remote_phase`` points the lease server re-emits from agent
    obs streams -- are routed to a per-agent track named by the owning
    agent, rather than being buried in (or dropped from) the
    supervisor's own row, so a distributed sweep replays end-to-end.
    """
    name = event.get("name")
    if name in ("remote_phase", _REMOTE_RUN_SPAN):
        agent = (event.get("attrs") or {}).get("agent")
        if agent:
            return f"agent:{agent}"
    return str(event.get("worker", "?"))


def chrome_trace(events: List[dict]) -> dict:
    """A ``chrome://tracing`` / Perfetto ``traceEvents`` document.

    Each worker process becomes one timeline row (remote worker agents
    get their own ``agent:<name>`` rows); span timestamps are rebased
    to the earliest event and expressed in microseconds.
    """
    origin: Optional[float] = None
    for event in events:
        ts = event.get("ts", event.get("mono"))
        if ts is not None:
            origin = ts if origin is None else min(origin, ts)
    if origin is None:
        origin = 0.0
    trace_events: List[dict] = []
    workers = sorted(
        {_chrome_track(e) for e in events if e.get("event") != "meta"}
    )
    worker_pid = {worker: index + 1 for index, worker in enumerate(workers)}
    for worker, pid in worker_pid.items():
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": worker},
            }
        )
    for event in events:
        kind = event.get("event")
        pid = worker_pid.get(_chrome_track(event), 0)
        attrs = event.get("attrs") or {}
        if kind == "span":
            trace_events.append(
                {
                    "name": event.get("name", "?"),
                    "cat": "repro",
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": (event.get("ts", origin) - origin) * 1e6,
                    "dur": float(event.get("dur", 0.0)) * 1e6,
                    "args": attrs,
                }
            )
        elif kind == "point":
            trace_events.append(
                {
                    "name": event.get("name", "?"),
                    "cat": "repro",
                    "ph": "i",
                    "s": "p",
                    "pid": pid,
                    "tid": 0,
                    "ts": (event.get("ts", origin) - origin) * 1e6,
                    "args": attrs,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# -- sweep history: list, compare, dashboard ----------------------------------

#: Phase p50 noise band: relative tolerance on the baseline p50 plus an
#: absolute floor; the within-sweep p90-p50 spread of *either* sweep
#: widens the band further (a phase that varies that much between runs
#: of one sweep can drift that much between sweeps without meaning
#: anything).
_PHASE_REL_TOL = 0.5
_PHASE_ABS_FLOOR_S = 0.005


def compare_records(base: dict, cand: dict) -> dict:
    """Aligned diff of two sweep-history records.

    Returns ``{"rows": [...], "regressions": [...], "aligned": bool}``;
    each row is ``(metric, base, cand, band, status)`` with status one
    of ``ok`` / ``drift`` / ``improved`` / ``REGRESSION``.  Each
    registered metric is compared as its ``compare`` declares: exact
    counters first (a mismatch is drift), then noise-banded timings and
    resources, where only a shift *beyond the band in the
    slow/expensive direction* is a regression.
    """
    base_stats = base.get("stats") or {}
    cand_stats = cand.get("stats") or {}
    rows: List[Tuple[object, ...]] = []
    regressions: List[str] = []
    drift = False

    base_print = (base.get("sweep") or {}).get("fingerprint")
    cand_print = (cand.get("sweep") or {}).get("fingerprint")
    if base_print and cand_print and base_print != cand_print:
        drift = True
        rows.append(
            ("grid_fingerprint", str(base_print)[:12], str(cand_print)[:12],
             "-", "drift")
        )

    for metric in (m for m in METRICS if m.compare == EXACT):
        base_value = metric.value(base_stats, 0)
        cand_value = metric.value(cand_stats, 0)
        status = "ok"
        if base_value != cand_value:
            status = "drift"
            drift = True
        rows.append((metric.key, base_value, cand_value, "-", status))

    banded = [m for m in METRICS if isinstance(m.compare, tuple)]
    for metric in sorted(banded, key=lambda m: m.unit != "s"):  # time first
        rel_tol, abs_floor = metric.compare
        base_value = float(metric.value(base_stats, 0.0))
        cand_value = float(metric.value(cand_stats, 0.0))
        band = max(rel_tol * base_value, abs_floor)
        if cand_value > base_value + band:
            status = "REGRESSION"
            regressions.append(
                f"{metric.key}: {base_value:g} -> {cand_value:g} "
                f"(band +{band:g})"
            )
        elif base_value > cand_value + band:
            status = "improved"
        else:
            status = "ok"
        rows.append(
            (metric.key, round(base_value, 4), round(cand_value, 4),
             round(band, 4), status)
        )

    base_families = (base_stats.get("per_family") or {})
    cand_families = (cand_stats.get("per_family") or {})
    for family in sorted(set(base_families) & set(cand_families)):
        base_phases = base_families[family].get("phases") or {}
        cand_phases = cand_families[family].get("phases") or {}
        for phase in obs_phases.ordered(set(base_phases) & set(cand_phases)):
            base_entry = base_phases[phase]
            cand_entry = cand_phases[phase]
            base_p50 = float(base_entry.get("p50_s", 0.0) or 0.0)
            cand_p50 = float(cand_entry.get("p50_s", 0.0) or 0.0)
            spread = max(
                float(base_entry.get("p90_s", 0.0) or 0.0) - base_p50,
                float(cand_entry.get("p90_s", 0.0) or 0.0) - cand_p50,
                0.0,
            )
            band = max(
                spread, _PHASE_REL_TOL * base_p50, _PHASE_ABS_FLOOR_S
            )
            metric = f"{family}/{phase} p50_s"
            if cand_p50 > base_p50 + band:
                status = "REGRESSION"
                regressions.append(
                    f"{metric}: {base_p50:g}s -> {cand_p50:g}s "
                    f"(band +{band:g}s)"
                )
            elif base_p50 > cand_p50 + band:
                status = "improved"
            else:
                status = "ok"
            rows.append(
                (metric, round(base_p50, 5), round(cand_p50, 5),
                 round(band, 5), status)
            )

    return {"rows": rows, "regressions": regressions, "aligned": not drift}


def _cache_dir_flag(parser) -> None:
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help=f"sweep cache directory (default: ${SETTINGS['cache_dir'].env})",
    )


def _resolved_cache_dir(parser, given) -> Path:
    cache_dir = value("cache_dir", given)
    if cache_dir is None:
        parser.error(
            f"--cache-dir (or ${SETTINGS['cache_dir'].env}) is required"
        )
    return cache_dir


def _history_main(argv: List[str]) -> int:
    from repro.experiments.common import format_table

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments report history",
        description="List recorded sweeps from the sweep-history store.",
    )
    _cache_dir_flag(parser)
    parser.add_argument(
        "--backend", default=None, help="only sweeps on this backend"
    )
    parser.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="only the N most recent records",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit records as JSON lines"
    )
    args = parser.parse_args(argv)
    cache_dir = _resolved_cache_dir(parser, args.cache_dir)
    records = obs_history.read_records(cache_dir)
    if args.backend:
        records = [
            r for r in records
            if str((r.get("sweep") or {}).get("backend", "")) == args.backend
        ]
    if args.limit > 0:
        records = records[-args.limit:]
    if not records:
        print(
            f"no history records under "
            f"{obs_history.history_dir(cache_dir)}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0
    rows = [
        list(obs_history.summary_row(record).values()) for record in records
    ]
    print(format_table(obs_history.HISTORY_COLUMNS, rows))
    return 0


def _compare_main(argv: List[str]) -> int:
    from repro.experiments.common import format_table

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments report compare",
        description="Diff two recorded sweeps (counters, phase p50s, "
        "resources), flagging shifts beyond each metric's noise band.",
    )
    parser.add_argument(
        "base", help="baseline record: id prefix, or -N (e.g. -2)"
    )
    parser.add_argument(
        "candidate", help="candidate record: id prefix, or -N (e.g. -1)"
    )
    _cache_dir_flag(parser)
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when any regression is flagged",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the diff as JSON"
    )
    args = parser.parse_args(argv)
    cache_dir = _resolved_cache_dir(parser, args.cache_dir)
    records = [
        r for r in obs_history.read_records(cache_dir)
        if r.get("kind") == "sweep"
    ]
    try:
        base = obs_history.resolve(records, args.base)
        cand = obs_history.resolve(records, args.candidate)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    result = compare_records(base, cand)
    if args.json:
        print(json.dumps(
            {
                "base": base.get("id"),
                "candidate": cand.get("id"),
                "aligned": result["aligned"],
                "regressions": result["regressions"],
                "rows": [list(row) for row in result["rows"]],
            },
            sort_keys=True,
        ))
    else:
        print(
            f"base      {str(base.get('id'))[:12]}  "
            f"{obs_history.summary_row(base)['when']}"
        )
        print(
            f"candidate {str(cand.get('id'))[:12]}  "
            f"{obs_history.summary_row(cand)['when']}"
        )
        print()
        print(format_table(
            ("metric", "base", "candidate", "noise band", "status"),
            [list(row) for row in result["rows"]],
        ))
        print()
        if result["regressions"]:
            for line in result["regressions"]:
                print(f"REGRESSION: {line}")
        else:
            aligned = "aligned" if result["aligned"] else "drifted"
            print(f"no regressions flagged; counters {aligned}")
    if args.check and result["regressions"]:
        return 1
    return 0


def _dashboard_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments report dashboard",
        description="Render the sweep history, live state and BENCH "
        "trajectory as one self-contained static HTML file.",
    )
    _cache_dir_flag(parser)
    parser.add_argument(
        "--html", type=Path, required=True, metavar="OUT",
        help="output HTML path",
    )
    args = parser.parse_args(argv)
    cache_dir = _resolved_cache_dir(parser, args.cache_dir)
    from repro.obs.dashboard import render_html

    text = render_html(cache_dir)
    args.html.parent.mkdir(parents=True, exist_ok=True)
    args.html.write_text(text, encoding="utf-8")
    print(f"wrote dashboard ({len(text)} bytes) to {args.html}")
    return 0


def _print_run(run_prefix: str, lines: List[str], title: str) -> int:
    if not lines:
        print(f"no events match run prefix {run_prefix!r}", file=sys.stderr)
        return 1
    print(f"run {run_prefix} {title}:")
    for line in lines:
        print(f"  {line}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "history":
        return _history_main(argv[1:])
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
    if argv and argv[0] == "dashboard":
        return _dashboard_main(argv[1:])

    from repro.experiments.common import format_table

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments report",
        description="Render a traced sweep's trace.jsonl: wall-time "
        "attribution, per-run replay, Chrome/Perfetto export.",
    )
    _cache_dir_flag(parser)
    parser.add_argument(
        "--run",
        metavar="KEY",
        default=None,
        help="replay one run's event history (content-key prefix)",
    )
    parser.add_argument(
        "--chrome",
        metavar="FILE",
        type=Path,
        default=None,
        help="write a chrome://tracing-compatible trace-viewer.json",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the event stream schema (exit 1 on problems)",
    )
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=None,
        metavar="FRACTION",
        help="with --check: fail unless trace spans cover at least this "
        "fraction of batch wall time",
    )
    args = parser.parse_args(argv)

    cache_dir = _resolved_cache_dir(parser, args.cache_dir)
    events = load_trace(cache_dir)
    if not events and args.run and not (args.check or args.chrome):
        return _print_run(
            args.run, journal_lines(cache_dir, args.run),
            "journal history (sweep not traced)",
        )
    if not events:
        print(
            f"no trace events under {cache_dir} -- was the sweep run "
            "with --trace?",
            file=sys.stderr,
        )
        return 1

    if args.check:
        problems = obs_trace.validate_events(events)
        stats = coverage(events)
        if args.min_coverage is not None and stats["accounted"] < args.min_coverage:
            problems.append(
                f"trace spans cover {stats['accounted']:.1%} of batch wall "
                f"time, below --min-coverage {args.min_coverage:.1%}"
            )
        if problems:
            for problem in problems:
                print(f"check: {problem}", file=sys.stderr)
            return 1
        print(
            f"check: {len(events)} events well-formed, trace spans cover "
            f"{stats['accounted']:.1%} of batch wall time"
        )

    if args.chrome is not None:
        document = chrome_trace(events)
        args.chrome.parent.mkdir(parents=True, exist_ok=True)
        args.chrome.write_text(json.dumps(document) + "\n", encoding="utf-8")
        print(
            f"wrote {len(document['traceEvents'])} trace events to "
            f"{args.chrome} (open in chrome://tracing or ui.perfetto.dev)"
        )

    if args.run is not None:
        return _print_run(
            args.run, replay_lines(events, args.run), "event history"
        )

    if args.check or args.chrome is not None:
        return 0

    rows = attribution_rows(events)
    if rows:
        print(
            format_table(
                (
                    "family", "benchmark", "phase", "backend",
                    "seconds", "instructions", "spans",
                ),
                rows,
            )
        )
    agents = agent_rows(events, per_agent_stats(cache_dir))
    if agents:
        print("\nremote worker agents:")
        print(format_table(
            ("agent", "runs", "seconds", "phases",
             "artifact hits", "misses"),
            agents,
        ))
    stats = coverage(events)
    print(
        f"\nbatch wall time {stats['batch_s']:.3f}s; run spans "
        f"{stats['run_s']:.3f}s + supervisor work "
        f"{stats['supervisor_s']:.3f}s ({stats['accounted']:.1%} "
        f"accounted); phase spans {stats['phase_s']:.3f}s"
    )
    return 0
