"""Zero-dependency static dashboard for the sweep-history store.

``python -m repro.experiments report dashboard --html OUT`` lands here.
:func:`render_html` folds two data sources into one self-contained
HTML file -- inline CSS, inline SVG sparklines, not a single external
URL -- so the output renders from a file:// open on an air-gapped CI
artifact browser:

* the sweep-history store (:mod:`repro.obs.history`): per-sweep wall /
  CPU / peak-RSS trend lines and a recent-sweeps table;
* the live snapshot (``<cache-dir>/v1/live.json``) left by the most
  recent (or still-running) sweep: progress, in-flight runs, queue
  depth, connected agents, per-agent artifact hit rates.

Everything is rendered server-side; the only script in the page is a
few inline lines that stamp relative ages, and the page degrades to
plain tables with JavaScript disabled.
"""

from __future__ import annotations

import html
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.engine.metrics import AGENT_FIELDS, METRICS, artifact_hit_rate
from repro.obs import history as obs_history
from repro.obs.live import LIVE_FILENAME

_SPARK_W = 220
_SPARK_H = 36
_SPARK_PAD = 3


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def sparkline(values: Sequence[float], unit: str = "") -> str:
    """An inline SVG sparkline for ``values`` (empty-safe)."""
    points = [float(v) for v in values if v is not None]
    if not points:
        return '<span class="muted">no data</span>'
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    inner_w = _SPARK_W - 2 * _SPARK_PAD
    inner_h = _SPARK_H - 2 * _SPARK_PAD
    step = inner_w / max(1, len(points) - 1)
    coords = []
    for index, value in enumerate(points):
        x = _SPARK_PAD + index * step
        y = _SPARK_PAD + inner_h * (1.0 - (value - lo) / span)
        coords.append(f"{x:.1f},{y:.1f}")
    last = points[-1]
    label = f"{last:g}{unit}"
    title = (
        f"{len(points)} samples, min {lo:g}{unit}, max {hi:g}{unit}, "
        f"last {last:g}{unit}"
    )
    polyline = " ".join(coords)
    last_x, last_y = coords[-1].split(",")
    return (
        f'<svg class="spark" width="{_SPARK_W}" height="{_SPARK_H}" '
        f'viewBox="0 0 {_SPARK_W} {_SPARK_H}" role="img">'
        f"<title>{_esc(title)}</title>"
        f'<polyline points="{polyline}" fill="none" '
        f'stroke="currentColor" stroke-width="1.5"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="2.5" '
        f'fill="currentColor"/></svg>'
        f'<span class="spark-label">{_esc(label)}</span>'
    )


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _section(title: str, body: str, note: str = "") -> str:
    note_html = f'<p class="muted">{_esc(note)}</p>' if note else ""
    return f"<section><h2>{_esc(title)}</h2>{note_html}{body}</section>"


def _load_live(cache_dir: Path) -> Optional[dict]:
    path = Path(cache_dir) / "v1" / LIVE_FILENAME
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _cell(value: object) -> str:
    """An escaped table cell; floats keep six significant digits."""
    return _esc(f"{value:.6g}" if isinstance(value, float) else value)


def _num(value: object) -> float:
    """Lenient numeric coercion (summary rows use "-" for absent)."""
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0.0


def _history_section(records: List[dict]) -> str:
    sweeps = [r for r in records if r.get("kind") == "sweep"]
    if not sweeps:
        return _section(
            "Sweep history",
            '<p class="muted">No sweeps recorded yet. Every sweep run '
            "with a cache directory records one unless "
            "<code>--no-history</code> is given.</p>",
        )
    rows = [obs_history.summary_row(r) for r in sweeps]
    measured = {metric.column for metric in METRICS if metric.column}
    trends = _table(
        ("metric", "trend (oldest &rarr; newest)"),
        [
            (_esc(column), sparkline([_num(row[column]) for row in rows]))
            for column in obs_history.HISTORY_COLUMNS if column in measured
        ],
    )
    recent = _table(
        obs_history.HISTORY_COLUMNS,
        [[_cell(cell) for cell in row.values()] for row in rows[-20:]],
    )
    note = f"{len(sweeps)} recorded sweep(s); table shows the last 20."
    return _section("Sweep history", trends + recent, note)


#: ``LeaseLedger.agents_snapshot`` fields in the live agents table.
_LIVE_AGENT_FIELDS = ("agent", "state", "runs", "idle_s", "phase")


def _live_section(live: Optional[dict]) -> str:
    if not live:
        return _section(
            "Live sweep",
            '<p class="muted">No <code>live.json</code> found; no sweep '
            "is running (or the last one predates live telemetry).</p>",
        )
    metrics = live.get("metrics") or {}
    updated = live.get("updated_unix")
    facts = [
        ("updated",
         f'<span data-unix="{_esc(updated)}">'
         f"{_esc(_strftime(updated))}</span>"),
        ("pid", _esc(live.get("pid", "-"))),
        ("in-flight runs",
         _esc(live.get("in_flight_runs", len(live.get("in_flight") or [])))),
        ("queued runs", _esc(live.get("queued", 0))),
    ] + [
        (f'<span title="{_esc(metric.help)}">{_esc(metric.key)}</span>',
         _cell(metric.value(metrics)))
        for metric in METRICS if metric.value(metrics)
    ]
    body = _table(("fact", "value"), facts)
    agents = live.get("agents") or []
    if agents:
        body += "<h3>Connected agents</h3>" + _table(
            _LIVE_AGENT_FIELDS,
            [[_cell(a.get(name, "-")) for name in _LIVE_AGENT_FIELDS]
             for a in agents],
        )
    return _section("Live sweep", body)


def _agents_section(records: List[dict], live: Optional[dict]) -> str:
    per_agent: Dict[str, dict] = {}
    sweeps = [r for r in records if r.get("kind") == "sweep"]
    if sweeps:
        per_agent = (sweeps[-1].get("stats") or {}).get("per_agent") or {}
    if not per_agent and live:
        per_agent = (live.get("metrics") or {}).get("per_agent") or {}
    if not per_agent:
        return _section(
            "Agent artifact hit rates",
            '<p class="muted">No per-agent stats recorded (the most '
            "recent sweep was not distributed).</p>",
        )
    rows = [
        [_esc(agent)]
        + [_cell(entry.get(name, 0)) for name in AGENT_FIELDS]
        + [_esc(artifact_hit_rate(entry))]
        for agent, entry in sorted(per_agent.items())
    ]
    return _section(
        "Agent artifact hit rates",
        _table(("agent",) + AGENT_FIELDS + ("hit rate",), rows),
        "From the most recent recorded sweep.",
    )


def _strftime(unix: object) -> str:
    try:
        stamp = float(unix)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(stamp))


_CSS = """
:root { color-scheme: light dark; }
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; }
h1 { font-size: 1.4rem; }
h2 { font-size: 1.1rem; border-bottom: 1px solid #8884;
     padding-bottom: .25rem; margin-top: 2rem; }
h3 { font-size: 1rem; }
table { border-collapse: collapse; margin: .5rem 0 1rem; width: 100%; }
th, td { border: 1px solid #8883; padding: .3rem .55rem;
         text-align: left; vertical-align: middle;
         font-variant-numeric: tabular-nums; }
th { background: #8881; }
.muted { opacity: .65; }
.spark { vertical-align: middle; color: #2a7ae2; }
.spark-label { margin-left: .5rem; font-variant-numeric: tabular-nums; }
code { background: #8882; padding: 0 .25rem; border-radius: 3px; }
footer { margin-top: 2rem; font-size: .85rem; opacity: .65; }
"""

_JS = """
for (const el of document.querySelectorAll('[data-unix]')) {
  const t = parseFloat(el.getAttribute('data-unix'));
  if (!isFinite(t)) continue;
  const age = Math.max(0, Date.now() / 1000 - t);
  const label = age < 120 ? Math.round(age) + 's ago'
    : age < 7200 ? Math.round(age / 60) + 'm ago'
    : Math.round(age / 3600) + 'h ago';
  el.textContent = el.textContent + ' (' + label + ')';
}
"""


def render_html(cache_dir: Path, now_unix: Optional[float] = None) -> str:
    """One self-contained HTML page for ``cache_dir``'s observatory.

    The page embeds everything inline -- CSS, SVG, the few lines of
    JS -- and references no external resource, so it renders offline
    and CI can assert self-containedness by grepping for URLs.
    """
    cache_dir = Path(cache_dir)
    records = obs_history.read_records(cache_dir)
    live = _load_live(cache_dir)
    generated = now_unix if now_unix is not None else time.time()
    body = "".join([
        _history_section(records),
        _live_section(live),
        _agents_section(records, live),
    ])
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<title>repro sweep observatory</title>\n"
        f"<style>{_CSS}</style></head>\n"
        "<body>\n"
        f"<h1>repro sweep observatory</h1>\n"
        f'<p class="muted">cache dir <code>{_esc(cache_dir)}</code> '
        f"&middot; generated {_esc(_strftime(generated))} &middot; "
        f"{len(records)} history record(s)</p>\n"
        f"{body}\n"
        "<footer>Self-contained report: no external scripts, styles, "
        "fonts or images.</footer>\n"
        f"<script>{_JS}</script>\n"
        "</body></html>\n"
    )
