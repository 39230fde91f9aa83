"""Observability: structured tracing, phase timing, live telemetry.

The engine and the simulation layers emit three kinds of signal through
this package, all of them parity-safe (they carry *no* simulation
state, so traced and untraced sweeps produce bit-identical results).
Every engine counter these modules render -- in ``live.json``, the
Prometheus textfile, history records, ``report compare`` and the
dashboard -- is declared once in the metric registry
(:data:`repro.engine.metrics.METRICS` and ``SERIES``), and these
modules iterate the registry instead of naming counters themselves.

:mod:`repro.obs.trace`
    A low-overhead structured event/span tracer.  Workers append JSONL
    events to ``<cache-dir>/v1/events/<worker>.jsonl``; the supervisor
    merges every worker file into a single ``trace.jsonl`` ordered by
    span start time.  Disabled, a span costs one module-global check.

:mod:`repro.obs.phases`
    A per-run phase-timing ledger.  The simulation primitives record
    how long each run spent warming, simulating in detail, loading
    traces and restoring checkpoints; the worker drains the ledger into
    ``TechniqueResult.phase_times`` and the engine aggregates it into
    per-family and per-backend histograms in ``engine-stats.json``.

:mod:`repro.obs.live`
    Live telemetry: a supervisor-side heartbeat thread snapshots the
    in-flight runs to ``<cache-dir>/v1/live.json`` every second and,
    optionally, exports engine counters as a Prometheus textfile.

:mod:`repro.obs.resources`
    Per-run resource telemetry: peak RSS and CPU-time deltas sampled
    around each run (``getrusage`` + ``/proc/self/statm``), flowing
    through worker return values and the wire protocol into
    ``engine-stats.json`` and the Prometheus export.

:mod:`repro.obs.history`
    The append-only sweep-history store: one content-addressed JSONL
    record per sweep under ``<cache-dir>/v1/history/``, powering the
    ``report history`` / ``compare`` / ``dashboard`` subcommands.

:mod:`repro.obs.report`
    The ``python -m repro.experiments report`` surface: wall-time
    attribution tables, per-run replay, a Chrome/Perfetto
    ``trace-viewer.json`` export, and the sweep-history subcommands
    (imported on demand, not re-exported here, to keep this package
    free of experiment dependencies).

:mod:`repro.obs.dashboard`
    A zero-dependency static HTML renderer for the history store and
    the live snapshot (imported on demand).
"""

from repro.obs import history, phases, resources, trace

__all__ = ["history", "phases", "resources", "trace"]
