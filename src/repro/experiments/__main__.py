"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table2 figure7
    python -m repro.experiments figure1 --benchmarks gcc,mcf --depth quick
    python -m repro.experiments figure1 --jobs 8 --cache-dir ~/.cache/repro
    python -m repro.experiments all --full

Every sweep setting is one entry of :data:`repro.settings.SETTINGS`;
the flags are built from it and resolve flag > environment variable >
default (``--help`` prints each flag's variable and default).

Distributed sweeps: ``--listen HOST:PORT`` accepts remote worker
agents (``python -m repro.engine.worker --connect HOST:PORT``) that
lease runs from the sweep's queue; ``--workers-remote N`` gates the
launch on N agents connecting, and ``--jobs 0`` makes the sweep
remote-only.  See EXPERIMENTS.md, "Distributed sweeps".

``python -m repro.experiments report`` renders a traced sweep's
``trace.jsonl`` (wall-time attribution, ``--run KEY`` replay,
``--chrome`` export); its ``history`` / ``compare`` / ``dashboard``
subcommands read the sweep-history store every cached sweep appends to
at exit (``<cache-dir>/v1/history/``); see :mod:`repro.obs.report`.

``--no-cache`` disables the persistent cache even when a directory is
configured.  When a cache directory is active, engine metrics are
written to ``<cache-dir>/engine-stats.json`` after the run and every
run's fate is journaled to ``<cache-dir>/journal.jsonl``; ``--resume``
replays that journal so an interrupted sweep skips its completed runs.
The cache directory also hosts the shared trace store
(``<cache-dir>/traces``, disable with ``--no-trace-cache``) and the
functional warm-state checkpoints (``<cache-dir>/checkpoints``,
spacing via ``--checkpoint-interval`` in paper-M instructions; 0
disables checkpointing).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cpu.kernels.registry import (
    activate as activate_backend,
    resolve_backend_name,
)
from repro.experiments import figure1, figure2, figure3_4, figure5, figure6
from repro.experiments import figure7, latency_sweep, section52, survey, tables
from repro.experiments.common import ExperimentContext, default_benchmarks
from repro.settings import SETTINGS, Setting, value

EXPERIMENTS = {
    "table1": tables.table1,
    "table2": tables.table2,
    "table3": tables.table3,
    "figure1": figure1.run,
    "figure2": figure2.run,
    "figure3": figure3_4.run_figure3,
    "figure4": figure3_4.run_figure4,
    "figure5": figure5.run,
    "figure6": figure6.run,
    "figure7": figure7.run,
    "latency-sweep": latency_sweep.run,
    "pb-latency": latency_sweep.run_pb_latency,
    "section52-profile": section52.run_profile,
    "section52-architectural": section52.run_architectural,
    "survey": survey.run,
}


def _add_setting(parser: argparse.ArgumentParser, setting: Setting) -> None:
    """One ``SETTINGS`` entry as argparse flag(s); absent = None, so
    the environment and the default still apply."""
    default = setting.shown
    if setting.env is not None:
        default = f"${setting.env} or {default}"
    help_text = f"{setting.help} (default: {default})".replace("%", "%%")
    if not setting.switch:
        def parse(raw: str):
            try:
                return setting.parse(raw)
            except (TypeError, ValueError):
                raise argparse.ArgumentTypeError(
                    f"must be {setting.kind}, got {raw!r}"
                ) from None

        parser.add_argument(
            setting.flag, dest=setting.name, type=parse, default=None,
            metavar=setting.metavar, help=help_text,
        )
        return
    on, _, off = setting.flag.partition("/")
    action = "store_false" if setting.default and not off else "store_true"
    parser.add_argument(
        on, dest=setting.name, action=action, default=None, help=help_text
    )
    if off:
        parser.add_argument(
            off, dest=setting.name, action="store_false",
            help=f"turn {on} off even when ${setting.env} requests it",
        )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        # Trace reporting is its own surface with its own flags.
        from repro.obs.report import main as report_main

        return report_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list'), or 'all'",
    )
    for setting in SETTINGS.values():
        _add_setting(parser, setting)
    args = parser.parse_args(argv)
    settings = {name: getattr(args, name) for name in SETTINGS}

    # Resolve once (flag > env > default) and activate the result as the
    # process default; the engine's forked workers inherit it.
    try:
        backend = resolve_backend_name(settings.pop("backend"))
    except ValueError as exc:
        parser.error(str(exc))
    activate_backend(backend)

    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; try 'list'")

    try:
        full, no_cache = settings.pop("full"), settings.pop("no_cache")
        settings["benchmarks"] = (
            settings["benchmarks"] or default_benchmarks(full)
        )
        # The CLI's one departure from the table: all cores by default.
        settings["jobs"] = value(
            "jobs", settings["jobs"], default=lambda: os.cpu_count() or 1
        )
        settings["cache_dir"] = (
            None if value("no_cache", no_cache)
            else value("cache_dir", settings["cache_dir"])
        )
        context = ExperimentContext(progress=sys.stderr.isatty(), **settings)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        for name in names:
            report = EXPERIMENTS[name](context)
            print(report.render())
            print()
    finally:
        stats_path = context.engine.write_stats()
        context.engine.close()
    metrics = context.engine.metrics
    if metrics.runs_requested:
        summary = (
            f"[engine] {metrics.runs_requested} runs requested, "
            f"{metrics.runs_launched} executed, "
            f"{metrics.cache_hits} cache hits, "
            f"{metrics.resumed} resumed "
            f"({metrics.hit_rate:.0%} served from cache)"
        )
        if metrics.failures or metrics.quarantined:
            summary += (
                f"; {metrics.failures} failed, "
                f"{metrics.quarantined} quarantined"
            )
        if metrics.degradations:
            summary += f"; {metrics.degradations} backend degradations"
        if stats_path is not None:
            summary += f"; stats: {stats_path}"
        trace_path = context.engine.merged_trace_path()
        if trace_path is not None and trace_path.exists():
            summary += f"; trace: {trace_path}"
        if context.engine.last_history_id:
            summary += f"; history: {context.engine.last_history_id[:12]}"
        print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
