"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table2 figure7
    python -m repro.experiments figure1 --benchmarks gcc,mcf --depth quick
    python -m repro.experiments figure1 --jobs 8 --cache-dir ~/.cache/repro
    python -m repro.experiments all --full

Engine options resolve as flag > environment variable > default:

=======================  ===============================  =========================
flag                     environment                      default
=======================  ===============================  =========================
``--full``               ``REPRO_FULL``                   four default benchmarks
``--depth``              ``REPRO_DEPTH``                  ``standard``
``--jobs``               ``REPRO_JOBS``                   all CPU cores
``--cache-dir``          ``REPRO_CACHE_DIR``              no persistent cache
``--profile``            ``REPRO_PROFILE``                ``tiny``
``--backend``            ``REPRO_BACKEND``                ``numpy``
``--run-timeout``        ``REPRO_RUN_TIMEOUT``            no per-run timeout
``--max-retries``        ``REPRO_MAX_RETRIES``            1
``--checkpoint-interval``  ``REPRO_CHECKPOINT_INTERVAL``  500 (M instructions)
``--trace/--no-trace``   ``REPRO_TRACE``                  tracing off
``--history/--no-history``  ``REPRO_HISTORY``             history recording on
``--metrics-file``       ``REPRO_METRICS_FILE``           no Prometheus export
``--batch-configs``      ``REPRO_BATCH_CONFIGS``          1 (config batching off)
``--remote-batch-configs``  ``REPRO_REMOTE_BATCH_CONFIGS``  the --batch-configs cap
``--lease-ttl``          ``REPRO_LEASE_TTL``              10 (seconds)
=======================  ===============================  =========================

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
from pathlib import Path

from repro.cpu.kernels.registry import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    resolve_backend_name,
)
from repro.engine import (
    CHECKPOINT_INTERVAL_ENV_VAR,
    LEASE_TTL_ENV_VAR,
    MAX_RETRIES_ENV_VAR,
    RUN_TIMEOUT_ENV_VAR,
    default_jobs,
)
from repro.obs.live import METRICS_FILE_ENV_VAR
from repro.settings import (
    BATCH_CONFIGS_ENV_VAR,
    HISTORY_ENV_VAR,
    REMOTE_BATCH_CONFIGS_ENV_VAR,
    TRACE_ENV_VAR,
    default_remote_batch_configs,
    default_trace,
    resolve as resolve_setting,
)
from repro.experiments import figure1, figure2, figure3_4, figure5, figure6
from repro.experiments import figure7, latency_sweep, section52, survey, tables
from repro.experiments.common import (
    FULL_ENV_VAR,
    JOBS_ENV_VAR,
    ExperimentContext,
    default_benchmarks,
    default_cache_dir,
    default_depth,
)
from repro.scale import default_scale, scale_from_profile

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


def _resolved_jobs(flag_value: int | None) -> int:
    """--jobs > $REPRO_JOBS > every available core."""
    return resolve_setting(
        flag_value, JOBS_ENV_VAR, default_jobs, int, "an integer"
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
    parser.add_argument(
        "--profile",
        default=None,
        choices=("tiny", "quick", "full"),
        help="simulation scale (default: $REPRO_PROFILE or tiny)",
    )
    parser.add_argument(
        "--depth",
        default=None,
        choices=("quick", "standard", "full"),
        help="permutations per technique family "
        "(default: $REPRO_DEPTH or standard)",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated benchmark subset",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        default=None,
        help=f"run all ten benchmarks (default: ${FULL_ENV_VAR} or the "
        "four default benchmarks); --benchmarks wins over --full",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=f"worker processes (default: ${JOBS_ENV_VAR} or all cores); "
        "1 = serial",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result cache directory "
        "(default: $REPRO_CACHE_DIR or no persistent cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache even if configured",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from <cache-dir>/journal.jsonl "
        "(skips journaled completed runs; requires a cache dir)",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=f"per-run wall-clock timeout (default: ${RUN_TIMEOUT_ENV_VAR} "
        "or unbounded); hung runs are killed, retried and, if they hang "
        "again, quarantined; enforced when --jobs > 1",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help=f"retry budget per run (default: ${MAX_RETRIES_ENV_VAR} or 1); "
        "retries back off exponentially with deterministic jitter",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="M",
        help="warm-state checkpoint spacing in M instructions "
        f"(default: ${CHECKPOINT_INTERVAL_ENV_VAR} or 500); 0 disables "
        "checkpointing; requires a cache dir to take effect",
    )
    parser.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable the shared memory-mapped trace store "
        "(<cache-dir>/traces); traces are regenerated per process",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=BACKEND_NAMES + ("auto",),
        help=f"simulation kernel backend (default: ${BACKEND_ENV_VAR} or "
        "numpy); all backends produce identical statistics",
    )
    parser.add_argument(
        "--trace",
        dest="trace",
        action="store_true",
        default=None,
        help=f"record a structured run trace under <cache-dir>/v1/ "
        f"(default: ${TRACE_ENV_VAR} or off); requires a cache dir; "
        "render it with 'python -m repro.experiments report'",
    )
    parser.add_argument(
        "--no-trace",
        dest="trace",
        action="store_false",
        help="disable tracing even when $REPRO_TRACE requests it",
    )
    parser.add_argument(
        "--history",
        dest="history",
        action="store_true",
        default=None,
        help="append this sweep's stats to the sweep-history store "
        f"(<cache-dir>/v1/history/) at exit (default: ${HISTORY_ENV_VAR} "
        "or on when a cache dir is active); inspect with "
        "'report history' / 'report compare' / 'report dashboard'",
    )
    parser.add_argument(
        "--no-history",
        dest="history",
        action="store_false",
        help=f"disable history recording even when ${HISTORY_ENV_VAR} "
        "requests it",
    )
    parser.add_argument(
        "--metrics-file",
        default=None,
        metavar="FILE",
        help="export live engine counters to FILE in Prometheus "
        f"textfile-collector format (default: ${METRICS_FILE_ENV_VAR})",
    )
    parser.add_argument(
        "--batch-configs",
        type=int,
        default=None,
        metavar="N",
        help="serve up to N same-trace configurations per batched "
        f"simulation pass (default: ${BATCH_CONFIGS_ENV_VAR} or 1 = "
        "batching off); results are bit-identical either way",
    )
    parser.add_argument(
        "--remote-batch-configs",
        type=int,
        default=None,
        metavar="N",
        help="cap how many batch members one remote lease may carry "
        f"(default: ${REMOTE_BATCH_CONFIGS_ENV_VAR} or the "
        "--batch-configs cap); only meaningful with --listen",
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="accept remote worker agents (python -m repro.engine.worker "
        "--connect HOST:PORT) which lease runs from this sweep; "
        "combine with --jobs 0 for a remote-only sweep",
    )
    parser.add_argument(
        "--workers-remote",
        type=int,
        default=0,
        metavar="N",
        help="with --listen: wait for N worker agents to connect before "
        "launching runs (default 0 = start immediately)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat-liveness budget per leased run (default: "
        f"${LEASE_TTL_ENV_VAR} or 10); a lease whose heartbeats stop "
        "for this long is requeued uncharged",
    )
    args = parser.parse_args(argv)

    # Resolve once (flag > env > default) and export the result so the
    # engine's worker processes inherit the same backend choice.
    try:
        backend = resolve_backend_name(args.backend)
    except ValueError as exc:
        parser.error(str(exc))
    os.environ[BACKEND_ENV_VAR] = backend

    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; try 'list'")

    try:
        jobs = _resolved_jobs(args.jobs)
    except ValueError:
        parser.error(
            f"${JOBS_ENV_VAR} must be an integer "
            f"(got {os.environ.get(JOBS_ENV_VAR)!r})"
        )
    if jobs < 0 or (jobs == 0 and args.listen is None):
        parser.error("--jobs must be >= 1 (0 is allowed only with --listen)")
    if args.workers_remote < 0:
        parser.error("--workers-remote must be >= 0")
    if args.workers_remote > 0 and args.listen is None:
        parser.error("--workers-remote requires --listen")
    if args.lease_ttl is not None and args.lease_ttl <= 0:
        parser.error("--lease-ttl must be positive")
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    if args.no_cache:
        cache_dir = None
    if args.resume and cache_dir is None:
        parser.error("--resume requires a cache directory (--cache-dir)")
    if args.run_timeout is not None and args.run_timeout <= 0:
        parser.error("--run-timeout must be positive")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.checkpoint_interval is not None and args.checkpoint_interval < 0:
        parser.error("--checkpoint-interval must be >= 0 (0 disables)")
    try:
        batch_configs = resolve_setting(
            args.batch_configs, BATCH_CONFIGS_ENV_VAR, 1, int, "an integer"
        )
    except ValueError as exc:
        parser.error(str(exc))
    if batch_configs < 1:
        parser.error("--batch-configs must be >= 1 (1 disables batching)")
    if args.remote_batch_configs is not None and args.remote_batch_configs < 1:
        parser.error("--remote-batch-configs must be >= 1")
    if args.remote_batch_configs is None:
        # A bad $REPRO_REMOTE_BATCH_CONFIGS should fail at parse time
        # like the other env-backed settings, not deep in the engine.
        try:
            default_remote_batch_configs()
        except ValueError as exc:
            parser.error(str(exc))
    try:
        trace = args.trace if args.trace is not None else default_trace()
    except ValueError as exc:
        parser.error(str(exc))
    if trace and cache_dir is None:
        parser.error(
            "--trace requires a cache directory (--cache-dir): trace "
            "events live under <cache-dir>/v1/events"
        )

    scale = (
        scale_from_profile(args.profile) if args.profile else default_scale()
    )
    benchmarks = (
        tuple(args.benchmarks.split(",")) if args.benchmarks
        else default_benchmarks(args.full)
    )
    context = ExperimentContext(
        scale=scale,
        benchmarks=benchmarks,
        depth=args.depth or default_depth(),
        jobs=jobs,
        cache_dir=cache_dir,
        progress=sys.stderr.isatty(),
        run_timeout=args.run_timeout,
        max_retries=args.max_retries,
        resume=args.resume,
        checkpoint_interval=args.checkpoint_interval,
        trace_cache=not args.no_trace_cache,
        trace=trace,
        metrics_file=Path(args.metrics_file) if args.metrics_file else None,
        batch_configs=batch_configs,
        remote_batch_configs=args.remote_batch_configs,
        listen=args.listen,
        lease_ttl=args.lease_ttl,
        min_agents=args.workers_remote,
        history=args.history,
    )
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
