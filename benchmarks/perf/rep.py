"""One repetition of one workload, in a fresh interpreter.

Usage (the harness spawns this; ``PYTHONPATH`` holds ``src`` and the
repository root)::

    python -m benchmarks.perf.rep '{"workload": ..., "seed": ...,
        "cache_dir": ..., "sizes": "full"}'

It builds the workload's requests, runs the sweep through the
program's public API and prints one JSON line: the timed sweep window
on the machine-wide monotonic clock and the sweep's
``engine-stats.json`` counters.  The distributed workload first prints
``{"port": N}`` so the harness can start the agent, and starts the
clock only once that agent has shaken hands.  With
``$PERF_SPANS_DIR`` set, the layer wrappers are installed first.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from benchmarks.perf import spans
from benchmarks.perf.workloads import (
    DISTRIBUTED,
    LATENCY_BATCH,
    PB44,
    PB_PERMUTATIONS,
    SIZES,
    grid_requests,
)

#: engine-stats.json fields the harness reads.
STATS_FIELDS = (
    "runs_requested", "runs_launched", "failures", "quarantined",
    "instructions", "trace_cache_hits", "trace_cache_misses",
    "checkpoint_hits", "checkpoint_misses", "leases_granted", "remote_runs",
    "artifact_fetches", "batches", "batched_runs",
)

AGENT_WAIT_S = 60.0


def _pb44(spec: dict, sizes) -> dict:
    from repro.experiments import figure1
    from repro.experiments.common import ExperimentContext
    from repro.scale import Scale
    from repro.techniques.registry import permutations

    class PB44Context(ExperimentContext):
        def family_permutations(self, benchmark):
            return {
                family: [t for t in permutations(family, benchmark)
                         if t.permutation == name]
                for family, name in PB_PERMUTATIONS.items()
            }

    context = PB44Context(
        scale=Scale(sizes.pb_scale), benchmarks=("gzip",), depth="quick",
        seed=spec["seed"], jobs=sizes.jobs, cache_dir=spec["cache_dir"],
        trace=False,
    )
    start = time.monotonic()
    report = figure1.run(context)
    context.engine.close()
    end = time.monotonic()
    return {
        "window": [start, end],
        "engine": context.engine,
        "report_sha256": hashlib.sha256(report.render().encode()).hexdigest(),
    }


def _grid(spec: dict, sizes) -> dict:
    from repro.engine import Engine
    from repro.scale import Scale

    workload = spec["workload"]
    requests = grid_requests(sizes, spec["seed"])
    options = {}
    if workload == LATENCY_BATCH:
        options = {"batch_configs": sizes.batch}
    elif workload == DISTRIBUTED:
        options = {
            "jobs": 0, "batch_configs": sizes.batch,
            "remote_batch_configs": sizes.batch,
            "listen": "127.0.0.1:0",
        }
    engine = Engine(
        scale=Scale(sizes.grid_scale), jobs=options.pop("jobs", 1),
        cache_dir=spec["cache_dir"], trace=False, **options,
    )
    if workload == DISTRIBUTED:
        print(json.dumps({"port": engine.lease_server.port}), flush=True)
        deadline = time.monotonic() + AGENT_WAIT_S
        while not engine.lease_server.agents_snapshot():
            if time.monotonic() > deadline:
                raise SystemExit("no agent joined")
            time.sleep(0.01)
    start = time.monotonic()
    engine.run_many(requests)
    engine.close()
    end = time.monotonic()
    return {"window": [start, end], "engine": engine}


def main(argv) -> int:
    spec = json.loads(argv[0])
    installation = spans.install_from_env()
    sizes = SIZES[spec["sizes"]]
    run = _pb44 if spec["workload"] == PB44 else _grid
    outcome = run(spec, sizes)
    stats_path = outcome.pop("engine").write_stats()
    with open(stats_path, encoding="utf-8") as handle:
        stats = json.load(handle)
    if installation is not None:
        installation.uninstall()
    outcome["stats"] = {name: stats.get(name, 0) for name in STATS_FIELDS}
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
