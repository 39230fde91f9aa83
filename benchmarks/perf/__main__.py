"""Command line: ``run`` the sweeps, or ``compare`` two result files.

::

    python -m benchmarks.perf run [--workload NAME ...] [--seed N]
        [--seconds S] [--trace {0,1}] [--smoke] [--out FILE]
    python -m benchmarks.perf compare BASE.json HEAD.json

``run`` without ``--trace`` measures untraced repetitions, then
alternating traced/untraced ones, for each workload.  With one
``--workload`` and ``--trace 0`` (end-to-end metrics) or ``--trace 1``
(per-layer metrics) its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 if
any output is incorrect and 2 if the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.perf.workloads import DEFAULT_SEED, FULL, SMOKE, WORKLOADS


def _run(args) -> int:
    from benchmarks.perf import harness

    seconds = args.seconds
    if args.smoke:
        seconds = 0.0
    elif seconds is None:
        seconds = harness.load_benchmark()["run_seconds"]
    out = args.out
    if out is None and args.trace is None:
        out = harness.OUT_DIR / "result.json"
    return harness.run(
        args.workload or list(WORKLOADS), args.seed, seconds, args.trace,
        SMOKE if args.smoke else FULL, out,
    )


def _compare(args) -> int:
    from benchmarks.perf import harness
    from benchmarks.perf.stats import verdict
    from repro.experiments.common import format_table

    spec = harness.load_benchmark()
    base = json.loads(Path(args.base).read_text())["workloads"]
    head = json.loads(Path(args.head).read_text())["workloads"]
    rows = []
    for workload in [w for w in base if w in head]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = base[workload].get("end_to_end", {}).get(name)
            h = head[workload].get("end_to_end", {}).get(name)
            if b is None or h is None:
                continue
            rows.append((workload, name, b["median"], h["median"],
                         metric["bound"],
                         verdict(b["samples"], h["samples"], metric["bound"],
                                 metric["better"])))
    print(format_table(
        ("workload", "metric", "base", "head", "bound", "verdict"), rows))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure the canonical sweeps")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="workload to measure (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="workload seed (default: %(default)s)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per workload and trace setting "
                     "(default: run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: end-to-end metrics only; 1: per-layer only")
    run.add_argument("--smoke", action="store_true",
                     help="small grids, one repetition each")
    run.add_argument("--out", type=Path, default=None,
                     help="result file (default without --trace: "
                     "benchmarks/perf/out/result.json)")
    compare = commands.add_parser(
        "compare", help="verdict per (workload, metric) of HEAD vs BASE")
    compare.add_argument("base")
    compare.add_argument("head")
    args = parser.parse_args(argv)
    from benchmarks.perf.harness import ROOT

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return _run(args) if args.command == "run" else _compare(args)


if __name__ == "__main__":
    sys.exit(main())
