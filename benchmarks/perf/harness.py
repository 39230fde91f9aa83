"""Run the canonical sweeps, check their stores, report every metric.

Every repetition is a fresh child interpreter (:mod:`.rep`) timed from
outside the program: the child reports the sweep window on the
machine-wide monotonic clock, and the harness reaps each process of
the repetition with ``wait4`` for its CPU time and peak RSS (pool
workers and agent lease children are reaped by their parents, so
their usage is folded in).  Untraced repetitions give the end-to-end
metrics; traced repetitions (:mod:`.spans`) give the per-layer ones.

Correctness: each result store is digested as sha256 over its sorted
``(path, bytes)`` entries.  The grid workloads must reproduce the
store of the prime sweep (cold, per-run, in-process) byte for byte on
every seed, every repetition must launch every run without a failure,
and at the pinned seed each digest must equal ``pinned.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.perf import layers, spans
from benchmarks.perf.stats import summarize
from benchmarks.perf.workloads import (
    DISTRIBUTED,
    FF_SWEEP,
    GRID,
    MAX_UNATTRIBUTED,
    PB44,
    UNATTRIBUTED_GATED,
    Sizes,
)

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
PINNED_FILE = Path(__file__).with_name("pinned.json")
#: Scratch space (result stores, span files) and the default result file.
OUT_DIR = Path(__file__).with_name("out")

REP_TIMEOUT_S = 120.0
AGENT_EXIT_S = 30.0


class RepError(RuntimeError):
    """A child process of a repetition failed or timed out."""


def load_benchmark() -> dict:
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def store_digest(cache_dir: Path) -> Tuple[str, int]:
    """sha256 over the sorted ``(path, bytes)`` of the result store,
    and its entry count."""
    digest = hashlib.sha256()
    paths = sorted(Path(cache_dir).glob("v1/??/*.json"))
    for path in paths:
        data = path.read_bytes()
        name = path.relative_to(cache_dir).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest(), len(paths)


def wipe_results(cache_dir: Path) -> None:
    """Drop the result store and journal; keep traces and checkpoints."""
    for entry in ("v1", "journal.jsonl", "journal.jsonl.1", "engine-stats.json"):
        path = cache_dir / entry
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# -- child processes ----------------------------------------------------------


def _spawn(argv: List[str], env: dict, log: Path) -> subprocess.Popen:
    """Start a child in its own session, its output going to files."""
    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        return subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, cwd=ROOT,
            start_new_session=True,
        )


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for ``proc`` and return its ``wait4`` resource usage (its
    own plus every descendant it reaped); kill it past ``deadline``."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            _kill(proc)
            deadline = float("inf")
        time.sleep(0.01)


def _tail(log: Path, suffix: str = ".err", lines: int = 15) -> str:
    try:
        text = log.with_suffix(suffix).read_text(errors="replace")
    except OSError:
        return ""
    return "\n".join(text.strip().splitlines()[-lines:])


def _last_json(log: Path) -> dict:
    lines = log.with_suffix(".out").read_text().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RepError(f"no result from {log.name}: {_tail(log)}") from None


def _wait_first_line(proc: subprocess.Popen, log: Path, deadline: float) -> dict:
    path = log.with_suffix(".out")
    while time.monotonic() < deadline:
        text = path.read_text()
        if text.endswith("\n"):
            return json.loads(text.splitlines()[0])
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    raise RepError(f"supervisor never announced its port: {_tail(log)}")


@dataclass
class Rep:
    """One repetition: timings, usage, counters and its store digest."""

    sweep_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    stats: Dict[str, float]
    digest: str
    entries: int
    window: Tuple[float, float]
    supervisor_pid: int
    report_sha256: Optional[str] = None
    spans: List[dict] = field(default_factory=list)
    artifact_bytes: int = 0

    def end_to_end(self) -> Dict[str, float]:
        return {
            "sweep_s": self.sweep_s,
            "setup_s": self.setup_s,
            "sim_minstr_per_s": self.stats["instructions"] / self.sweep_s / 1e6,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
        }


class Runner:
    """Launches repetitions under one scratch directory."""

    def __init__(self, work: Path, sizes: Sizes) -> None:
        self.work = work
        self.sizes = sizes
        self._count = 0
        self._primed: Dict[int, Tuple[Path, str]] = {}
        self.env = {
            k: v for k, v in os.environ.items()
            if not k.startswith(("REPRO_", "PERF_"))
        }
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        # Children keep their temporary files inside the scratch space.
        self.env["TMPDIR"] = str(self._fresh("tmp"))
        Path(self.env["TMPDIR"]).mkdir()

    def _fresh(self, stem: str) -> Path:
        self._count += 1
        return self.work / f"{stem}-{self._count}"

    def prime(self, seed: int) -> Tuple[Path, str]:
        """The shared grid store for ``seed`` and its reference digest.

        One cold, per-run, in-process sweep fills the trace and
        checkpoint stores for every grid workload; the result store it
        writes is the byte-parity reference, then wiped.
        """
        if seed not in self._primed:
            cache = self.work / f"grid-{seed}"
            rep = self.rep(FF_SWEEP, seed, cache, traced=False)
            errors = check_rep(FF_SWEEP, rep, self.sizes, seed, rep.digest, None)
            if errors:
                raise RepError("prime sweep: " + "; ".join(errors))
            wipe_results(cache)
            self._primed[seed] = (cache, rep.digest)
        return self._primed[seed]

    def rep(self, workload: str, seed: int, cache_dir: Optional[Path],
            traced: bool) -> Rep:
        """One repetition on ``cache_dir`` (None: a fresh, empty store,
        removed afterwards)."""
        own_cache = cache_dir is None
        if own_cache:
            cache_dir = self._fresh("store")
        log = self._fresh(f"{workload}-log")
        spans_dir = self._fresh("spans") if traced else None
        env = dict(self.env)
        if spans_dir is not None:
            env[spans.SPANS_DIR_ENV_VAR] = str(spans_dir)
        spec = {"workload": workload, "seed": seed,
                "cache_dir": str(cache_dir), "sizes": self.sizes.name}
        argv = [sys.executable, "-m", "benchmarks.perf.rep", json.dumps(spec)]
        agent_cache = None
        procs: List[subprocess.Popen] = []
        try:
            launched = time.monotonic()
            deadline = launched + REP_TIMEOUT_S
            procs.append(_spawn(argv, env, log))
            if workload == DISTRIBUTED:
                port = _wait_first_line(procs[0], log, deadline)["port"]
                agent_cache = self._fresh("agent")
                agent_env = dict(env)
                agent_env[spans.ROLE_ENV_VAR] = "agent"
                module = "benchmarks.perf.agent" if traced else "repro.engine.worker"
                procs.append(_spawn(
                    [sys.executable, "-m", module,
                     "--connect", f"127.0.0.1:{port}", "--name", "bench",
                     "--cache-dir", str(agent_cache), "--quiet",
                     "--reconnect", "2", "--reconnect-delay", "0.1"],
                    agent_env, log.with_name(log.name + "-agent"),
                ))
            usages = [_reap(procs[0], deadline)]
            if len(procs) > 1:
                usages.append(_reap(procs[1], time.monotonic() + AGENT_EXIT_S))
            for proc in procs:
                if proc.returncode != 0:
                    raise RepError(
                        f"{workload} child exited {proc.returncode}: "
                        f"{_tail(log)}"
                    )
            result = _last_json(log)
        finally:
            for proc in procs:
                if proc.returncode is None:
                    _kill(proc)
                    _reap(proc, float("inf"))
        digest, entries = store_digest(cache_dir)
        if own_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
        start, end = result["window"]
        rep = Rep(
            sweep_s=end - start,
            setup_s=start - launched,
            cpu_s=sum(u.ru_utime + u.ru_stime for u in usages),
            peak_rss_mb=max(u.ru_maxrss for u in usages) * 1024 / 1e6,
            stats=result["stats"],
            digest=digest,
            entries=entries,
            window=(start, end),
            supervisor_pid=procs[0].pid,
            report_sha256=result.get("report_sha256"),
        )
        if agent_cache is not None:
            rep.artifact_bytes = tree_bytes(agent_cache)
            shutil.rmtree(agent_cache, ignore_errors=True)
        if spans_dir is not None:
            rep.spans = spans.load(spans_dir)
            shutil.rmtree(spans_dir, ignore_errors=True)
        return rep


def load_pins() -> dict:
    with open(PINNED_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def check_rep(workload: str, rep: Rep, sizes: Sizes, seed: int,
              reference: Optional[str], report: Optional[str]) -> List[str]:
    """Every correctness violation of one repetition (empty = correct)."""
    runs = sizes.runs(workload)
    errors = []
    stats = rep.stats
    if stats["runs_launched"] != runs or rep.entries != runs:
        errors.append(f"{workload}: launched {stats['runs_launched']} runs "
                      f"and stored {rep.entries}, expected {runs}")
    failed = stats["failures"] + stats["quarantined"]
    if failed:
        errors.append(f"{workload}: {failed} failed or quarantined runs")
    if reference is not None and rep.digest != reference:
        errors.append(f"{workload}: result store {rep.digest[:16]} differs "
                      f"from the reference {reference[:16]}")
    if report is not None and rep.report_sha256 != report:
        errors.append(f"{workload}: Figure 1 report differs between reps")
    if workload == DISTRIBUTED and (
        stats["remote_runs"] != runs or stats["artifact_fetches"] <= 0
    ):
        errors.append(f"{workload}: {stats['remote_runs']}/{runs} runs remote, "
                      f"{stats['artifact_fetches']} artifact fetches")
    pins = load_pins()
    pinned = pins[sizes.name].get(workload)
    if seed == pins["seed"] and pinned and rep.digest != pinned:
        errors.append(f"{workload}: result store {rep.digest[:16]} differs "
                      f"from the pinned digest {pinned[:16]}")
    return errors


@dataclass
class Measurement:
    """All repetitions of one workload at one seed."""

    workload: str
    seed: int
    untraced: List[Rep] = field(default_factory=list)
    traced: List[Rep] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    reference: Optional[str] = None
    report: Optional[str] = None

    @property
    def reps(self) -> List[Rep]:
        return self.untraced + self.traced


def measure(runner: Runner, m: Measurement, seconds: float,
            traced: bool) -> None:
    """Repeat ``m.workload`` for ``seconds``, appending to ``m``.

    Untraced: at least ``min_reps`` repetitions.  Traced: untraced and
    traced repetitions alternate, at least one of each, so the tracing
    overhead compares neighbours.
    """
    done = {False: 0, True: 0}
    try:
        cache = None
        if m.workload in GRID:
            cache, m.reference = runner.prime(m.seed)
        started = time.monotonic()
        while not m.errors:
            more = time.monotonic() - started < seconds
            if traced:
                if done[True] and not more:
                    break
                next_traced = done[True] < done[False]
            else:
                if done[False] >= runner.sizes.min_reps and not more:
                    break
                next_traced = False
            if cache is not None:
                wipe_results(cache)
            rep = runner.rep(m.workload, m.seed, cache, next_traced)
            if m.reference is None:
                m.reference, m.report = rep.digest, rep.report_sha256
            (m.traced if next_traced else m.untraced).append(rep)
            done[next_traced] += 1
            m.errors.extend(check_rep(m.workload, rep, runner.sizes, m.seed,
                                      m.reference, m.report))
    except RepError as exc:
        m.errors.append(str(exc))


def end_to_end_metrics(m: Measurement, spec: dict) -> Dict[str, dict]:
    reps = m.untraced
    metrics = {}
    for metric in spec["end_to_end"]:
        values = [rep.end_to_end()[metric["name"]] for rep in reps]
        metrics[metric["name"]] = dict(summarize(values), unit=metric["unit"])
    return metrics


def per_layer_metrics(m: Measurement, spec: dict, slots: int) -> Dict[str, dict]:
    samples: Dict[str, List[float]] = {}
    for rep in m.traced:
        values = layers.per_layer(
            rep.spans, window=rep.window, supervisor_pid=rep.supervisor_pid,
            slots=slots, stats=rep.stats, artifact_bytes=rep.artifact_bytes,
        )
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    untraced = statistics.median(r.sweep_s for r in m.untraced)
    traced = statistics.median(r.sweep_s for r in m.traced)
    samples["trace_overhead_frac"] = [(traced - untraced) / untraced]
    metrics = {}
    for metric in spec["per_layer"]:
        values = samples[metric["name"]]
        metrics[metric["name"]] = {
            "value": statistics.median(values), "unit": metric["unit"],
            "samples": values,
        }
    return metrics


def host_info() -> dict:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        describe = described.stdout.strip() if described.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        describe = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_describe": describe or "unknown",
    }


def workload_result(m: Measurement, spec: dict, sizes: Sizes) -> dict:
    """The result-file entry of one workload (also the source of the
    printed metric line)."""
    errors = list(m.errors)
    result = {
        "seed": m.seed,
        "reps": {"untraced": len(m.untraced), "traced": len(m.traced)},
        "attempted": sum(int(r.stats["runs_launched"]) for r in m.reps),
        "failed": sum(int(r.stats["failures"] + r.stats["quarantined"])
                      for r in m.reps),
        "store_digest": m.reps[0].digest if m.reps else None,
    }
    if m.untraced:
        result["end_to_end"] = end_to_end_metrics(m, spec)
    if m.traced and m.untraced:
        # Task-executing processes: the pool, or one inline supervisor
        # or agent.
        slots = sizes.jobs if m.workload == PB44 else 1
        result["per_layer"] = per_layer_metrics(m, spec, slots)
        unattributed = result["per_layer"]["unattributed_frac"]["value"]
        if (sizes.gate_unattributed and m.workload in UNATTRIBUTED_GATED
                and unattributed > MAX_UNATTRIBUTED):
            errors.append(f"{m.workload}: unattributed_frac {unattributed:.3f} "
                          f"> {MAX_UNATTRIBUTED}")
    result["errors"] = errors
    result["correct"] = not errors
    return result


def _print_table(name: str, result: dict) -> None:
    from repro.experiments.common import format_table

    rows = [
        (metric, value["unit"], value["n"], value["median"], value["q1"],
         value["q3"], value["ci95_half"])
        for metric, value in result.get("end_to_end", {}).items()
    ]
    if rows:
        print(f"== {name} (seed {result['seed']}) ==")
        print(format_table(
            ("metric", "unit", "n", "median", "q1", "q3", "ci95 +/-"), rows))
    layer_rows = [(metric, value["unit"], len(value["samples"]), value["value"])
                  for metric, value in result.get("per_layer", {}).items()]
    if layer_rows:
        print(f"-- {name} per layer (traced reps) --")
        print(format_table(("metric", "unit", "n", "median"), layer_rows))
    print(f"{name}: store sha256 {result['store_digest']}, "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for error in result["errors"]:
        print(f"  error: {error}")


def metric_line(result: dict, traced: bool) -> dict:
    """The one-line JSON summary of a single-workload measurement."""
    section = result.get("per_layer" if traced else "end_to_end", {})
    key = "value" if traced else "median"
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value[key], "unit": value["unit"]}
                    for name, value in section.items()},
    }


def run(workloads: List[str], seed: int, seconds: float, trace: Optional[int],
        sizes: Sizes, out: Optional[Path]) -> int:
    """Measure ``workloads``; print tables and, for one workload at one
    trace setting, the metric line last.  Non-zero on any incorrect
    output."""
    spec = load_benchmark()
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    results: Dict[str, dict] = {}
    try:
        runner = Runner(work, sizes)
        for workload in workloads:
            m = Measurement(workload, seed)
            for traced in (False, True):
                if trace is None or trace == traced:
                    measure(runner, m, seconds, traced)
            results[workload] = workload_result(m, spec, sizes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    document = {
        "host": host_info(),
        "seconds": seconds,
        "sizes": sizes.name,
        "workloads": results,
    }
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=2) + "\n")
    for name, result in results.items():
        _print_table(name, result)
    if out is not None:
        print(f"wrote {out}")
    correct = all(r["correct"] for r in results.values())
    if len(results) == 1 and trace is not None:
        result = next(iter(results.values()))
        if result.get("per_layer" if trace else "end_to_end"):
            print(json.dumps(metric_line(result, bool(trace))))
    return 0 if correct else 1
