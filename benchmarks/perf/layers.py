"""Per-layer metrics from one traced repetition's spans.

A span's *self time* is its duration minus the part of its interval
covered by its child spans (children are clipped to the parent and
overlapping children counted once).  A layer's *inclusive time* sums
the layer's spans that have no ancestor in the same layer, so a
method that calls itself through another entry point (``put`` into
``put_payload``, a technique's ``run`` into its ``run_batch``) is
counted once.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Spans that execute one scheduled task (a run or a config batch),
#: wherever it runs: inline, in a pool worker or in an agent's child.
TASK_SPANS = frozenset({"engine.executor.execute", "techniques.run_batch"})
_TASK_NESTING = TASK_SPANS | {"techniques.run"}

_ARTIFACT_OPS = frozenset({"artifact_probe", "artifact_fetch"})


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the intervals, overlaps counted once."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class SpanTree:
    """Spans of one traced repetition, indexed by process and parent."""

    def __init__(self, spans: Sequence[dict]) -> None:
        self.spans = list(spans)
        self._by_id = {(s["pid"], s["id"]): s for s in self.spans}
        self._children: Dict[Tuple[int, int], List[dict]] = {}
        for span in self.spans:
            if span.get("parent") is not None:
                self._children.setdefault(
                    (span["pid"], span["parent"]), []
                ).append(span)

    def parent(self, span: dict) -> Optional[dict]:
        if span.get("parent") is None:
            return None
        return self._by_id.get((span["pid"], span["parent"]))

    def has_ancestor(self, span: dict, names: frozenset) -> bool:
        node = self.parent(span)
        while node is not None:
            if node["name"] in names:
                return True
            node = self.parent(node)
        return False

    def self_time(self, span: dict) -> float:
        start, end = span["start"], span["end"]
        covered = union_length(
            (max(start, c["start"]), min(end, c["end"]))
            for c in self._children.get((span["pid"], span["id"]), ())
            if c["end"] > start and c["start"] < end
        )
        return (end - start) - covered

    def outermost(self, *names: str, role: Optional[str] = None) -> List[dict]:
        """Spans named ``names`` with no ancestor of those names."""
        layer = frozenset(names)
        return [
            s for s in self.spans
            if s["name"] in layer
            and (role is None or s.get("role") == role)
            and not self.has_ancestor(s, layer)
        ]

    def inclusive(self, *names: str, role: Optional[str] = None) -> float:
        return sum(s["end"] - s["start"]
                   for s in self.outermost(*names, role=role))

    def self_total(self, *names: str) -> float:
        layer = frozenset(names)
        return sum(self.self_time(s) for s in self.spans if s["name"] in layer)

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def tasks(self, role: Optional[str] = None) -> List[dict]:
        """Outermost task-execution spans (see :data:`TASK_SPANS`)."""
        return [
            s for s in self.spans
            if s["name"] in TASK_SPANS
            and (role is None or s.get("role") == role)
            and not self.has_ancestor(s, _TASK_NESTING)
        ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _attr_sum(spans: Iterable[dict], name: str) -> float:
    return sum((s.get("attrs") or {}).get(name, 0) for s in spans)


def lease_seconds(tree: SpanTree) -> float:
    """Median grant-to-complete time over the leases of the rep."""
    granted = {
        s["attrs"]["lease"]: s["end"]
        for s in tree.named("engine.protocol.grant") if s.get("attrs")
    }
    durations = [
        s["end"] - granted[s["attrs"]["lease"]]
        for s in tree.named("engine.protocol.complete")
        if s.get("attrs") and s["attrs"].get("lease") in granted
    ]
    return statistics.median(durations) if durations else 0.0


def per_layer(
    spans: Sequence[dict],
    *,
    window: Tuple[float, float],
    supervisor_pid: int,
    slots: int,
    stats: Dict[str, float],
    artifact_bytes: int,
) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition.

    ``window`` is the timed sweep interval on the machine-wide monotonic
    clock; ``slots`` the number of processes that execute tasks (pool
    workers, or agents); ``stats`` the sweep's ``engine-stats.json``.
    """
    tree = SpanTree(spans)
    executor_s = tree.inclusive("engine.executor.run")
    tasks = tree.tasks()
    warming = tree.named("cpu.functional.warm")
    warming_s = sum(s["end"] - s["start"] for s in warming)
    detailed_s = tree.inclusive("cpu.pipeline.detailed")
    batches = tree.named("cpu.pipeline.batch")
    batch_s = tree.inclusive("cpu.pipeline.batch")
    detailed_n = _attr_sum(tree.named("cpu.pipeline.detailed") + batches, "n")
    fetches = [
        s for s in tree.outermost("engine.worker.request", role="agent")
        if (s.get("attrs") or {}).get("op") in _ARTIFACT_OPS
    ]
    start, end = window
    supervisor_top = [
        (max(start, s["start"]), min(end, s["end"]))
        for s in tree.spans
        if s["pid"] == supervisor_pid and s.get("parent") is None
        and s["end"] > start and s["start"] < end
    ]
    trace_hits = stats.get("trace_cache_hits", 0)
    checkpoint_hits = stats.get("checkpoint_hits", 0)
    return {
        "engine.planner.s": tree.inclusive("engine.planner.build"),
        "engine.planner.dedup_ratio": _ratio(
            stats.get("runs_requested", 0), stats.get("runs_launched", 0)),
        "engine.store.get_s": tree.inclusive("engine.store.get"),
        "engine.store.put_s": tree.inclusive("engine.store.put"),
        "engine.store.puts": float(len(tree.outermost("engine.store.put"))),
        "engine.executor.self_s": tree.self_total("engine.executor.run"),
        "engine.executor.tasks": float(len(tasks)),
        "engine.executor.worker_busy_frac": _ratio(
            sum(s["end"] - s["start"] for s in tasks),
            executor_s * max(1, slots)),
        "engine.close_s": tree.inclusive("engine.close"),
        "engine.protocol.leases": float(sum(
            1 for s in tree.named("engine.protocol.grant") if s.get("attrs"))),
        "engine.protocol.lease_s": lease_seconds(tree),
        "engine.protocol.artifact_fetches": float(
            stats.get("artifact_fetches", 0)),
        "engine.protocol.artifact_mb": artifact_bytes / 1e6,
        "engine.worker.fetch_s": sum(s["end"] - s["start"] for s in fetches),
        "engine.worker.exec_s": sum(
            s["end"] - s["start"] for s in tree.tasks(role="agent")),
        "workloads.trace_s": tree.inclusive("workloads.trace"),
        "workloads.trace_gen_s": tree.inclusive("workloads.trace_gen"),
        "workloads.trace_store.load_s": tree.inclusive(
            "workloads.trace_store.load"),
        "workloads.trace_store.save_s": tree.inclusive(
            "workloads.trace_store.save"),
        "workloads.trace_store.hit_ratio": _ratio(
            trace_hits, trace_hits + stats.get("trace_cache_misses", 0)),
        "cpu.checkpoint.restore_s": tree.inclusive("cpu.checkpoint.restore"),
        "cpu.checkpoint.save_s": tree.inclusive("cpu.checkpoint.save"),
        "cpu.checkpoint.hit_ratio": _ratio(
            checkpoint_hits,
            checkpoint_hits + stats.get("checkpoint_misses", 0)),
        "cpu.functional.warm_s": tree.inclusive(
            "cpu.functional.warm_prefix", "cpu.functional.warm"),
        "cpu.functional.warm_minstr_per_s": _ratio(
            _attr_sum(warming, "n"), warming_s) / 1e6,
        "cpu.pipeline.detailed_s": detailed_s,
        "cpu.pipeline.detailed_minstr_per_s": _ratio(
            detailed_n, detailed_s + batch_s) / 1e6,
        "cpu.pipeline.batch_s": batch_s,
        "cpu.pipeline.batch_configs": _ratio(
            _attr_sum(batches, "configs"), len(batches)),
        "cpu.simulator.self_s": tree.self_total("cpu.simulator.run_regions"),
        "techniques.simpoint.select_s": tree.inclusive(
            "techniques.simpoint.select"),
        "techniques.self_s": tree.self_total(
            "techniques.run", "techniques.run_batch"),
        "characterization.bottleneck_s": tree.inclusive(
            "characterization.bottleneck"),
        "unattributed_frac": 1.0 - _ratio(
            union_length(supervisor_top), end - start),
    }
