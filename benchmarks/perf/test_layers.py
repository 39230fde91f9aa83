"""Self-time and per-layer arithmetic over hand-built span trees."""

from __future__ import annotations

import pytest

from benchmarks.perf import layers


def span(name, start, end, sid, parent=None, pid=1, role="supervisor", **attrs):
    record = {"name": name, "start": start, "end": end, "id": sid,
              "parent": parent, "pid": pid, "role": role}
    if attrs:
        record["attrs"] = attrs
    return record


class TestUnionLength:
    def test_disjoint_adjacent_and_overlapping(self):
        assert layers.union_length([]) == 0.0
        assert layers.union_length([(0, 1), (2, 3)]) == 2.0
        assert layers.union_length([(0, 1), (1, 3)]) == 3.0
        assert layers.union_length([(0, 2), (1, 3), (1.5, 1.7)]) == 3.0


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        tree = layers.SpanTree([
            span("a", 0.0, 10.0, 1),
            span("b", 1.0, 4.0, 2, parent=1),
            span("c", 2.0, 3.0, 3, parent=2),   # grandchild: not a's child
        ])
        root, child, grandchild = tree.spans
        assert tree.self_time(root) == pytest.approx(7.0)
        assert tree.self_time(child) == pytest.approx(2.0)
        assert tree.self_time(grandchild) == pytest.approx(1.0)

    def test_adjacent_and_overlapping_children(self):
        tree = layers.SpanTree([
            span("a", 0.0, 10.0, 1),
            span("b", 1.0, 3.0, 2, parent=1),
            span("b", 3.0, 5.0, 3, parent=1),   # adjacent to the first
            span("t", 4.0, 6.0, 4, parent=1),   # overlaps the second
        ])
        assert tree.self_time(tree.spans[0]) == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        tree = layers.SpanTree([
            span("a", 0.0, 2.0, 1),
            span("b", 1.5, 3.0, 2, parent=1),
        ])
        assert tree.self_time(tree.spans[0]) == pytest.approx(1.5)

    def test_ids_are_per_process(self):
        tree = layers.SpanTree([
            span("a", 0.0, 4.0, 1, pid=1),
            span("a", 0.0, 4.0, 1, pid=2),
            span("b", 1.0, 2.0, 2, parent=1, pid=2),
        ])
        assert tree.self_time(tree.spans[0]) == pytest.approx(4.0)
        assert tree.self_time(tree.spans[1]) == pytest.approx(3.0)


class TestLayers:
    def test_inclusive_counts_same_layer_nesting_once(self):
        tree = layers.SpanTree([
            span("engine.store.put", 0.0, 2.0, 1),
            span("engine.store.put", 0.5, 1.5, 2, parent=1),  # put_payload
            span("engine.store.put", 3.0, 4.0, 3),
        ])
        assert tree.inclusive("engine.store.put") == pytest.approx(3.0)
        assert len(tree.outermost("engine.store.put")) == 2

    def test_tasks_are_outermost_executions(self):
        tree = layers.SpanTree([
            span("engine.executor.run", 0.0, 10.0, 1),
            span("engine.executor.execute", 0.0, 4.0, 2, parent=1),
            span("techniques.run", 0.0, 4.0, 3, parent=2),
            span("techniques.run_batch", 0.0, 4.0, 4, parent=3),
            span("techniques.run_batch", 5.0, 9.0, 5, parent=1),
            span("engine.executor.execute", 0.0, 2.0, 1, pid=9, role="agent"),
        ])
        assert len(tree.tasks()) == 3
        assert [s["pid"] for s in tree.tasks(role="agent")] == [9]

    def test_per_layer_metrics(self):
        spans = [
            span("engine.planner.build", 0.0, 0.5, 1),
            span("engine.executor.run", 1.0, 9.0, 2),
            span("engine.executor.execute", 1.0, 5.0, 3, parent=2),
            span("cpu.pipeline.detailed", 1.0, 3.0, 4, parent=3, n=4_000_000),
            span("cpu.pipeline.batch", 5.0, 7.0, 5, parent=2,
                 n=8_000_000, configs=4),
            span("engine.protocol.grant", 1.0, 1.5, 6, lease="L1"),
            span("engine.protocol.grant", 1.0, 1.1, 7),
            span("engine.protocol.complete", 4.0, 4.5, 8, lease="L1"),
            span("engine.close", 9.5, 10.0, 9),
        ]
        metrics = layers.per_layer(
            spans, window=(0.0, 10.0), supervisor_pid=1, slots=1,
            stats={"runs_requested": 20, "runs_launched": 10,
                   "checkpoint_hits": 3, "checkpoint_misses": 1},
            artifact_bytes=2_000_000,
        )
        assert metrics["engine.planner.s"] == pytest.approx(0.5)
        assert metrics["engine.planner.dedup_ratio"] == pytest.approx(2.0)
        # The executor's [1, 9] minus its children [1, 5] and [5, 7].
        assert metrics["engine.executor.self_s"] == pytest.approx(2.0)
        assert metrics["engine.executor.tasks"] == 1
        assert metrics["engine.executor.worker_busy_frac"] == pytest.approx(0.5)
        assert metrics["engine.protocol.leases"] == 1
        assert metrics["engine.protocol.lease_s"] == pytest.approx(3.0)
        assert metrics["engine.protocol.artifact_mb"] == pytest.approx(2.0)
        assert metrics["cpu.pipeline.detailed_minstr_per_s"] == pytest.approx(3.0)
        assert metrics["cpu.pipeline.batch_configs"] == pytest.approx(4.0)
        assert metrics["cpu.checkpoint.hit_ratio"] == pytest.approx(0.75)
        # Covered: [0, 0.5] + [1, 9] + [9.5, 10] of a 10 s window.
        assert metrics["unattributed_frac"] == pytest.approx(0.1)
