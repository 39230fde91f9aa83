"""Layer wrappers: install, consumer-module rebinding, recording, fork,
and a full restore on uninstall."""

from __future__ import annotations

import multiprocessing

from benchmarks.perf import spans


class _Result:
    def to_payload(self):
        return {"cpi": 1.0}


def _build_plan() -> None:
    from repro.engine.planner import Plan
    from repro.scale import Scale

    Plan.build([], Scale(1))


def _originals():
    import repro.characterization.bottleneck as bottleneck
    import repro.cpu.pipeline as pipeline
    import repro.cpu.simulator as simulator
    import repro.experiments.figure1 as figure1
    from repro.engine.planner import Plan
    from repro.engine.store import ResultStore
    from repro.techniques.truncated import FFRunZ

    return {
        (pipeline, "run_detailed"): pipeline.run_detailed,
        (simulator, "run_detailed"): simulator.run_detailed,
        (bottleneck, "bottleneck_ranks"): bottleneck.bottleneck_ranks,
        (figure1, "bottleneck_ranks"): figure1.bottleneck_ranks,
        (ResultStore, "put"): ResultStore.__dict__["put"],
        (Plan, "build"): Plan.__dict__["build"],
        (FFRunZ, "run_batch"): FFRunZ.__dict__["run_batch"],
    }


def test_install_rebinds_consumers_and_uninstall_restores(tmp_path):
    originals = _originals()
    installation = spans.install(tmp_path)
    try:
        for (owner, name), original in originals.items():
            current = owner.__dict__[name] if isinstance(owner, type) \
                else getattr(owner, name)
            assert current is not original, f"{owner.__name__}.{name}"
        import repro.cpu.pipeline as pipeline
        import repro.cpu.simulator as simulator
        import repro.experiments.figure1 as figure1
        import repro.characterization.bottleneck as bottleneck
        from repro.engine.planner import Plan

        # `from x import f` consumers share the defining module's wrapper.
        assert simulator.run_detailed is pipeline.run_detailed
        assert figure1.bottleneck_ranks is bottleneck.bottleneck_ranks
        assert isinstance(Plan.__dict__["build"], classmethod)
        # A second install wraps nothing twice.
        spans.install(tmp_path / "again").uninstall()
        assert not getattr(pipeline.run_detailed.__wrapped__,
                           "__wrapped_by_perf__", False)
    finally:
        installation.uninstall()
    for (owner, name), original in originals.items():
        current = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        assert current is original, f"{owner.__name__}.{name}"


def test_spans_nest_and_flush_at_top_level(tmp_path):
    from repro.engine.store import ResultStore

    installation = spans.install(tmp_path)
    try:
        store = ResultStore(tmp_path / "store")
        store.put("ab" * 32, _Result())
        _build_plan()
    finally:
        installation.uninstall()
    _build_plan()  # untraced again: records nothing
    recorded = spans.load(tmp_path)
    assert [s["name"] for s in recorded] == [
        "engine.store.put", "engine.store.put", "engine.planner.build"]
    inner, outer, plan = recorded
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert plan["parent"] is None and plan["role"] == "supervisor"


def test_forked_children_inherit_wrappers_and_write_their_own_file(tmp_path):
    installation = spans.install(tmp_path, role="agent")
    try:
        child = multiprocessing.get_context("fork").Process(target=_build_plan)
        child.start()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        installation.uninstall()
    recorded = spans.load(tmp_path)
    assert [(s["name"], s["pid"], s["role"]) for s in recorded] == [
        ("engine.planner.build", child.pid, "agent")]
    assert (tmp_path / f"spans-{child.pid}.jsonl").exists()
