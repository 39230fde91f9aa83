"""Stale-cache guard: pinned store bytes of a tiny canonical sweep.

The result, trace and checkpoint stores are keyed by hand-bumped
epochs (``RESULTS_EPOCH``, ``TRACE_EPOCH``, ``CHECKPOINT_VERSION``).
A change that alters what a store holds but leaves its epoch alone
would let old caches serve stale bytes.  Each store's digest is pinned
here beside the epoch it is keyed by, so such a change fails tier-1
with a message naming the epoch to bump.  After a deliberate bump,
re-pin the store with the digest the failure prints.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cpu.checkpoint import CHECKPOINT_VERSION
from repro.cpu.config import ARCH_CONFIGS
from repro.engine import Engine, RunRequest
from repro.engine.planner import RESULTS_EPOCH
from repro.scale import Scale
from repro.techniques.truncated import FFRunZ, RunZ
from repro.workloads.generator import TRACE_EPOCH
from repro.workloads.inputs import clear_trace_cache
from repro.workloads.spec import get_workload

#: store -> (files under the cache dir, epoch name, current epoch,
#: pinned epoch, pinned sha256).
PINS = {
    "results": (
        "v1/??/*.json", "RESULTS_EPOCH", RESULTS_EPOCH, 1,
        "731e65cd25bdb440e80d6b2e2d5b69880300469ab446f1502c534fcea58c6bbc",
    ),
    "traces": (
        "traces/??/*.npt", "TRACE_EPOCH", TRACE_EPOCH, 1,
        "e587a239502962deeb99b99853c4d8f3ca7e5151823cec8208cdd016fd269763",
    ),
    "checkpoints": (
        "checkpoints/??/*.ckpt", "CHECKPOINT_VERSION", CHECKPOINT_VERSION, 2,
        "e50000a550ab4ce4c1e952329529d2ae849ac5307017bf59913066a48c7903c8",
    ),
}


def _digest(root: Path, pattern: str):
    """sha256 over the sorted ``(path, bytes)`` of the matching files."""
    digest = hashlib.sha256()
    paths = sorted(root.glob(pattern))
    for path in paths:
        data = path.read_bytes()
        name = path.relative_to(root).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest(), len(paths)


@pytest.fixture(scope="module")
def canonical_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    clear_trace_cache()  # a memoized trace would never reach the store
    workload = get_workload("gzip")
    engine = Engine(
        scale=Scale(2), jobs=1, cache_dir=root, checkpoint_interval=100,
        history=False,
    )
    try:
        engine.run_many(
            [
                RunRequest(RunZ(100), workload, ARCH_CONFIGS[0]),
                RunRequest(
                    FFRunZ(200, 100, warmed=True), workload, ARCH_CONFIGS[0]
                ),
            ]
        )
    finally:
        engine.close()
    return root


@pytest.mark.parametrize("store", sorted(PINS))
def test_store_bytes_are_pinned_to_their_epoch(canonical_sweep, store):
    pattern, epoch_name, epoch, pinned_epoch, pinned = PINS[store]
    digest, count = _digest(canonical_sweep, pattern)
    assert count > 0, f"the canonical sweep wrote no {store} files"
    assert epoch == pinned_epoch, (
        f"{epoch_name} is now {epoch}: re-pin the {store} store to "
        f"epoch {epoch}, sha256 {digest}"
    )
    assert digest == pinned, (
        f"{store} store bytes changed but {epoch_name} is still {epoch}: "
        f"bump {epoch_name} so old caches are not served stale, then "
        f"re-pin to sha256 {digest}"
    )
