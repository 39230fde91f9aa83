"""The canonical sweeps the harness measures.

Each workload is one closed-loop client: the sweep submits its whole
request set and waits for it.  None runs more than two simulating
processes at a time.  The seed is the workload seed handed to
``get_workload(..., seed=)``; the program sees only the generated
trace.  Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

PB44 = "pb44_cold"
FF_SWEEP = "ff_sweep_warm"
LATENCY_BATCH = "latency_batch_warm"
DISTRIBUTED = "dist_1agent"

WORKLOADS = (PB44, FF_SWEEP, LATENCY_BATCH, DISTRIBUTED)

#: Workloads sharing one grid and one primed trace/checkpoint store;
#: their result stores must be byte-identical on every seed.
GRID = (FF_SWEEP, LATENCY_BATCH, DISTRIBUTED)

#: Workloads whose supervisor runs everything on one thread of one
#: process, so the timed wall is a single unambiguous budget that the
#: spans must cover to within :data:`MAX_UNATTRIBUTED`.
UNATTRIBUTED_GATED = (FF_SWEEP, LATENCY_BATCH)
MAX_UNATTRIBUTED = 0.05

DEFAULT_SEED = 1234

#: The Figure 1 sweep's permutation per family.  Figure 1's ``quick``
#: depth picks SimPoint ``max_k 100`` (seconds of k-means in the
#: supervisor) and SMARTS ``U=1000, W=2000``; the cheapest siblings
#: below keep SimPoint analysis and SMARTS warming in the sweep while a
#: repetition fits several times into one measured run.
PB_PERMUTATIONS = {
    "SimPoint": "multiple (max_k 10) 100M",
    "SMARTS": "U=10000, W=200",
    "Reduced": "SPEC train",
    "Run Z": "Run 1000M",
    "FF+Run Z": "FF 2000M + Run 500M",
    "FF+WU+Run Z": "FF 1990M + WU 10M + Run 1000M",
}

#: Rows of the folded-over Plackett-Burman design.
PB_ROWS = 44


@dataclass(frozen=True)
class Sizes:
    """How big each sweep is and how often it repeats at least: the
    measured sizes, or the smoke sizes."""

    name: str
    pb_scale: int
    grid_scale: int
    grid_configs: int
    grid_depths: int
    min_reps: int
    #: Whether :data:`MAX_UNATTRIBUTED` is enforced.  Smoke sweeps last
    #: tens of milliseconds, where one scheduler hiccup exceeds it.
    gate_unattributed: bool
    jobs: int = 2

    @property
    def batch(self) -> int:
        return self.grid_configs

    def runs(self, workload: str) -> int:
        """Runs each repetition must launch (every one a store miss)."""
        if workload == PB44:
            return PB_ROWS * (1 + len(PB_PERMUTATIONS))
        return self.grid_configs * self.grid_depths


FULL = Sizes("full", pb_scale=10, grid_scale=250, grid_configs=16,
             grid_depths=8, min_reps=3, gate_unattributed=True)
SMOKE = Sizes("smoke", pb_scale=2, grid_scale=40, grid_configs=4,
              grid_depths=2, min_reps=1, gate_unattributed=False)
SIZES = {sizes.name: sizes for sizes in (FULL, SMOKE)}


def grid_requests(sizes: Sizes, seed: int):
    """Warmed ``FF X + Run 100M`` on gzip: latency-variant configs of
    one geometry x fast-forward depths 1000M, 2000M, ..."""
    from repro.cpu.config import ARCH_CONFIGS
    from repro.engine import RunRequest
    from repro.techniques.truncated import FFRunZ
    from repro.workloads.spec import get_workload

    workload = get_workload("gzip", seed=seed)
    base = ARCH_CONFIGS[0]
    configs = [base] + [
        base.replace(
            l2_latency=base.l2_latency + 1 + i % 4,
            mem_latency_first=base.mem_latency_first + 10 * (i // 4),
        )
        for i in range(sizes.grid_configs - 1)
    ]
    return [
        RunRequest(FFRunZ(1000.0 * (depth + 1), 100.0, warmed=True),
                   workload, config)
        for config in configs
        for depth in range(sizes.grid_depths)
    ]
