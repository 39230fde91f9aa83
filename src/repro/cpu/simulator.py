"""High-level simulation facade.

:class:`Simulator` binds a :class:`ProcessorConfig` (plus optional
enhancements) and exposes the three primitives every technique is
composed from: detailed simulation, functional warming, and
fast-forwarding.  Each run reports how many instructions it spent in
each mode so the speed-versus-accuracy analysis can cost it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.cpu import checkpoint, functional
from repro.cpu.config import Enhancements, ProcessorConfig
from repro.cpu.functional import run_functional_warming
from repro.cpu.kernels.registry import get_backend
from repro.cpu.kernels.state import GEOMETRY_FIELDS, LatencyTable
from repro.cpu.machine import Machine
from repro.cpu.pipeline import detail_plan, run_detailed, run_detailed_batch
from repro.cpu.stats import SimulationStats
from repro.isa.trace import Trace
from repro.obs import phases as obs_phases


@dataclass
class SimulationResult:
    """Statistics plus the work profile of one simulation run."""

    stats: SimulationStats
    config_name: str
    detailed_instructions: int = 0
    warmed_instructions: int = 0
    fastforwarded_instructions: int = 0
    extra_detailed_instructions: int = 0  # warm-up simulated in detail

    @property
    def cpi(self) -> float:
        return self.stats.cpi

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def add_work(self, other: "SimulationResult") -> None:
        """Accumulate another run's work profile (not its stats)."""
        self.detailed_instructions += other.detailed_instructions
        self.warmed_instructions += other.warmed_instructions
        self.fastforwarded_instructions += other.fastforwarded_instructions
        self.extra_detailed_instructions += other.extra_detailed_instructions


class Simulator:
    """Simulation driver for one processor configuration."""

    def __init__(
        self,
        config: Optional[ProcessorConfig] = None,
        enhancements: Optional[Enhancements] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.config = config or ProcessorConfig()
        self.enhancements = enhancements or Enhancements()
        self.backend = backend

    def new_machine(self) -> Machine:
        """A fresh (cold) machine for this configuration."""
        return Machine(self.config, self.enhancements, backend=self.backend)

    # -- one-shot helpers ------------------------------------------------------

    def run_reference(self, trace: Trace) -> SimulationResult:
        """Detailed simulation of the entire trace (the ground truth)."""
        return self.run_region(trace, 0, len(trace))

    def run_region(
        self,
        trace: Trace,
        start: int,
        end: int,
        warmup_instructions: int = 0,
        warmed_prefix: bool = False,
        checkpoint_key: Optional[str] = None,
    ) -> SimulationResult:
        """Detailed-simulate ``[start, end)``: the N=1 case of
        :meth:`run_regions`.

        ``warmup_instructions`` instructions *before* ``start`` are
        simulated in detail but excluded from the statistics.  The
        region before the warm-up is fast-forwarded: skipped cold by
        default, or -- with ``warmed_prefix`` -- functionally warmed so
        measurement starts from realistic microarchitectural state.
        Warmed prefixes resume from the nearest stored checkpoint when
        a checkpoint store is active and ``checkpoint_key`` names this
        (trace, geometry) chain; the result is bit-identical either
        way.
        """
        return self.run_regions(
            trace,
            (start, end),
            warmup_instructions=warmup_instructions,
            warmed_prefix=warmed_prefix,
            checkpoint_key=checkpoint_key,
        )[0]

    def run_regions(
        self,
        trace: Trace,
        region: Tuple[int, int],
        configs: Optional[Sequence[ProcessorConfig]] = None,
        *,
        enhancements: Union[Enhancements, Sequence[Enhancements], None] = None,
        warmup_instructions: int = 0,
        warmed_prefix: bool = False,
        checkpoint_key: Union[str, Sequence[Optional[str]], None] = None,
    ) -> List[SimulationResult]:
        """Detailed-simulate one region under N configs; N results.

        The canonical simulation entry point.  ``configs`` defaults to
        this simulator's bound config; ``enhancements`` is either one
        set applied to every config or a per-config sequence.  Members
        are grouped by structure geometry (caches, TLBs, predictor,
        BTB, RAS, next-line prefetch): each geometry group advances one
        machine's structures exactly once, and only the per-config
        latency assembly and timing loops repeat -- so latency and
        core-width parameters are free to differ everywhere, and mixed
        geometries still batch within their groups.  A single config is
        the one-member group, and so is every member when the batch is
        not eligible (see :meth:`_batchable`).  ``checkpoint_key`` is
        one key derived from the lead member (applied to members
        warming the lead's geometry) or a per-config sequence.  Each
        element of the result is bit-identical to a separate
        :meth:`run_region` with that config alone.
        """
        start, end = region
        config_list = list(configs) if configs is not None else [self.config]
        if not config_list:
            return []
        if enhancements is None:
            enh_list = [self.enhancements] * len(config_list)
        elif isinstance(enhancements, Enhancements):
            enh_list = [enhancements] * len(config_list)
        else:
            enh_list = list(enhancements)
        if len(enh_list) != len(config_list):
            raise ValueError(
                f"{len(config_list)} configs but {len(enh_list)} enhancement sets"
            )
        specs = list(zip(config_list, enh_list))
        keys = self._checkpoint_keys(checkpoint_key, specs)
        warm_start = max(0, start - warmup_instructions)

        # One machine's structures serve each geometry group: outcomes
        # are trace-determined, so the shared resolve pass advances
        # them exactly as each per-config run would have.  Groups keep
        # first-appearance order and results scatter back to input
        # order.
        if self._batchable(specs):
            grouped: "dict[tuple, List[int]]" = {}
            for i, (config, enh) in enumerate(specs):
                grouped.setdefault(self._geometry_key(config, enh), []).append(i)
            groups = list(grouped.values())
        else:
            groups = [[i] for i in range(len(specs))]

        results: List[Optional[SimulationResult]] = [None] * len(specs)
        for indices in groups:
            group = [specs[i] for i in indices]
            machine = Machine(group[0][0], group[0][1], backend=self.backend)
            warmed = 0
            if warmed_prefix and warm_start > 0:
                warming = functional.warm_prefix(
                    machine, trace, warm_start,
                    checkpoint_key=keys[indices[0]],
                )
                warmed = warming.instructions
            elif warm_start > 0:
                # Skipped instructions count once per batched config in
                # the per-phase work attribution, mirroring N runs.
                obs_phases.record(
                    "fastforward", 0.0, warm_start * len(indices)
                )
            # Both calls share one body; the one-member call keeps a
            # per-run pass apart from batched passes in traced timings.
            if len(group) == 1:
                stats_list = [run_detailed(
                    machine, trace, warm_start, end, measure_from=start
                )]
            else:
                stats_list = run_detailed_batch(
                    machine, trace, warm_start, end, group, measure_from=start
                )
            for i, stats, (config, _) in zip(indices, stats_list, group):
                results[i] = SimulationResult(
                    stats=stats,
                    config_name=config.name,
                    detailed_instructions=end - start,
                    extra_detailed_instructions=start - warm_start,
                    warmed_instructions=warmed,
                    fastforwarded_instructions=(
                        0 if warmed_prefix else warm_start
                    ),
                )
        return results

    @staticmethod
    def _geometry_key(config: ProcessorConfig, enhancements: Enhancements):
        """The warm-state identity one machine's structures embody."""
        return tuple(getattr(config, f) for f in GEOMETRY_FIELDS) + (
            bool(enhancements.next_line_prefetch),
        )

    def _checkpoint_keys(self, checkpoint_key, specs):
        """Normalize ``checkpoint_key`` to one key per batch member.

        A checkpoint chain is keyed by warm-state geometry (structure
        fields plus the prefetch enhancement).  A single string key was
        derived from the *lead* member, so it applies to every member
        warming the lead's geometry and to no one else; a sequence is
        taken as explicit per-member keys.
        """
        if checkpoint_key is None:
            return [None] * len(specs)
        if isinstance(checkpoint_key, str):
            lead = self._geometry_key(*specs[0])
            return [
                checkpoint_key
                if self._geometry_key(config, enh) == lead
                else None
                for config, enh in specs
            ]
        keys = list(checkpoint_key)
        if len(keys) != len(specs):
            raise ValueError(
                f"{len(specs)} configs but {len(keys)} checkpoint keys"
            )
        return keys

    def _batchable(self, specs) -> bool:
        """Whether geometry groups may hold more than one member.

        Requires a batching backend and strictly positive latencies
        (what makes the resolved miss sets and stall-event *positions*
        latency-independent; the config validators enforce this, so
        the check is defensive).  Geometry, next-line prefetch
        included, may vary freely: members are grouped by geometry and
        each group shares one resolve pass.
        """
        if not get_backend(self.backend).supports_config_batching:
            return False
        return LatencyTable([config for config, _ in specs]).strictly_positive()

    # -- primitives for techniques that interleave modes -----------------------

    def checkpoint_key(self, workload, scale) -> Optional[str]:
        """This config's checkpoint-chain key, or None when no store
        is active (so callers can pass the result straight through)."""
        if checkpoint.active_store() is None:
            return None
        return checkpoint.state_key(
            workload, scale, self.config, self.enhancements
        )

    def warm(self, machine: Machine, trace: Trace, start: int, end: int):
        """Functionally warm ``[start, end)``; returns WarmingStats."""
        return run_functional_warming(machine, trace, start, end)

    def warm_prefix(
        self,
        machine: Machine,
        trace: Trace,
        end: int,
        checkpoint_key: Optional[str] = None,
    ):
        """Warm ``[0, end)`` on a cold machine, checkpoint-assisted.

        Only sound when ``machine`` is cold (fresh): checkpoints
        snapshot the state of warming from trace position 0.
        """
        return functional.warm_prefix(
            machine, trace, end, checkpoint_key=checkpoint_key
        )

    def detail(
        self,
        machine: Machine,
        trace: Trace,
        start: int,
        end: int,
        measure_from: Optional[int] = None,
    ) -> SimulationStats:
        """Detailed-simulate ``[start, end)`` on a persistent machine."""
        return run_detailed(machine, trace, start, end, measure_from=measure_from)

    def detail_regions(self, machine: Machine, trace: Trace, plan) -> list:
        """Run a sampled pass on a persistent machine.

        ``plan`` is the contiguous, ordered list of functional-warming
        gaps ``(start, end)`` and detailed calls ``(start,
        measure_from, end)`` that a sampling technique would otherwise
        make one :meth:`warm` or :meth:`detail` call each.  Returns per
        item the gap's ``WarmingStats`` or the call's
        ``SimulationStats``, exactly what those calls return.  On the
        numpy backend the whole plan is one structural pass, and every
        call costs only its timing loop (a next-line-prefetch plan with
        gaps still runs per call).
        """
        outcomes = detail_plan(
            machine, trace, plan, [(machine.config, machine.enhancements)]
        )
        return [
            outcome if len(item) == 2 else outcome[0]
            for item, outcome in zip(plan, outcomes)
        ]
