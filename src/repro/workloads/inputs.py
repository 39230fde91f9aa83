"""Input sets and workload binding.

An :class:`InputSetSpec` describes how one input set executes a
benchmark program: total length (in paper-M instructions), which phases
run in what proportion, and how much of the reference memory footprint
it touches.  Reduced inputs are deliberately *not* scaled-down replicas
of the reference run: they re-weight and drop phases and shrink
footprints, reproducing the paper's finding that a reduced input
"effectively simulates a different program".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.trace import Trace
from repro.obs import phases as obs_phases
from repro.scale import Scale
from repro.workloads import trace_store
from repro.workloads.generator import generate_trace
from repro.workloads.program import SyntheticProgram

#: Canonical input-set names, smallest to largest (Table 2 columns).
INPUT_SET_NAMES = ("small", "medium", "large", "test", "train", "reference")


@dataclass(frozen=True)
class InputSetSpec:
    """How one input set drives a benchmark program.

    Parameters
    ----------
    name:
        One of :data:`INPUT_SET_NAMES`.
    length_m:
        Dynamic length in paper-M instructions.
    phase_fractions:
        ``(phase_name, fraction)`` pairs; fractions are normalized.
        Order matters: it is the phase *schedule*.
    footprint_scale:
        Multiplier on every memory footprint relative to reference.
    """

    name: str
    length_m: float
    phase_fractions: Tuple[Tuple[str, float], ...]
    footprint_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.name not in INPUT_SET_NAMES:
            raise ValueError(f"unknown input set name {self.name!r}")
        if self.length_m <= 0:
            raise ValueError("length_m must be positive")
        if not self.phase_fractions:
            raise ValueError("phase_fractions must not be empty")
        total = sum(f for _, f in self.phase_fractions)
        if total <= 0:
            raise ValueError("phase fractions must sum to a positive value")
        if self.footprint_scale <= 0:
            raise ValueError("footprint_scale must be positive")


@dataclass(frozen=True)
class Workload:
    """A benchmark program bound to one input set.

    This is the unit every simulation technique operates on.  Traces
    are generated deterministically from ``seed`` and memoized in a
    small process-wide cache (traces are large).
    """

    benchmark: str
    program: SyntheticProgram
    input_set: InputSetSpec
    seed: int = 1234

    @property
    def name(self) -> str:
        return f"{self.benchmark}.{self.input_set.name}"

    @property
    def length_m(self) -> float:
        return self.input_set.length_m

    def schedule(self, scale: Scale) -> Tuple[Tuple[int, int], ...]:
        """Concrete ``(phase_index, instructions)`` schedule at ``scale``."""
        total = scale.instructions(self.input_set.length_m)
        fractions = self.input_set.phase_fractions
        weight_sum = sum(f for _, f in fractions)
        segments = []
        allocated = 0
        for i, (phase_name, fraction) in enumerate(fractions):
            phase_index = self.program.phase_index(phase_name)
            if i == len(fractions) - 1:
                length = total - allocated
            else:
                length = int(round(total * fraction / weight_sum))
            allocated += length
            if length > 0:
                segments.append((phase_index, length))
        if not segments:
            segments.append((self.program.phase_index(fractions[0][0]), total))
        return tuple(segments)

    def trace(self, scale: Scale) -> Trace:
        """The dynamic trace at ``scale`` (memoized).

        With a trace store active (see
        :mod:`repro.workloads.trace_store`), the trace is loaded
        memory-mapped from the shared on-disk store when present, and
        generated-then-stored when not -- so across a sweep each trace
        is materialized once per machine, not once per process.
        """
        key = (self.benchmark, self.input_set, self.seed, scale.instructions_per_m)
        cached = _TRACE_CACHE.get(key)
        if cached is not None:
            return cached
        with obs_phases.measured("trace_load", workload=self.name):
            store = trace_store.active_store()
            trace = store.load(self, scale) if store is not None else None
            if trace is None:
                trace = generate_trace(
                    self.program,
                    self.schedule(scale),
                    seed=self.seed,
                    footprint_scale=self.input_set.footprint_scale,
                )
                if store is not None:
                    try:
                        store.save(self, scale, trace)
                    except OSError:
                        pass  # a read-only or full cache dir never fails the run
        _TRACE_CACHE.put(key, trace)
        return trace


class _TraceCache:
    """Tiny thread-safe LRU cache bounding resident trace memory."""

    def __init__(self, capacity: int = 4) -> None:
        self._capacity = capacity
        self._entries: "OrderedDict[tuple, Trace]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Optional[Trace]:
        with self._lock:
            trace = self._entries.get(key)
            if trace is not None:
                self._entries.move_to_end(key)
            return trace

    def put(self, key: tuple, trace: Trace) -> None:
        with self._lock:
            self._entries[key] = trace
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def values(self) -> List[Trace]:
        with self._lock:
            return list(self._entries.values())


_TRACE_CACHE = _TraceCache()


def clear_trace_cache() -> None:
    """Drop all memoized traces (tests and memory-pressure relief)."""
    _TRACE_CACHE.clear()


def drop_trace_pages() -> None:
    """Let the OS drop every memoized trace's mapped column pages
    (:meth:`Trace.drop_pages`)."""
    for trace in _TRACE_CACHE.values():
        trace.drop_pages()
