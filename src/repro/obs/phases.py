"""Per-run phase-timing ledger.

The simulation primitives (functional warming, detailed pipeline,
trace loading, checkpoint restore, SimPoint analysis) record how long
each *phase* of a run took -- and how many instructions it covered --
into a module-level ledger.  The worker drains the ledger after each
run into ``TechniqueResult.phase_times``; the engine aggregates those
breakdowns into per-family and per-backend histograms in
``engine-stats.json``.

The ledger accumulates, so a technique that simulates many regions
(SimPoint, SMARTS) sums its phases naturally.  Entries are keyed by
phase name; each value is ``{"seconds": float, "instructions": int}``.

:func:`measured` is the one-stop instrumentation primitive: it times a
block with a single ``time.monotonic()`` pair, adds the ledger entry,
emits a :func:`repro.obs.trace.span` when tracing is active, and
notifies the live-phase observer (used by workers to stream "what
phase is run X in right now" to the supervisor).  With tracing off and
no notifier installed its cost is two clock reads and a dict update.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.obs import trace

#: Canonical phase names, in report display order.  The ledger accepts
#: any name; these are the ones the instrumented code paths emit.
PHASE_ORDER = (
    "analysis",
    "trace_load",
    "checkpoint_restore",
    "fastforward",
    "warming",
    "warm_detailed",
    "timing_batch",
    "detailed",
    "checkpoint_save",
)

def ordered(names) -> List[str]:
    """Sort phase names into report display order.

    Canonical phases (:data:`PHASE_ORDER`) come first, in pipeline
    order; unknown names follow alphabetically, so ad-hoc phases from
    newer instrumentation still render deterministically.
    """
    rank = {name: index for index, name in enumerate(PHASE_ORDER)}
    return sorted(names, key=lambda n: (rank.get(n, len(rank)), n))


# phase -> [seconds, instructions]
_ledger: Dict[str, List[float]] = {}

# Called when a measured block starts (live view).  Preferred signature
# is ``notifier(phase, attrs)`` -- ``attrs`` carries the measured
# block's keyword attributes (e.g. ``timing_batch``'s ``configs``);
# single-argument ``notifier(phase)`` observers keep working unchanged.
_notifier: Optional[Callable[..., None]] = None


def record(phase: str, seconds: float, instructions: int = 0) -> None:
    """Add ``seconds``/``instructions`` to ``phase`` in the ledger."""
    entry = _ledger.get(phase)
    if entry is None:
        _ledger[phase] = [seconds, float(instructions)]
    else:
        entry[0] += seconds
        entry[1] += instructions


def drain() -> Dict[str, Dict[str, float]]:
    """Return and clear the accumulated ledger.

    The result maps phase name to ``{"seconds": s, "instructions": n}``
    and is what lands in ``TechniqueResult.phase_times``.
    """
    drained = {
        phase: {"seconds": entry[0], "instructions": int(entry[1])}
        for phase, entry in _ledger.items()
    }
    _ledger.clear()
    return drained


def set_notifier(notifier: Optional[Callable[..., None]]) -> None:
    """Install (or clear, with ``None``) the phase-start observer."""
    global _notifier
    _notifier = notifier


def _notify(notifier: Callable[..., None], phase: str, attrs: dict) -> None:
    """Call the observer, preferring the two-argument signature."""
    try:
        notifier(phase, attrs)
    except TypeError:
        try:
            notifier(phase)
        except Exception:
            pass
    except Exception:
        pass


@contextmanager
def measured(phase: str, instructions: int = 0, **attrs: object) -> Iterator[None]:
    """Time a block as ``phase``: ledger entry + trace span + notifier."""
    notifier = _notifier
    if notifier is not None:
        _notify(notifier, phase, dict(attrs))
    if instructions:
        attrs["instructions"] = instructions
    with trace.span(phase, **attrs):
        start = time.monotonic()
        try:
            yield
        finally:
            record(phase, time.monotonic() - start, instructions)
