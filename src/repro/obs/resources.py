"""Per-run resource telemetry: max-RSS and CPU time, stdlib only.

Every run (local, batched, or leased to a remote agent) is annotated
with what it cost the host: CPU seconds actually burned (user +
system, from ``resource.getrusage``) and resident-set-size high-water
marks (``ru_maxrss``, cross-checked against ``/proc/self/statm`` where
procfs exists).  The executor snapshots before a run and diffs after,
so worker processes that execute many runs report per-run deltas rather
than process lifetime totals; max-RSS is a process high-water mark and
is reported as observed (it cannot be rewound between runs).

The module degrades gracefully: on platforms without ``resource``
(Windows) or ``/proc`` (macOS), sampling returns what it can and
callers treat a ``None`` or zero field as "not measured".  Nothing
here imports outside the standard library.

Sample shape (the dict that travels on worker events, the remote
``complete`` message, and ``RunInfo.resources``)::

    {"max_rss_bytes": int, "cpu_s": float,
     "cpu_user_s": float, "cpu_system_s": float}
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Optional, Tuple

try:  # POSIX only; Windows has no resource module.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None  # type: ignore[assignment]

#: ``ru_maxrss`` unit: kilobytes on Linux, bytes on macOS.
_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024

_STATM_PATH = "/proc/self/statm"

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # pragma: no cover
    _PAGE_SIZE = 4096


def _statm_rss_bytes() -> Optional[int]:
    """Current RSS from procfs, or None where /proc is absent."""
    try:
        with open(_STATM_PATH, "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


def max_rss_bytes() -> int:
    """This process's RSS high-water mark in bytes (0 = unmeasurable).

    ``ru_maxrss`` is authoritative; the live ``statm`` reading can
    exceed it only in the window before the kernel folds a fresh peak
    back into rusage, so take the larger of the two.
    """
    peak = 0
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        peak = int(usage.ru_maxrss) * _MAXRSS_UNIT
    current = _statm_rss_bytes()
    if current is not None and current > peak:
        peak = current
    return peak


def cpu_seconds() -> Tuple[float, float]:
    """(user, system) CPU seconds consumed by this process so far."""
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        return float(usage.ru_utime), float(usage.ru_stime)
    times = os.times()
    return float(times.user), float(times.system)


def snapshot() -> Tuple[float, float]:
    """Opaque pre-run marker for :func:`sample_since` (CPU baseline)."""
    return cpu_seconds()


def sample_since(baseline: Tuple[float, float]) -> Dict[str, float]:
    """Resource sample for the work done since ``baseline``.

    CPU times are deltas (clamped at zero against clock weirdness);
    max-RSS is the process high-water mark at sampling time.
    """
    user, system = cpu_seconds()
    cpu_user = max(0.0, user - baseline[0])
    cpu_system = max(0.0, system - baseline[1])
    return {
        "max_rss_bytes": max_rss_bytes(),
        "cpu_s": cpu_user + cpu_system,
        "cpu_user_s": cpu_user,
        "cpu_system_s": cpu_system,
    }


def share(sample: Optional[Dict[str, float]], members: int) -> Optional[Dict[str, float]]:
    """Per-member share of a batched execution's sample.

    CPU time divides evenly across the batch (mirroring the wall-time
    share the executor already reports per member); RSS does not
    divide -- each member is attributed the batch's high-water mark.
    """
    if sample is None or members <= 1:
        return sample
    shared = dict(sample)
    for key in ("cpu_s", "cpu_user_s", "cpu_system_s"):
        if key in shared:
            shared[key] = shared[key] / members
    return shared


def normalize(sample) -> Optional[Dict[str, float]]:
    """Validate an untrusted (wire-decoded) sample; None if hopeless."""
    if not isinstance(sample, dict):
        return None
    cleaned: Dict[str, float] = {}
    try:
        cleaned["max_rss_bytes"] = int(sample.get("max_rss_bytes", 0))
        for key in ("cpu_s", "cpu_user_s", "cpu_system_s"):
            cleaned[key] = float(sample.get(key, 0.0))
    except (TypeError, ValueError):
        return None
    return cleaned
