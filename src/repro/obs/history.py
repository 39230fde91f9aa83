"""Append-only, content-addressed sweep-history store.

Every sweep (local, batched, or distributed) appends one record at
supervisor exit.  The store is sharded JSONL under
``<cache-dir>/v1/history/``: a record is one JSON line appended in a
single write to the shard named by the first two hex digits of its
content id, so concurrent sweeps sharing a cache directory never
clobber each other -- at worst a crash leaves a truncated final line,
which the shared reader (:func:`repro.files.read_jsonl`, also used by
the trace and the journal) skips.

Records are content-addressed: ``id`` is the SHA-256 of the record's
canonical JSON (sorted keys, ``id`` excluded).  The reader recomputes
and verifies the digest, so a corrupted line is dropped rather than
trusted, and replayed/duplicated appends deduplicate naturally.

The store is additive-only observability: it never feeds back into
result keys, journaling, or checkpoints, and the result/trace stores
stay byte-identical whether history recording is on or off.

Record shape (schema 1)::

    {"schema": 1, "id": "<sha256>", "kind": "sweep",
     "recorded_unix": t, "label": str | null,
     "sweep": {"fingerprint": ..., "backend": ..., "host": ...,
               "git": ..., "pid": ..., ...engine knobs...},
     "stats": {...engine-stats snapshot...}}

Older stores may also hold ``"kind": "bench"`` records from a retired
benchmark script; they still verify and list like any other record.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.files import JsonlLog, read_jsonl

#: Subdirectory of the store's versioned dir holding history shards.
HISTORY_SUBDIR = "history"

#: Version of the history record format.
HISTORY_SCHEMA_VERSION = 1


def history_dir(cache_dir: os.PathLike) -> Path:
    """The history shard directory for ``cache_dir``.

    Lives beside ``events/`` and ``trace.jsonl`` under ``v1/`` --
    deliberately outside the two-hex-digit result shards, so store
    byte-parity comparisons (``v*/??/*.json``) never see it.
    """
    return Path(cache_dir) / "v1" / HISTORY_SUBDIR


def record_id(record: Dict) -> str:
    """Content address: SHA-256 over canonical JSON, ``id`` excluded."""
    body = {key: value for key, value in record.items() if key != "id"}
    canonical = json.dumps(body, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` for the source tree, if any."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def grid_fingerprint(keys) -> str:
    """Config-grid identity: digest of the sorted unique run keys."""
    joined = "\n".join(sorted(set(str(key) for key in keys)))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def sweep_record(
    stats: Dict,
    *,
    fingerprint: Optional[str] = None,
    identity: Optional[Dict] = None,
    label: Optional[str] = None,
    recorded_unix: Optional[float] = None,
) -> Dict:
    """Build (but do not append) a sweep record from an engine-stats
    snapshot plus sweep identity."""
    sweep = {
        "fingerprint": fingerprint,
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "git": git_describe(),
    }
    if identity:
        sweep.update(identity)
    return {
        "schema": HISTORY_SCHEMA_VERSION,
        "kind": "sweep",
        "recorded_unix": (
            time.time() if recorded_unix is None else float(recorded_unix)
        ),
        "label": label,
        "sweep": sweep,
        "stats": stats,
    }


def append(cache_dir: os.PathLike, record: Dict) -> str:
    """Append ``record`` to the history store; returns its content id.

    The line lands in the shard named by the id's first two hex digits
    as one append-only write (:class:`repro.files.JsonlLog`), which the
    kernel serializes against concurrent appenders on a local
    filesystem; a crash can only truncate the final line, never
    interleave two records.
    """
    record = dict(record)
    record.setdefault("schema", HISTORY_SCHEMA_VERSION)
    record["id"] = record_id(record)
    shard = history_dir(cache_dir) / f"{record['id'][:2]}.jsonl"
    with JsonlLog(shard) as log:
        log.append(record)
    return record["id"]


def read_records(cache_dir: os.PathLike) -> List[Dict]:
    """All verified records, oldest first; corruption silently dropped.

    Tolerates truncated final lines, garbage lines, unknown schema
    versions, and records whose recomputed digest no longer matches
    their claimed ``id`` (bit rot); duplicate ids collapse to one.
    """
    seen: Dict[str, Dict] = {}
    for shard in sorted(history_dir(cache_dir).glob("*.jsonl")):
        try:
            records = read_jsonl(shard)
        except OSError:
            continue
        for record in records:
            if record.get("schema") != HISTORY_SCHEMA_VERSION:
                continue
            claimed = record.get("id")
            if not isinstance(claimed, str) or record_id(record) != claimed:
                continue
            seen[claimed] = record
    records = list(seen.values())
    records.sort(key=lambda r: (r.get("recorded_unix", 0.0), r.get("id", "")))
    return records


def resolve(records: List[Dict], ref: str) -> Dict:
    """A record by id prefix or negative age index (``-1`` = newest).

    Raises ``ValueError`` when the reference is ambiguous or unknown.
    """
    ref = ref.strip()
    if not ref:
        raise ValueError("empty history reference")
    if ref.lstrip("-").isdigit() and ref.startswith("-"):
        index = int(ref)
        if not records or not -len(records) <= index <= -1:
            raise ValueError(
                f"history index {ref} out of range "
                f"({len(records)} records)"
            )
        return records[index]
    matches = [
        record for record in records
        if str(record.get("id", "")).startswith(ref)
    ]
    if not matches:
        raise ValueError(f"no history record matches {ref!r}")
    if len(matches) > 1:
        raise ValueError(
            f"history reference {ref!r} is ambiguous "
            f"({len(matches)} matches); use more digits"
        )
    return matches[0]


#: The sweep-history table, one column list for ``report history`` and
#: the dashboard: record fields plus every registry metric that
#: declares a ``column``.
HISTORY_COLUMNS = (
    "id", "kind", "when", "backend", "runs", "batch_s", "cpu_s",
    "max_rss_mb", "host", "label",
)


def summary_row(record: Dict) -> Dict:
    """One record's :data:`HISTORY_COLUMNS` cells ("-" when absent)."""
    # Imported here: repro.engine imports this module at start-up.
    from repro.engine.metrics import METRICS

    stats = record.get("stats") or {}
    sweep = record.get("sweep") or {}
    row = {
        "id": str(record.get("id", ""))[:12],
        "kind": record.get("kind", "?"),
        "when": time.strftime(
            "%Y-%m-%d %H:%M:%S",
            time.localtime(record.get("recorded_unix", 0.0)),
        ),
        "backend": str(
            sweep.get("backend") or stats.get("default_backend") or "-"
        ),
        "host": str(sweep.get("host") or "-"),
        "label": str(record.get("label") or ""),
    }
    for metric in (m for m in METRICS if m.column):
        value = metric.value(stats)
        if metric.scale != 1.0:
            value = round(value * metric.scale, 1) if value else None
        row[metric.column] = "-" if value is None else value
    return {column: row[column] for column in HISTORY_COLUMNS}
