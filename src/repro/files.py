"""Crash-safe files: atomic whole-file writes and append-only JSONL logs.

Everything a sweep leaves on disk has one of two shapes, both
implemented here once:

* whole files (store entries, fetched artifacts, stats and live
  snapshots) go through :func:`atomic_write`, so a kill mid-write
  leaves the old file or none, never a torn one;
* logs (the sweep journal, trace event files, history shards) are a
  :class:`JsonlLog`, one JSON line per record in a single append-only
  write, and :func:`read_jsonl` reads them back, skipping the torn
  final line a crash leaves.

Stdlib only: every process imports this, workers included.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Iterable, List, Optional, Union


def atomic_write(
    path: os.PathLike, data: Union[str, bytes, Iterable[bytes]]
) -> None:
    """Replace ``path`` with text (UTF-8), bytes or an iterable of
    bytes-like chunks via a temp file and a rename.  Raises what the filesystem raises; the
    temp file never outlives a failed write."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if isinstance(data, str):
                data = data.encode("utf-8")
            if isinstance(data, bytes):
                handle.write(data)
            else:
                for chunk in data:
                    handle.write(chunk)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def dumps_line(record: dict) -> bytes:
    """One log line: canonical compact JSON plus a newline."""
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
        + "\n"
    ).encode("utf-8")


class JsonlLog:
    """An append-only JSONL file, opened on the first record.

    Thread-safe; each record is one ``write``, so concurrent appenders
    never interleave.  ``durable`` syncs after every record.  After
    :meth:`close` records are dropped: a late event at shutdown must
    never reopen the file.
    """

    def __init__(self, path: os.PathLike, durable: bool = False) -> None:
        self.path = Path(path)
        self.durable = durable
        self._fd: Optional[int] = None
        self._closed = False
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        line = dumps_line(record)
        with self._lock:
            if self._closed:
                return
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            os.write(self._fd, line)
            if self.durable:
                os.fsync(self._fd)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl(path: os.PathLike) -> List[dict]:
    """Every JSON-object line of ``path``, in file order.  A missing
    file reads as empty; a truncated final line (a killed appender's
    partial write) and other garbage are skipped."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return []
    records: List[dict] = []
    for line in data.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records
