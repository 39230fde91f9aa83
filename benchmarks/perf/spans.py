"""In-memory span recording around the program's public layer functions.

The traced repetition of a workload wraps each layer's public entry
points *in place* -- the defining module's attribute, every ``repro``
module that imported the same function object by name, or the class
attribute for methods -- so the program runs unmodified while each
call records a span ``(name, start, end, id, parent, pid, role)``.

Spans are kept in memory per process and appended to
``<dir>/spans-<pid>.jsonl`` whenever a top-level span (one with no
open parent on its thread) ends: a pool worker or an agent's lease
child writes its spans at the end of each run, before it can be
killed or exit.  Forked children inherit the wrappers and start with
an empty buffer and stack (``os.register_at_fork``).

:func:`install` returns an :class:`Installation`; its
:meth:`~Installation.uninstall` restores every patched attribute, so
the untraced repetitions never see a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Where a traced process writes its spans, and which side of the
#: sweep it is (``supervisor`` or ``agent``); forked children inherit
#: both with the wrappers.
SPANS_DIR_ENV_VAR = "PERF_SPANS_DIR"
ROLE_ENV_VAR = "PERF_SPANS_ROLE"

Annotate = Callable[[tuple, dict, object], Optional[dict]]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _granted_lease(args, kwargs, result):
    return {"lease": result[0].lease_id} if result else None


def _completed_lease(args, kwargs, result):
    return {"lease": _arg(args, kwargs, 2, "lease_id")}


def _request_op(args, kwargs, result):
    message = _arg(args, kwargs, 1, "message")
    return {"op": message.get("op")} if isinstance(message, dict) else None


def _region_length(args, kwargs, result):
    return {"n": _arg(args, kwargs, 3, "end") - _arg(args, kwargs, 2, "start")}


def _batch_region(args, kwargs, result):
    configs = len(_arg(args, kwargs, 4, "specs"))
    length = _arg(args, kwargs, 3, "end") - _arg(args, kwargs, 2, "start")
    return {"n": length * configs, "configs": configs}


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:qualname`` recorded as ``span``."""

    module: str
    qualname: str
    span: str
    annotate: Optional[Annotate] = None


#: The layer boundaries the harness traces.  Technique ``run`` /
#: ``run_batch`` methods are added per class by :func:`targets`.
TARGETS: Tuple[Target, ...] = (
    Target("repro.engine.planner", "Plan.build", "engine.planner.build"),
    Target("repro.engine.store", "ResultStore.get", "engine.store.get"),
    Target("repro.engine.store", "ResultStore.put", "engine.store.put"),
    Target("repro.engine.store", "ResultStore.put_payload", "engine.store.put"),
    Target("repro.engine.executor", "Executor.run", "engine.executor.run"),
    Target("repro.engine.executor", "execute_request", "engine.executor.execute"),
    Target("repro.engine", "Engine.close", "engine.close"),
    Target("repro.engine.protocol", "LeaseLedger.grant",
           "engine.protocol.grant", _granted_lease),
    Target("repro.engine.protocol", "LeaseLedger.complete",
           "engine.protocol.complete", _completed_lease),
    Target("repro.engine.protocol", "Connection.request",
           "engine.worker.request", _request_op),
    Target("repro.workloads.inputs", "Workload.trace", "workloads.trace"),
    Target("repro.workloads.generator", "generate_trace", "workloads.trace_gen"),
    Target("repro.workloads.trace_store", "TraceStore.load",
           "workloads.trace_store.load"),
    Target("repro.workloads.trace_store", "TraceStore.save",
           "workloads.trace_store.save"),
    Target("repro.cpu.checkpoint", "CheckpointStore.nearest",
           "cpu.checkpoint.restore"),
    Target("repro.cpu.checkpoint", "CheckpointStore.save", "cpu.checkpoint.save"),
    Target("repro.cpu.functional", "warm_prefix", "cpu.functional.warm_prefix"),
    Target("repro.cpu.functional", "run_functional_warming",
           "cpu.functional.warm", _region_length),
    Target("repro.cpu.pipeline", "run_detailed", "cpu.pipeline.detailed",
           _region_length),
    Target("repro.cpu.pipeline", "run_detailed_batch", "cpu.pipeline.batch",
           _batch_region),
    Target("repro.cpu.simulator", "Simulator.run_regions",
           "cpu.simulator.run_regions"),
    Target("repro.techniques.simpoint.simpoint", "SimPointTechnique.select",
           "techniques.simpoint.select"),
    Target("repro.characterization.bottleneck", "bottleneck_ranks",
           "characterization.bottleneck"),
)


def targets() -> List[Target]:
    """:data:`TARGETS` plus every technique class's own ``run`` and
    ``run_batch`` (concrete methods only)."""
    importlib.import_module("repro.techniques.registry")
    from repro.techniques.base import SimulationTechnique

    found = list(TARGETS)
    pending = [SimulationTechnique]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method in ("run", "run_batch"):
            func = cls.__dict__.get(method)
            if func is None or getattr(func, "__isabstractmethod__", False):
                continue
            found.append(
                Target(cls.__module__, f"{cls.__qualname__}.{method}",
                       f"techniques.{method}")
            )
    return found


class Tracer:
    """Per-process span buffer; thread-safe and fork-aware."""

    def __init__(self, out_dir: os.PathLike, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._closed: List[dict] = []
        self._ids = itertools.count(1)
        self._fd: Optional[int] = None
        # No thread may hold the buffer lock across a fork, or the
        # child would inherit it locked.
        os.register_at_fork(
            before=lambda: self._lock.acquire(),
            after_in_parent=lambda: self._lock.release(),
            after_in_child=self._after_fork,
        )

    def _after_fork(self) -> None:
        # The child never unwinds the parent's open spans, so it starts
        # empty; its spans go to its own file.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self._closed = []
        self._fd = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func: Callable, span: str,
             annotate: Optional[Annotate] = None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                attrs = None
                if annotate is not None:
                    try:
                        attrs = annotate(args, kwargs, result)
                    except Exception:
                        attrs = None  # telemetry never fails the run
                self._record(span, start, end, span_id, parent, attrs,
                             top_level=not stack)

        traced.__wrapped_by_perf__ = True
        return traced

    def _record(self, name, start, end, span_id, parent, attrs,
                top_level: bool) -> None:
        record = {
            "name": name, "start": start, "end": end, "id": span_id,
            "parent": parent, "pid": self._pid, "role": self.role,
        }
        if attrs:
            record["attrs"] = attrs
        with self._lock:
            self._closed.append(record)
        if top_level:
            self.flush()

    def flush(self) -> None:
        """Append every finished span to this process's span file."""
        with self._lock:
            records, self._closed = self._closed, []
            if not records:
                return
            if self._fd is None:
                self.out_dir.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(
                    self.out_dir / f"spans-{self._pid}.jsonl",
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
                )
            data = "".join(json.dumps(r) + "\n" for r in records).encode()
            while data:
                data = data[os.write(self._fd, data):]

    def close(self) -> None:
        self.flush()
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


def _resolve(target: Target) -> Tuple[object, str]:
    """The object owning the target's attribute, and the attribute name."""
    owner: object = importlib.import_module(target.module)
    *path, name = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrapped_descriptor(tracer: Tracer, raw, target: Target):
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(tracer.wrap(raw.__func__, target.span, target.annotate))
    return tracer.wrap(raw, target.span, target.annotate)


class Installation:
    """Wrappers in effect; :meth:`uninstall` puts every original back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patched: List[Tuple[object, str, object]] = []

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        self.tracer.close()
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()


def install(out_dir: os.PathLike, role: str = "supervisor") -> Installation:
    """Wrap every :func:`targets` callable, recording into ``out_dir``.

    Module-level functions are also rebound in every loaded ``repro``
    module that holds the same object under any name (``from x import
    f``), so callers that imported a function directly are traced too.
    """
    installation = Installation(Tracer(out_dir, role))
    rebind: Dict[int, Tuple[object, object]] = {}
    for target in targets():
        owner, name = _resolve(target)
        raw = owner.__dict__[name]
        if getattr(getattr(raw, "__func__", raw), "__wrapped_by_perf__", False):
            continue
        wrapped = _wrapped_descriptor(installation.tracer, raw, target)
        installation._patch(owner, name, wrapped)
        if not isinstance(owner, type):
            rebind[id(raw)] = (raw, wrapped)
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            entry = rebind.get(id(value))
            if entry is not None and entry[0] is value:
                installation._patch(module, attr, entry[1])
    return installation


def install_from_env() -> Optional[Installation]:
    """:func:`install` when ``$PERF_SPANS_DIR`` names a directory."""
    out_dir = os.environ.get(SPANS_DIR_ENV_VAR)
    if not out_dir:
        return None
    return install(out_dir, os.environ.get(ROLE_ENV_VAR, "supervisor"))


def load(spans_dir: os.PathLike) -> List[dict]:
    """Every span recorded under ``spans_dir`` (all processes)."""
    spans: List[dict] = []
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans
