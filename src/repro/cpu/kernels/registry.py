"""Backend registry: pluggable simulation kernels.

Two backends drive the one structure set (:mod:`repro.cpu.cache`,
:mod:`repro.cpu.branch`) and share one contract -- bit-identical
statistics:

* ``python``  -- the reference per-instruction interpreter loops
  (:mod:`repro.cpu.pipeline`, :mod:`repro.cpu.functional`), which call
  the structures' per-access methods;
* ``numpy``   -- vectorized functional warming and a split-phase
  detailed model (resolve caches/predictors over pre-filtered indices
  by indexing the structures' flat state, then run a lean timing loop).

Selection: explicit argument > the process default installed with
:func:`activate` > the ``REPRO_BACKEND`` environment variable > default
(``numpy``).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.settings import SETTINGS, value

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV_VAR = SETTINGS["backend"].env

#: Recognized backend names (``auto`` resolves to the default).
BACKEND_NAMES = ("python", "numpy")

#: Warming calls shorter than this run the reference loop even on
#: array backends: the vectorized set-up cost only pays off on long
#: regions, and both paths produce identical state and counts.
SMALL_REGION = 1024

#: Degradation order for kernel failures: a run whose kernel raises is
#: retried on the ``python`` reference.  Both backends produce
#: bit-identical statistics, so the substitution is invisible in the
#: results (only slower); the reference has no tier below it.
KERNEL_FALLBACK: Dict[str, str] = {"numpy": "python"}


class KernelError(RuntimeError):
    """A failure raised from inside a simulation kernel.

    Tagged with the backend it came from so the engine's supervisor can
    retry the run on the reference backend (:data:`KERNEL_FALLBACK`)
    instead of burning its retry budget on a broken accelerator path.
    """

    def __init__(self, backend: str, message: str) -> None:
        super().__init__(message)
        self.backend = backend

    @property
    def fallback(self) -> Optional[str]:
        return KERNEL_FALLBACK.get(self.backend)

    def __reduce__(self):  # survives pickling back from pool workers
        return (KernelError, (self.backend, str(self)))


_faults = None
_ACTIVE: Optional[str] = None


def _kernel_guard_check(backend_name: str) -> None:
    """Fault-injection hook: raise if a kernel fault is planned for the
    active run on this backend (no-op when no plan is armed)."""
    global _faults
    if _faults is None:
        from repro.engine import faults  # deferred: avoids a cpu<->engine cycle

        _faults = faults
    _faults.kernel_check(backend_name)


def default_backend_name() -> str:
    """The backend ``auto`` resolves to: the fastest one."""
    return "numpy"


def activate(name: Optional[str]) -> Optional[str]:
    """Install (or, with None, remove) the process-wide default backend;
    returns the one it replaces, so the caller can restore it.  Forked
    workers inherit it."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, name
    return previous


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve a backend name: argument > activated > ``$REPRO_BACKEND``
    > default."""
    if name is None:
        name = _ACTIVE
    source = "" if name is not None else f" (from ${BACKEND_ENV_VAR})"
    name = value("backend", name).strip().lower()
    if name == "auto":
        return default_backend_name()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown simulation backend {name!r}{source}; "
            f"expected one of {BACKEND_NAMES + ('auto',)}"
        )
    return name


class Backend:
    """One simulation backend: the kernel entry points."""

    #: Subclasses set this.
    name = "abstract"

    #: Whether :meth:`detail_regions` serves batches of more than one
    #: config.  ``Simulator.run_regions`` consults this and runs
    #: one-member batches when it is False.
    supports_config_batching = False

    def detail_regions(self, machine, trace, plan, batch) -> list:
        """Run a plan of warming gaps and detailed calls on ``machine``.

        ``plan`` is a contiguous list of gaps ``(start, end)`` and
        calls ``(start, measure_from, end)``; ``batch`` is a list of
        ``(config, enhancements)`` pairs sharing ``machine``'s
        structures (a single config is the one-member batch).  Returns
        per item a gap's ``WarmingStats`` or a call's per-config
        ``SimulationStats`` list, bit-identical to the python
        reference's per-call loop.
        """
        raise NotImplementedError

    def run_warming(self, machine, trace, start, end):
        """Functionally warm ``trace[start:end)``; returns WarmingStats."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Backend {self.name}>"


class PythonBackend(Backend):
    """The reference interpreter loops (per-access structure methods)."""

    name = "python"

    def detail_regions(self, machine, trace, plan, batch):
        from repro.cpu.pipeline import detail_each, reference_call

        return detail_each(machine, trace, plan, batch, reference_call)

    def run_warming(self, machine, trace, start, end):
        from repro.cpu.functional import _python_warming

        return _python_warming(machine, trace, start, end)


class NumpyBackend(Backend):
    """Vectorized warming + split-phase timing over the flat state.

    Kernel dispatch is guarded: a failure inside the kernels surfaces
    as :class:`KernelError` so the engine can degrade to ``python``.
    """

    name = "numpy"
    supports_config_batching = True

    def detail_regions(self, machine, trace, plan, batch):
        try:
            _kernel_guard_check(self.name)
            from repro.cpu.kernels import numpy_impl

            if machine.enhancements.next_line_prefetch and any(
                len(item) == 2 for item in plan
            ):
                # Warming does not hand the L2 the prefetched line that
                # a detailed access does, so a pass cannot stand in for
                # a prefetching plan's gaps: run it per call.
                from repro.cpu.pipeline import detail_each

                return detail_each(
                    machine, trace, plan, batch,
                    lambda m, t, call, b: numpy_impl.detail_regions(
                        m, t, [call], b
                    )[0],
                )
            return numpy_impl.detail_regions(machine, trace, plan, batch)
        except Exception as exc:
            raise KernelError(self.name, f"detailed kernel failed: {exc!r}") from exc

    def run_warming(self, machine, trace, start, end):
        try:
            _kernel_guard_check(self.name)
            if end - start < SMALL_REGION:
                from repro.cpu.functional import _python_warming

                return _python_warming(machine, trace, start, end)
            from repro.cpu.kernels.numpy_impl import run_warming

            return run_warming(machine, trace, start, end)
        except Exception as exc:
            raise KernelError(self.name, f"warming kernel failed: {exc!r}") from exc


_BACKENDS: Dict[str, Backend] = {}


def get_backend(name: Union[str, Backend, None] = None) -> Backend:
    """The backend instance for ``name`` (see :func:`resolve_backend_name`)."""
    if isinstance(name, Backend):
        return name
    resolved = resolve_backend_name(name)
    backend = _BACKENDS.get(resolved)
    if backend is None:
        backend = {
            "python": PythonBackend,
            "numpy": NumpyBackend,
        }[resolved]()
        _BACKENDS[resolved] = backend
    return backend

