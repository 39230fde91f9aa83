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

#: Regions shorter than this are simulated with the reference loops
#: even on array backends: the vectorized set-up cost only pays off on
#: long regions, and both paths produce identical statistics.
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

    #: Whether :meth:`advance_detailed_batch` is implemented.  Callers
    #: (``Simulator.run_regions``, the engine's batching pass) consult
    #: this and fall back to per-config runs when it is False.
    supports_config_batching = False

    def advance_detailed(self, machine, trace, start, end, state) -> None:
        """Advance the detailed timing model over ``trace[start:end)``."""
        raise NotImplementedError

    def advance_detailed_batch(
        self, machine, trace, start, end, batch, states
    ) -> None:
        """Advance N latency configs sharing ``machine``'s structures.

        ``batch`` is a list of ``(config, enhancements)`` pairs and
        ``states`` the matching per-config timing states.  Bit-identical
        per config to N separate :meth:`advance_detailed` runs.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support config batching"
        )

    def run_warming(self, machine, trace, start, end):
        """Functionally warm ``trace[start:end)``; returns WarmingStats."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Backend {self.name}>"


class PythonBackend(Backend):
    """The reference interpreter loops (per-access structure methods)."""

    name = "python"

    def advance_detailed(self, machine, trace, start, end, state) -> None:
        from repro.cpu.pipeline import _run_region

        _run_region(machine, trace, start, end, state)

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

    def advance_detailed(self, machine, trace, start, end, state) -> None:
        try:
            _kernel_guard_check(self.name)
            if end - start < SMALL_REGION:
                from repro.cpu.pipeline import _run_region

                _run_region(machine, trace, start, end, state)
                return
            from repro.cpu.kernels.numpy_impl import advance_detailed

            advance_detailed(machine, trace, start, end, state)
        except Exception as exc:
            raise KernelError(self.name, f"detailed kernel failed: {exc!r}") from exc

    def advance_detailed_batch(self, machine, trace, start, end, batch, states):
        try:
            _kernel_guard_check(self.name)
            from repro.cpu.kernels.numpy_impl import advance_detailed_batch

            advance_detailed_batch(machine, trace, start, end, batch, states)
        except Exception as exc:
            raise KernelError(
                self.name, f"batched detailed kernel failed: {exc!r}"
            ) from exc

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

