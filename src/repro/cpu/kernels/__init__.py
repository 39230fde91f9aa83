"""Pluggable simulation kernels.

The kernel layer provides interchangeable implementations of the two
hot loops in the simulator -- detailed timing and functional warming --
behind one registry (:mod:`repro.cpu.kernels.registry`).  All backends
produce bit-identical statistics; they differ only in speed:

* ``python`` -- the reference interpreter loops;
* ``numpy``  -- vectorized resolve passes + a config-specialized
  timing loop over flat-array state.
"""

from repro.cpu.kernels.registry import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    Backend,
    default_backend_name,
    get_backend,
    resolve_backend_name,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "Backend",
    "default_backend_name",
    "get_backend",
    "resolve_backend_name",
]
