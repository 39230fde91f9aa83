"""Unified runtime-settings resolution: flag > environment > default.

Every engine tunable the CLI exposes also answers to an environment
variable, so pool worker processes (which inherit the environment) and
library callers (which pass flags) agree on one value.  The precedence
is always the same and is implemented exactly once, here:

1. an explicit flag value (anything but ``None``) wins;
2. else a non-empty environment variable, parsed with ``parse``;
3. else the default -- a plain value, or a zero-argument callable
   evaluated lazily so "all CPU cores"-style defaults stay dynamic.

A malformed environment value raises :class:`ValueError` naming the
variable, e.g. ``$REPRO_JOBS must be an integer, got 'many'``.  Range
validation beyond parsing stays with the caller: it applies equally to
flag values, which never pass through here unchecked.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, TypeVar, Union

T = TypeVar("T")

#: Engine config-batching width (``--batch-configs``); 1 = batching off.
BATCH_CONFIGS_ENV_VAR = "REPRO_BATCH_CONFIGS"

#: Cap on how many configs one remote lease may carry
#: (``--remote-batch-configs``); unset = same as ``--batch-configs``.
REMOTE_BATCH_CONFIGS_ENV_VAR = "REPRO_REMOTE_BATCH_CONFIGS"

#: Sweep-history recording (``--history``/``--no-history``); when on
#: (the default), every cached sweep appends one record to
#: ``<cache-dir>/v1/history/`` at supervisor exit.  ``0``/``false``/
#: ``no``/``off`` disable it.
HISTORY_ENV_VAR = "REPRO_HISTORY"

#: Structured run tracing (``--trace``/``--no-trace``); off by default.
#: ``1``/``true``/``yes``/``on`` enable it.
TRACE_ENV_VAR = "REPRO_TRACE"


def resolve(
    flag: Optional[T],
    env_var: str,
    default: Union[T, Callable[[], T], None],
    parse: Callable[[str], T] = str,
    description: str = "a value",
) -> Optional[T]:
    """Resolve one setting with flag > env > default precedence.

    ``description`` completes the error message for an unparseable
    environment value ("$VAR must be <description>, got ...").
    """
    if flag is not None:
        return flag
    raw = os.environ.get(env_var)
    if raw:
        try:
            return parse(raw)
        except (TypeError, ValueError):
            raise ValueError(
                f"${env_var} must be {description}, got {raw!r}"
            ) from None
    return default() if callable(default) else default


def default_batch_configs() -> int:
    """Config-batching width from ``$REPRO_BATCH_CONFIGS`` (default 1).

    1 means batching off: every run executes alone, byte-identical to
    the pre-batching engine.  Values above 1 cap how many same-geometry
    configurations one batched simulation pass may serve.
    """
    width = resolve(None, BATCH_CONFIGS_ENV_VAR, 1, int, "an integer")
    if width < 1:
        raise ValueError(f"${BATCH_CONFIGS_ENV_VAR} must be >= 1, got {width}")
    return width


def default_remote_batch_configs():
    """Remote lease batching cap from ``$REPRO_REMOTE_BATCH_CONFIGS``.

    ``None`` (the default) means remote leases carry batches exactly as
    the engine grouped them under ``--batch-configs``.  A positive value
    caps how many member configs one lease may carry: oversized batches
    are split at grant time, so less-capable agents can lease narrower
    slices of the same sweep.  1 reproduces singleton leases.
    """
    cap = resolve(
        None, REMOTE_BATCH_CONFIGS_ENV_VAR, None, int, "an integer"
    )
    if cap is not None and cap < 1:
        raise ValueError(
            f"${REMOTE_BATCH_CONFIGS_ENV_VAR} must be >= 1, got {cap}"
        )
    return cap


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(raw)


def default_history() -> bool:
    """Sweep-history recording from ``$REPRO_HISTORY`` (default on).

    History is append-only metadata beside the result store; it never
    changes result/trace/checkpoint bytes, so it is safe to leave on.
    Only sweeps with a persistent ``cache_dir`` have anywhere to
    record to -- in-memory engines skip it regardless.
    """
    return resolve(
        None, HISTORY_ENV_VAR, True, _parse_bool, "a boolean (0/1)"
    )



def default_trace() -> bool:
    """Run tracing from ``$REPRO_TRACE`` (default off)."""
    return resolve(None, TRACE_ENV_VAR, False, _parse_bool, "a boolean (0/1)")
