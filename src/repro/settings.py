"""The sweep settings table, resolved flag > environment > default.

Each setting the sweep CLI exposes is one :class:`Setting` in
:data:`SETTINGS`, giving the ``Engine``/``ExperimentContext`` keyword
it sets, its CLI flag, its environment variable (``--resume``,
``--listen`` and the other one-shot switches have none), the parser for
strings, the default, the range check and the help text.  The CLI
builds its flags from the table, README's options table lists it, and
:func:`value` resolves every setting the same way:

1. an explicit value (anything but ``None``) wins;
2. else a non-empty environment variable, parsed with the entry's
   parser;
3. else the default -- a plain value, or a zero-argument callable
   evaluated lazily so "all CPU cores"-style defaults stay dynamic.

The result then passes the entry's range check.  Every failure is a
:class:`ValueError` naming the flag, and the variable when the value
came from the environment, e.g. ``$REPRO_JOBS must be an integer, got
'many'`` or ``--batch-configs must be >= 1, got 0 (from
$REPRO_BATCH_CONFIGS)``.

This module is stdlib-only, so every process can import it for free.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar, Union

T = TypeVar("T")


def resolve(
    flag: Optional[T],
    env_var: Optional[str],
    default: Union[T, Callable[[], T], None],
    parse: Callable[[str], T] = str,
    description: str = "a value",
) -> Optional[T]:
    """Resolve one value with flag > env > default precedence.

    ``description`` completes the error message for an unparseable
    environment value ("$VAR must be <description>, got ...").
    """
    if flag is not None:
        return flag
    raw = os.environ.get(env_var) if env_var else None
    if raw:
        try:
            return parse(raw)
        except (TypeError, ValueError):
            raise ValueError(
                f"${env_var} must be {description}, got {raw!r}"
            ) from None
    return default() if callable(default) else default


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(raw)


def _profile(raw: str):
    from repro.scale import scale_from_profile  # stdlib-only, loaded on use

    return scale_from_profile(raw)


def _benchmarks(raw: str) -> Tuple[str, ...]:
    return tuple(raw.split(","))


#: What each parser accepts, for error messages.
_KINDS = {
    int: "an integer",
    float: "a number",
    _parse_bool: "a boolean (0/1)",
    _profile: "a profile (tiny, quick or full)",
}

#: A range check: a predicate and the rule it enforces, for messages.
Check = Tuple[Callable[[Any], bool], str]


def _at_least(low: int) -> Check:
    return (lambda v: v >= low), f">= {low}"


_POSITIVE: Check = ((lambda v: v > 0), "positive")


def _one_of(*choices: str) -> Check:
    return (lambda v: v in choices), "one of " + ", ".join(choices)


@dataclass(frozen=True)
class Setting:
    """One sweep setting; see the module docstring."""

    #: The ``Engine``/``ExperimentContext`` keyword (the CLI's dest).
    name: str
    #: The CLI flag; ``--on/--off`` for a switch with both spellings.
    flag: str
    #: The environment variable, or None.
    env: Optional[str]
    #: Parses a flag or environment string.
    parse: Callable[[str], Any]
    #: A plain value, or a zero-argument callable.
    default: Any
    #: The default as ``--help`` and README print it.
    shown: str
    help: str
    check: Optional[Check] = None
    metavar: Optional[str] = None

    @property
    def kind(self) -> str:
        return _KINDS.get(self.parse, "a value")

    @property
    def switch(self) -> bool:
        return self.parse is _parse_bool


SETTINGS: Dict[str, Setting] = {s.name: s for s in (
    Setting("scale", "--profile", "REPRO_PROFILE", _profile,
            lambda: _profile("tiny"), "tiny",
            "simulated instructions per paper-M: tiny 25, quick 100, "
            "full 500", metavar="PROFILE"),
    Setting("depth", "--depth", "REPRO_DEPTH", str, "standard", "standard",
            "permutations per technique family: quick, standard or full",
            _one_of("quick", "standard", "full")),
    Setting("benchmarks", "--benchmarks", None, _benchmarks, None,
            "per --full", "comma-separated benchmark subset; "
            "wins over --full", metavar="A,B"),
    Setting("full", "--full", "REPRO_FULL", _parse_bool, False,
            "four benchmarks", "run all ten benchmarks"),
    Setting("jobs", "--jobs", "REPRO_JOBS", int, 1,
            "all cores (CLI), 1 (library)",
            "local lease clients, each with one worker process; 1 = "
            "serial, 0 = remote agents only (with --listen)",
            _at_least(0), "N"),
    Setting("cache_dir", "--cache-dir", "REPRO_CACHE_DIR", Path, None,
            "no persistent cache", "persistent result cache directory",
            metavar="DIR"),
    Setting("no_cache", "--no-cache", None, _parse_bool, False, "off",
            "disable the persistent result cache even if configured"),
    Setting("resume", "--resume", None, _parse_bool, False, "off",
            "resume an interrupted sweep from <cache-dir>/journal.jsonl "
            "(skips journaled completed runs; requires a cache dir)"),
    Setting("run_timeout", "--run-timeout", "REPRO_RUN_TIMEOUT", float,
            None, "unbounded",
            "per-run wall-clock timeout; the clock starts when the run's "
            "lease is granted (a batch lease gets it once per member, "
            "plus one heartbeat, --lease-ttl / 3, of grace), and the "
            "client kills a run past it at its next heartbeat; the run "
            "is retried and, if it hangs again, quarantined; enforced "
            "when --jobs > 1 or with --listen",
            _POSITIVE, "SECONDS"),
    Setting("max_retries", "--max-retries", "REPRO_MAX_RETRIES", int, 1,
            "1", "retry budget per run; retries back off exponentially "
            "with deterministic jitter", _at_least(0), "N"),
    Setting("checkpoint_interval", "--checkpoint-interval",
            "REPRO_CHECKPOINT_INTERVAL", float, 500.0, "500",
            "warm-state checkpoint spacing in paper-M instructions; 0 "
            "disables checkpointing; requires a cache dir to take effect",
            _at_least(0), "M"),
    Setting("trace_cache", "--no-trace-cache", None, _parse_bool, True,
            "store on", "disable the shared memory-mapped trace store "
            "(<cache-dir>/traces); traces are regenerated per process"),
    Setting("backend", "--backend", "REPRO_BACKEND", str, "auto", "numpy",
            "simulation kernel backend: python, numpy or auto; all "
            "backends produce identical statistics", metavar="NAME"),
    Setting("trace", "--trace/--no-trace", "REPRO_TRACE", _parse_bool,
            False, "off", "record a structured run trace under "
            "<cache-dir>/v1/ (requires a cache dir); render it with "
            "'python -m repro.experiments report'"),
    Setting("history", "--history/--no-history", "REPRO_HISTORY",
            _parse_bool, True, "on",
            "append this sweep's stats to <cache-dir>/v1/history/ at "
            "exit; inspect with 'report history' / 'report compare' / "
            "'report dashboard'"),
    Setting("metrics_file", "--metrics-file", "REPRO_METRICS_FILE", Path,
            None, "no export", "export live engine counters to FILE in "
            "Prometheus textfile-collector format", metavar="FILE"),
    Setting("batch_configs", "--batch-configs", "REPRO_BATCH_CONFIGS", int,
            1, "1 (off)", "serve up to N same-trace configurations per "
            "batched simulation pass; results are bit-identical either "
            "way", _at_least(1), "N"),
    Setting("remote_batch_configs", "--remote-batch-configs",
            "REPRO_REMOTE_BATCH_CONFIGS", int, None, "the --batch-configs cap",
            "cap how many batch members one remote lease may carry; only "
            "meaningful with --listen", _at_least(1), "N"),
    Setting("listen", "--listen", None, str, None, "single host",
            "accept remote worker agents (python -m repro.engine.worker "
            "--connect HOST:PORT) which lease runs from this sweep; "
            "combine with --jobs 0 for a remote-only sweep",
            metavar="HOST:PORT"),
    Setting("min_agents", "--workers-remote", None, int, 0, "0",
            "with --listen: wait for N worker agents to connect before "
            "launching runs", _at_least(0), "N"),
    Setting("lease_ttl", "--lease-ttl", "REPRO_LEASE_TTL", float, 10.0,
            "10", "heartbeat-liveness budget per leased run in seconds; a "
            "lease whose heartbeats stop for this long is requeued "
            "uncharged", _POSITIVE, "SECONDS"),
)}

_TABLE_DEFAULT = object()


def value(name: str, given: Any = None, default: Any = _TABLE_DEFAULT) -> Any:
    """Resolve setting ``name``: ``given`` > its variable > its default
    (``default`` replaces the table's), then its range check."""
    setting = SETTINGS[name]
    flag = setting.flag.split("/")[0]
    if default is _TABLE_DEFAULT:
        default = setting.default
    try:
        result = resolve(
            given, setting.env, default, setting.parse, setting.kind
        )
    except ValueError as exc:
        raise ValueError(f"{exc}; it sets {flag}") from None
    check = setting.check
    if check is not None and result is not None and not check[0](result):
        source = ""
        if given is None and setting.env and os.environ.get(setting.env):
            source = f" (from ${setting.env})"
        raise ValueError(
            f"{flag} must be {check[1]}, got {result!r}{source}"
        )
    return result
