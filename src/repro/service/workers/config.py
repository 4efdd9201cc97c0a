"""Environment knobs of the worker fleet (strictly validated).

Mirrors the ``REPRO_JOBS`` philosophy, plus a did-you-mean hint: a typo in a
knob must fail loudly at startup, never be silently clamped into behaviour
nobody asked for — on a fleet, a silently-wrong lease TTL shows up as
mysterious requeue storms hours later.

``REPRO_LEASE_TTL``
    Seconds a lease stays valid without a heartbeat (default 30).  Workers
    heartbeat at a third of this; a worker that misses the deadline loses the
    lease and its cells requeue.  Must be a positive number — lease expiry
    cannot be disabled, it is what makes a dead worker harmless.
``REPRO_WORKER_POLL``
    Seconds a worker's lease request long-polls the broker before retrying
    (default 2).  Must be a positive number.
"""

from __future__ import annotations

import difflib
import os

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_WORKER_POLL",
    "lease_ttl_from_env",
    "worker_poll_from_env",
]

DEFAULT_LEASE_TTL = 30.0
DEFAULT_WORKER_POLL = 2.0

_OFF_WORDS = ("off", "false", "no", "none", "disabled", "0")
_ON_WORDS = ("on", "true", "yes", "enabled", "auto", "default")


def _word_hint(text: str, knob: str, example: str) -> str:
    matches = difflib.get_close_matches(text.lower(), _OFF_WORDS + _ON_WORDS, n=1)
    word = matches[0] if matches else None
    if word in _OFF_WORDS:
        return (f" — {knob} cannot be disabled; pick a larger value "
                f"such as '{example}'")
    if word in _ON_WORDS:
        return f" — did you mean a number of seconds such as '{example}'?"
    return ""


def _positive_seconds(name: str, value, default: float, example: str) -> float:
    if value is None:
        env = os.environ.get(name)
        if env is None or env.strip() == "":
            return default
        value = env
    if isinstance(value, bool):
        raise ConfigurationError(
            f"{name} must be a positive number of seconds, got {value!r}"
        )
    if isinstance(value, str):
        text = value.strip()
        try:
            value = float(text)
        except ValueError:
            raise ConfigurationError(
                f"{name} must be a positive number of seconds, got {value!r}"
                f"{_word_hint(text, name, example)}"
            ) from None
    if not isinstance(value, (int, float)) or value <= 0:
        raise ConfigurationError(
            f"{name} must be a positive number of seconds, got {value!r}"
        )
    return float(value)


def lease_ttl_from_env(value: float | str | None = None) -> float:
    """The lease heartbeat deadline: explicit ``value``, else ``REPRO_LEASE_TTL``."""
    return _positive_seconds("REPRO_LEASE_TTL", value, DEFAULT_LEASE_TTL, "30")


def worker_poll_from_env(value: float | str | None = None) -> float:
    """The worker's long-poll wait: explicit ``value``, else ``REPRO_WORKER_POLL``."""
    return _positive_seconds("REPRO_WORKER_POLL", value, DEFAULT_WORKER_POLL, "2")
