"""Rejection of the retired ``REPRO_VEC_BATCH`` sweep-batching knob.

Sweeps once could group several cells per pool submission
(``REPRO_VEC_BATCH=N``), next to a cross-cell vector replay kernel.
Neither is part of the program any more: every sweep submits one cell per
future.  :func:`resolve_vec_batch` stays in this module because the
benchmark's host manifest (``perfbench/common.py``) imports it from here to
record the knob's effective value, which is always ``0``.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError

__all__ = ["resolve_vec_batch"]


def resolve_vec_batch() -> int:
    """``0``, after checking that ``REPRO_VEC_BATCH`` asks for no batching.

    Unset, empty and ``0`` are accepted.  Any other value raises
    :class:`~repro.errors.ConfigurationError`, so a stale setting fails
    loudly instead of silently doing nothing.
    """
    value = os.environ.get("REPRO_VEC_BATCH", "").strip()
    if value not in ("", "0"):
        raise ConfigurationError(
            f"REPRO_VEC_BATCH={value!r}: batched sweep submission was removed; "
            "every cell runs as its own submission. Unset REPRO_VEC_BATCH."
        )
    return 0
