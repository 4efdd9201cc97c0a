"""Artifact store for whole-scenario results.

Above the per-cell result cache (:mod:`repro.sim.result_cache`), complete
scenario results — the JSON payload a client downloads — are persisted here
under a whole-spec digest, so an identical resubmission never touches the
engine.  Artifacts are ``<digest>.json`` files under ``REPRO_ARTIFACT_DIR``
(default ``.repro_artifacts``) in a :class:`repro.store.Store`, LRU-bounded
by ``REPRO_ARTIFACT_MAX_MB`` (default 256) and quarantined into
``<directory>/quarantine/`` when corrupted; ``REPRO_ARTIFACT_URL`` proxies a
remote broker's store instead.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import ConfigurationError
from repro.store import RemoteStore, Store, remote_store_from_env

__all__ = [
    "DEFAULT_ARTIFACT_DIR",
    "DEFAULT_MAX_MEGABYTES",
    "ArtifactStore",
    "artifact_dir_from_env",
    "artifact_limit_from_env",
]

DEFAULT_ARTIFACT_DIR = ".repro_artifacts"
DEFAULT_MAX_MEGABYTES = 256


def artifact_dir_from_env() -> Path:
    """The artifact directory selected by ``REPRO_ARTIFACT_DIR``."""
    directory = Path(os.environ.get("REPRO_ARTIFACT_DIR") or DEFAULT_ARTIFACT_DIR)
    directory = directory.expanduser()
    return directory if directory.is_absolute() else Path.cwd() / directory


def artifact_limit_from_env() -> int:
    """The store's size bound in bytes (``REPRO_ARTIFACT_MAX_MB``)."""
    env = os.environ.get("REPRO_ARTIFACT_MAX_MB")
    if env is None or env.strip() == "":
        return DEFAULT_MAX_MEGABYTES * 1024 * 1024
    try:
        megabytes = int(env)
    except ValueError:
        megabytes = 0
    if megabytes <= 0:
        raise ConfigurationError(
            f"REPRO_ARTIFACT_MAX_MB must be a positive integer, got {env!r}"
        )
    return megabytes * 1024 * 1024


class ArtifactStore(Store):
    """The ``scenarios`` family: JSON payloads, LRU-bounded by total size."""

    def __init__(self, directory: str | os.PathLike | None = None,
                 max_bytes: int | None = None,
                 backend: RemoteStore | None = None):
        max_bytes = max_bytes if max_bytes is not None else artifact_limit_from_env()
        if max_bytes <= 0:
            raise ConfigurationError("the artifact store needs a positive size bound")
        super().__init__(
            directory if directory is not None else artifact_dir_from_env(), ".json",
            max_bytes=max_bytes,
            backend=backend if backend is not None else remote_store_from_env("scenarios"),
        )

    def get(self, digest: str) -> dict | None:
        """The stored payload for ``digest``, or None on a miss."""
        return self._load(digest)[1]

    def put(self, digest: str, payload: dict) -> bool:
        """Persist ``payload`` under ``digest`` (atomic, best-effort)."""
        return self._save(digest, payload)

    @staticmethod
    def _encode(digest: str, payload: dict) -> bytes:
        return json.dumps(payload, indent=2, default=str).encode("utf-8")

    @staticmethod
    def _decode(digest: str, data: bytes) -> dict:
        payload = json.loads(data.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("a scenario artifact must be a JSON object")
        return payload
