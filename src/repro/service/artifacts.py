"""Artifact store for whole-scenario results, over a pluggable backend.

The scenario service caches at two levels: individual sweep cells hit the
content-addressed result cache (:mod:`repro.sim.result_cache`), and complete
scenario results — the JSON payload a client downloads, including the figure
tables — are persisted here under a whole-spec digest.  A repeated submission
of an identical spec is then served without touching the engine at all.

Where the bytes live is delegated to an :class:`~repro.backends.ArtifactBackend`
selected by ``REPRO_ARTIFACT_BACKEND``: the default ``directory`` backend
keeps the historical layout — JSON files named ``<digest>.json`` under one
directory (``REPRO_ARTIFACT_DIR``, default ``.repro_artifacts``), written
atomically — ``sharded`` fans entries out by digest prefix, and ``http``
proxies a remote broker's store.  The store is LRU-bounded by total size on
the listable (local) backends: ``REPRO_ARTIFACT_MAX_MB`` (default 256) caps
the directory, and reads touch the file's mtime so eviction drops the least
recently *used* artifact, not merely the oldest.  Corrupted or unreadable
artifacts are treated as misses and deleted best-effort — the scenario is
simply recomputed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.backends import ArtifactBackend, backend_from_env
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_ARTIFACT_DIR",
    "DEFAULT_MAX_MEGABYTES",
    "ArtifactStats",
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
        raise ConfigurationError(
            f"REPRO_ARTIFACT_MAX_MB must be a positive integer, got {env!r}"
        ) from None
    if megabytes <= 0:
        raise ConfigurationError(
            f"REPRO_ARTIFACT_MAX_MB must be a positive integer, got {env!r}"
        )
    return megabytes * 1024 * 1024


@dataclass
class ArtifactStats:
    """Hit/miss/eviction counters of one :class:`ArtifactStore` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores,
                "evictions": self.evictions, "errors": self.errors}


class ArtifactStore:
    """An LRU-bounded store of JSON artifacts addressed by digest."""

    def __init__(self, directory: str | os.PathLike | None = None,
                 max_bytes: int | None = None,
                 backend: ArtifactBackend | None = None):
        self.directory = Path(directory) if directory is not None else artifact_dir_from_env()
        self.max_bytes = max_bytes if max_bytes is not None else artifact_limit_from_env()
        if self.max_bytes <= 0:
            raise ConfigurationError("the artifact store needs a positive size bound")
        self.backend = backend if backend is not None else backend_from_env(
            self.directory, ".json", "scenarios"
        )
        self.stats = ArtifactStats()

    def entry_path(self, digest: str) -> Path:
        return self.backend.path_for(digest)

    def get(self, digest: str) -> dict | None:
        """The stored payload for ``digest``, or None on a miss."""
        errors_before = self.backend.read_errors
        data = self.backend.get(digest)
        if data is None:
            if self.backend.read_errors > errors_before:
                # Unreadable entry (not merely absent): count the corruption.
                self.stats.errors += 1
            self.stats.misses += 1
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            payload = None
        if not isinstance(payload, dict):
            # Torn write survivor or hand-edited file: recompute.
            self.stats.errors += 1
            self.backend.delete(digest)
            self.stats.misses += 1
            return None
        self.backend.touch(digest)
        self.stats.hits += 1
        return payload

    def put(self, digest: str, payload: dict) -> bool:
        """Persist ``payload`` under ``digest`` (atomic, best-effort)."""
        try:
            data = json.dumps(payload, indent=2, default=str).encode("utf-8")
        except Exception:
            self.stats.errors += 1
            return False
        if not self.backend.put(digest, data):
            # A full disk (or unreachable remote) must degrade to "no
            # artifact", never fail the job.
            self.stats.errors += 1
            return False
        self.stats.stores += 1
        self._evict(keep=digest)
        return True

    def entries(self) -> list[Path]:
        """All local artifact files, least recently used first."""
        return self.backend.entry_paths()

    def total_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _evict(self, keep: str) -> None:
        """Drop least-recently-used artifacts until the store fits the bound.

        The just-written artifact is never evicted, even when it alone
        exceeds the bound — a cache that silently discarded the result it was
        asked to keep would turn every oversized scenario into a permanent
        recompute.  Remote (non-listable) backends skip eviction entirely:
        the broker owns its own store's bound.
        """
        if not self.backend.listable:
            return
        keep_path = self.backend.path_for(keep)
        budget = self.max_bytes
        entries = []
        for path in self.entries():
            try:
                entries.append((path, path.stat().st_size))
            except OSError:
                continue
        total = sum(size for _path, size in entries)
        for path, size in entries:
            if total <= budget:
                break
            if path == keep_path:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.stats.evictions += 1
