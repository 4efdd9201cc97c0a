"""The content-addressed store behind both caches.

Per-cell results (:class:`~repro.sim.result_cache.ResultCache`, the ``cells``
family) and whole-scenario payloads
(:class:`~repro.service.artifacts.ArtifactStore`, the ``scenarios`` family)
are byte blobs addressed by hex digest.  :class:`Store` owns those bytes —
the layout, the atomic write, quarantine and the LRU bound — and a family
adds only a codec.  An entry that cannot be read or decoded reads as a miss
and is moved into ``<directory>/quarantine/`` under its own name, leaving one
specimen per digest as evidence instead of a mystery of eternal recomputes.

``REPRO_ARTIFACT_URL`` puts a store's bytes in a scenario broker's store of
the same namespace instead (:class:`RemoteStore`), so a worker fleet shares
one cell cache; the broker then owns quarantine and eviction, and a remote
failure degrades to a miss or a dropped write, like a full local disk.
"""

from __future__ import annotations

import os
import tempfile
import urllib.error
import urllib.request
from contextlib import suppress
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["RemoteStore", "Store", "StoreStats", "remote_store_from_env"]


@dataclass
class StoreStats:
    """Counters of one store instance (``errors`` = unreadable or undecodable)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    errors: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class RemoteStore:
    """Proxy to one namespace of a scenario broker's ``/artifacts`` routes.

    ``get`` answers None for an absent entry (404) and raises ``OSError`` for
    any other failure, so the store can count it as an error.
    """

    def __init__(self, base_url: str, namespace: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.namespace = namespace
        self.timeout = timeout

    def _url(self, key: str) -> str:
        return f"{self.base_url}/artifacts/{self.namespace}/{key}"

    def get(self, key: str) -> bytes | None:
        try:
            with urllib.request.urlopen(self._url(key), timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as error:
            if error.code == 404:
                return None
            raise

    def put(self, key: str, data: bytes) -> bool:
        request = urllib.request.Request(
            self._url(key), data=data, method="PUT",
            headers={"Content-Type": "application/octet-stream"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                return True
        except (OSError, ValueError):
            return False


def remote_store_from_env(namespace: str) -> RemoteStore | None:
    """The broker proxy selected by ``REPRO_ARTIFACT_URL`` (None = local disk)."""
    env = os.environ.get("REPRO_ARTIFACT_URL", "").strip()
    if not env:
        return None
    if not env.startswith(("http://", "https://")):
        raise ConfigurationError(
            f"REPRO_ARTIFACT_URL must be an http(s) base URL such as "
            f"'http://127.0.0.1:8642', got {env!r}"
        )
    return RemoteStore(env, namespace)


class Store:
    """Digest-addressed entries on local disk, or behind a :class:`RemoteStore`.

    Subclasses supply the codec: ``_encode(key, value) -> bytes`` and
    ``_decode(key, data) -> value``, which raises on a bad entry.
    """

    def __init__(self, directory: str | os.PathLike, suffix: str, *,
                 sharded: bool = False, max_bytes: int | None = None,
                 backend: RemoteStore | None = None):
        self.directory = Path(directory)
        self.suffix = suffix
        self.sharded = sharded
        self.max_bytes = max_bytes
        self.backend = backend
        self.stats = StoreStats()

    def entry_path(self, key: str) -> Path:
        name = f"{key}{self.suffix}"
        return self.directory / key[:2] / name if self.sharded else self.directory / name

    def quarantine_dir(self) -> Path:
        return self.directory / "quarantine"

    def get_bytes(self, key: str) -> bytes | None:
        """The entry's raw bytes, or None when absent or unreadable."""
        try:
            if self.backend is not None:
                return self.backend.get(key)
            path = self.entry_path(key)
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.stats.errors += 1
            self.quarantine(key)
            return None
        if self.max_bytes is not None:
            with suppress(OSError):
                os.utime(path)  # a read refreshes LRU recency
        return data

    def put_bytes(self, key: str, data: bytes) -> bool:
        """Store raw bytes under ``key`` (atomic, then LRU-bounded).

        A full disk or an unreachable broker degrades to False — a lost
        cache entry, never a failed job.
        """
        stored = self.backend.put(key, data) if self.backend is not None else self._write(key, data)
        if not stored:
            self.stats.errors += 1
            return False
        self.stats.stores += 1
        if self.max_bytes is not None and self.backend is None:
            self._evict(keep=key)
        return True

    def _write(self, key: str, data: bytes) -> bool:
        path = self.entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    handle.write(data)
                os.replace(temp_name, path)
            except BaseException:
                with suppress(OSError):
                    os.unlink(temp_name)
                raise
        except Exception:
            return False
        return True

    def quarantine(self, key: str) -> None:
        """Move a bad local entry aside (best-effort; falls back to deletion).

        The entry keeps its filename, so the quarantine holds at most one
        specimen per digest.  A remote entry is left to its broker.
        """
        if self.backend is not None:
            return
        path = self.entry_path(key)
        try:
            self.quarantine_dir().mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir() / path.name)
            self.stats.quarantined += 1
        except OSError:
            with suppress(OSError):
                path.unlink()

    def _load(self, key: str) -> tuple[bool, object]:
        """``(hit, value)``; an entry that fails to decode is quarantined."""
        data = self.get_bytes(key)
        if data is not None:
            try:
                value = self._decode(key, data)
            except Exception:
                self.stats.errors += 1
                self.quarantine(key)
            else:
                self.stats.hits += 1
                return True, value
        self.stats.misses += 1
        return False, None

    def _save(self, key: str, value) -> bool:
        try:
            data = self._encode(key, value)
        except Exception:
            self.stats.errors += 1
            return False
        return self.put_bytes(key, data)

    def _listing(self) -> list[tuple[float, int, Path]]:
        """Local entries as ``(mtime, size, path)``, least recently used first."""
        if self.backend is not None or not self.directory.is_dir():
            return []
        listing = []
        for path in self.directory.glob(("??/*" if self.sharded else "*") + self.suffix):
            try:
                status = path.stat()
            except OSError:
                continue
            listing.append((status.st_mtime, status.st_size, path))
        listing.sort(key=lambda entry: entry[0])
        return listing

    def entries(self) -> list[Path]:
        """All local entry files, least recently used first."""
        return [path for _mtime, _size, path in self._listing()]

    def total_bytes(self) -> int:
        return sum(size for _mtime, size, _path in self._listing())

    def clear(self) -> int:
        """Delete every local entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            with suppress(OSError):
                path.unlink()
                removed += 1
        return removed

    def _evict(self, keep: str) -> None:
        """Drop least-recently-used entries until the store fits ``max_bytes``.

        The just-written entry is never evicted, even when it alone exceeds
        the bound: that would make every oversized payload a recompute.
        """
        listing = self._listing()
        total = sum(size for _mtime, size, _path in listing)
        keep_path = self.entry_path(keep)
        for _mtime, size, path in listing:
            if total <= self.max_bytes:
                break
            if path == keep_path:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.stats.evictions += 1
