"""Pluggable storage backends for the content-addressed artifact caches.

Both caches — per-cell results (:mod:`repro.sim.result_cache`) and
whole-scenario payloads (:mod:`repro.service.artifacts`) — address opaque
byte blobs by hex digest.  This module separates *where those bytes live*
from the cache semantics built on top, so a distributed worker fleet can
share one store:

``directory``
    One flat directory of ``<key><suffix>`` files — the historical layout of
    the scenario artifact store.
``sharded``
    ``<key[:2]>/<key><suffix>`` — two-character fan-out so directory listings
    stay manageable at hundreds of thousands of entries (the cell cache has
    always used this shape).
``http``
    A proxy to a scenario broker's ``/artifacts/{namespace}/{key}`` routes,
    so remote workers read and write the *broker's* caches instead of
    recomputing cells another machine already paid for.  Failures degrade to
    misses — a worker with a flaky link to the broker recomputes, it never
    crashes.

The backend is selected by ``REPRO_ARTIFACT_BACKEND`` (default
``directory``); ``http`` additionally needs ``REPRO_ARTIFACT_URL`` pointing
at the broker (``python -m repro worker`` defaults both to its ``--broker``
URL).  Validation is strict with did-you-mean hints, mirroring
``REPRO_JOBS``: a typo must surface at startup, not as a silent cache miss
storm deep into a fleet run.
"""

from __future__ import annotations

import os
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "ARTIFACT_BACKENDS",
    "ArtifactBackend",
    "DirectoryBackend",
    "HTTPArtifactBackend",
    "ShardedDirectoryBackend",
    "artifact_url_from_env",
    "backend_from_env",
    "resolve_artifact_backend",
]

ARTIFACT_BACKENDS = ("directory", "sharded", "http")


def resolve_artifact_backend(value: str | None = None) -> str:
    """The backend name: explicit ``value``, else ``REPRO_ARTIFACT_BACKEND``.

    Unset/empty means ``directory`` (the single-node default).  Unknown names
    are a :class:`~repro.errors.ConfigurationError` with a did-you-mean hint
    — the same eager strictness as ``REPRO_JOBS``.
    """
    if value is None:
        env = os.environ.get("REPRO_ARTIFACT_BACKEND")
        if env is None or env.strip() == "":
            return "directory"
        value = env
    name = str(value).strip().lower()
    if name not in ARTIFACT_BACKENDS:
        from repro.registry import suggest_name

        raise ConfigurationError(
            f"REPRO_ARTIFACT_BACKEND must be one of: "
            f"{', '.join(ARTIFACT_BACKENDS)}; got {value!r}"
            f"{suggest_name(name, ARTIFACT_BACKENDS)}"
        )
    return name


def artifact_url_from_env() -> str | None:
    """The broker base URL selected by ``REPRO_ARTIFACT_URL`` (http backend)."""
    env = os.environ.get("REPRO_ARTIFACT_URL")
    if env is None or env.strip() == "":
        return None
    url = env.strip().rstrip("/")
    if not url.startswith(("http://", "https://")):
        raise ConfigurationError(
            f"REPRO_ARTIFACT_URL must be an http(s) base URL such as "
            f"'http://127.0.0.1:8642', got {env!r}"
        )
    return url


class ArtifactBackend:
    """Where one cache family's byte blobs live, addressed by hex key.

    ``listable`` backends (the directory kinds) additionally expose entry
    paths so LRU eviction and inspection keep working; the HTTP proxy is not
    listable — the broker owns eviction of its own stores.
    """

    kind = "abstract"
    listable = False
    # Reads that failed for a reason other than the entry being absent
    # (unreadable file, non-404 HTTP failure); the caches built on top fold
    # this into their error stats to keep miss and corruption distinguishable.
    read_errors = 0

    def get(self, key: str) -> bytes | None:
        raise NotImplementedError

    def put(self, key: str, data: bytes) -> bool:
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        return False

    def touch(self, key: str) -> None:
        """Mark an entry recently used (LRU aid; best-effort no-op remotely)."""

    def path_for(self, key: str) -> Path:
        raise ConfigurationError(
            f"the '{self.kind}' artifact backend has no local entry paths"
        )

    def entry_paths(self) -> list[Path]:
        """Local entry files, least recently used first ([] when not listable)."""
        return []


class DirectoryBackend(ArtifactBackend):
    """One flat directory of ``<key><suffix>`` files with atomic writes."""

    kind = "directory"
    listable = True

    def __init__(self, directory: str | os.PathLike, suffix: str = ".bin"):
        self.directory = Path(directory)
        self.suffix = suffix
        self.read_errors = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}{self.suffix}"

    def get(self, key: str) -> bytes | None:
        try:
            return self.path_for(key).read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            # Unreadable entry: drop it so the recompute can overwrite.
            self.read_errors += 1
            self.delete(key)
            return None

    def put(self, key: str, data: bytes) -> bool:
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    handle.write(data)
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except Exception:
            # A full disk must degrade to "no artifact", never fail the job.
            return False
        return True

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
        except OSError:
            return False
        return True

    def touch(self, key: str) -> None:
        try:
            now = time.time()
            os.utime(self.path_for(key), (now, now))
        except OSError:
            pass

    def _glob_pattern(self) -> str:
        return f"*{self.suffix}"

    def entry_paths(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        stamped = []
        for path in self.directory.glob(self._glob_pattern()):
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:
                continue
        return [path for _mtime, path in sorted(stamped, key=lambda item: item[0])]


class ShardedDirectoryBackend(DirectoryBackend):
    """``<key[:2]>/<key><suffix>`` fan-out for very large stores."""

    kind = "sharded"

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}{self.suffix}"

    def _glob_pattern(self) -> str:
        return f"??/*{self.suffix}"


class HTTPArtifactBackend(ArtifactBackend):
    """Proxy to a scenario broker's ``/artifacts/{namespace}/{key}`` routes.

    Every failure — broker down, 404, timeout — degrades to a miss (``get``)
    or a dropped write (``put``): a remote worker must keep computing when
    its cache link flakes, exactly as a full local disk degrades.
    """

    kind = "http"
    listable = False

    def __init__(self, base_url: str, namespace: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.namespace = namespace
        self.timeout = timeout
        self.read_errors = 0

    def _url(self, key: str) -> str:
        return f"{self.base_url}/artifacts/{self.namespace}/{key}"

    def get(self, key: str) -> bytes | None:
        request = urllib.request.Request(self._url(key), method="GET")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as error:
            if error.code != 404:
                self.read_errors += 1
            return None
        except (urllib.error.URLError, OSError, ValueError):
            self.read_errors += 1
            return None

    def put(self, key: str, data: bytes) -> bool:
        request = urllib.request.Request(
            self._url(key), data=data, method="PUT",
            headers={"Content-Type": "application/octet-stream"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                return True
        except (urllib.error.URLError, OSError, ValueError):
            return False


def backend_from_env(directory: str | os.PathLike, suffix: str,
                     namespace: str) -> ArtifactBackend:
    """Build the environment-selected backend for one cache family.

    ``directory``/``suffix`` shape the local kinds; ``namespace`` routes the
    HTTP kind to the right broker store (``cells`` or ``scenarios``).
    """
    name = resolve_artifact_backend()
    if name == "http":
        url = artifact_url_from_env()
        if url is None:
            raise ConfigurationError(
                "REPRO_ARTIFACT_BACKEND=http requires REPRO_ARTIFACT_URL to "
                "point at a scenario broker (e.g. 'http://127.0.0.1:8642')"
            )
        return HTTPArtifactBackend(url, namespace)
    if name == "sharded":
        return ShardedDirectoryBackend(directory, suffix=suffix)
    return DirectoryBackend(directory, suffix=suffix)
