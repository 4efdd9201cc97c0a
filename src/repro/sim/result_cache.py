"""Content-addressed, cross-run memoisation of sweep cell results.

Every (workload, config) cell of the paper's evaluation is a pure function of
its arguments: the workload names the benchmarks, traces are regenerated
deterministically from stable hashes, and the simulator has no hidden state.
That makes each cell *content-addressable* — the result is fully determined
by a canonical digest of

* the evaluator function (module-qualified name),
* its argument tuple (workloads, ``CMPConfig``, instruction counts, seeds,
  technique/policy selections, batching knobs — anything reachable from the
  task tuple), and
* a *code epoch*: a digest over every source file of the ``repro`` package,
  so any code change invalidates all previously cached results.

Digests address pickled result payloads in a :class:`repro.store.Store`
under ``REPRO_CACHE_DIR`` (default ``.repro_cache``), shared by all processes
and runs on the machine, so a warm rerun of ``repro.experiments.run_all``
skips every simulation.  ``REPRO_CACHE=0`` (or ``false``/``no``/``off``)
disables the cache.  Corrupted, truncated or version-mismatched entries read
as misses and are quarantined into ``<cache dir>/quarantine/``; the
recompute then overwrites the entry.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from array import array
from dataclasses import fields, is_dataclass
from functools import lru_cache
from pathlib import Path

from repro.errors import CacheKeyError
from repro.store import RemoteStore, Store, remote_store_from_env

__all__ = [
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "cache_enabled_from_env",
    "canonical_key",
    "code_epoch",
    "content_digest",
    "get_result_cache",
    "is_cacheable_function",
    "task_digest",
]

# Bump when the entry layout (not the keyed inputs) changes; mismatched
# entries are discarded and recomputed.
CACHE_FORMAT_VERSION = 1

DEFAULT_CACHE_DIR = ".repro_cache"

_FALSEY = {"0", "false", "no", "off"}


# --------------------------------------------------------------------- keying


def _canonical(value):
    """Reduce ``value`` to a nested structure of primitives with a stable repr.

    The reduction must be stable across processes, platforms and Python
    versions: no ``hash()``, no ``id()``, dict/set iteration normalised by
    sorting.  Unknown types raise :class:`CacheKeyError` so callers fall back
    to computing instead of caching under an ambiguous key.
    """
    if value is None or value is True or value is False:
        return value
    kind = type(value)
    if kind is int or kind is str or kind is bytes:
        return value
    if kind is float:
        # repr() is the shortest round-tripping form, stable since CPython 3.1.
        return ("float", repr(value))
    if kind is tuple or kind is list:
        return ("seq", tuple(_canonical(item) for item in value))
    if kind is dict:
        items = tuple(
            sorted(
                ((_canonical(key), _canonical(item)) for key, item in value.items()),
                key=repr,
            )
        )
        return ("dict", items)
    if kind is set or kind is frozenset:
        return ("set", tuple(sorted((_canonical(item) for item in value), key=repr)))
    if is_dataclass(value) and not isinstance(value, type):
        payload = tuple(
            (field.name, _canonical(getattr(value, field.name)))
            for field in fields(value)
        )
        return ("dataclass", f"{kind.__module__}.{kind.__qualname__}", payload)
    if isinstance(value, array):
        return ("array", value.typecode, value.tobytes())
    if callable(value):
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if module and qualname and "<locals>" not in qualname and "<lambda>" not in qualname:
            return ("callable", f"{module}.{qualname}")
        raise CacheKeyError(f"cannot canonicalise local/lambda callable {value!r}")
    raise CacheKeyError(f"cannot canonicalise {kind.__module__}.{kind.__qualname__} for cache keying")


def canonical_key(value) -> str:
    """The canonical string form of ``value`` used for digesting."""
    return repr(_canonical(value))


@lru_cache(maxsize=1)
def code_epoch() -> str:
    """Digest of every ``repro`` source file: any code change is a new epoch.

    Computed once per process (a few milliseconds over the package sources);
    cached results carry the epoch inside their digest, so editing the
    simulator — or this module — invalidates the whole store without any
    manual versioning.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py"), key=lambda p: p.relative_to(package_root).as_posix()):
        digest.update(path.relative_to(package_root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x01")
    return digest.hexdigest()


def is_cacheable_function(function) -> bool:
    """Only functions defined inside the ``repro`` package are cacheable.

    The code epoch covers exactly the ``repro`` sources, so results of
    arbitrary user/test callables (whose bodies the epoch cannot see) are
    never cached — a monkeypatched or edited helper outside the package
    would otherwise serve stale results under an unchanged key.
    """
    module = getattr(function, "__module__", "") or ""
    return module == "repro" or module.startswith("repro.")


def task_digest(function, argument_tuple, extra=()) -> str:
    """Content digest addressing the result of ``function(*argument_tuple)``."""
    material = (
        "repro-result-cache",
        CACHE_FORMAT_VERSION,
        code_epoch(),
        _canonical(function),
        _canonical(tuple(argument_tuple)),
        _canonical(extra),
    )
    return hashlib.sha256(repr(material).encode("utf-8")).hexdigest()


def content_digest(namespace: str, material, extra=()) -> str:
    """Content digest of an arbitrary canonicalisable value.

    Like :func:`task_digest` but for payloads that are not a function call —
    e.g. the scenario service digests a whole :class:`ScenarioSpec` dict to
    address a complete scenario result.  The digest folds in the code epoch,
    so any change to the ``repro`` sources invalidates derived artifacts the
    same way it invalidates cell results.  ``namespace`` keeps digests of
    different payload families from colliding.
    """
    payload = (
        "repro-content",
        CACHE_FORMAT_VERSION,
        code_epoch(),
        str(namespace),
        _canonical(material),
        _canonical(extra),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


# -------------------------------------------------------------------- storage


class ResultCache(Store):
    """The ``cells`` family: pickled cell results, sharded, with no size bound.

    An entry pickles ``{"version", "digest", "result"}``; a foreign version
    or a digest other than the entry's address (a renamed file) is treated
    like a torn pickle, on this side, so bad remote blobs are caught too.
    """

    def __init__(self, directory: str | os.PathLike = DEFAULT_CACHE_DIR,
                 enabled: bool = True, backend: RemoteStore | None = None):
        super().__init__(directory, ".pkl", sharded=True, backend=backend)
        self.enabled = enabled

    def get(self, digest: str) -> tuple[bool, object]:
        """Look up a digest; returns ``(hit, result)``."""
        if not self.enabled:
            return False, None
        return self._load(digest)

    def put(self, digest: str, result: object) -> bool:
        """Persist a result under its digest (atomic, best-effort)."""
        if not self.enabled:
            return False
        return self._save(digest, result)

    @staticmethod
    def _encode(digest: str, result: object) -> bytes:
        entry = {"version": CACHE_FORMAT_VERSION, "digest": digest, "result": result}
        return pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def _decode(digest: str, data: bytes) -> object:
        entry = pickle.loads(data)
        if not (isinstance(entry, dict) and entry.get("version") == CACHE_FORMAT_VERSION
                and entry.get("digest") == digest):
            raise ValueError("stale or misaddressed cache entry")
        return entry["result"]


# ------------------------------------------------------------- configuration


def cache_enabled_from_env() -> bool:
    """True unless ``REPRO_CACHE`` is set to a falsey value."""
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in _FALSEY


_DISABLED = ResultCache(enabled=False)
_instances: dict[tuple, ResultCache] = {}


def get_result_cache() -> ResultCache:
    """The process-wide cache configured by ``REPRO_CACHE``/``REPRO_CACHE_DIR``.

    Memoised per resolved configuration, so statistics accumulate across
    sweeps; the environment is re-read on every call.  ``REPRO_ARTIFACT_URL``
    routes the entries through a scenario broker's ``cells`` namespace.
    """
    if not cache_enabled_from_env():
        return _DISABLED
    directory = Path(os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR).expanduser()
    resolved = directory if directory.is_absolute() else Path.cwd() / directory
    backend = remote_store_from_env("cells")
    key = (resolved, backend.base_url if backend is not None else None)
    instance = _instances.get(key)
    if instance is None:
        instance = _instances[key] = ResultCache(resolved, backend=backend)
    return instance

