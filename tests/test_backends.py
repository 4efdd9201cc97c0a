"""Tests for the store's local layout, its remote selection and the broker's
artifact routes.

The remote proxy is exercised against a live broker's
``/artifacts/{namespace}/{key}`` routes, including the shared-cell-cache
behaviour that lets a remote worker reuse cells the broker already computed.
"""

import pickle
import threading
from contextlib import contextmanager

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.service import ArtifactStore, JobManager, ServiceClient, create_server
from repro.sim.result_cache import CACHE_FORMAT_VERSION, ResultCache, get_result_cache
from repro.store import RemoteStore, remote_store_from_env

KEY = "ab" * 20  # a plausible 40-char hex digest


class TestLocalBackends:
    def test_sharded_layout_matches_cell_cache(self, tmp_path):
        """Bytes put at the byte level land where the cell family reads."""
        cache = ResultCache(directory=tmp_path, enabled=True)
        entry = {"version": CACHE_FORMAT_VERSION, "digest": KEY, "result": 42}
        assert cache.put_bytes(KEY, pickle.dumps(entry))
        assert cache.entry_path(KEY) == tmp_path / KEY[:2] / f"{KEY}.pkl"
        assert cache.get(KEY) == (True, 42)
        assert cache.get_bytes(KEY) == pickle.dumps(entry)

    def test_unreadable_entry_counts_a_read_error(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1 << 20)
        store.entry_path(KEY).mkdir(parents=True)  # directory, not a file
        assert store.get_bytes(KEY) is None
        assert store.stats.errors == 1
        assert store.stats.quarantined == 1
        assert (store.quarantine_dir() / f"{KEY}.json").is_dir()

    def test_entry_paths_lru_order(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1 << 20)
        store.put_bytes("aa" * 20, b"{}")
        store.put_bytes("bb" * 20, b"{}")
        assert store.get("aa" * 20) == {}  # a read refreshes recency
        names = [path.name for path in store.entries()]
        assert names[-1] == "aa" * 20 + ".json"


class TestBackendSelection:
    def test_default_is_directory(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_ARTIFACT_URL", raising=False)
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
        assert remote_store_from_env("cells") is None
        assert ArtifactStore(tmp_path, max_bytes=1 << 20).backend is None
        assert get_result_cache().backend is None

    def test_http_requires_a_broker_url(self, monkeypatch, tmp_path):
        """The retired REPRO_ARTIFACT_BACKEND selects nothing: only the URL
        makes a store remote, and it does so for both families."""
        monkeypatch.setenv("REPRO_ARTIFACT_BACKEND", "http")
        monkeypatch.delenv("REPRO_ARTIFACT_URL", raising=False)
        assert ArtifactStore(tmp_path, max_bytes=1 << 20).backend is None
        monkeypatch.setenv("REPRO_ARTIFACT_URL", "http://127.0.0.1:8642/")
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
        store = ArtifactStore(tmp_path, max_bytes=1 << 20)
        cache = get_result_cache()
        assert (store.backend.base_url, store.backend.namespace) == (
            "http://127.0.0.1:8642", "scenarios")
        assert (cache.backend.base_url, cache.backend.namespace) == (
            "http://127.0.0.1:8642", "cells")

    def test_artifact_url_must_be_http(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_URL", "ftp://nope")
        with pytest.raises(ConfigurationError, match="http"):
            remote_store_from_env("cells")


@pytest.fixture
def broker_artifacts(tmp_path):
    return ArtifactStore(tmp_path / "artifacts", max_bytes=1 << 20)


@contextmanager
def _serving(manager):
    server = create_server(port=0, manager=manager)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()


@pytest.fixture
def live_broker(tmp_path, monkeypatch, broker_artifacts):
    """A broker with local stores, serving the /artifacts routes."""
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
    monkeypatch.delenv("REPRO_ARTIFACT_URL", raising=False)
    with _serving(JobManager(local_workers=0, artifacts=broker_artifacts)) as url:
        yield url


def _remote_artifacts(tmp_path, url: str) -> ArtifactStore:
    return ArtifactStore(tmp_path / "unused", max_bytes=1 << 20,
                         backend=RemoteStore(url, "scenarios"))


class TestHTTPBackend:
    def test_round_trip_through_the_broker(self, live_broker, tmp_path):
        store = _remote_artifacts(tmp_path, live_broker)
        assert store.get(KEY) is None  # 404 is a plain miss
        assert store.stats.errors == 0
        assert store.put(KEY, {"v": 1})
        assert store.get(KEY) == {"v": 1}
        assert not (tmp_path / "unused").exists()  # nothing local

    def test_cells_namespace_is_the_brokers_cell_cache(self, live_broker,
                                                       tmp_path):
        """What a worker PUTs through http, the broker's own ResultCache
        reads locally — the shared-fleet-cache contract."""
        worker_cache = ResultCache(directory=tmp_path / "unused", enabled=True,
                                   backend=RemoteStore(live_broker, "cells"))
        assert worker_cache.put(KEY, 7)
        broker_cache = get_result_cache()
        assert broker_cache.directory == tmp_path / "cells"
        assert broker_cache.get(KEY) == (True, 7)
        # And the reverse: a broker-side write is visible over http.
        other = "cd" * 20
        broker_cache.put(other, "broker-side")
        assert worker_cache.get(other) == (True, "broker-side")
        fetched = pickle.loads(worker_cache.get_bytes(other))
        assert fetched["result"] == "broker-side"

    def test_unknown_namespace_is_a_miss(self, live_broker):
        backend = RemoteStore(live_broker, "secrets")
        assert backend.get(KEY) is None
        assert backend.put(KEY, b"x") is False

    def test_non_hex_keys_are_rejected(self, live_broker, tmp_path):
        store = _remote_artifacts(tmp_path, live_broker)
        # Traversal attempts never reach the artifact handler (the extra
        # path segments fail routing) and degrade to misses.
        assert store.get_bytes("../../etc/passwd") is None
        assert store.put_bytes("..%2f..%2fetc%2fpasswd", b"x") is False
        # A single-segment non-hex key is answered 400 — an error, not an
        # absence, so the counter distinguishes it from a clean miss.
        errors = store.stats.errors
        assert store.get_bytes("UPPERCASE.NOT.HEX") is None
        assert store.stats.errors == errors + 1

    def test_unreachable_broker_degrades_to_misses(self):
        cache = ResultCache(directory="/nonexistent", enabled=True,
                            backend=RemoteStore("http://127.0.0.1:9", "cells",
                                                timeout=0.2))
        assert cache.get(KEY) == (False, None)
        assert cache.put(KEY, "x") is False
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 1, "stores": 0, "evictions": 0,
            "errors": 2, "quarantined": 0}

    def test_result_cache_via_http_backend_round_trips(self, live_broker):
        cache = ResultCache(directory="/nonexistent", enabled=True,
                            backend=RemoteStore(live_broker, "cells"))
        digest = "ef" * 32
        assert cache.put(digest, {"value": 3.5})
        assert cache.get(digest) == (True, {"value": 3.5})
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_remote_writes_obey_the_scenario_bound(self, live_broker, tmp_path,
                                                  broker_artifacts):
        """A PUT over /artifacts runs the broker store's LRU eviction."""
        remote = RemoteStore(live_broker, "scenarios")
        blob = b'{"padding": "' + b"x" * (300 << 10) + b'"}'
        for index in range(5):
            assert remote.put(f"{index:064x}", blob)
        assert broker_artifacts.total_bytes() <= broker_artifacts.max_bytes
        assert broker_artifacts.stats.evictions >= 1
        assert remote.get(f"{4:064x}") == blob  # the newest write survives

    def test_remote_corruption_is_not_quarantined_locally(self, live_broker,
                                                          tmp_path,
                                                          broker_artifacts):
        broker_artifacts.put_bytes(KEY, b"{torn")
        store = _remote_artifacts(tmp_path, live_broker)
        assert store.get(KEY) is None
        assert store.stats.errors == 1 and store.stats.quarantined == 0

    def test_client_errors_carry_status(self, live_broker):
        client = ServiceClient(live_broker)
        with pytest.raises(Exception) as failure:
            client._request("GET", f"/artifacts/secrets/{KEY}")
        assert getattr(failure.value, "status", None) == 404


def test_route_status_codes(tmp_path, monkeypatch):
    """400 for a non-hex key, 503 when the broker's own store is not local
    (remote, or a disabled cell cache): a broker never proxy-chains."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    artifacts = _remote_artifacts(tmp_path, "http://127.0.0.1:9")
    with _serving(JobManager(local_workers=0, artifacts=artifacts)) as url:
        client = ServiceClient(url)
        for path, status in ((f"/artifacts/scenarios/{KEY.upper()}", 400),
                             (f"/artifacts/scenarios/{KEY}", 503),
                             (f"/artifacts/cells/{KEY}", 503)):
            with pytest.raises(ServiceError) as failure:
                client._request("GET", path)
            assert failure.value.status == status
