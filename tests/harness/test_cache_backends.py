"""Backend-conformance suite: every CacheBackend behaves identically.

The same battery runs against the directory and http backends —
anything observable through the public surface (get/put/stats/count/
clear/uri) must not depend on the storage scheme.  The http backend
talks to a real loopback campaign coordinator (the one server that
mounts the ``/cache`` routes), so every conformance assertion also
exercises the wire protocol.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.harness.cache import (CacheBackend, DirectoryCacheBackend,
                                 ResultCache, resolve_cache)
from repro.harness.spec import Sweep, Trial


def make_trial(sled=64) -> Trial:
    return Trial("window", {"runahead": "none", "sled": sled,
                            "config_base": "small"})


def start_coordinator(campaign_dir, host="127.0.0.1", port=0):
    """Serve a one-trial campaign (created on first use) over HTTP; its
    ``/cache`` routes front the campaign's ``dir:cache`` store."""
    from repro.campaign import Campaign, make_coordinator
    if not campaign_dir.exists():
        sweep = Sweep("tiny")
        sweep.add("window", runahead="none", sled=8, config_base="small")
        Campaign.create(campaign_dir, sweep)
    server, _, _ = make_coordinator(campaign_dir, host=host, port=port)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def stop(server):
    server.shutdown()
    server.server_close()


@pytest.fixture(params=["dir", "http"])
def backend(request, tmp_path) -> CacheBackend:
    if request.param == "dir":
        yield DirectoryCacheBackend(root=tmp_path / "cache",
                                    code_version="v1")
        return
    from repro.campaign.httpcache import HttpCacheBackend
    from repro.campaign.netretry import RetryPolicy
    server = start_coordinator(tmp_path / "camp")
    host, port = server.server_address[:2]
    yield HttpCacheBackend(f"http://{host}:{port}", code_version="v1",
                           policy=RetryPolicy(attempts=3,
                                              base_delay=0.01,
                                              max_delay=0.05,
                                              timeout=5.0))
    stop(server)


class TestConformance:
    def test_round_trip(self, backend):
        trial = make_trial()
        assert backend.get(trial) is None
        backend.put(trial, {"window": 42})
        assert backend.get(trial) == {"window": 42}

    def test_counters(self, backend):
        trial = make_trial()
        backend.get(trial)                      # miss
        backend.put(trial, {"ok": True})
        backend.get(trial)                      # hit
        stats = backend.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1
        assert stats["records"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["backend"] == backend.scheme
        assert stats["uri"] == backend.uri()

    def test_count_and_clear(self, backend):
        for sled in (8, 16, 24):
            backend.put(make_trial(sled), {"sled": sled})
        assert backend.count() == 3
        assert backend.clear() == 3
        assert backend.count() == 0
        assert backend.get(make_trial(8)) is None

    def test_put_overwrites(self, backend):
        trial = make_trial()
        backend.put(trial, {"v": 1})
        backend.put(trial, {"v": 2})
        assert backend.get(trial) == {"v": 2}
        assert backend.count() == 1

    def test_distinct_trials_distinct_records(self, backend):
        backend.put(make_trial(8), {"sled": 8})
        backend.put(make_trial(16), {"sled": 16})
        assert backend.get(make_trial(8)) == {"sled": 8}
        assert backend.get(make_trial(16)) == {"sled": 16}

    def test_key_is_shared_across_backends(self, backend, tmp_path):
        other = DirectoryCacheBackend(root=tmp_path / "other",
                                      code_version="v1")
        assert backend.key(make_trial()) == other.key(make_trial())

    def test_code_version_partitions_keys(self, backend, tmp_path):
        other = DirectoryCacheBackend(root=tmp_path / "other",
                                      code_version="v2")
        assert backend.key(make_trial()) != other.key(make_trial())

    def test_uri_round_trips_through_resolve_cache(self, backend):
        trial = make_trial()
        backend.put(trial, {"ok": True})
        reopened = resolve_cache(backend.uri())
        reopened.code_version = "v1"
        assert reopened.get(trial) == {"ok": True}
        assert reopened.uri() == backend.uri()


class TestCorruptionResilience:
    """A broken store degrades to a miss — never an exception."""

    def test_corrupt_directory_record(self, tmp_path):
        backend = DirectoryCacheBackend(root=tmp_path, code_version="v1")
        trial = make_trial()
        backend.put(trial, {"ok": True})
        backend._path(backend.key(trial)).write_text("{garbage",
                                                     encoding="utf-8")
        assert backend.get(trial) is None

    def test_wrong_record_version_is_a_miss(self, tmp_path):
        backend = DirectoryCacheBackend(root=tmp_path, code_version="v1")
        trial = make_trial()
        backend.put(trial, {"ok": True})
        path = backend._path(backend.key(trial))
        record = json.loads(path.read_text())
        record["version"] = 999
        path.write_text(json.dumps(record), encoding="utf-8")
        assert backend.get(trial) is None


class TestHttpDegradation:
    """The remote backend must never change experiment outcomes: an
    unreachable or flaky server degrades to a cache miss."""

    def _offline_backend(self):
        from repro.campaign.httpcache import HttpCacheBackend
        from repro.campaign.netretry import RetryPolicy
        from tests.campaign._chaos import free_port
        return HttpCacheBackend(
            f"http://127.0.0.1:{free_port()}", code_version="v1",
            policy=RetryPolicy(attempts=2, base_delay=0.0,
                               max_delay=0.0, timeout=0.5))

    def test_unreachable_server_degrades_to_miss(self):
        backend = self._offline_backend()
        trial = make_trial()
        assert backend.get(trial) is None
        backend.put(trial, {"ok": True})        # swallowed, no raise
        assert backend.get(trial) is None
        assert backend.count() == 0
        assert backend.clear() == 0
        assert backend.stats()["misses"] == 2

    def test_server_restart_recovers(self, tmp_path):
        from repro.campaign.httpcache import HttpCacheBackend
        from repro.campaign.netretry import RetryPolicy
        server = start_coordinator(tmp_path / "camp")
        host, port = server.server_address[:2]
        backend = HttpCacheBackend(
            f"http://{host}:{port}", code_version="v1",
            policy=RetryPolicy(attempts=2, base_delay=0.0,
                               max_delay=0.0, timeout=0.5))
        trial = make_trial()
        backend.put(trial, {"ok": True})
        stop(server)
        assert backend.get(trial) is None       # down: miss, no raise
        # Same port, same campaign store — the record survived.
        server = start_coordinator(tmp_path / "camp", host=host,
                                   port=port)
        try:
            assert backend.get(trial) == {"ok": True}
        finally:
            stop(server)

    def test_server_rejects_traversal_keys(self, tmp_path):
        import urllib.error
        import urllib.request

        server = start_coordinator(tmp_path / "camp")
        host, port = server.server_address[:2]
        try:
            for ugly in ("..%2f..%2fsecrets", "UPPER", "zz!", "a" * 200):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        f"http://{host}:{port}/cache/{ugly}", timeout=5)
                assert excinfo.value.code == 404
        finally:
            stop(server)


_WRITER = """
import sys
from repro.harness.cache import DirectoryCacheBackend
from repro.harness.spec import Trial

root, tag, first, count, rounds, pad = sys.argv[1:]
backend = DirectoryCacheBackend(root=root, code_version="v1")
for round_ in range(int(rounds)):
    for sled in range(int(first), int(first) + int(count)):
        trial = Trial("window", {"runahead": "none", "sled": sled,
                                 "config_base": "small"})
        backend.put(trial, {"sled": sled, "writer": tag,
                            "round": round_, "pad": "x" * int(pad)})
        got = backend.get(trial)
        if got is None or got["sled"] != sled:
            sys.exit(1)
sys.exit(0)
"""


def spawn_writers(root, jobs):
    """One writer process per ``(tag, first, count, rounds, pad)``."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
        .rstrip(os.pathsep))
    return [subprocess.Popen([sys.executable, "-c", _WRITER, str(root)]
                             + [str(arg) for arg in job], env=env)
            for job in jobs]


class TestDirectoryConcurrency:
    """Several OS processes writing one ``dir:`` store never corrupt a
    record: each write goes to a temp file unique to its writer and is
    renamed into place, so readers see one complete record or another.
    """

    def test_concurrent_multiprocess_writers(self, tmp_path):
        writers, per_writer = 4, 25
        procs = spawn_writers(tmp_path, [
            (f"w{w}", w * per_writer, per_writer, 1, 0)
            for w in range(writers)])
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        backend = DirectoryCacheBackend(root=tmp_path, code_version="v1")
        assert backend.count() == writers * per_writer
        for sled in range(writers * per_writer):
            assert backend.get(make_trial(sled))["sled"] == sled
        assert not list(tmp_path.rglob("*.tmp"))

    def test_overlapping_writers_last_write_wins(self, tmp_path):
        """Two processes re-writing the SAME key while a reader polls
        it: no read is ever torn, and the surviving record is the
        final write of one of the writers."""
        backend = DirectoryCacheBackend(root=tmp_path, code_version="v1")
        trial = make_trial(0)
        backend.put(trial, {"sled": 0, "writer": "seed"})
        rounds = 300
        procs = spawn_writers(tmp_path, [
            (tag, 0, 1, rounds, 20000) for tag in ("a", "b")])
        reads = torn = 0
        while any(proc.poll() is None for proc in procs):
            reads += 1
            if backend.get(trial) is None:
                torn += 1
        codes = [proc.wait(timeout=120) for proc in procs]
        assert torn == 0, f"{torn} torn reads out of {reads}"
        assert codes == [0, 0]              # the writers saw none either
        final = backend.get(trial)
        assert final["writer"] in ("a", "b")
        assert final["round"] == rounds - 1
        assert backend.count() == 1
        assert not list(tmp_path.rglob("*.tmp"))


class TestResolveCache:
    def test_none_and_false_disable(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_backend_passthrough(self, tmp_path):
        backend = DirectoryCacheBackend(root=tmp_path / "x",
                                        code_version="v1")
        assert resolve_cache(backend) is backend

    def test_dir_uri(self, tmp_path):
        backend = resolve_cache(f"dir:{tmp_path / 'store'}")
        assert isinstance(backend, DirectoryCacheBackend)
        assert backend.root == tmp_path / "store"

    def test_sqlite_uri(self, tmp_path):
        """The removed single-file store is rejected by name instead of
        silently becoming a directory called ``sqlite:…``."""
        with pytest.raises(ValueError, match="dir:<path>"):
            resolve_cache(f"sqlite:{tmp_path / 'store.sqlite'}")
        assert not list(tmp_path.iterdir())

    def test_http_uri(self):
        from repro.campaign.httpcache import HttpCacheBackend
        backend = resolve_cache("http://127.0.0.1:9999")
        assert isinstance(backend, HttpCacheBackend)
        assert backend.uri() == "http://127.0.0.1:9999"

    def test_plain_path_is_directory_backend(self, tmp_path):
        backend = resolve_cache(str(tmp_path / "legacy"))
        assert isinstance(backend, DirectoryCacheBackend)
        assert backend.root == tmp_path / "legacy"

    def test_auto_honours_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert resolve_cache("auto") is None

    def test_result_cache_alias_is_the_directory_backend(self):
        assert ResultCache is DirectoryCacheBackend


class TestDirectoryLayout:
    """The historical on-disk layout is part of the public contract
    (CI cache restores are plain directory copies)."""

    def test_record_path_shape(self, tmp_path):
        backend = DirectoryCacheBackend(root=tmp_path, code_version="v1")
        trial = make_trial()
        backend.put(trial, {"ok": True})
        key = backend.key(trial)
        path = tmp_path / key[:2] / f"{key}.json"
        assert path.is_file()
        record = json.loads(path.read_text())
        assert record["version"] == 1
        assert record["key"] == key
        assert record["result"] == {"ok": True}
        assert record["trial"] == trial.to_dict()
