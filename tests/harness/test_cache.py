"""Result-cache semantics: hit/miss, invalidation, resilience."""

import hashlib
import json

import pytest

from repro.harness.cache import (CACHE_DIR_ENV, CACHE_DISABLE_ENV,
                                 CacheBackend, code_fingerprint,
                                 default_cache_dir, resolve_cache)
from repro.harness.spec import Trial, canonical_json


@pytest.fixture
def cache(tmp_path):
    return CacheBackend(root=tmp_path / "cache", code_version="code-v1")


TRIAL = Trial("attack", {"variant": "pht", "runahead": "original"})


class TestHitMiss:
    def test_get_on_empty_cache_misses(self, cache):
        assert cache.get(TRIAL) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_put_then_get_hits(self, cache):
        cache.put(TRIAL, {"leaked": True, "recovered": 86})
        assert cache.get(TRIAL) == {"leaked": True, "recovered": 86}
        assert cache.hits == 1

    def test_config_change_is_a_miss(self, cache):
        cache.put(TRIAL, {"leaked": True})
        changed = Trial("attack", {"variant": "pht", "runahead": "original",
                                   "config": {"rob_size": 64}})
        assert cache.get(changed) is None

    def test_code_version_change_is_a_miss(self, cache, tmp_path):
        cache.put(TRIAL, {"leaked": True})
        newer = CacheBackend(root=cache.root, code_version="code-v2")
        assert newer.get(TRIAL) is None
        # ... and the old version still hits: keys are content-addressed.
        assert cache.get(TRIAL) is not None

    def test_keys_are_stable_across_instances(self, cache):
        """A key is the spec plus the code fingerprint, nothing else:
        a name that looks like a file path hashes no file."""
        twin = CacheBackend(root=cache.root, code_version="code-v1")
        assert cache.key(TRIAL) == twin.key(TRIAL)
        for trial in (TRIAL, Trial("ipc", {"workload": "trace:x.trace"})):
            payload = canonical_json({"code": "code-v1",
                                      "trial": json.loads(trial.canonical())})
            assert cache.key(trial) == \
                hashlib.sha256(payload.encode()).hexdigest()


class TestResilience:
    def test_corrupt_record_degrades_to_miss(self, cache):
        cache.put(TRIAL, {"leaked": True})
        path = cache._path(cache.key(TRIAL))
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(TRIAL) is None

    def test_wrong_record_version_degrades_to_miss(self, cache):
        cache.put(TRIAL, {"leaked": True})
        path = cache._path(cache.key(TRIAL))
        record = json.loads(path.read_text())
        record["version"] = 999
        path.write_text(json.dumps(record), encoding="utf-8")
        assert cache.get(TRIAL) is None

    def test_clear_removes_records(self, cache):
        cache.put(TRIAL, {"leaked": True})
        assert cache.clear() == 1
        assert cache.get(TRIAL) is None


class TestResolve:
    def test_none_disables(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_passthrough(self, cache):
        assert resolve_cache(cache) is cache

    def test_path_builds_cache_there(self, tmp_path):
        store = resolve_cache(tmp_path / "elsewhere")
        assert store.root == tmp_path / "elsewhere"

    def test_auto_honours_disable_env(self, monkeypatch):
        monkeypatch.setenv(CACHE_DISABLE_ENV, "1")
        assert resolve_cache("auto") is None

    def test_auto_honours_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_DISABLE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        assert resolve_cache("auto").root == tmp_path / "envcache"


def test_code_fingerprint_is_stable_hex():
    fp = code_fingerprint()
    assert fp == code_fingerprint()
    assert len(fp) == 64 and int(fp, 16) >= 0
