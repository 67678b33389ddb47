"""Entry-store contract tests for the persistent caches (docs/evaluation-runner.md).

Both persistent caches — the run cache and the fragment store — are a
:class:`repro.contentstore.ContentStore` over a local sharded directory.
The contract they share:

* entry bytes round-trip, and ``delete``/``clear``/``entry_count``/
  ``size_bytes`` maintain them,
* a run one ``RunCache`` stores is byte-identical and loadable through
  any other ``RunCache`` on the same directory,
* stores are first-writer-wins — concurrent writers of one key, in one
  process or racing across processes, leave exactly one valid entry
  and no temp files,
* a batch presence probe costs one directory scan per touched shard,
* an unusable cache root reads as all-miss instead of raising.

The module keeps the name it had while the same contract was also
checked over an HTTP cache daemon, so these test ids stay stable.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.contentstore import ContentStore, entry_bytes
from repro.core.translate.fragstore import FragmentStore
from repro.evaluation.runcache import RunCache, entry_payload, run_key
from repro.evaluation.runner import build_request_program, execute_request
from repro.memory.cache import CacheStats
from repro.observability import telemetry
from repro.pipeline.core import PipelineStats
from repro.system.metrics import RunResult
from tests.test_runner import liquid_request

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "1" * 62


def _tiny_run() -> RunResult:
    return RunResult("p", "c", cycles=1, instructions=1,
                     pipeline=PipelineStats(), icache=CacheStats(),
                     dcache=CacheStats(), functions={}, ucode_cache=None,
                     arrays={})


class TestRoundtrip:
    def test_store_then_load_bytes(self, tmp_path):
        store = ContentStore(tmp_path)
        assert store.read_entry(KEY_A, str) == (None, False)
        payload = entry_bytes(store.format_version, KEY_A, "payload")
        assert store.write_entry(KEY_A, payload) is True
        assert store.path_for(KEY_A).read_bytes() == payload
        assert store.read_entry(KEY_A, str) == ("payload", False)

    def test_backends_interoperate_on_real_entries(self, tmp_path):
        """A run stored by one ``RunCache`` is byte-identical on disk and
        loadable through another on the same directory — what lets
        several ``evaluate`` processes share one ``--cache-dir``."""
        request = liquid_request()
        key = run_key(build_request_program(request), request.config)
        result = execute_request(request)
        RunCache(tmp_path).store(key, result)

        reader = RunCache(tmp_path)
        hit = reader.load(key)
        assert hit is not None and hit.cycles == result.cycles
        assert reader.path_for(key).read_bytes() == entry_payload(key, result)

    def test_delete_removes_entry(self, tmp_path):
        store = ContentStore(tmp_path)
        store.write_entry(KEY_A, entry_bytes(store.format_version, KEY_A, 1))
        store.delete(KEY_A)
        assert store.read_entry(KEY_A, int) == (None, False)
        store.delete(KEY_A)  # deleting a missing entry is a no-op

    def test_clear_reports_removed(self, tmp_path):
        store = ContentStore(tmp_path)
        store.write_entry(KEY_A, b"x")
        store.write_entry(KEY_B, b"y")
        assert store.clear() == 2
        assert store.entry_count() == 0


class TestFirstWriterWins:
    def test_second_store_loses(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.write_entry(KEY_A, b"first") is True
        assert cache.write_entry(KEY_A, b"second") is False
        assert cache.path_for(KEY_A).read_bytes() == b"first"

    def test_race_is_counted_not_raised(self, tmp_path):
        cache = RunCache(tmp_path)
        result = _tiny_run()
        tel = telemetry.enable()
        try:
            cache.store(KEY_A, result)
            cache.store(KEY_A, result)
            counters = dict(tel.to_dict()["counters"])
        finally:
            telemetry.disable()
        assert cache.stats.stores == 1 and cache.stats.races == 1
        assert counters.get("runcache.stores") == 1
        assert counters.get("runcache.races") == 1
        assert cache.path_for(KEY_A).read_bytes() == \
            entry_payload(KEY_A, result)


#: What each store persists; racing writers hold identical values.
_ENTRY = {RunCache: _tiny_run,
          FragmentStore: lambda: {"function": "f", "ok": True}}

#: Keys both racing writers store, in the same order and at the same
#: moment, so their exists-check/publish windows overlap.
_RACE_KEYS = [f"{i:02x}" + "0" * 62 for i in range(64)]


def _racing_store(args):
    """Child-process body: store every race key, report how many we won."""
    store_cls, root, start = args
    store = store_cls(root)
    value = _ENTRY[store_cls]()
    while time.time() < start:
        pass
    for key in _RACE_KEYS:
        store.store(key, value)
    return store.stats.stores


def _race(store_cls, root) -> list:
    start = time.time() + 0.5
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(_racing_store, [(store_cls, root, start)] * 2))


class TestConcurrentWriters:
    """Both stores publish through :meth:`ContentStore.write_entry`, so
    each race runs once per store class."""

    def test_two_processes_one_valid_entry(self, tmp_path):
        """Two processes racing ``store()`` on each key: exactly one
        winner per key, and every surviving entry is intact."""
        for store_cls in _ENTRY:
            root = str(tmp_path / store_cls.__name__)
            wins = _race(store_cls, root)
            assert sum(wins) == len(_RACE_KEYS), \
                f"{store_cls.__name__}: expected one winning store per " \
                f"key: {wins}"
            store = store_cls(root)
            assert all(store.load(key) is not None for key in _RACE_KEYS)
            assert store.entry_count() == len(_RACE_KEYS)

    def test_no_tmp_litter_after_race(self, tmp_path):
        for store_cls in _ENTRY:
            root = tmp_path / store_cls.__name__
            _race(store_cls, str(root))
            leftovers = [p for p in root.rglob("*") if p.is_file()
                         and not p.name.endswith(".json")]
            assert leftovers == [], \
                f"{store_cls.__name__}: losing writer must clean up its " \
                f"temp file"


@pytest.fixture()
def listdir_calls(monkeypatch):
    """Every directory listed during the test, in order."""
    calls = []
    real_listdir = os.listdir
    monkeypatch.setattr(os, "listdir",
                        lambda path: calls.append(path) or real_listdir(path))
    return calls


class TestBatchProbe:
    def test_contains_many_is_one_round_trip(self, tmp_path, listdir_calls):
        """Keys sharing a shard are answered by one directory scan, not
        one ``stat`` per key."""
        cache = RunCache(tmp_path)
        same_shard = ["aa" + c * 62 for c in "123"]
        cache.write_entry(KEY_A, b"x")
        cache.write_entry(same_shard[0], b"y")
        present = cache.contains_many([KEY_A] + same_shard)
        assert present == {KEY_A, same_shard[0]}
        assert len(listdir_calls) == 1
        assert cache.stats.probe_calls == 1
        assert cache.stats.probed == 4

    def test_empty_probe_skips_network(self, tmp_path, listdir_calls):
        """An empty probe touches no directory and counts no telemetry."""
        cache = RunCache(tmp_path)
        tel = telemetry.enable()
        try:
            assert cache.contains_many([]) == set()
            counters = dict(tel.to_dict()["counters"])
        finally:
            telemetry.disable()
        assert listdir_calls == []
        assert "runcache.probe.calls" not in counters


class TestFailOpen:
    @pytest.fixture()
    def dead(self, tmp_path):
        """A run cache whose root is a plain file, not a directory."""
        root = tmp_path / "not-a-directory"
        root.write_bytes(b"")
        return RunCache(root)

    def test_load_fails_open(self, dead):
        assert dead.load(KEY_A) is None
        assert dead.stats.misses == 1 and dead.stats.errors == 0

    def test_probe_fails_open(self, dead):
        assert dead.contains_many([KEY_A, KEY_B]) == set()


class TestProtocolHygiene:
    def test_stats_counts_entries_and_bytes(self, tmp_path):
        store = ContentStore(tmp_path)
        store.write_entry(KEY_A, b"four")
        store.write_entry(KEY_B, b"bytes!")
        assert store.entry_count() == 2
        assert store.size_bytes() == len(b"four") + len(b"bytes!")
