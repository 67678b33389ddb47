"""Fault-injection and keying tests for the persistent fragment store.

The store must *never* make a run incorrect or crash it: truncated
files, garbage JSON, wrong format versions and racing writers all
degrade to a miss (``fragstore.corrupt`` / ``fragstore.race``) and the
caller falls back to retranslation — with no cycle-count or run-key
drift versus running without the store at all (the differential suite's
``test_store_does_not_drift_cycles`` covers the end-to-end half).
"""

from __future__ import annotations

import json

import pytest

from repro.core.scalarize import build_liquid_program
from repro.core.translate.fragstore import (
    FRAGSTORE_FORMAT_VERSION,
    FragmentStore,
    fragment_key,
    translator_config_fingerprint,
)
from repro.core.translate.translator import TranslatorConfig
from repro.evaluation.crosswidth import translate_at_width
from repro.evaluation.runcache import RunCache
from repro.kernels.suite import build_kernel
from repro.observability import telemetry
from repro.simd.accelerator import config_for_width
from repro.system.machine import MachineConfig

CFG = TranslatorConfig(width=4)


def _store(tmp_path) -> FragmentStore:
    return FragmentStore(tmp_path / "fragments")


def _payload(tag="x") -> dict:
    return {"function": tag, "ok": True}


# ---------------------------------------------------------------------------
# Keying
# ---------------------------------------------------------------------------

def test_key_is_stable_and_sensitive():
    base = fragment_key(b"frag", 4, 8, CFG, function="f")
    assert base == fragment_key(b"frag", 4, 8, CFG, function="f")
    assert base != fragment_key(b"frag2", 4, 8, CFG, function="f")
    assert base != fragment_key(b"frag", 2, 8, CFG, function="f")
    assert base != fragment_key(b"frag", 4, 16, CFG, function="f")
    assert base != fragment_key(b"frag", 4, 8, CFG, function="g")
    assert base != fragment_key(b"frag", 4, 8, CFG, function="f",
                                format_version=FRAGSTORE_FORMAT_VERSION + 1)
    narrower = TranslatorConfig(
        width=4, supported_vector_ops=frozenset({"vld", "vst"}))
    assert base != fragment_key(b"frag", 4, 8, narrower, function="f")


def test_fingerprint_excludes_width():
    """One fingerprint describes a generation across hardware widths."""
    assert translator_config_fingerprint(TranslatorConfig(width=2)) == \
        translator_config_fingerprint(TranslatorConfig(width=16))


def test_round_trip(tmp_path):
    store = _store(tmp_path)
    key = fragment_key(b"frag", 4, 8, CFG)
    assert store.load(key) is None
    store.store(key, _payload())
    assert store.load(key) == _payload()
    assert store.stats.hits == 1 and store.stats.misses == 1
    assert store.entry_count() == 1 and store.size_bytes() > 0
    assert store.clear() == 1
    assert store.load(key) is None


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

def _stored_path(store: FragmentStore, key: str):
    store.store(key, _payload())
    return store.path_for(key)


@pytest.mark.parametrize("corruption", ["truncate", "garbage", "version"])
def test_corrupt_entries_fall_back_to_miss(tmp_path, corruption):
    store = _store(tmp_path)
    key = fragment_key(b"frag", 4, 8, CFG)
    path = _stored_path(store, key)
    if corruption == "truncate":
        path.write_text(path.read_text()[:10], encoding="utf-8")
    elif corruption == "garbage":
        path.write_text("{not json", encoding="utf-8")
    else:
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format_version"] = FRAGSTORE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")

    tel = telemetry.enable()
    try:
        assert store.load(key) is None
        counters = dict(tel.to_dict()["counters"])
    finally:
        telemetry.disable()
    assert counters.get("fragstore.corrupt") == 1
    assert counters.get("fragstore.miss") == 1
    assert store.stats.corrupt == 1
    # The bad entry was deleted so the rewrite is a clean store.
    assert not path.exists()
    store.store(key, _payload())
    assert store.load(key) == _payload()


def test_concurrent_writer_loses_race_gracefully(tmp_path):
    """Two processes storing the same key: first wins, second is a race.

    Translation is deterministic, so the loser's payload is identical
    byte-for-byte and skipping the write is correct, not lossy.
    """
    a = _store(tmp_path)
    b = _store(tmp_path)
    key = fragment_key(b"frag", 4, 8, CFG)
    a.store(key, _payload())
    tel = telemetry.enable()
    try:
        b.store(key, _payload())
        counters = dict(tel.to_dict()["counters"])
    finally:
        telemetry.disable()
    assert counters.get("fragstore.race") == 1
    assert "fragstore.store" not in counters
    assert b.stats.races == 1 and b.stats.stores == 0
    assert a.load(key) == _payload()
    assert a.entry_count() == 1


# ---------------------------------------------------------------------------
# Coexistence with the run cache
# ---------------------------------------------------------------------------

def test_store_is_invisible_to_run_cache(tmp_path):
    """Both caches share a root; neither sees the other's entries."""
    run_cache = RunCache(tmp_path)
    store = FragmentStore.default(tmp_path)
    assert store.root == tmp_path / "fragments"
    store.store(fragment_key(b"frag", 4, 8, CFG), _payload())
    assert run_cache.entry_count() == 0
    assert run_cache.clear() == 0
    assert store.entry_count() == 1


def test_corrupt_store_entry_does_not_change_outcome(tmp_path):
    """A corrupted translation entry degrades to a scout re-run whose
    results (and re-stored bytes) are identical to the cold path."""
    store = _store(tmp_path)
    program = build_liquid_program(build_kernel("FIR"))
    config = MachineConfig(accelerator=config_for_width(4), engine="fast")
    cold = translate_at_width(program, config, store)
    for path in store.entry_paths():
        path.write_text("{truncated", encoding="utf-8")
    recovered = translate_at_width(program, config, store)
    assert {fn: t.to_dict() for fn, t in recovered.items()} == \
        {fn: t.to_dict() for fn, t in cold.items()}
    assert store.stats.corrupt == len(cold)
