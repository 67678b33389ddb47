"""Persistent content-addressed cache of machine runs.

Simulations are pure functions of (program, machine configuration), so
their results can be cached across processes: a second ``evaluate``
invocation — or the benchmarks/ suite after an ``evaluate --all`` —
skips simulation entirely on hits.  Entries are addressed by the
SHA-256 of

* the canonical program bytes (:func:`repro.isa.encoding.encode_program`,
  a fully reversible serialization, so two structurally identical
  programs share a key no matter how they were built),
* a canonical JSON rendering of every result-relevant
  :class:`~repro.system.machine.MachineConfig` field
  (:func:`config_fingerprint`),
* :data:`CACHE_FORMAT_VERSION`.

The execution engine is deliberately **not** part of the key: the
engines are bit-identical by contract (the differential conformance
suite enforces it), so a result simulated under any engine is valid for
all of them and cache entries are shared across engines.

Invalidation therefore never needs timestamps: change the program or
any config knob and the key changes; change what a simulation *means*
(timing model, translator semantics, serialization layout) and
``CACHE_FORMAT_VERSION`` must be bumped, which orphans every old entry.
Orphaned and corrupted entries are simply misses — the scheduler falls
back to re-simulation and overwrites them.

Entries live in a :class:`~repro.contentstore.ContentStore` — two-level
sharded JSON files under ``~/.cache/repro-liquid-simd/`` (overridable
with ``--cache-dir`` or ``REPRO_CACHE_DIR``), written atomically and
first-writer-wins, so several ``evaluate`` processes can share one
directory.  See ``docs/evaluation-runner.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Set, Union

from repro.contentstore import ContentStore, default_cache_dir, entry_bytes
from repro.isa.encoding import encode_program
from repro.isa.program import Program
from repro.observability import telemetry as _telemetry
from repro.system.machine import MachineConfig
from repro.system.metrics import RunResult

#: Bump whenever simulation semantics or the RunResult wire format
#: change in a way that makes old cached results wrong or unreadable.
#: 2: keys became engine-invariant (entries shared across engines).
CACHE_FORMAT_VERSION = 2


def config_fingerprint(config: MachineConfig) -> dict:
    """Canonical JSON-safe dict of every result-relevant config field.

    Display-only fields (``AcceleratorConfig.name``) are excluded so a
    renamed generation still hits; everything that can change a
    simulation outcome — widths, repertoires, latencies, cache
    geometries, translator knobs — is included.
    """
    accel = None
    if config.accelerator is not None:
        a = config.accelerator
        accel = {
            "width": a.width,
            "permutations": [p.name for p in a.permutations],
            "vector_ops": sorted(a.vector_ops),
            "supports_saturation": a.supports_saturation,
        }

    def cache_cfg(c) -> dict:
        return {
            "size_bytes": c.size_bytes,
            "assoc": c.assoc,
            "line_bytes": c.line_bytes,
            "hit_latency": c.hit_latency,
            "miss_penalty": c.miss_penalty,
        }

    pipe = config.pipeline
    return {
        "accelerator": accel,
        "pipeline": {
            "icache": cache_cfg(pipe.icache),
            "dcache": cache_cfg(pipe.dcache),
            "mispredict_penalty": pipe.mispredict_penalty,
            "call_redirect_penalty": pipe.call_redirect_penalty,
            "pipeline_depth": pipe.pipeline_depth,
            "code_base": pipe.code_base,
        },
        "translation_enabled": config.translation_enabled,
        "ucode_cache_entries": config.ucode_cache_entries,
        "max_ucode_instructions": config.max_ucode_instructions,
        "translation_cycles_per_instruction":
            config.translation_cycles_per_instruction,
        "collapse_offset_loads": config.collapse_offset_loads,
        "const_immediates": config.const_immediates,
        "attempt_plain_bl": config.attempt_plain_bl,
        "pretranslate": config.pretranslate,
        "interrupt_interval": config.interrupt_interval,
        "translation_mode": config.translation_mode,
        "software_cycles_per_instruction":
            config.software_cycles_per_instruction,
        "observation_point": config.observation_point,
        "verify_translations": config.verify_translations,
        # config.engine is intentionally omitted: engines are
        # bit-identical, so results are engine-invariant.
        "mvl": config.mvl,
        "max_steps": config.max_steps,
    }


def run_key_for_bytes(encoded: bytes, config: MachineConfig,
                      format_version: int = CACHE_FORMAT_VERSION) -> str:
    """Content address of one simulation given pre-encoded program bytes.

    Splitting this out of :func:`run_key` lets the scheduler encode a
    program once per ``program_id`` and key many configs against the
    same bytes (a width sweep shares one program across every width).
    """
    header = json.dumps(
        {
            "format_version": format_version,
            "config": config_fingerprint(config),
        },
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    h = hashlib.sha256()
    h.update(header)
    h.update(b"\x00")
    h.update(encoded)
    return h.hexdigest()


def run_key(program: Program, config: MachineConfig,
            format_version: int = CACHE_FORMAT_VERSION) -> str:
    """Content address of one simulation: SHA-256 hex digest."""
    return run_key_for_bytes(encode_program(program), config, format_version)


def entry_payload(key: str, result: RunResult) -> bytes:
    """The canonical serialized cache entry for (*key*, *result*).

    Telemetry is observational metadata about *how* a run was simulated,
    not part of the (engine-invariant, deterministic) result — it is
    stripped so telemetry-on and telemetry-off runs persist
    byte-identical entries under the same key.
    """
    wire = result.to_dict()
    wire.pop("telemetry", None)
    return entry_bytes(CACHE_FORMAT_VERSION, key, wire)


@dataclass
class RunCacheStats:
    """Hit/miss accounting for one :class:`RunCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    races: int = 0   # store skipped because an entry already existed
    errors: int = 0  # corrupted or unreadable entries encountered
    probe_calls: int = 0  # contains_many calls
    probed: int = 0       # keys covered by those calls


class RunCache(ContentStore):
    """Store of serialized :class:`RunResult`\\ s, keyed by content.

    Adds result (de)serialization, hit/miss accounting and telemetry to
    the sharded directory layout of :class:`ContentStore`.
    """

    format_version = CACHE_FORMAT_VERSION

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__(root)
        self.stats = RunCacheStats()

    @classmethod
    def default(cls, cache_dir: Optional[Union[str, Path]] = None
                ) -> "RunCache":
        """Cache under *cache_dir*, ``$REPRO_CACHE_DIR``, or ``~/.cache``."""
        return cls(Path(cache_dir) if cache_dir else default_cache_dir())

    def load(self, key: str) -> Optional[RunResult]:
        """The cached result for *key*, or None (miss / corrupt entry).

        A corrupted entry is deleted best-effort and reported as a miss
        so the scheduler re-simulates.
        """
        result, corrupt = self.read_entry(key, RunResult.from_dict)
        tel = _telemetry.get()
        if result is None:
            self.stats.misses += 1
            if corrupt:
                self.stats.errors += 1
                tel.count("runcache.errors")
            tel.count("runcache.misses")
            return None
        self.stats.hits += 1
        tel.count("runcache.hits")
        return result

    def store(self, key: str, result: RunResult) -> None:
        """Atomically persist *result* under *key* (first writer wins)."""
        if self.write_entry(key, entry_payload(key, result)):
            self.stats.stores += 1
            _telemetry.get().count("runcache.stores")
        else:
            self.stats.races += 1
            _telemetry.get().count("runcache.races")

    def contains_many(self, keys: Iterable[str]) -> Set[str]:
        """The subset of *keys* with entries, probed in one pass.

        The scheduler batch-probes a whole sweep through this before
        fanning out, instead of paying a per-key ``load`` probe;
        ``runcache.probe.batched`` counts the per-key probes that
        batching saved.
        """
        keys = list(keys)
        present = super().contains_many(keys)
        self.stats.probe_calls += 1
        self.stats.probed += len(keys)
        if keys:
            tel = _telemetry.get()
            tel.count("runcache.probe.calls")
            tel.count("runcache.probe.batched", len(keys))
        return present
