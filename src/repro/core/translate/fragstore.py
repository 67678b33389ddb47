"""Persistent content-addressed store of translation outcomes.

The paper's microcode cache is an 8-entry SRAM — per-process, volatile,
re-filled by observing the scalar loop on every run.  The same (scalar
fragment, translator generation, width) triple recurs across runs and
processes, so translations and cross-width retranslations can be
computed once and shared, exactly like the run cache shares simulation
results (:mod:`repro.evaluation.runcache`).

Entries are addressed by the SHA-256 of

* the canonical bytes of the **source** — the encoded scalar program
  for a fresh translation, or the encoded source fragment
  (:meth:`~repro.core.translate.ucode_cache.MicrocodeEntry.encoded_bytes`)
  for a retranslation,
* the source and target widths,
* a canonical fingerprint of every result-relevant
  :class:`~repro.core.translate.translator.TranslatorConfig` field
  (:func:`translator_config_fingerprint`),
* the function label and :data:`FRAGSTORE_FORMAT_VERSION`.

Entries live under ``<cache_root>/fragments/<key[:2]>/<key>.json`` —
inside the run-cache root (``REPRO_CACHE_DIR`` / ``--cache-dir``) but in
their own subtree, which the run cache's shard iteration never descends
into, so the two caches share location semantics without sharing files.

Both stores are a :class:`~repro.contentstore.ContentStore`, so failure
handling is the run cache's: corrupt, truncated or version-mismatched
entries are deleted best-effort and reported as misses
(``fragstore.corrupt``), so the caller falls back to (re)translation; a
concurrent writer that loses the atomic store race simply skips the
write (``fragstore.race``) — translation is deterministic, so whichever
writer won persisted the same bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.contentstore import ContentStore, default_cache_dir, entry_bytes
from repro.core.translate.translator import TranslatorConfig
from repro.observability import telemetry as _telemetry

#: Bump whenever translation semantics or the serialized result layout
#: change in a way that makes old stored fragments wrong or unreadable.
FRAGSTORE_FORMAT_VERSION = 1

#: Subdirectory of the cache root holding the fragment store.
FRAGSTORE_SUBDIR = "fragments"


def translator_config_fingerprint(config: TranslatorConfig) -> dict:
    """Canonical JSON-safe dict of every translation-relevant field.

    The width is deliberately **not** included — source and target
    widths are separate key components, so one fingerprint describes a
    whole accelerator generation across widths.
    """
    return {
        "max_ucode_instructions": config.max_ucode_instructions,
        "cycles_per_instruction": config.cycles_per_instruction,
        "collapse_offset_loads": config.collapse_offset_loads,
        "const_immediates": config.const_immediates,
        "supports_saturation": config.supports_saturation,
        "permutations": [p.name for p in config.permutations],
        "supported_vector_ops": (
            None if config.supported_vector_ops is None
            else sorted(config.supported_vector_ops)),
    }


def fragment_key(source_bytes: bytes, source_width: int, target_width: int,
                 config: TranslatorConfig, function: str = "",
                 format_version: int = FRAGSTORE_FORMAT_VERSION) -> str:
    """Content address of one translation outcome: SHA-256 hex digest."""
    header = json.dumps(
        {
            "format_version": format_version,
            "function": function,
            "source_width": source_width,
            "target_width": target_width,
            "translator": translator_config_fingerprint(config),
        },
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    h = hashlib.sha256()
    h.update(header)
    h.update(b"\x00")
    h.update(source_bytes)
    return h.hexdigest()


@dataclass
class FragmentStoreStats:
    """Hit/miss accounting for one :class:`FragmentStore` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    races: int = 0


def _result_dict(result) -> dict:
    if not isinstance(result, dict):
        raise ValueError("malformed result payload")
    return result


class FragmentStore(ContentStore):
    """On-disk store of serialized translation results, keyed by content.

    Stored payloads are plain dicts (``TranslationResult.to_dict()`` /
    ``RetranslationResult.to_dict()`` shapes); the cross-width layer
    owns (de)serialization so the store stays schema-agnostic.
    """

    format_version = FRAGSTORE_FORMAT_VERSION

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__(root)
        self.stats = FragmentStoreStats()

    @classmethod
    def default(cls, cache_dir: Optional[Union[str, Path]] = None
                ) -> "FragmentStore":
        """Store under *cache_dir*, ``$REPRO_CACHE_DIR``, or ``~/.cache``."""
        base = Path(cache_dir) if cache_dir else default_cache_dir()
        return cls(base / FRAGSTORE_SUBDIR)

    def load(self, key: str) -> Optional[dict]:
        """The stored result payload for *key*, or None (miss / corrupt).

        A corrupted entry is deleted best-effort and reported as a miss
        so the caller falls back to (re)translating, never crashes.
        """
        result, corrupt = self.read_entry(key, _result_dict)
        tel = _telemetry.get()
        if result is None:
            self.stats.misses += 1
            if corrupt:
                self.stats.corrupt += 1
                tel.count("fragstore.corrupt")
            tel.count("fragstore.miss")
            return None
        self.stats.hits += 1
        tel.count("fragstore.hit")
        return result

    def store(self, key: str, result: dict) -> None:
        """Atomically persist *result* under *key* (first writer wins).

        Translation is a pure function of the key's inputs, so an entry
        that already exists holds the same bytes — losing the race is
        not an error, just skipped work.
        """
        payload = entry_bytes(FRAGSTORE_FORMAT_VERSION, key, result)
        if self.write_entry(key, payload):
            self.stats.stores += 1
            _telemetry.get().count("fragstore.store")
        else:
            self.stats.races += 1
            _telemetry.get().count("fragstore.race")
