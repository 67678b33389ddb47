"""Sharded on-disk content store: the one layout both persistent caches use.

The run cache (:class:`repro.evaluation.runcache.RunCache`) and the
fragment store (:class:`repro.core.translate.fragstore.FragmentStore`)
persist outputs of deterministic computations under SHA-256 content
keys.  Both are a :class:`ContentStore`: JSON entries at
``<root>/<key[:2]>/<key>.json``, each shaped
``{"format_version": V, "key": K, "result": R}``.

Writes are atomic and first-writer-wins: the payload goes to a temp file
in the shard directory, and ``os.link`` publishes it.  Unlike
``os.replace``, ``link`` fails when the destination exists, so exactly
one of N racing writers (processes sharing one directory) observes a
win; the losers hold byte-identical payloads and simply skip the write.
Readers never see a partial entry.

Corrupt entries (a truncated write from a killed process, garbage JSON,
another format version, a result the caller cannot decode) are deleted
best-effort and read as misses, so callers fall back to recomputing.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Set, \
    Tuple, TypeVar, Union

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DEFAULT_SUBDIR = Path(".cache") / "repro-liquid-simd"

T = TypeVar("T")


def default_cache_dir() -> Path:
    """Resolution order: ``REPRO_CACHE_DIR`` env var, then ``~/.cache``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / _DEFAULT_SUBDIR


def entry_bytes(format_version: int, key: str, result: Any) -> bytes:
    """The canonical serialized entry for *result* stored under *key*."""
    return json.dumps(
        {"format_version": format_version, "key": key, "result": result},
        separators=(",", ":"),
    ).encode("utf-8")


class ContentStore:
    """JSON entries under two-level sharded content keys.

    Subclasses set :attr:`format_version`; an entry written under any
    other version reads as corrupt.
    """

    format_version: int = 0

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def read_entry(self, key: str, decode: Callable[[Any], T]
                   ) -> Tuple[Optional[T], bool]:
        """``(decode(result), False)`` for a valid entry.

        A missing entry reads ``(None, False)``; a corrupt one is
        deleted and reads ``(None, True)``.  *decode* rejects a result
        by raising ``ValueError``, ``KeyError`` or ``TypeError``.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None, False
        try:
            payload = json.loads(raw.decode("utf-8"))
            if payload.get("format_version") != self.format_version:
                raise ValueError("format version mismatch")
            return decode(payload["result"]), False
        except (UnicodeDecodeError, ValueError, KeyError, TypeError,
                AttributeError):
            self.delete(key)
            return None, True

    def write_entry(self, key: str, payload: bytes) -> bool:
        """Publish *payload* atomically; False when an entry already won."""
        path = self.path_for(key)
        if path.exists():
            # First writer wins: the computation is deterministic, so the
            # existing entry already holds these bytes.
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return True

    def delete(self, key: str) -> None:
        """Best-effort removal of *key*'s entry; never raises."""
        try:
            self.path_for(key).unlink()
        except OSError:
            pass

    def contains_many(self, keys: Iterable[str]) -> Set[str]:
        """The subset of *keys* with entries.

        One ``listdir`` per touched two-hex-digit shard instead of a
        ``stat`` per key: a 15-benchmark width sweep touches at most 256
        shards however many keys it probes.
        """
        by_shard: Dict[str, list] = {}
        for key in keys:
            by_shard.setdefault(key[:2], []).append(key)
        present: Set[str] = set()
        for shard, shard_keys in by_shard.items():
            try:
                names = set(os.listdir(self.root / shard))
            except OSError:
                continue
            present.update(k for k in shard_keys if f"{k}.json" in names)
        return present

    # -- maintenance (the ``repro cache`` subcommand) -------------------------

    def entry_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob("*.json"))

    def entry_count(self) -> int:
        return sum(1 for _ in self.entry_paths())

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entry_paths())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
