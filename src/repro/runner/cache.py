"""Content-addressed on-disk result cache.

Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the SHA-256 of
the task's canonical configuration (:mod:`repro.runner.hashing`).  Values
are plain JSON documents produced by the task codecs in
:mod:`repro.runner.tasks`.

Large values — compiled routing tables dominate; a 1024-router CSR
table document runs to megabytes of JSON — are stored zlib-compressed
as ``<key>.json.z`` once their serialized form crosses
:data:`COMPRESS_THRESHOLD` bytes (flat integer arrays compress ~10x),
so scale sweeps stay resumable without blowing the on-disk cache.
Reads accept either form transparently; small entries stay plain JSON
and greppable.

Robustness over cleverness:

* writes are atomic (temp file + ``os.replace``, :func:`atomic_write`)
  so a killed run never leaves a half-written entry;
* a corrupted or unreadable entry is treated as a miss, counted in
  ``stats.errors``, and deleted so the recomputed value replaces it;
* hit/miss/put counters accumulate on the cache object for reporting
  (``repro run`` prints them after every experiment).

The default root is ``$REPRO_CACHE_DIR`` if set, else ``.repro-cache``
under the current working directory.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from typing import Any, Optional

#: Sentinel distinguishing "no entry" from a cached ``None``.
MISS = object()

#: Serialized size (bytes) above which an entry is stored compressed.
COMPRESS_THRESHOLD = 4096


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.getcwd(), ".repro-cache"
    )


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file in the same
    directory and ``os.replace``: readers see the old file or the new
    one, never a torn one, and a failed write removes its temp file."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_artifact(path: str, doc: Any) -> None:
    """Write an artifact doc (explore, robustness and recovery files):
    ``indent=1``, sorted keys and a trailing newline, atomically.  The
    doc is encoded before any file is touched, so a doc that fails to
    encode leaves the previous file as it was."""
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    atomic_write(path, text.encode())


@dataclass
class CacheStats:
    """Counters for one cache lifetime."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.errors += other.errors

    def summary(self) -> str:
        total = self.hits + self.misses
        rate = (100.0 * self.hits / total) if total else 0.0
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({rate:.0f}% hit rate), {self.puts} writes, {self.errors} errors"
        )


class ResultCache:
    """JSON value store addressed by content hash."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.stats = CacheStats()
        os.makedirs(self.root, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def zpath_for(self, key: str) -> str:
        """The compressed sibling of :meth:`path_for`."""
        return self.path_for(key) + ".z"

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`MISS`."""
        for path, compressed in (
            (self.path_for(key), False),
            (self.zpath_for(key), True),
        ):
            try:
                if compressed:
                    with open(path, "rb") as fh:
                        doc = json.loads(zlib.decompress(fh.read()))
                else:
                    with open(path) as fh:
                        doc = json.load(fh)
                value = doc["value"]
            except FileNotFoundError:
                continue
            except (
                json.JSONDecodeError, zlib.error, UnicodeDecodeError,
                KeyError, TypeError, OSError,
            ):
                # Corrupted entry: drop it and recompute.
                self.stats.errors += 1
                self.stats.misses += 1
                try:
                    os.unlink(path)
                except OSError:
                    pass
                return MISS
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        return MISS

    def put(self, key: str, value: Any) -> None:
        """Atomically store ``value`` (must be JSON-serializable).

        Entries whose serialized form exceeds
        :data:`COMPRESS_THRESHOLD` bytes land zlib-compressed at
        ``<key>.json.z``; the other form's twin (from an older cache
        layout or a threshold change) is removed so a key never exists
        in both forms.
        """
        payload = json.dumps({"key": key, "value": value})
        compress = len(payload) > COMPRESS_THRESHOLD
        path = self.zpath_for(key) if compress else self.path_for(key)
        twin = self.path_for(key) if compress else self.zpath_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write(
            path,
            zlib.compress(payload.encode(), level=6)
            if compress else payload.encode(),
        )
        try:
            os.unlink(twin)
        except OSError:
            pass
        self.stats.puts += 1

    def delete(self, key: str) -> None:
        """Drop an entry (e.g. a cached failure that should be retried)."""
        for path in (self.path_for(key), self.zpath_for(key)):
            try:
                os.unlink(path)
            except OSError:
                pass
