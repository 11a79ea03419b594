"""Crash-safe sweep journal: exact resume for killed runs.

The cache already makes reruns cheap — every finished task is a hit.
What the cache cannot say is *what a killed run was doing*: which wave
was in flight, which of its tasks finished, which were lost.  The
journal records exactly that, as an append-only JSON-lines file at
``<cache root>/journal.jsonl``:

.. code-block:: text

    {"ev": "run", "version": 1, "pid": 12345}
    {"ev": "wave", "task": "sim_point", "keys": ["ab12...", "cd34..."]}
    {"ev": "done", "key": "ab12..."}
    {"ev": "quarantined", "key": "cd34...", "failure": {...}}

``wave`` declares intent (the cache keys about to execute); ``done``
confirms completion — written *after* the result is cached, so a key
with a ``done`` line is guaranteed to be a cache hit on resume.  Each
line is flushed as written; a SIGKILL mid-line leaves at most one torn
trailing record, which the scanner skips.

On open, the previous run's journal is scanned first: keys declared in
a ``wave`` but never ``done``/``quarantined`` are the **interrupted**
set (reported via ``RunHealth.interrupted``), and declared keys the new
run re-reads from cache count as **resumed** — including interrupted
ones, since a kill between a result's cache write and its ``done`` line
leaves a finished task the journal never confirmed.  The file is then
truncated and a fresh run header written — the journal describes one
run, the cache describes all of them.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Set, TextIO

JOURNAL_VERSION = 1

#: File name inside the cache root.
JOURNAL_NAME = "journal.jsonl"


def scan(path: str) -> Dict[str, Any]:
    """Parse a journal file into ``{done, quarantined, interrupted}``
    key sets.  Torn or garbage lines (a crash mid-write) are skipped —
    the journal must tolerate exactly the failures it exists to record."""
    declared: Set[str] = set()
    done: Set[str] = set()
    quarantined: Set[str] = set()
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue
                if not isinstance(rec, dict):
                    continue
                ev = rec.get("ev")
                if ev == "wave":
                    keys = rec.get("keys")
                    if isinstance(keys, list):
                        declared.update(k for k in keys if isinstance(k, str))
                elif ev == "done" and isinstance(rec.get("key"), str):
                    done.add(rec["key"])
                elif ev == "quarantined" and isinstance(rec.get("key"), str):
                    quarantined.add(rec["key"])
    except (FileNotFoundError, OSError):
        pass
    return {
        "done": done,
        "quarantined": quarantined,
        "interrupted": declared - done - quarantined,
    }


class RunJournal:
    """Append-only event log for one run (see module docstring).

    IO failures never take down a run: a journal that cannot be written
    disables itself and the sweep continues unjournaled (losing resume
    precision, not results).
    """

    def __init__(self, path: str):
        self.path = path
        prior = scan(path)
        self.prior_done: Set[str] = prior["done"]
        self.prior_interrupted: Set[str] = prior["interrupted"]
        self._fh: Optional[TextIO] = None
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
        except OSError:
            self._fh = None
        self._write({"ev": "run", "version": JOURNAL_VERSION, "pid": os.getpid()})

    def _write(self, rec: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        try:
            self._fh.write(json.dumps(rec) + "\n")
            self._fh.flush()
        except (OSError, ValueError):
            # ValueError: write on a closed file (interpreter teardown).
            self._fh = None

    def wave(self, task: str, keys: List[str]) -> None:
        self._write({"ev": "wave", "task": task, "keys": list(keys)})

    def done(self, key: str) -> None:
        self._write({"ev": "done", "key": key})

    def quarantined(self, key: str, failure: Optional[Dict[str, Any]] = None) -> None:
        rec: Dict[str, Any] = {"ev": "quarantined", "key": key}
        if failure is not None:
            rec["failure"] = failure
        self._write(rec)

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
