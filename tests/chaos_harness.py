"""Deterministic chaos harness for the supervised runner.

Fault-tolerance logic that cannot be exercised is decoration.  This
module provides the test doubles that let the differential suite inject
real faults — worker ``os._exit``, task hangs, transient exceptions,
scheduling delays, torn cache entries — while keeping every injection
**deterministic**: victims are selected by content hash (never by
wall-clock, pid, or global RNG state), so a chaotic run is exactly
reproducible and its expected fault counts are known in advance.  The
acceptance bar is differential: a sweep run under chaos must produce
bit-identical results to the fault-free run, with :class:`RunHealth`
counters matching the injected fault counts.

Faults are keyed by :func:`~repro.runner.executor.payload_fingerprint`
(the payload's canonical content hash).  ``ChaosSpec.select`` ranks
fingerprints by a seeded digest and carves off the requested number of
victims per fault class, so tests write ``ChaosSpec.select(payloads,
seed=0, exc=2, crash=1)`` and then assert ``health.retries == 2`` etc.

:func:`armed` injects a spec through the executor's task-invocation
seam: it swaps ``ParallelExecutor._submit`` (pool path) and
``ParallelExecutor._call_inline`` (serial and degraded path) for
versions that route every call through :func:`chaos_call`, so the
supervision code under test is the production code, unchanged.  The
pool runs module-level :func:`chaos_call` in its workers, which
unpickle it from this module (``tests/`` must be on ``sys.path``, as it
is under pytest).

Crash and hang injections are **pid-guarded**: they only fire inside a
worker process (``os.getpid() != spec.main_pid``), never in the
supervisor.  This is not just self-preservation — it also means the
executor's inline degradation path (which runs tasks in the supervisor
process after writing off the pool) completes chaos-marked payloads
instead of dying, exactly the behavior degradation promises.

:func:`tear_cache_entries` corrupts stored cache entries in place, the
state a torn write leaves, so the next run exercises the production
read path's detect, evict and recompute cycle.  Test-only.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence, Tuple

from repro.runner import ParallelExecutor, ResultCache, payload_fingerprint


class ChaosError(RuntimeError):
    """The injected transient task exception."""


@dataclass(frozen=True)
class ChaosSpec:
    """A pickled-to-workers description of which payloads fail and how.

    ``crash``/``hang``/``exc``/``delay`` hold payload fingerprints (see
    :func:`payload_fingerprint`).  Crash/hang/exc fire only while the
    payload's attempt number is below ``fail_attempts`` — so with the
    default of 1 every victim fails exactly once and succeeds on retry,
    while ``fail_attempts`` larger than the retry budget makes a victim
    a poison task that must be quarantined.  ``delay`` always fires: it
    shapes scheduling (useful to hold tasks in flight for SIGINT tests)
    without ever failing anything.
    """

    crash: Tuple[str, ...] = ()
    hang: Tuple[str, ...] = ()
    exc: Tuple[str, ...] = ()
    delay: Tuple[str, ...] = ()
    fail_attempts: int = 1
    hang_s: float = 30.0
    delay_s: float = 0.02
    main_pid: int = field(default_factory=os.getpid)

    def __post_init__(self):
        if self.fail_attempts < 0:
            raise ValueError(
                f"fail_attempts must be >= 0, got {self.fail_attempts!r}"
            )
        if self.hang_s <= 0 or self.delay_s < 0:
            raise ValueError("hang_s must be > 0 and delay_s >= 0")

    @classmethod
    def select(
        cls,
        payloads: Sequence[Any],
        seed: int = 0,
        crash: int = 0,
        hang: int = 0,
        exc: int = 0,
        delay: int = 0,
        **kwargs: Any,
    ) -> "ChaosSpec":
        """Deterministically pick fault victims from ``payloads``.

        Distinct payload fingerprints are ranked by
        ``sha256(seed ':' fingerprint)`` and the requested counts carved
        off in order (crash victims first, then hang, exc, delay) — the
        classes never overlap, and the same payloads + seed always
        select the same victims.
        """
        keys = sorted(
            {payload_fingerprint(p) for p in payloads},
            key=lambda k: hashlib.sha256(f"{seed}:{k}".encode()).hexdigest(),
        )
        need = crash + hang + exc + delay
        if need > len(keys):
            raise ValueError(
                f"cannot select {need} distinct fault victims from "
                f"{len(keys)} distinct payloads"
            )
        cuts = [crash, crash + hang, crash + hang + exc, need]
        return cls(
            crash=tuple(keys[: cuts[0]]),
            hang=tuple(keys[cuts[0]:cuts[1]]),
            exc=tuple(keys[cuts[1]:cuts[2]]),
            delay=tuple(keys[cuts[2]:cuts[3]]),
            **kwargs,
        )


def chaos_call(spec: ChaosSpec, attempt: int, fn, payload):
    """Run ``fn(payload)`` with ``spec``'s faults applied to this attempt.

    While :func:`armed`, the executor routes every task call through
    here — in workers and inline alike; this is the single interposition
    point, so supervision itself is identical with and without chaos.
    """
    key = payload_fingerprint(payload)
    in_worker = os.getpid() != spec.main_pid
    if attempt < spec.fail_attempts:
        if key in spec.crash and in_worker:
            # A real worker crash: no exception, no cleanup — the pool
            # sees the process vanish, exactly like an OOM kill.
            os._exit(17)
        if key in spec.hang and in_worker:
            time.sleep(spec.hang_s)
        if key in spec.exc:
            raise ChaosError(
                f"injected transient failure (attempt {attempt}) "
                f"for payload {key[:12]}"
            )
    if key in spec.delay:
        time.sleep(spec.delay_s)
    return fn(payload)


@contextmanager
def armed(spec: ChaosSpec) -> Iterator[None]:
    """Route every executor task call through :func:`chaos_call` with
    ``spec`` while the block runs, then restore the production seam.

    The swap is on the class, so it covers every executor (and every
    ``Runner``) the block uses, including ones built before it.
    """
    submit = ParallelExecutor._submit
    call_inline = ParallelExecutor._call_inline

    def chaotic_submit(self, pool, fn, payload, attempt):
        return pool.submit(chaos_call, spec, attempt, fn, payload)

    def chaotic_call_inline(self, fn, payload, attempt):
        return chaos_call(spec, attempt, fn, payload)

    ParallelExecutor._submit = chaotic_submit
    ParallelExecutor._call_inline = chaotic_call_inline
    try:
        yield
    finally:
        ParallelExecutor._submit = submit
        ParallelExecutor._call_inline = call_inline


def tear_cache_entries(
    root: str, keys: Iterable[str], mode: str = "truncate"
) -> int:
    """Corrupt the stored entries of ``keys`` in the cache at ``root``.

    Each stored file (plain ``.json`` or compressed ``.json.z``) is
    truncated to half its length (``mode="truncate"``) or overwritten
    with garbage bytes (``mode="garbage"``) in place — the state a crash
    mid-write leaves without an atomic rename.  Keys with nothing
    stored are skipped.  Returns the number of files torn.
    """
    if mode not in ("truncate", "garbage"):
        raise ValueError(f"unknown tear mode {mode!r}")
    cache = ResultCache(root)
    torn = 0
    for key in keys:
        for path in (cache.path_for(key), cache.zpath_for(key)):
            if not os.path.exists(path):
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                if mode == "truncate":
                    fh.write(data[: max(1, len(data) // 2)])
                else:
                    fh.write(b"\x00\xffnot json\xfe" + data[:8])
            torn += 1
    return torn
