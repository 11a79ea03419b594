"""Supervised process-pool execution with deterministic seeding.

The executor maps a *module-level* task function over a list of pure-data
payloads.  Results come back in payload order, so a parallel map is a
drop-in replacement for the serial loop it replaces — determinism is the
contract, speed is the point.

Determinism comes from the payloads themselves: every task carries its
RNG seed as data (the sweep tasks forward the caller's seed verbatim,
matching the serial code paths).  For callers that need *distinct*
per-task seeds — e.g. replicated runs of the same configuration —
``derive_seed`` derives one stably from a base seed plus the task's
identity, never its scheduling order.

Supervision
-----------

A bare ``pool.map`` dies with its weakest task: one ``BrokenProcessPool``
kills the whole wave, one hung task stalls a sweep forever.  The
supervised map instead runs a small state machine per wave:

* **NORMAL** — up to ``workers`` payloads are in flight at once, each
  with an optional wall-clock deadline (:class:`TaskRetryPolicy`
  ``timeout``).  A task that raises a (transient) exception is charged
  an attempt and requeued after a deterministic exponential backoff.
* **hang handling** — a task past its deadline is charged a timeout
  attempt; the pool is restarted (the only way to reclaim a hung
  worker), the other in-flight payloads are resubmitted *uncharged*,
  and already-completed results are kept.
* **ISOLATION** — a pool collapse (a worker ``os._exit``, an OOM kill)
  cannot name its culprit: every in-flight future fails with
  ``BrokenProcessPool``.  The suspects are therefore resubmitted one at
  a time; a collapse during isolation convicts exactly one payload,
  which is charged a crash attempt.  Innocent suspects are never
  charged.
* **quarantine** — a payload that exhausts ``retries`` attempts becomes
  a structured :class:`TaskFailure` (payload hash, attempts, full
  tracebacks) in the result list; the rest of the wave continues.
* **DEGRADED** — after ``max_pool_restarts`` collapses the executor
  stops trusting the platform's process pool and finishes every
  remaining payload inline.

Every event increments a counter on :class:`RunHealth`, the report
surfaced by :class:`~repro.runner.orchestrator.Runner` and ``repro run
--health``.
"""

from __future__ import annotations

import atexit
import hashlib
import heapq
import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Upper bound (seconds) on one exponential-backoff delay.
BACKOFF_CAP = 5.0

#: Poll granularity (seconds) of the supervision loop.
_POLL = 0.05


def derive_seed(base_seed: int, *components: Any) -> int:
    """A stable 31-bit seed from a base seed and task identity.

    Same inputs always give the same seed; distinct components give
    (overwhelmingly) distinct seeds.  Scheduling order never enters.
    """
    text = repr((int(base_seed),) + tuple(components))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % (2**31)


def default_workers() -> int:
    return os.cpu_count() or 1


def payload_fingerprint(payload: Any) -> str:
    """A stable content hash identifying one payload.

    Pure-data payloads get the canonical config hash (the same identity
    the cache keys derive from); anything unhashable falls back to a
    digest of its ``repr``.
    """
    from .hashing import config_hash

    try:
        return config_hash(payload)
    except TypeError:
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TaskRetryPolicy:
    """Timeout/retry/backoff semantics for supervised executor tasks.

    The execution-layer mirror of the in-simulation
    :class:`~repro.fullsys.closedloop.RetryPolicy`: frozen and validated
    at construction.  ``timeout`` is the wall-clock budget
    (seconds) of one attempt — ``None`` disables deadlines; timeouts
    apply only to pool execution, since inline work cannot be preempted.
    A failed attempt ``a`` (1-based) waits ``backoff * 2**(a-1)``
    seconds (capped at :data:`BACKOFF_CAP`) before retrying — a fixed,
    deterministic schedule: executor backoff shapes only *when* a task
    reruns, never its result, so no jitter stream is needed.  A payload
    that fails ``retries + 1`` attempts is quarantined.  After
    ``max_pool_restarts`` pool collapses the executor degrades to
    inline execution for everything that remains.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    max_pool_restarts: int = 3

    def __post_init__(self):
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(
                f"task timeout must be > 0 seconds (or None), got {self.timeout!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retry budget must be >= 0, got {self.retries!r}")
        if self.backoff < 0:
            raise ValueError(
                f"backoff base must be >= 0 seconds, got {self.backoff!r}"
            )
        if self.max_pool_restarts < 0:
            raise ValueError(
                f"pool-restart budget must be >= 0, got {self.max_pool_restarts!r}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before (1-based) attempt ``attempt + 1``."""
        if attempt <= 0 or self.backoff <= 0:
            return 0.0
        return min(BACKOFF_CAP, self.backoff * (2.0 ** (attempt - 1)))


@dataclass
class RunHealth:
    """Supervision counters for one executor (and, via the Runner, one
    whole experiment run).

    ``tasks`` counts attempts that ran to a verdict (success or raise);
    ``retries`` the re-executions granted after a failed attempt;
    ``timeouts``/``crashes`` the deadline hits and pool collapses that
    caused them; ``pool_restarts`` every pool rebuild; ``inline_fallbacks``
    payloads finished inline after the pool was written off;
    ``quarantined`` payloads that exhausted every retry;
    ``cache_evictions`` corrupted cache entries dropped and recomputed;
    ``resumed``/``interrupted`` what the sweep journal attributed to a
    previously killed run.
    """

    tasks: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    pool_restarts: int = 0
    inline_fallbacks: int = 0
    quarantined: int = 0
    cache_evictions: int = 0
    resumed: int = 0
    interrupted: int = 0

    @property
    def ok(self) -> bool:
        return self.quarantined == 0

    def merge(self, other: "RunHealth") -> None:
        for name in (
            "tasks", "retries", "timeouts", "crashes", "pool_restarts",
            "inline_fallbacks", "quarantined", "cache_evictions",
            "resumed", "interrupted",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, int]:
        return {
            "tasks": self.tasks,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "pool_restarts": self.pool_restarts,
            "inline_fallbacks": self.inline_fallbacks,
            "quarantined": self.quarantined,
            "cache_evictions": self.cache_evictions,
            "resumed": self.resumed,
            "interrupted": self.interrupted,
        }

    def summary(self) -> str:
        return (
            f"health: {self.tasks} task runs, {self.retries} retries, "
            f"{self.timeouts} timeouts, {self.crashes} crashes / "
            f"{self.pool_restarts} pool restarts, "
            f"{self.inline_fallbacks} inline fallbacks, "
            f"{self.quarantined} quarantined, "
            f"{self.cache_evictions} corrupt cache evictions, "
            f"{self.resumed} resumed / {self.interrupted} interrupted"
        )

    def copy(self) -> "RunHealth":
        return replace(self)


@dataclass
class TaskFailure:
    """A payload that exhausted its retry budget (the quarantine record).

    ``payload_hash`` is the content fingerprint of the payload itself;
    ``key``/``task`` are filled by :meth:`Runner.run_tasks` with the
    cache identity.  ``kind`` names the terminal failure mode:
    ``"error"`` (the task raised), ``"timeout"`` (wall-clock deadline),
    or ``"crash"`` (convicted of collapsing the worker pool).
    """

    payload_hash: str
    task: str = ""
    key: str = ""
    attempts: int = 0
    kind: str = "error"
    error: str = ""
    tracebacks: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "payload_hash": self.payload_hash,
            "task": self.task,
            "key": self.key,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
            "tracebacks": list(self.tracebacks),
        }


class QuarantineError(RuntimeError):
    """Raised after a wave completes if any payload was quarantined.

    The wave's successful results are already computed (and cached by
    the Runner) before this surfaces, so a rerun resumes instead of
    recomputing; ``failures`` carries one :class:`TaskFailure` per
    quarantined payload for reporting (``repro run`` renders them as a
    per-cell failure table and exits non-zero).
    """

    def __init__(self, failures: Sequence[TaskFailure]):
        self.failures = list(failures)
        heads = ", ".join(
            f"{f.task or 'task'}:{f.payload_hash[:12]} ({f.kind}, "
            f"{f.attempts} attempts)"
            for f in self.failures[:4]
        )
        more = "" if len(self.failures) <= 4 else f" (+{len(self.failures) - 4} more)"
        last = self.failures[-1]
        tail = f"\nlast failure: {last.error}" if last.error else ""
        super().__init__(
            f"{len(self.failures)} task(s) quarantined after exhausting "
            f"retries: {heads}{more}{tail}"
        )


def _format_exception(exc: BaseException) -> str:
    """The fullest traceback available — for pool tasks the remote
    worker traceback travels on ``exc.__cause__`` (``_RemoteTraceback``)."""
    cause = getattr(exc, "__cause__", None)
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        return str(cause)
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


#: Sentinel for not-yet-finished outcome slots.
_PENDING = object()


class ParallelExecutor:
    """Order-preserving supervised map over worker processes.

    ``workers <= 1`` runs inline (no pool, no pickling) — the semantics
    are identical either way.  The pool is created lazily on the first
    parallel map and reused across calls (wave-scheduled sweeps map many
    small batches; respawning workers per batch would pay the
    interpreter/numpy import cost every time).  If the platform refuses
    to spawn processes at all, the executor degrades to the inline path.

    Errors raised *inside* tasks no longer abort the wave: they are
    retried under ``retry`` (a :class:`TaskRetryPolicy`) and, once the
    budget is exhausted, quarantined as :class:`TaskFailure` records —
    :meth:`map` then raises :class:`QuarantineError` *after* the rest of
    the wave has completed, so an hour-scale batch still fails loudly
    but no longer loses its finished work.  Every task call goes through
    :meth:`_submit` (pool) or :meth:`_call_inline` (serial and
    degraded), the seam the fault-injection tests patch.
    """

    def __init__(self, workers: int = 1, retry: Optional[TaskRetryPolicy] = None):
        self.workers = max(1, int(workers))
        self.retry = retry or TaskRetryPolicy()
        self.health = RunHealth()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_broken = False
        # One atexit hook per executor, however many times the pool is
        # restarted — registering per pool creation would leak a
        # callback (and a shutdown pass) for every recovery.
        self._atexit_registered = False
        self._restarts = 0

    # -- pool lifecycle ------------------------------------------------------
    def _get_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._pool is None and not self._pool_broken:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, PermissionError):
                # Pools can be unavailable (restricted sandboxes, exotic
                # platforms); parallelism is an optimization, not a
                # dependency.
                self._pool_broken = True
            else:
                # A pool left for the garbage collector races CPython's
                # interpreter teardown ("Bad file descriptor" noise on
                # exit); shut it down deterministically instead.
                if not self._atexit_registered:
                    atexit.register(self.close)
                    self._atexit_registered = True
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _restart_pool(self) -> None:
        """Tear the pool down hard (a hung worker never joins a polite
        ``shutdown(wait=True)``) and count the restart; exceeding the
        budget flips the executor to permanent inline degradation."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except (OSError, AttributeError):
                    pass
        self._restarts += 1
        self.health.pool_restarts += 1
        if self._restarts > self.retry.max_pool_restarts:
            self._pool_broken = True

    def effective_workers(self) -> int:
        """The worker count a parallel map actually fans out to.

        1 when configured serial — or when the platform refused to spawn
        a pool (or supervision wrote it off after repeated collapses)
        and maps degraded to the inline path.  Benchmarks that assert
        parallel speedups must check this and fail loudly rather than
        record a degenerate single-process baseline as a result.
        """
        if self.workers <= 1:
            return 1
        return self.workers if self._get_pool() is not None else 1

    # -- task invocation -----------------------------------------------------
    # ``attempt`` is unused here; fault injectors patched over these two
    # methods key their faults on it.
    def _submit(self, pool: ProcessPoolExecutor, fn, payload, attempt: int) -> Future:
        return pool.submit(fn, payload)

    def _call_inline(self, fn, payload, attempt: int):
        return fn(payload)

    # -- public maps ---------------------------------------------------------
    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> List[Any]:
        """Supervised order-preserving map; raises
        :class:`QuarantineError` (after the wave completes) if any
        payload exhausted its retries."""
        outcomes = self.map_outcomes(fn, payloads)
        failures = [o for o in outcomes if isinstance(o, TaskFailure)]
        if failures:
            raise QuarantineError(failures)
        return outcomes

    def map_outcomes(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        on_done: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Map with per-payload outcomes: the task's value on success or
        a :class:`TaskFailure` on quarantine, in payload order.

        ``on_done(index, outcome)`` fires in the supervisor process the
        moment each payload reaches its final verdict — the Runner uses
        it to cache and journal incrementally, which is what makes a
        SIGINT mid-wave resumable.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        use_pool = (
            self.workers > 1 and len(payloads) > 1
            and self._get_pool() is not None
        )
        if not use_pool:
            outcomes: List[Any] = [_PENDING] * len(payloads)
            self._finish_inline(
                fn, payloads, list(range(len(payloads))),
                [0] * len(payloads), [[] for _ in payloads],
                outcomes, on_done, degraded=False,
            )
            return outcomes
        return self._map_supervised(fn, payloads, on_done)

    # -- inline execution (serial mode and degraded fallback) ----------------
    def _finish_inline(
        self,
        fn,
        payloads: List[Any],
        indices: List[int],
        attempts: List[int],
        tracebacks: List[List[str]],
        outcomes: List[Any],
        on_done,
        degraded: bool,
    ) -> None:
        """Run each listed payload's remaining retry loop inline.

        ``attempts``/``tracebacks``/``outcomes`` are indexed by the
        *global* payload index, so a half-done supervised wave hands its
        bookkeeping straight over.  Timeouts are not enforceable inline.
        """
        retry = self.retry
        for i in indices:
            if degraded:
                self.health.inline_fallbacks += 1
            while True:
                delay = retry.delay(attempts[i])
                if delay > 0:
                    time.sleep(delay)
                try:
                    value = self._call_inline(fn, payloads[i], attempts[i])
                except Exception as exc:  # noqa: BLE001 — supervision boundary
                    self.health.tasks += 1
                    attempts[i] += 1
                    tracebacks[i].append(_format_exception(exc))
                    if attempts[i] > retry.retries:
                        outcome = TaskFailure(
                            payload_hash=payload_fingerprint(payloads[i]),
                            attempts=attempts[i],
                            kind="error",
                            error=repr(exc),
                            tracebacks=list(tracebacks[i]),
                        )
                        self.health.quarantined += 1
                        break
                    self.health.retries += 1
                    continue
                self.health.tasks += 1
                outcome = value
                break
            outcomes[i] = outcome
            if on_done is not None:
                on_done(i, outcome)

    # -- the supervised pool loop -------------------------------------------
    def _map_supervised(self, fn, payloads: List[Any], on_done) -> List[Any]:
        retry = self.retry
        n = len(payloads)
        outcomes: List[Any] = [_PENDING] * n
        attempts = [0] * n
        tracebacks: List[List[str]] = [[] for _ in range(n)]
        #: (not_before, index) min-heap of payloads awaiting (re)submission.
        ready: List[Tuple[float, int]] = [(0.0, i) for i in range(n)]
        heapq.heapify(ready)
        #: (not_before, index) FIFO of collapse suspects (isolation mode:
        #: probed one at a time until the queue drains).
        suspects: List[Tuple[float, int]] = []
        #: future -> (index, deadline or None)
        running: Dict[Future, Tuple[int, Optional[float]]] = {}

        def finish(i: int, outcome: Any) -> None:
            outcomes[i] = outcome
            if isinstance(outcome, TaskFailure):
                self.health.quarantined += 1
            if on_done is not None:
                on_done(i, outcome)

        def charge(i: int, kind: str, tb_text: str, error: str) -> bool:
            """One failed attempt for payload ``i``; False = quarantined."""
            attempts[i] += 1
            tracebacks[i].append(tb_text)
            if attempts[i] > retry.retries:
                finish(i, TaskFailure(
                    payload_hash=payload_fingerprint(payloads[i]),
                    attempts=attempts[i],
                    kind=kind,
                    error=error,
                    tracebacks=list(tracebacks[i]),
                ))
                return False
            self.health.retries += 1
            return True

        def collapse(victims: List[int]) -> None:
            """Handle a dead pool.  A collapse with exactly one payload
            in flight (an isolation probe, or the tail of a wave) names
            its culprit, which is charged a crash attempt; anything
            wider charges nobody and sends every victim to the
            isolation queue.  Either way the pool restarts."""
            self.health.crashes += 1
            if len(victims) == 1:
                i = victims[0]
                if charge(
                    i, "crash",
                    f"worker pool collapsed while this payload ran alone "
                    f"(attempt {attempts[i]}) — convicted as the poison task",
                    "BrokenProcessPool (convicted: ran alone at collapse)",
                ):
                    suspects.insert(0, (
                        time.monotonic() + retry.delay(attempts[i]), i,
                    ))
            else:
                for v in sorted(victims):
                    suspects.append((0.0, v))
            self._restart_pool()

        while running or ready or suspects:
            # Degraded: the pool is gone for good — finish inline.
            if self._pool_broken:
                remaining = sorted(
                    set(i for _, i in ready)
                    | set(i for _, i in suspects)
                    | set(i for i, _ in running.values())
                )
                running.clear()
                ready.clear()
                suspects.clear()
                self._finish_inline(
                    fn, payloads, remaining,
                    attempts, tracebacks, outcomes, on_done, degraded=True,
                )
                break
            pool = self._get_pool()
            if pool is None:  # pragma: no cover — _pool_broken handles this
                continue

            now = time.monotonic()
            # Submission: isolation probes one suspect at a time; normal
            # mode keeps the pool full (sliding window of ``workers``
            # futures, so submit time ~= start time and deadlines measure
            # execution, not queueing).
            submit_failed = False
            if suspects:
                if not running:
                    not_before, i = suspects[0]
                    if not_before > now:
                        time.sleep(min(not_before - now, BACKOFF_CAP))
                    suspects.pop(0)
                    try:
                        fut = self._submit(pool, fn, payloads[i], attempts[i])
                    except BrokenExecutor:
                        suspects.insert(0, (0.0, i))
                        submit_failed = True
                    else:
                        deadline = (
                            None if retry.timeout is None
                            else time.monotonic() + retry.timeout
                        )
                        running[fut] = (i, deadline)
            else:
                while len(running) < self.workers and ready and ready[0][0] <= now:
                    _, i = heapq.heappop(ready)
                    try:
                        fut = self._submit(pool, fn, payloads[i], attempts[i])
                    except BrokenExecutor:
                        heapq.heappush(ready, (0.0, i))
                        submit_failed = True
                        break
                    deadline = None if retry.timeout is None else now + retry.timeout
                    running[fut] = (i, deadline)

            if submit_failed:
                victims = [i for i, _ in running.values()]
                running.clear()
                collapse(victims)
                continue

            if not running:
                if ready:
                    # Everything queued is backing off; sleep to the
                    # earliest release.
                    time.sleep(max(0.0, min(
                        ready[0][0] - time.monotonic(), BACKOFF_CAP,
                    )))
                continue  # resubmit (ready or suspects) next iteration

            # Harvest.
            done, _ = wait(set(running), timeout=_POLL, return_when=FIRST_COMPLETED)
            lost: List[int] = []
            saw_collapse = False
            for f in done:
                i, _deadline = running.pop(f)
                try:
                    value = f.result()
                except BrokenExecutor:
                    saw_collapse = True
                    lost.append(i)
                    continue
                except CancelledError:
                    lost.append(i)
                    continue
                except Exception as exc:  # noqa: BLE001 — supervision boundary
                    self.health.tasks += 1
                    if charge(i, "error", _format_exception(exc), repr(exc)):
                        heapq.heappush(ready, (
                            time.monotonic() + retry.delay(attempts[i]), i,
                        ))
                    continue
                self.health.tasks += 1
                finish(i, value)

            if saw_collapse:
                victims = lost + [i for i, _ in running.values()]
                running.clear()
                collapse(victims)
                continue
            for i in lost:  # cancelled without a collapse: requeue uncharged
                heapq.heappush(ready, (0.0, i))

            # Deadlines: a hung task cannot be cancelled — charge it,
            # restart the pool, requeue the innocent in-flight payloads
            # uncharged.
            if retry.timeout is not None and running:
                now = time.monotonic()
                expired = [
                    (f, i) for f, (i, dl) in running.items()
                    if dl is not None and now >= dl
                ]
                if expired:
                    self.health.timeouts += len(expired)
                    expired_idx = {i for _, i in expired}
                    for _, i in expired:
                        if charge(
                            i, "timeout",
                            f"task exceeded the {retry.timeout:g}s wall-clock "
                            f"timeout (attempt {attempts[i]})",
                            f"timeout after {retry.timeout:g}s",
                        ):
                            heapq.heappush(ready, (
                                now + retry.delay(attempts[i]), i,
                            ))
                    for i, _dl in running.values():
                        if i not in expired_idx:
                            heapq.heappush(ready, (0.0, i))
                    running.clear()
                    self._restart_pool()

        return outcomes
