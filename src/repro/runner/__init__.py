"""Parallel experiment runner with content-addressed result caching.

The runner is the execution backbone of the reproduction: independent
simulation points, saturation searches, and artifact generations become
pure-data tasks that are hashed, looked up in an on-disk cache, fanned
out across worker processes, and reassembled in deterministic order —
so parallel results are bit-identical to serial, and reruns resume
instead of recomputing.

Execution is *supervised* (timeouts, bounded retries, pool-collapse
recovery, poison-task quarantine — :mod:`~repro.runner.executor`),
observable (:class:`RunHealth`), and crash-safe (the sweep journal,
:mod:`~repro.runner.journal`).

Layers (see ``docs/ARCHITECTURE.md``):

* :mod:`~repro.runner.hashing` — canonical config hashing (cache keys);
* :mod:`~repro.runner.cache` — atomic JSON store, hit/miss accounting;
* :mod:`~repro.runner.executor` — supervised process-pool map, retry
  policy, health counters, seed derivation;
* :mod:`~repro.runner.journal` — crash-safe sweep journal (exact resume);
* :mod:`~repro.runner.tasks` — payload codecs and worker entry points;
* :mod:`~repro.runner.orchestrator` — the :class:`Runner` façade;
* :mod:`~repro.runner.artifacts` — the frozen-artifact pipeline.
"""

from .cache import MISS, CacheStats, ResultCache, default_cache_dir
from .executor import (
    ParallelExecutor,
    QuarantineError,
    RunHealth,
    TaskFailure,
    TaskRetryPolicy,
    default_workers,
    derive_seed,
    payload_fingerprint,
)
from .hashing import canonical_json, config_hash
from .journal import RunJournal
from .orchestrator import (
    ClosedLoopJob,
    RecoveryJob,
    CurveJob,
    RoutingJob,
    Runner,
    SaturationJob,
    ensure_runner,
    task_key,
)
from .tasks import TrafficSpec, decode_table, encode_table

__all__ = [
    "Runner",
    "ensure_runner",
    "CurveJob",
    "SaturationJob",
    "ClosedLoopJob",
    "RecoveryJob",
    "RoutingJob",
    "TrafficSpec",
    "ResultCache",
    "CacheStats",
    "MISS",
    "ParallelExecutor",
    "TaskRetryPolicy",
    "RunHealth",
    "TaskFailure",
    "QuarantineError",
    "RunJournal",
    "derive_seed",
    "default_workers",
    "default_cache_dir",
    "payload_fingerprint",
    "config_hash",
    "canonical_json",
    "task_key",
    "encode_table",
    "decode_table",
]
