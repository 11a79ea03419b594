"""The :class:`Runner`: cache-aware, parallel experiment orchestration.

One object owns the whole execution policy — how many workers, which
cache, whether to bypass it — and every layer above (sweeps, figures,
``repro run``, ``scripts/generate_all.py``) routes its work through it:

1. each logical unit of work becomes a pure-data payload
   (:mod:`repro.runner.tasks`);
2. the payload's content hash is looked up in the on-disk cache;
3. only the misses are fanned out over the process pool;
4. fresh results are written back and everything is returned in the
   original submission order.

Because payloads fully determine results and the cache is keyed by
content, a rerun of any experiment resumes where the last one stopped —
resumability falls out of the design rather than being bolted on.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..routing.tables import RoutingTable
from ..sim.fastnet import DEFAULT_ENGINE, resolve_engine
from ..sim.sweep import SweepResult, assemble_curve
from ..sim.traffic import TrafficSpec
from . import tasks
from .cache import MISS, CacheStats, ResultCache, atomic_write
from .executor import (
    ParallelExecutor,
    QuarantineError,
    RunHealth,
    TaskFailure,
    TaskRetryPolicy,
    default_workers,
)
from .hashing import config_hash
from .journal import JOURNAL_NAME, RunJournal


class EngineError(ValueError):
    """A batch the runner's engine cannot run, refused before any of its
    tasks starts (the turbo engine has no fault support)."""


def task_key(task_name: str, payload: Dict[str, Any]) -> str:
    """The cache key of one task: hash of its kind plus configuration."""
    return config_hash({"task": task_name, "payload": payload})


@dataclass
class CurveJob:
    """One latency-throughput curve to produce (a batch of sim points)."""

    table: RoutingTable
    traffic: TrafficSpec
    rates: Tuple[float, ...]
    name: str
    link_class: Optional[str] = None
    warmup: int = 500
    measure: int = 2000
    seed: int = 0
    #: Optional :class:`~repro.faults.FaultSchedule` applied to every point.
    faults: Any = None


@dataclass
class SaturationJob:
    """One binary-search saturation probe to run."""

    table: RoutingTable
    traffic: TrafficSpec
    lo: float = 0.01
    hi: float = 1.0
    iters: int = 6
    warmup: int = 400
    measure: int = 1200
    seed: int = 0
    #: Optional :class:`~repro.faults.FaultSchedule` applied to every probe.
    faults: Any = None


@dataclass
class RoutingJob:
    """One route + VC-allocate + table-compile unit (generation side).

    The unit the design-space pipeline and ``registry.routed_table``
    fan out: MCLB's LP solve is seconds per topology, so a roster's
    tables parallelize and cache like sim points do.
    """

    topology: Any  # repro.topology.Topology
    policy: str = "mclb"
    seed: int = 0


@dataclass
class ClosedLoopJob:
    """One full-system closed-loop run: a (benchmark, topology) pair.

    The unit the Fig. 8 PARSEC sweep fans out — each pair is an
    independent simulation, so a sweep of W workloads over T topologies
    becomes W×(T+1) of these (the mesh baseline included).
    """

    table: RoutingTable
    workload: Any  # repro.fullsys.workloads.WorkloadProfile
    warmup: int = 600
    measure: int = 2500
    seed: int = 0
    #: Optional fault schedule (requires ``retry``) and retry policy.
    faults: Any = None
    retry: Any = None


@dataclass
class RecoveryJob:
    """One windowed closed-loop run for transient-recovery measurement.

    The ``recovery`` experiment's unit: a (workload, topology, fault
    scenario) cell whose result is the per-window counter series the
    drain/settling metrics derive from.
    """

    table: RoutingTable
    workload: Any  # repro.fullsys.workloads.WorkloadProfile
    faults: Any  # repro.faults.FaultSchedule
    retry: Any  # repro.fullsys.closedloop.RetryPolicy
    total: int = 1400
    window: int = 50
    seed: int = 0


class Runner:
    """Parallel, cached executor for the reproduction's workloads.

    ``parallel=1`` (the default) runs everything inline; results are
    identical at any worker count.  ``no_cache=True`` disables the disk
    cache entirely (the ``--no-cache`` escape hatch).  ``engine`` is the
    open-loop simulation engine of every curve and saturation search
    the runner fans out; closed-loop and recovery runs have one engine.

    Execution is supervised (see :mod:`repro.runner.executor`): ``retry``
    sets the per-task timeout/retry/backoff policy, and ``health``
    reports what supervision had to do.  With a cache, every run also
    keeps a sweep journal (``journal.jsonl`` in the cache root) so a
    killed run resumes exactly; payloads that exhaust their retries are
    quarantined with a failure artifact under ``<cache root>/failures/``.
    """

    def __init__(
        self,
        parallel: int = 1,
        cache_dir: Optional[str] = None,
        no_cache: bool = False,
        engine: str = DEFAULT_ENGINE,
        retry: Optional[TaskRetryPolicy] = None,
    ):
        resolve_engine(engine)  # an unknown name fails here, not in a task
        if parallel <= 0:
            parallel = default_workers()
        self.retry = retry or TaskRetryPolicy()
        self.executor = ParallelExecutor(parallel, retry=self.retry)
        self.cache: Optional[ResultCache] = (
            None if no_cache else ResultCache(cache_dir)
        )
        self.engine = engine
        #: Every TaskFailure quarantined through this runner (for reporting).
        self.failures: List[TaskFailure] = []
        self.journal: Optional[RunJournal] = None
        self._resumable: Set[str] = set()
        if self.cache is not None:
            self.journal = RunJournal(os.path.join(self.cache.root, JOURNAL_NAME))
            self.executor.health.interrupted = len(self.journal.prior_interrupted)
            # Every key the killed run declared: results are cached
            # before they are journaled done, so a kill between the two
            # leaves a finished task with no ``done`` line.
            self._resumable = (
                self.journal.prior_done | self.journal.prior_interrupted
            )

    # -- introspection -------------------------------------------------------
    @property
    def parallel(self) -> int:
        return self.executor.workers

    @property
    def effective_parallel(self) -> int:
        """Workers parallel maps actually reach (1 if the pool is broken)."""
        return self.executor.effective_workers()

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats if self.cache is not None else CacheStats()

    @property
    def health(self) -> RunHealth:
        """The supervision report, with cache-side counters folded in."""
        h = self.executor.health.copy()
        if self.cache is not None:
            h.cache_evictions = self.cache.stats.errors
        return h

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the cache needs none)."""
        self.executor.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the core loop -------------------------------------------------------
    def _record_failure(self, failure: TaskFailure) -> None:
        """Quarantine bookkeeping: remember the failure for reporting,
        journal it, and write the structured failure artifact
        (``<cache root>/failures/<key>.json``) atomically."""
        self.failures.append(failure)
        if self.journal is not None:
            self.journal.quarantined(failure.key, failure.as_dict())
        if self.cache is None:
            return
        directory = os.path.join(self.cache.root, "failures")
        try:
            os.makedirs(directory, exist_ok=True)
            atomic_write(
                os.path.join(directory, f"{failure.key}.json"),
                json.dumps(failure.as_dict(), indent=2).encode(),
            )
        except OSError:
            pass  # reporting must not mask the failure being reported

    def run_tasks(
        self, task_name: str, payloads: Sequence[Dict[str, Any]]
    ) -> List[Any]:
        """Run a batch of same-kind tasks: cache lookup, fan out misses,
        write back, return decoded results in submission order.

        Results that report their own failure (``{"ok": false, ...}``,
        the convention of failure-isolating tasks like ``artifact``) are
        returned but never cached — a retry must actually retry.

        Each fresh result is cached (and journaled) the moment its task
        completes, not when the wave ends — a killed run keeps all its
        finished work.  Payloads that exhaust the retry policy are
        quarantined: a :class:`QuarantineError` carrying their
        :class:`TaskFailure` records is raised *after* the whole wave has
        completed and its successes are cached.
        """
        fn, decode = tasks.TASK_FUNCTIONS[task_name]
        payloads = list(payloads)
        keys = [task_key(task_name, p) for p in payloads]
        results: List[Any] = [MISS] * len(payloads)
        if self.cache is not None:
            for i, key in enumerate(keys):
                results[i] = self.cache.get(key)
                if results[i] is not MISS and key in self._resumable:
                    # A hit the previous (killed) run computed.
                    self._resumable.discard(key)
                    self.executor.health.resumed += 1
        todo = [i for i, r in enumerate(results) if r is MISS]
        if todo:
            # Identical payloads within one batch compute (and cache)
            # once; every duplicate index shares the fresh value.  The
            # final decode still runs per index, so callers get
            # independent objects.
            slot: Dict[str, int] = {}
            unique: List[int] = []
            for i in todo:
                if keys[i] not in slot:
                    slot[keys[i]] = len(unique)
                    unique.append(i)
            unique_keys = [keys[i] for i in unique]
            if self.journal is not None:
                self.journal.wave(task_name, unique_keys)

            def _task_done(j: int, outcome: Any) -> None:
                key = unique_keys[j]
                if isinstance(outcome, TaskFailure):
                    outcome.task = task_name
                    outcome.key = key
                    self._record_failure(outcome)
                    return
                failed = isinstance(outcome, dict) and outcome.get("ok") is False
                if failed:
                    return  # not cached, not journaled: a rerun retries it
                if self.cache is not None:
                    self.cache.put(key, outcome)
                if self.journal is not None:
                    self.journal.done(key)

            fresh = self.executor.map_outcomes(
                fn, [payloads[i] for i in unique], on_done=_task_done,
            )
            for i in todo:
                results[i] = fresh[slot[keys[i]]]
            wave_failures = [o for o in fresh if isinstance(o, TaskFailure)]
            if wave_failures:
                raise QuarantineError(wave_failures)
        return [decode(r) for r in results]

    # -- simulation workloads ------------------------------------------------
    def _refuse_faults(self, jobs: Sequence[Any]) -> None:
        """Raise :class:`EngineError` for a faulted batch on the turbo
        engine, instead of retrying and quarantining each task."""
        if self.engine == "turbo" and any(j.faults is not None for j in jobs):
            raise EngineError(
                "the turbo engine does not support fault schedules; use "
                "the exact fast engine for degraded networks"
            )

    def curves(self, jobs: Sequence[CurveJob]) -> List[SweepResult]:
        """Produce many curves at once, fanning (curve, rate) sim points
        across the pool in waves.

        Serial sweeps stop at the first saturated rate, so blindly
        computing every rate of every curve would waste work past
        saturation.  Instead each wave submits the next rate(s) of every
        still-active curve — enough per curve to keep the pool busy —
        and a curve retires as soon as its ordered prefix saturates.
        With one worker this degenerates to exactly the serial sweep's
        work; at any worker count the assembled curves are identical
        (measurements are independent and classification is shared with
        :func:`repro.sim.sweep.assemble_curve`).

        Seed replicas are one job per seed.  On the ``turbo`` engine a
        wave's points run as lanes of batched engine calls, one per
        shared table, traffic spec and budget, cached under their
        per-point keys (see :meth:`_turbo_lanes`); on any other engine
        each point is a ``sim_point`` task.
        """
        jobs = list(jobs)
        self._refuse_faults(jobs)
        collected: List[List[Any]] = [[] for _ in jobs]  # stats per job, in rate order
        cursor = [0] * len(jobs)
        active = [bool(job.rates) for job in jobs]
        while any(active):
            live = [i for i, a in enumerate(active) if a]
            # Enough tasks per wave to occupy every worker, but no more
            # speculation past a potential saturation point than needed.
            per_job = max(1, -(-self.executor.workers // len(live)))
            wave = [
                (i, rate)
                for i in live
                for rate in jobs[i].rates[cursor[i]: cursor[i] + per_job]
            ]
            for (i, _), stats in zip(wave, self._measure_wave(jobs, wave)):
                collected[i].append(stats)
                cursor[i] += 1
            # Retire curves whose computed prefix already saturates (or
            # whose rates ran out); assemble_curve re-truncates later.
            for i in live:
                job = jobs[i]
                partial = assemble_curve(
                    job.rates, collected[i],
                    name=job.name, link_class=job.link_class,
                )
                saturated = bool(partial.points) and partial.points[-1].saturated
                if cursor[i] >= len(job.rates) or saturated:
                    active[i] = False
        return [
            assemble_curve(
                job.rates, collected[i],
                name=job.name, link_class=job.link_class,
            )
            for i, job in enumerate(jobs)
        ]

    def _measure_wave(
        self, jobs: Sequence[CurveJob], wave: Sequence[Tuple[int, float]]
    ) -> List[Any]:
        """Stats for one wave of ``(job index, rate)`` points, in order:
        batched lanes on the turbo engine, ``sim_point`` tasks on any
        other."""
        if self.engine == "turbo":
            return self._turbo_lanes([(jobs[i], rate) for i, rate in wave])
        return self.run_tasks("sim_point", [
            tasks.sim_point_payload(
                jobs[i].table, jobs[i].traffic, rate,
                jobs[i].warmup, jobs[i].measure, jobs[i].seed,
                engine=self.engine, faults=jobs[i].faults,
            )
            for i, rate in wave
        ])

    def _turbo_lanes(
        self, lanes: Sequence[Tuple[CurveJob, float]]
    ) -> List[Any]:
        """Turbo stats for ``(job, rate)`` lanes, in order, with
        *per-point* cache identity.

        Every lane is keyed as the ``engine="turbo"`` ``sim_point``
        payload it is equivalent to (turbo lanes are
        batch-composition-invariant).  Cached lanes are answered from
        the store; the misses that share a table, traffic spec and
        budget are chunked into ``sim_batch`` tasks across the pool (one
        :meth:`run_tasks` call for all of them), and each fresh lane is
        written back under its per-point key — so a later single-point
        lookup hits the batched result, and a batched lookup hits
        earlier single points.
        """
        keys = [
            task_key("sim_point", tasks.sim_point_payload(
                job.table, job.traffic, rate, job.warmup, job.measure,
                job.seed, engine="turbo",
            ))
            for job, rate in lanes
        ]
        results: List[Any] = [MISS] * len(lanes)
        if self.cache is not None:
            for i, key in enumerate(keys):
                hit = self.cache.get(key)
                if hit is not MISS:
                    results[i] = tasks.stats_from_dict(hit)
        todo = [i for i, r in enumerate(results) if r is MISS]
        groups: Dict[Tuple[Any, ...], List[int]] = {}
        seen: Set[str] = set()
        for i in todo:
            if keys[i] not in seen:
                seen.add(keys[i])
                job = lanes[i][0]
                groups.setdefault((
                    id(job.table), job.traffic, job.warmup, job.measure,
                ), []).append(i)
        chunks: List[List[int]] = []
        for members in groups.values():
            step = -(-len(members) // min(self.executor.workers, len(members)))
            chunks += [members[j: j + step] for j in range(0, len(members), step)]
        payloads = []
        for chunk in chunks:
            job = lanes[chunk[0]][0]
            payloads.append(tasks.sim_batch_payload(
                job.table, job.traffic,
                [(lanes[i][1], lanes[i][0].seed) for i in chunk],
                job.warmup, job.measure,
            ))
        fresh: Dict[str, Any] = {}
        for chunk, stats in zip(chunks, self.run_tasks("sim_batch", payloads)):
            for i, st in zip(chunk, stats):
                fresh[keys[i]] = st
                if self.cache is not None:
                    self.cache.put(keys[i], tasks.stats_to_dict(st))
        for i in todo:
            results[i] = fresh[keys[i]]
        return results

    def saturations(self, jobs: Sequence[SaturationJob]) -> List[float]:
        """Fan whole saturation searches across workers (Figs. 7/11)."""
        jobs = list(jobs)
        self._refuse_faults(jobs)
        payloads = [
            tasks.sat_search_payload(
                j.table, j.traffic, j.lo, j.hi, j.iters,
                j.warmup, j.measure, j.seed,
                engine=self.engine, faults=j.faults,
            )
            for j in jobs
        ]
        return self.run_tasks("sat_search", payloads)

    def closed_loops(self, jobs: Sequence[ClosedLoopJob]) -> List[Any]:
        """Fan closed-loop (benchmark, topology) runs across workers
        (Fig. 8 / the report's full-system section).  Returns
        :class:`~repro.fullsys.speedup.WorkloadResult` objects in
        submission order; cached pairs skip simulation outright.

        Closed-loop and recovery runs take their clock from the table's
        own link class, so their payloads carry ``link_class=None``."""
        payloads = [
            tasks.closed_loop_payload(
                j.table, j.workload, None,
                j.warmup, j.measure, j.seed,
                faults=j.faults,
                retry=j.retry,
            )
            for j in jobs
        ]
        return self.run_tasks("closed_loop", payloads)

    def recoveries(self, jobs: Sequence[RecoveryJob]) -> List[Any]:
        """Fan windowed recovery runs across workers.  Returns each
        job's :class:`~repro.sim.stats.WindowSample` list in submission
        order; the caller derives drain/settling metrics from them."""
        payloads = [
            tasks.recovery_payload(
                j.table, j.workload, None, j.faults, j.retry,
                j.total, j.window, j.seed,
            )
            for j in jobs
        ]
        return self.run_tasks("recovery", payloads)

    # -- generation-side workloads -------------------------------------------
    def tables(self, jobs: Sequence[RoutingJob]) -> List[RoutingTable]:
        """Fan routing-table compilations across workers (cached).

        Cache identity is the link set + routing configuration, never
        the topology's display name, so identically-linked topologies
        share one compilation; each returned table carries its own
        job's name/link class regardless of who computed the entry.
        """
        payloads = [
            tasks.routing_payload(j.topology, j.policy, j.seed) for j in jobs
        ]
        results = self.run_tasks("routing", payloads)
        for job, table in zip(jobs, results):
            table.topology.name = job.topology.name
            table.topology.link_class = job.topology.link_class
        return results


@contextmanager
def ensure_runner(runner: Optional[Runner]) -> Iterator[Runner]:
    """The caller's runner, or a serial, uncached one closed on exit.

    The one meaning of ``runner=None`` for every entry point that fans
    work through a runner: the work runs in this process, one task at a
    time, and nothing is read from or written to disk (no cache, no
    journal, no failure artifacts).
    """
    if runner is not None:
        yield runner
        return
    with Runner(parallel=1, no_cache=True) as serial:
        yield serial
