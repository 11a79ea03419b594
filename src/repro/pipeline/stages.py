"""The staged generate -> route -> evaluate pipeline over design points.

Each stage is a batch of content-addressed runner tasks (families
``generation``, ``routing``, and the existing ``sat_search``), so MILP
solves, annealing runs, MCLB table compilations, and saturation probes
all fan across worker processes and cache exactly like sim points do:
a re-run of any sweep is pure cache hits, and an interrupted sweep
resumes at task granularity.

Portfolio expansion happens here, in two waves:

1. every portfolio point's SA unit runs (alongside all plain ``sa``
   and ``milp`` points);
2. every portfolio point's exact unit runs, warm-started from its SA
   result where the backend can consume it (``initial_incumbent``
   through ``solve_bnb`` for distance objectives on the ``bnb``
   backend, an initial lazy cut for SCOp on either backend);

then a best-wins merge picks, per point, the better of the two by
objective value within the point's budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..runner import tasks as _tasks
from ..sim.traffic import TrafficSpec
from ..runner.orchestrator import Runner, RoutingJob, SaturationJob, ensure_runner
from .design import DesignPoint

#: Objectives where smaller is better (sparsest cut maximizes).
_MINIMIZING = {"latency": True, "shuffle": True, "sparsest_cut": False}

#: Largest router count evaluated with cycle-accurate saturation
#: searches; larger candidates are ranked on exact graph metrics alone
#: (their ``bfs`` tables ship a trivial single-VC layering — see
#: ``LAYERING_CUTOFF`` in :mod:`repro.routing.dest_tree` — and a
#: simulation sweep at that scale would dwarf the generation cost).
SIM_CUTOFF = 128


def _failure(res: Any) -> Optional[str]:
    """The error string of a failed generation result, else ``None``.

    ``generation`` tasks decode to a :class:`GenerationResult` on
    success and to the raw ``{"ok": false, "error": ...}`` dict on
    failure (failures are data, never cached).
    """
    if res is None:
        return "unknown"
    if isinstance(res, dict):
        return str(res.get("error", "unknown"))
    return None


def _better(objective: str, a: Any, b: Any) -> Any:
    """Best-wins merge of two generation results (failures lose).

    Ties go to ``b`` — the exact wave-2 half in portfolio merges — so a
    proven-optimal result (status/mip_gap certificates included) is
    never discarded for an equal-valued heuristic one.
    """
    if _failure(a) is not None:
        return b
    if _failure(b) is not None:
        return a
    if _MINIMIZING[objective]:
        return a if a.objective < b.objective else b
    return a if a.objective > b.objective else b


def generate_points(
    points: Sequence[DesignPoint],
    runner: Optional[Runner] = None,
    timings: Optional[Dict[str, float]] = None,
) -> List[Any]:
    """Generate one topology per design point (stage 1).

    Returns :class:`~repro.core.netsmith.GenerationResult` objects in
    submission order.  Portfolio points expand into an SA wave and a
    warm-started exact wave with a best-wins merge; a point whose every
    strategy failed raises with the collected errors.

    Pass a dict as ``timings`` to receive per-wave wall-clock seconds
    (``wave1_s``, ``wave2_s``) and the worker count each wave could
    actually fan out to (``wave1_workers``, ``wave2_workers`` — the
    pool's effective workers capped by the wave's task count) —
    observability for the generation benchmark, so scale regressions
    are attributable to a wave and a degenerate pool on the exact wave
    is detectable rather than silently folded into the aggregate.
    """
    import time as _time

    points = list(points)
    for p in points:
        p.validate()
    with ensure_runner(runner) as r:
        results: List[Optional[Any]] = [None] * len(points)
        errors: Dict[int, List[str]] = {}

        # Wave 1: all atomic points, plus every portfolio point's SA half.
        wave1: List[Tuple[int, Dict[str, Any]]] = []
        for i, p in enumerate(points):
            unit = replace(p, strategy="sa") if p.strategy == "portfolio" else p
            wave1.append((i, _tasks.generation_payload(unit)))
        wave_t0 = _time.perf_counter()
        wave1_results = r.run_tasks("generation", [pl for _, pl in wave1])
        if timings is not None:
            timings["wave1_s"] = _time.perf_counter() - wave_t0
            timings["wave1_workers"] = min(r.effective_parallel, len(wave1))
        for (i, payload), res in zip(wave1, wave1_results):
            results[i] = res
            err = _failure(res)
            if err is not None:
                errors.setdefault(i, []).append(
                    f"{payload['point']['strategy']}: {err}"
                )

        # Wave 2: the exact half of each portfolio point, seeded from SA.
        wave2: List[Tuple[int, Dict[str, Any]]] = []
        for i, p in enumerate(points):
            if p.strategy != "portfolio":
                continue
            sa = results[i]
            exact = replace(p, strategy="milp")
            if _failure(sa) is not None:
                wave2.append((i, _tasks.generation_payload(exact)))
            elif p.objective == "sparsest_cut":
                wave2.append((i, _tasks.generation_payload(
                    exact, seed_links=sa.topology.directed_links,
                )))
            elif p.backend == "bnb":
                # solve_bnb is the only backend with a MIP-start hook;
                # a seed HiGHS cannot consume stays out of the payload
                # (and therefore out of the cache key).
                wave2.append((i, _tasks.generation_payload(
                    exact, seed_incumbent=sa.objective,
                )))
            else:
                wave2.append((i, _tasks.generation_payload(exact)))
        if timings is not None:
            timings["wave2_s"] = 0.0
            timings["wave2_workers"] = 0
        if wave2:
            wave_t0 = _time.perf_counter()
            wave2_results = r.run_tasks("generation", [pl for _, pl in wave2])
            if timings is not None:
                timings["wave2_s"] = _time.perf_counter() - wave_t0
                timings["wave2_workers"] = min(r.effective_parallel, len(wave2))
            for (i, _payload), res in zip(wave2, wave2_results):
                err = _failure(res)
                if err is not None:
                    errors.setdefault(i, []).append(f"milp: {err}")
                results[i] = _better(points[i].objective, results[i], res)

        failed = [i for i, res in enumerate(results) if _failure(res) is not None]
        if failed:
            detail = "; ".join(
                f"{points[i].label()} ({'; '.join(errors.get(i, ['unknown']))})"
                for i in failed
            )
            raise RuntimeError(f"generation failed for: {detail}")
        return results


def generate_point(point: DesignPoint, runner: Optional[Runner] = None):
    """Single-point convenience wrapper over :func:`generate_points`."""
    return generate_points([point], runner=runner)[0]


def route_topologies(
    topologies: Sequence[Any],
    policy: str = "mclb",
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> List[Any]:
    """Route + VC-allocate + compile tables for many topologies (stages
    2-3), fanned across workers as ``routing`` tasks keyed by link set
    (identically-linked topologies share one compilation)."""
    jobs = [
        RoutingJob(topology=topo, policy=policy, seed=seed)
        for topo in topologies
    ]
    with ensure_runner(runner) as r:
        return r.tables(jobs)


@dataclass
class PointEvaluation:
    """Stage-4 measurements for one routed design point."""

    avg_hops: float
    diameter: int
    sparsest_cut: float
    #: Measured saturation injection rate, packets/node/cycle; ``NaN``
    #: when the point sits above the simulation size cutoff.
    saturation: float
    #: The same, in packets/node/ns at the link class's clock.
    saturation_ns: float
    #: Degraded/baseline saturation ratio under the canonical fault (the
    #: most-central full-duplex link down); ``None`` when robustness
    #: evaluation was not requested.
    robustness: Optional[float] = None


def evaluate_tables(
    tables: Sequence[Any],
    link_classes: Sequence[Optional[str]],
    seed: int = 0,
    warmup: int = 300,
    measure: int = 900,
    iters: int = 5,
    runner: Optional[Runner] = None,
    robustness: bool = False,
    sim_cutoff: int = SIM_CUTOFF,
) -> List[PointEvaluation]:
    """Evaluate routed tables: graph metrics locally (cheap, cuts exact
    up to ``EXACT_CUT_LIMIT`` routers) plus a uniform-traffic saturation
    search per table through the cached ``sat_search`` family.

    With ``robustness=True`` each table also runs a degraded saturation
    search under its canonical fault — the most-central full-duplex link
    down from cycle 0 — batched into the same ``sat_search`` fan-out;
    the evaluation's ``robustness`` is the degraded/baseline ratio
    (retained capacity, higher is better).

    Tables with more than ``sim_cutoff`` routers skip the simulation
    stage entirely (graph metrics only): ``saturation`` and
    ``saturation_ns`` come back ``NaN`` and ``robustness`` stays
    ``None``.  ``sim_cutoff=0`` disables simulation for the whole batch.
    """
    from ..topology import (
        CLASS_CLOCK_GHZ,
        average_hops,
        diameter as topo_diameter,
        sparsest_cut,
    )

    simulated = [i for i, t in enumerate(tables) if t.topology.n <= sim_cutoff]
    with ensure_runner(runner) as r:
        jobs = [
            SaturationJob(
                table=tables[i],
                traffic=TrafficSpec.uniform(tables[i].topology.n),
                warmup=warmup,
                measure=measure,
                iters=iters,
                seed=seed,
            )
            for i in simulated
        ]
        if robustness:
            from ..faults import central_link_faults

            jobs = jobs + [
                replace(j, faults=central_link_faults(j.table.topology, 1))
                for j in jobs
            ]
        results = r.saturations(jobs)
    saturations = [float("nan")] * len(tables)
    degraded: List[Optional[float]] = [None] * len(tables)
    for k, i in enumerate(simulated):
        saturations[i] = results[k]
        if robustness:
            degraded[i] = results[len(simulated) + k]

    out: List[PointEvaluation] = []
    for table, cls, sat, deg in zip(tables, link_classes, saturations, degraded):
        topo = table.topology
        clock = CLASS_CLOCK_GHZ.get(cls or topo.link_class or "", 1.0)
        out.append(PointEvaluation(
            avg_hops=average_hops(topo),
            diameter=topo_diameter(topo),
            sparsest_cut=sparsest_cut(topo).value,
            saturation=float(sat),
            saturation_ns=float(sat) * clock,
            robustness=(
                None if deg is None
                else (float(deg) / float(sat) if sat > 0 else 0.0)
            ),
        ))
    return out
