"""The benchmark's four workloads, each one batch job of the program.

A workload has three parts, all run inside one fresh interpreter:

* ``setup(seed, cache_dir)`` builds the :class:`~repro.runner.Runner`
  (always ``parallel=1``, so no worker pool) and, for the warm
  workloads, routes their tables into the run's fresh cache;
* ``run(ctx)`` is the timed phase;
* ``outputs(result)`` flattens what the run produced into one entry per
  operation (routing table, sim point, saturation search, closed-loop
  run, generation task), keyed so that references can be compared
  entry by entry.

Every number that enters ``outputs`` is a simulated or computed result
of the program, never a timing, so outputs repeat exactly.

The timed phases repeat the fan-out of ``fig6_curves``, ``fig8_results``
and ``explore`` (see ``ROUTE_SEED``) and call the same library functions
below it.  A later change to the fan-out inside those three functions
does not show here; a change to anything they call does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

#: Every workload routes (and explore-sa generates) with seed 0, as its
#: command does by default, and takes the benchmark seed as the seed of
#: its simulations only.  VC assignment's cost varies up to 3x between
#: routing seeds, so this keeps the work, timed and set-up, the same on
#: every seed.  The library functions tie the two seeds together, so
#: each workload repeats its command's fan-out around the same calls.
ROUTE_SEED = 0

#: ``repro run fig6-*``'s default budget, and ``repro run fig8 --full``'s.
FIG6_BUDGET = {"warmup": 250, "measure": 800}
FIG8_BUDGET = {"warmup": 300, "measure": 2000}

#: Consecutive simulation seeds sweep-warm sweeps per job, starting at
#: the job's seed.
SWEEP_SEEDS = 2

#: Simulated-annealing steps per design point for explore-sa: enough that
#: generation is the largest layer of the workload.
EXPLORE_SA_STEPS = 6000


def _num(x: Any) -> Any:
    """A float rounded to 12 significant digits (plain JSON, stable repr)."""
    return float(f"{float(x):.12g}")


def _table_id(table) -> List[Any]:
    """A routed table's VC count and content digest."""
    from repro.runner import config_hash, encode_table

    return [int(table.num_vcs), config_hash(encode_table(table))[:16]]


def _curve_outputs(prefix: str, curves: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name, curve in curves.items():
        out[f"routing/{prefix}/{name}"] = _num(curve.saturation_throughput_ns)
        for p in curve.points:
            out[f"sim_point/{prefix}/{name}/{p.offered_rate:g}"] = [
                _num(p.throughput_packets_node_cycle),
                _num(p.avg_latency_cycles), bool(p.saturated),
            ]
    return out


def _small_roster():
    from repro.experiments.registry import roster

    return roster("small", 20, allow_generate=False)


def _route_into_cache(runner, entries) -> float:
    """Route ``entries`` through ``Runner.tables`` (filling the cache);
    returns the seconds it took."""
    from repro.runner import RoutingJob

    t0 = time.perf_counter()
    runner.tables([
        RoutingJob(topology=e.topology, policy=e.policy, seed=ROUTE_SEED)
        for e in entries
    ])
    return time.perf_counter() - t0


def _fig6_sweep(runner, traffic: str, link_classes, seed: int):
    """``fig6_curves``' runner fan-out: one curve per roster entry of
    ``link_classes``, its table routed with ``ROUTE_SEED``, its sim
    points run with ``seed``.  Returns the curves by name and the jobs."""
    from repro.experiments.fig6 import DEFAULT_RATES, MEMORY_RATES
    from repro.experiments.registry import roster, routed_entry
    from repro.runner import CurveJob, TrafficSpec
    from repro.topology import standard_layout

    layout = standard_layout(20)
    spec, rates = {
        "coherence": (TrafficSpec.uniform(layout.n), DEFAULT_RATES),
        "memory": (TrafficSpec.memory(layout), MEMORY_RATES),
    }[traffic]
    cast = [
        (cls, entry, routed_entry(entry, seed=ROUTE_SEED, runner=runner))
        for cls in link_classes
        for entry in roster(cls, 20, allow_generate=False, runner=runner)
    ]
    jobs = [
        CurveJob(table=table, traffic=spec, rates=tuple(rates),
                 name=entry.name, link_class=cls, seed=seed, **FIG6_BUDGET)
        for cls, entry, table in cast
    ]
    return {j.name: c for j, c in zip(jobs, runner.curves(jobs))}, jobs


# -- fig6-cold ---------------------------------------------------------------

def _fig6_cold_setup(seed: int, cache_dir: str) -> Dict[str, Any]:
    from repro.runner import Runner

    return {"runner": Runner(parallel=1, no_cache=True), "seed": seed,
            "route_s": 0.0}


def _fig6_cold_run(ctx: Dict[str, Any]) -> Dict[str, Any]:
    """``repro run fig6-coherence --parallel 1 --no-cache``: all three
    link classes, routed cold."""
    curves, jobs = _fig6_sweep(
        ctx["runner"], "coherence", ("small", "medium", "large"), ctx["seed"],
    )
    return {"coherence": curves, "tables": {j.name: j.table for j in jobs}}


def _fig6_outputs(result: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in result.items():
        if key == "tables":
            for name, table in value.items():
                out[f"routing/table/{name}"] = _table_id(table)
        else:
            out.update(_curve_outputs(key, value))
    return out


# -- sweep-warm ----------------------------------------------------------------

def _sweep_warm_setup(seed: int, cache_dir: str) -> Dict[str, Any]:
    from repro.runner import Runner

    runner = Runner(parallel=1, cache_dir=cache_dir)
    route_s = _route_into_cache(runner, _small_roster())
    return {"runner": runner, "seed": seed, "route_s": route_s}


def _sweep_warm_run(ctx: Dict[str, Any]) -> Dict[str, Any]:
    """``repro run fig6-memory``'s sweep once tables are cached: the
    Fig. 6 small class under coherence and memory traffic, per seed."""
    out = {}
    for seed in range(ctx["seed"], ctx["seed"] + SWEEP_SEEDS):
        for traffic in ("coherence", "memory"):
            out[f"{traffic}/{seed}"], _ = _fig6_sweep(
                ctx["runner"], traffic, ("small",), seed,
            )
    return out


# -- loop-warm -----------------------------------------------------------------

def _loop_warm_setup(seed: int, cache_dir: str) -> Dict[str, Any]:
    from repro.experiments.registry import Entry, NDBT
    from repro.runner import Runner
    from repro.topology import expert_topology

    runner = Runner(parallel=1, cache_dir=cache_dir)
    entries = [Entry(expert_topology("Mesh", 20), NDBT)] + _small_roster()
    route_s = _route_into_cache(runner, entries)
    return {"runner": runner, "seed": seed, "route_s": route_s}


def _loop_warm_run(ctx: Dict[str, Any]) -> Any:
    """``fig8_results`` over every PARSEC profile on the small class: the
    mesh and roster tables come from the cache, the closed-loop runs use
    the benchmark seed."""
    from repro.experiments.fig8 import Fig8Result
    from repro.experiments.registry import (
        NDBT, roster, routed_entry, routed_table,
    )
    from repro.fullsys import geomean_speedups, parsec_sweep
    from repro.fullsys.workloads import PARSEC
    from repro.topology import expert_topology

    runner = ctx["runner"]
    mesh = routed_table(
        expert_topology("Mesh", 20), NDBT, seed=ROUTE_SEED, runner=runner,
    )
    tables = {
        e.name: routed_entry(e, seed=ROUTE_SEED, runner=runner)
        for e in roster("small", 20, include_lpbt=False,
                        allow_generate=False, runner=runner)
    }
    rows = parsec_sweep(tables, mesh, workloads=PARSEC, seed=ctx["seed"],
                        runner=runner, **FIG8_BUDGET)
    return Fig8Result(rows=rows, geomean=geomean_speedups(rows))


def _loop_warm_outputs(result: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for row in result.rows:
        for name in sorted(row.speedups):
            out[f"closed_loop/{row.workload}/{name}"] = [
                _num(row.speedups[name]), _num(row.latency_reductions[name]),
            ]
    return out


# -- explore-sa ----------------------------------------------------------------

def _explore_setup(seed: int, cache_dir: str) -> Dict[str, Any]:
    from repro.runner import Runner

    return {"runner": Runner(parallel=1, cache_dir=cache_dir), "seed": seed,
            "route_s": 0.0}


def _explore_run(ctx: Dict[str, Any]) -> Any:
    """``repro explore --grids 4x5 --link-classes small,medium
    --objectives latency --strategy sa --no-frozen``: the same design
    points and the same generate, route and evaluate stages as
    ``explore``, without its artifact files.  The benchmark seed is the
    saturation searches' seed."""
    from repro.pipeline import ExploreResult, ExploreRow, design_grid
    from repro.pipeline.stages import (
        evaluate_tables, generate_points, route_topologies,
    )

    runner = ctx["runner"]
    points = design_grid(
        ["4x5"], link_classes=["small", "medium"], objectives=["latency"],
        strategies=("sa",), seeds=(ROUTE_SEED,), radix=4, diameter_bound=None,
        time_limit=30.0, sa_steps=EXPLORE_SA_STEPS, max_iterations=6,
        backend="scipy", use_frozen=False,
    )
    gens = generate_points(points, runner=runner)
    tables = route_topologies(
        [g.topology for g in gens], policy="mclb", seed=ROUTE_SEED,
        runner=runner,
    )
    evals = evaluate_tables(
        tables, [p.link_class for p in points], seed=ctx["seed"],
        warmup=250, measure=800, iters=5, runner=runner,
    )
    result = ExploreResult(rows=[
        ExploreRow(point=p, name=g.topology.name, status=g.status,
                   objective=float(g.objective),
                   solve_time_s=float(g.solve_time_s), evaluation=e)
        for p, g, e in zip(points, gens, evals)
    ])
    return result, tables


def _explore_outputs(result: Any) -> Dict[str, Any]:
    ranking, tables = result
    table_of = {r.point.label(): t for r, t in zip(ranking.rows, tables)}
    out: Dict[str, Any] = {}
    for rank, row in enumerate(ranking.ranked("saturation"), start=1):
        label = row.point.label()
        out[f"generation/{label}"] = [row.name, _num(row.objective)]
        out[f"routing/{label}"] = [
            rank, _num(row.avg_hops), int(row.evaluation.diameter),
            _num(row.sparsest_cut),
        ] + _table_id(table_of[label])
        out[f"sat_search/{label}"] = _num(row.saturation_ns)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], Dict[str, Any]]
    run: Callable[[Dict[str, Any]], Any]
    outputs: Callable[[Any], Dict[str, Any]]
    #: Modules the job imports before timing starts.
    modules: List[str] = field(default_factory=list)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig6-cold",
            _fig6_cold_setup, _fig6_cold_run, _fig6_outputs,
            ["repro.experiments.fig6", "repro.experiments.registry"],
        ),
        Workload(
            "sweep-warm",
            _sweep_warm_setup, _sweep_warm_run, _fig6_outputs,
            ["repro.experiments.fig6", "repro.experiments.registry"],
        ),
        Workload(
            "loop-warm",
            _loop_warm_setup, _loop_warm_run, _loop_warm_outputs,
            ["repro.experiments.fig8", "repro.fullsys.fastloop"],
        ),
        Workload(
            "explore-sa",
            _explore_setup, _explore_run, _explore_outputs,
            ["repro.pipeline.explore", "repro.core.search"],
        ),
    )
}
