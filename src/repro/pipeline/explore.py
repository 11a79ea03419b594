"""Design-space sweeps: run many design points end to end and rank them.

``explore()`` drives the staged pipeline over a list of
:class:`~repro.pipeline.DesignPoint`\\ s — generate (portfolio-expanded),
route, evaluate — and returns a ranked :class:`ExploreResult`.  Every
stage is cached runner work, so an interrupted sweep resumes and an
immediate re-run is 100% cache hits; per-point JSON artifacts (topology
+ metrics + provenance) land in ``out_dir`` for downstream tooling.

Points that are infeasible by construction (the sparsest-cut objective
above the exact-enumeration limit) are skipped up front and reported,
not errored: a sweep over a big grid should degrade, not die.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..runner.cache import write_json_artifact
from ..runner.hashing import config_hash
from ..runner.orchestrator import Runner, ensure_runner
from ..runner.tasks import MCLB_TIME_LIMIT
from ..topology.io import to_dict as topology_to_dict
from .design import MAX_SCOP_ROUTERS, DesignPoint
from .stages import (
    SIM_CUTOFF,
    PointEvaluation,
    evaluate_tables,
    generate_points,
    route_topologies,
)

#: Ranking orders: (attribute, reverse).
RANK_KEYS = {
    "saturation": ("saturation_ns", True),
    "hops": ("avg_hops", False),
    "cut": ("sparsest_cut", True),
    "robustness": ("robustness", True),
}


@dataclass
class ExploreRow:
    """One fully evaluated design point."""

    point: DesignPoint
    name: str
    status: str  # solve status: optimal/feasible/heuristic/frozen
    objective: float
    solve_time_s: float
    evaluation: PointEvaluation

    @property
    def avg_hops(self) -> float:
        return self.evaluation.avg_hops

    @property
    def sparsest_cut(self) -> float:
        return self.evaluation.sparsest_cut

    @property
    def saturation_ns(self) -> float:
        return self.evaluation.saturation_ns

    @property
    def robustness(self) -> Optional[float]:
        return self.evaluation.robustness


@dataclass
class ExploreResult:
    """A ranked design-space sweep."""

    rows: List[ExploreRow]
    skipped: List[Tuple[DesignPoint, str]] = field(default_factory=list)

    def ranked(self, by: str = "saturation") -> List[ExploreRow]:
        attr, rev = RANK_KEYS[by]

        def key(r: ExploreRow):
            value = getattr(r.evaluation, attr)
            # robustness is None when the sweep didn't evaluate it, and
            # saturation is NaN above the simulation size cutoff;
            # unmeasured points sink to the bottom of the ranking.
            if value is None or (isinstance(value, float) and value != value):
                value = float("-inf") if rev else float("inf")
            # avg hops breaks saturation/cut ties toward low latency
            return (value, -r.avg_hops)

        return sorted(self.rows, key=key, reverse=rev)

    def format_table(self, by: str = "saturation") -> str:
        with_rob = any(r.robustness is not None for r in self.rows)
        rob_head = f" {'robust':>6}" if with_rob else ""
        lines = [
            f"{'#':>3} {'design point':<34} {'topology':<22} {'hops':>6} "
            f"{'diam':>4} {'cut':>7} {'sat/ns':>7}{rob_head} {'status':<9}",
            "-" * (98 + (7 if with_rob else 0)),
        ]
        for rank, r in enumerate(self.ranked(by), start=1):
            e = r.evaluation
            rob = (
                ""
                if not with_rob
                else f" {'-':>6}" if e.robustness is None
                else f" {e.robustness:>6.3f}"
            )
            lines.append(
                f"{rank:>3} {r.point.label():<34} {r.name:<22} "
                f"{e.avg_hops:>6.2f} {e.diameter:>4} {e.sparsest_cut:>7.4f} "
                f"{e.saturation_ns:>7.3f}{rob} {r.status:<9}"
            )
        for point, reason in self.skipped:
            lines.append(f"  - skipped {point.label()}: {reason}")
        return "\n".join(lines)

    def best(self, by: str = "saturation") -> Optional[ExploreRow]:
        ranked = self.ranked(by)
        return ranked[0] if ranked else None


def point_artifact_path(
    out_dir: str, point: DesignPoint, eval_config: Optional[dict] = None
) -> str:
    """Stable per-point artifact location (short content-hash suffix).

    The hash covers the routing/evaluation configuration too, so sweeps
    differing only in ``--policy`` or measurement budgets write separate
    artifacts instead of silently overwriting each other.
    """
    digest = config_hash({
        "point": point.as_dict(), "eval": eval_config or {},
    })[:12]
    safe = point.label().replace("/", "_")
    return os.path.join(out_dir, f"{safe}-{digest}.json")


def _num(value: Optional[float]) -> Optional[float]:
    """NaN -> ``null`` in artifacts, keeping them strict JSON (NaN marks
    metrics the sweep skipped, e.g. saturation above the sim cutoff)."""
    if value is not None and isinstance(value, float) and value != value:
        return None
    return value


def _write_artifact(
    out_dir: str, row: ExploreRow, table: Any, eval_config: dict
) -> str:
    path = point_artifact_path(out_dir, row.point, eval_config)
    e = row.evaluation
    doc = {
        "point": row.point.as_dict(),
        "evaluation_config": eval_config,
        "topology": topology_to_dict(table.topology),
        "generation": {
            "status": row.status,
            "objective": row.objective,
            "solve_time_s": row.solve_time_s,
        },
        "metrics": {
            "avg_hops": e.avg_hops,
            "diameter": e.diameter,
            "sparsest_cut": e.sparsest_cut,
            "saturation_packets_node_cycle": _num(e.saturation),
            "saturation_packets_node_ns": _num(e.saturation_ns),
            "robustness": e.robustness,
        },
    }
    write_json_artifact(path, doc)
    return path


def explore(
    points: Sequence[DesignPoint],
    runner: Optional[Runner] = None,
    policy: str = "mclb",
    route_seed: int = 0,
    eval_warmup: int = 300,
    eval_measure: int = 900,
    eval_iters: int = 5,
    out_dir: Optional[str] = None,
    rank_by: str = "saturation",
    robustness: bool = False,
    sim_cutoff: int = SIM_CUTOFF,
) -> ExploreResult:
    """Run a design-space sweep end to end and rank the results.

    ``rank_by`` (``saturation``/``hops``/``cut``/``robustness``) orders
    the written ``ranking*.json`` files and is recorded in them, so
    on-disk rankings agree with what the caller displayed.

    ``robustness=True`` (implied by ``rank_by="robustness"``) adds a
    degraded saturation search per point — the most-central full-duplex
    link down — and records retained capacity as the ``robustness``
    metric (see :func:`~repro.pipeline.stages.evaluate_tables`).

    Points above ``sim_cutoff`` routers are generated, routed, and
    ranked on exact graph metrics but never simulated (saturation
    ``NaN``); ``sim_cutoff=0`` turns the whole sweep metrics-only.
    """
    robustness = robustness or rank_by == "robustness"
    todo: List[DesignPoint] = []
    skipped: List[Tuple[DesignPoint, str]] = []
    for p in points:
        if p.objective == "sparsest_cut" and p.n > MAX_SCOP_ROUTERS:
            skipped.append((
                p,
                f"sparsest-cut objective needs exact cuts "
                f"(n <= {MAX_SCOP_ROUTERS}, point has {p.n})",
            ))
        else:
            todo.append(p)

    if not todo:
        return ExploreResult(rows=[], skipped=skipped)

    with ensure_runner(runner) as runner:
        generations = generate_points(todo, runner=runner)
        tables = route_topologies(
            [g.topology for g in generations],
            policy=policy,
            seed=route_seed,
            runner=runner,
        )
        evaluations = evaluate_tables(
            tables,
            [p.link_class for p in todo],
            seed=route_seed,
            warmup=eval_warmup,
            measure=eval_measure,
            iters=eval_iters,
            runner=runner,
            robustness=robustness,
            sim_cutoff=sim_cutoff,
        )

    rows = [
        ExploreRow(
            point=p,
            name=g.topology.name,
            status=g.status,
            objective=float(g.objective),
            solve_time_s=float(g.solve_time_s),
            evaluation=e,
        )
        for p, g, e in zip(todo, generations, evaluations)
    ]
    result = ExploreResult(rows=rows, skipped=skipped)

    if out_dir is not None:
        eval_config = {
            "policy": policy,
            "route_seed": route_seed,
            # The routing task's fixed MCLB budget, kept so artifact
            # digests hold.
            "route_time_limit": MCLB_TIME_LIMIT,
            "eval_warmup": eval_warmup,
            "eval_measure": eval_measure,
            "eval_iters": eval_iters,
            "engine": runner.engine,
            "robustness": robustness,
            "sim_cutoff": sim_cutoff,
        }
        os.makedirs(out_dir, exist_ok=True)
        for row, table in zip(rows, tables):
            _write_artifact(out_dir, row, table, eval_config)
        ranking_doc = {
            "evaluation_config": eval_config,
            "rank_by": rank_by,
            "ranking": [
                {
                    "point": r.point.as_dict(),
                    "name": r.name,
                    "avg_hops": r.avg_hops,
                    "sparsest_cut": r.sparsest_cut,
                    "saturation_ns": _num(r.saturation_ns),
                    "robustness": r.robustness,
                }
                for r in result.ranked(rank_by)
            ],
            "skipped": [
                {"point": p.as_dict(), "reason": reason}
                for p, reason in skipped
            ],
        }
        # One ranking per sweep configuration (never overwritten by a
        # differently-configured sweep), plus `ranking.json` as the
        # always-current convenience pointer to the latest run.
        digest = config_hash({
            "points": [p.as_dict() for p in points], "eval": eval_config,
        })[:12]
        for name in (f"ranking-{digest}.json", "ranking.json"):
            write_json_artifact(os.path.join(out_dir, name), ranking_doc)
    return result
