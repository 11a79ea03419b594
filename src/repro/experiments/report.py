"""Generate the paper-vs-measured experiment report (EXPERIMENTS.md body).

``generate_report(fast=True)`` runs reduced-budget versions of every
experiment and renders a markdown report; ``fast=False`` uses the bench
budgets.  The committed EXPERIMENTS.md is a frozen run of this generator
plus hand-written commentary.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, Optional

from .fig1 import fig1_points, pareto_front
from .fig6 import fig6_curves
from .fig7 import fig7_bars, mclb_gain_summary
from .fig8 import fig8_results
from .fig9 import fig9_rows, ns_large_vs_small_dynamic
from .table2 import table2

if TYPE_CHECKING:
    from ..runner import Runner


def generate_report(fast: bool = True, runner: Optional["Runner"] = None) -> str:
    """Render the full report through one runner: it fans the
    simulation-heavy sections (Figs. 6, 7, and 8) across workers, the
    generation-heavy sections (Table II, Figs. 1 and 9) through the
    pipeline's cached ``generation``/``routing`` stages, and caches
    every sim point and closed-loop run, making regeneration
    incremental — a report rerun never re-solves a MILP, re-routes a
    topology, or re-anneals a design it has already produced."""
    from ..runner import ensure_runner

    with ensure_runner(runner) as runner:
        return _render(fast, runner)


def _render(fast: bool, runner: "Runner") -> str:
    out = io.StringIO()
    w = out.write

    w("# Experiment report (generated)\n\n")
    w("Paper values from Green & Thottethodi, ICPP 2024; measured values\n")
    w("from this reproduction's substrates (see DESIGN.md substitutions).\n\n")

    # ---- Table II -----------------------------------------------------------
    w("## Table II — topology metrics (20 routers)\n\n")
    w("| class | topology | links (paper) | diam (paper) | hops (paper) | biBW (paper) |\n")
    w("|---|---|---|---|---|---|\n")
    for row in table2(20):
        m = row.measured
        if row.paper:
            pl, pd, ph, pb = row.paper
            w(
                f"| {row.link_class} | {m.name} | {m.num_links} ({pl}) | "
                f"{m.diameter} ({pd}) | {m.avg_hops:.2f} ({ph:.2f}) | "
                f"{m.bisection_bw} ({pb}) |\n"
            )
        else:
            w(
                f"| {row.link_class} | {m.name} | {m.num_links} (-) | "
                f"{m.diameter} (-) | {m.avg_hops:.2f} (-) | "
                f"{m.bisection_bw} (-) |\n"
            )
    w("\n")

    # ---- Fig. 1 ---------------------------------------------------------------
    w("## Fig. 1 — latency vs saturation-throughput frontier\n\n")
    pts = fig1_points(20, runner=runner)
    front = {p.name for p in pareto_front(pts)}
    w(f"Pareto frontier: {sorted(front)}\n\n")
    non_ns = [n for n in front if not n.startswith("NS-")]
    w(
        f"Experts on/near the frontier: {non_ns or 'none'} "
        "(paper: only Kite-Small).\n\n"
    )

    # ---- Fig. 6 ---------------------------------------------------------------
    measure = 800 if fast else 1500
    w("## Fig. 6 — synthetic traffic saturation (packets/node/ns)\n\n")
    for kind in ("coherence", "memory"):
        res = fig6_curves(kind, warmup=250, measure=measure, runner=runner)
        w(f"### {kind}\n\n| topology | saturation |\n|---|---|\n")
        for name, sat in res.saturation_ranking():
            w(f"| {name} | {sat:.3f} |\n")
        if kind == "coherence":
            w(
                f"\nbest NS / best expert: "
                f"{res.best_netsmith_vs_best_expert():.2f}x "
                "(paper: 1.18x-1.75x across classes)\n"
            )
        w("\n")

    # ---- Fig. 7 ---------------------------------------------------------------
    w("## Fig. 7 — topology vs routing isolation (large class)\n\n")
    bars = fig7_bars("large", warmup=200, measure=600 if fast else 1000,
                     runner=runner)
    w("| topology | routing | measured | cut bound | occ bound | routed bound |\n")
    w("|---|---|---|---|---|---|\n")
    for b in bars:
        w(
            f"| {b.topology} | {b.routing} | {b.measured_saturation:.3f} | "
            f"{b.cut_bound:.3f} | {b.occupancy_bound:.3f} | {b.routed_bound:.3f} |\n"
        )
    gains = mclb_gain_summary(bars)
    w(f"\nMCLB/NDBT gains: { {k: round(v, 2) for k, v in gains.items()} }\n\n")

    # ---- Fig. 8 ---------------------------------------------------------------
    w("## Fig. 8 — PARSEC geomean speedups vs mesh\n\n")
    from ..fullsys.workloads import PARSEC
    from .registry import FIG8_FAST_WORKLOADS, fig8_budget

    # Same configuration as the ``fig8`` experiment, so the report's
    # full-system section is served from the same cached closed-loop
    # results as ``repro run fig8``.
    subset = PARSEC if not fast else [
        wl for wl in PARSEC if wl.name in FIG8_FAST_WORKLOADS
    ]
    res8 = fig8_results(
        workloads=subset, max_entries_per_class=3,
        runner=runner, **fig8_budget(fast),
    )
    w("| topology | geomean speedup |\n|---|---|\n")
    for name, v in sorted(res8.geomean.items(), key=lambda kv: -kv[1]):
        w(f"| {name} | {v:.3f} |\n")
    w(
        f"\nbest: {res8.best_topology()} "
        "(paper: NetSmith leads with up to 11% mean speedup)\n\n"
    )

    # ---- Fig. 9 ---------------------------------------------------------------
    w("## Fig. 9 — power/area vs mesh\n\n")
    rows9 = fig9_rows()
    w("| topology | static | dynamic | total power | wire area |\n")
    w("|---|---|---|---|---|\n")
    for r in rows9:
        n = r.normalized
        w(
            f"| {r.name} | {n['static_power']:.2f} | {n['dynamic_power']:.2f} | "
            f"{n['total_power']:.2f} | {n['wire_area']:.2f} |\n"
        )
    ratio = ns_large_vs_small_dynamic(rows9)
    w(f"\nNS large/small dynamic power: {ratio:.2f} (paper ~0.83)\n")
    return out.getvalue()
