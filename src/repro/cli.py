"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's pipeline:

* ``generate`` — discover a topology (LatOp/SCOp/ShufOpt/SA) and save it;
* ``evaluate`` — Table II-style metrics for a saved or named topology;
* ``route``    — MCLB/NDBT route a topology, report channel loads + VCs;
* ``simulate`` — latency/throughput sweep under a traffic pattern;
* ``explore``  — design-space sweep: generate/route/evaluate a grid of
  design points (arbitrary layouts) through the cached pipeline and
  rank them;
* ``run``      — named paper experiments through the parallel runner;
* ``report``   — regenerate the paper's experiment report (EXPERIMENTS-style).

``simulate``, ``run``, and ``report`` accept the runner flags
``--parallel N`` (fan sim points across N worker processes; 0 = all
cores), ``--cache-dir PATH`` (on-disk result cache location, default
``$REPRO_CACHE_DIR`` or ``.repro-cache``), ``--no-cache`` (bypass the
cache entirely), and ``--engine fast|turbo`` for open-loop simulation
(the default fast engine — flat arrays, pre-generated vectorized
traffic traces, one compiled network shared per routed topology — or
the batched turbo engine: statistically validated against the fast
engine rather than bit-exact, and without fault-schedule support).
``simulate`` additionally takes ``--seeds N`` (N seed replicas per
rate, reported as mean +- 95% CI; on the fast engine they combine with
``--faults``, and turbo advances each wave's replicas as lanes of one
batched call).  The runner flags cover the open-loop sweeps
(fig6/7/10/11) and the full-system closed-loop runs (``repro run
fig8``/``recovery``), whose (benchmark, topology) runs fan out and cache
the same way; closed-loop runs always use the fast closed-loop engine
and ignore ``--engine``.  Results are bit-identical at any worker
count; a cached rerun skips simulation outright.

Execution is supervised: ``--task-timeout SEC`` bounds each task
attempt's wall clock, ``--task-retries N`` bounds retries for transient
failures/hangs/worker crashes, and ``--health`` prints the supervision
report (retries, timeouts, pool restarts, quarantines, cache
evictions).  A run with quarantined tasks prints a per-cell failure
table and exits with status 2; a SIGINT-killed run resumes exactly from
the sweep journal.  See ``docs/CLI.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .sim.burst import BURST_KINDS
from .sim.traffic import GRID_KINDS, TRAFFIC_KINDS, TrafficSpec
from .topology import EXACT_CUT_LIMIT


def _load_or_named(spec: str, n_routers: int):
    """A topology from a JSON file path, an expert name, or ``ns:<kind>:<class>``."""
    from .core.pregenerated import netsmith_topology
    from .topology import expert_topology, load
    from .topology.expert import EXPERT_FAMILIES

    if spec.endswith(".json"):
        return load(spec)
    if spec.startswith("ns:"):
        _, kind, cls = spec.split(":")
        return netsmith_topology(kind, cls, n_routers)
    if spec in EXPERT_FAMILIES:
        return expert_topology(spec, n_routers)
    raise SystemExit(
        f"unknown topology {spec!r}: use a .json path, an expert name "
        f"({sorted(EXPERT_FAMILIES)}), or ns:<latop|scop|shufopt>:<class>"
    )


def cmd_generate(args) -> int:
    from .core import (
        NetSmithConfig,
        anneal_topology,
        generate_latop,
        generate_scop,
        generate_shufopt,
    )
    from .topology import Layout, ascii_art, save

    layout = Layout(rows=args.rows, cols=args.cols)
    cfg = NetSmithConfig(
        layout=layout,
        link_class=args.link_class,
        radix=args.radix,
        symmetric=args.symmetric,
        diameter_bound=args.diameter,
    )
    if args.objective == "latency":
        result = generate_latop(cfg, time_limit=args.time_limit)
    elif args.objective == "sparsest-cut":
        result, _ = generate_scop(cfg, time_limit=args.time_limit / 4)
    elif args.objective == "shuffle":
        result = generate_shufopt(cfg, time_limit=args.time_limit)
    else:  # sa
        result = anneal_topology(cfg, objective="latency", steps=args.sa_steps)
    topo = result.topology
    print(ascii_art(topo))
    print(f"objective={result.objective:.2f} status={result.status}")
    if args.out:
        save(topo, args.out)
        print(f"saved to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from .topology import summarize

    topo = _load_or_named(args.topology, args.routers)
    s = summarize(topo)
    print(f"{'topology':<20} {s.name}")
    print(f"{'links':<20} {s.num_links}")
    print(f"{'diameter':<20} {s.diameter}")
    print(f"{'avg hops':<20} {s.avg_hops:.3f}")
    print(f"{'bisection BW':<20} {s.bisection_bw}")
    print(f"{'sparsest cut':<20} {s.sparsest_cut_value:.4f}")
    return 0


def cmd_route(args) -> int:
    from .core import mclb_route
    from .routing import assign_vcs, build_routing_table, channel_loads, ndbt_route

    topo = _load_or_named(args.topology, args.routers)
    if args.policy == "mclb":
        routes = mclb_route(topo, time_limit=args.time_limit).routes
    else:
        routes = ndbt_route(topo, seed=args.seed)
    loads = channel_loads(routes)
    vca = assign_vcs(routes, seed=args.seed)
    table = build_routing_table(routes, vca)
    table.validate()
    print(f"policy={args.policy} max_load={loads.max_load} "
          f"mean_load={loads.mean_load:.2f} vcs={vca.num_vcs}")
    print(f"saturation bound: {loads.saturation_injection(topo.n):.3f} "
          f"flits/node/cycle")
    return 0


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """An argparse type: a finite number greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _make_runner(args):
    from .runner import Runner, TaskRetryPolicy

    retry = None
    task_timeout = getattr(args, "task_timeout", None)
    task_retries = getattr(args, "task_retries", None)
    if task_timeout is not None or task_retries is not None:
        default = TaskRetryPolicy()
        retry = TaskRetryPolicy(
            timeout=task_timeout,
            retries=default.retries if task_retries is None else task_retries,
        )
    return Runner(
        parallel=args.parallel,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        engine=getattr(args, "engine", "fast"),
        retry=retry,
    )


def _failure_table(failures) -> str:
    """One row per quarantined task: what failed, how, after how many tries."""
    lines = [f"{'task':<12} {'kind':<8} {'attempts':>8}  {'payload':<14} error"]
    for f in failures:
        err = (f.error or "").splitlines()[0] if f.error else ""
        lines.append(
            f"{(f.task or '?'):<12} {f.kind:<8} {f.attempts:>8}  "
            f"{f.payload_hash[:12]:<14} {err[:80]}"
        )
    return "\n".join(lines)


def _report_quarantine(runner, exc) -> None:
    failures = exc.failures
    print(
        f"\n{len(failures)} task(s) quarantined after exhausting retries"
        + (
            " (failure artifacts under the cache's failures/ directory):"
            if runner.cache is not None else ":"
        ),
        file=sys.stderr,
    )
    print(_failure_table(failures), file=sys.stderr)


def _print_health(runner, args) -> None:
    if getattr(args, "health", False):
        print(runner.health.summary(), file=sys.stderr)


#: ``simulate --traffic`` choices: every synthetic traffic kind.
TRAFFIC_CHOICES = tuple(TRAFFIC_KINDS)


def _traffic_spec(args, topo):
    """Build the TrafficSpec named by ``--traffic`` for a topology.

    A bad pattern (say ``--hot-fraction 1.5``) raises ``ValueError``,
    most of them from the spec's own validation.
    """
    kind = args.traffic
    if kind == "hotspot":
        if args.hotspots:
            try:
                spots = [int(h) for h in args.hotspots.split(",")]
            except ValueError:
                raise ValueError(
                    f"--hotspots must be a comma-separated router list, "
                    f"got {args.hotspots!r}"
                ) from None
        else:
            spots = topo.layout.mc_routers()
        return TrafficSpec.hotspot(topo.n, spots, args.hot_fraction)
    if kind in GRID_KINDS:
        return TrafficSpec(kind, rows=topo.layout.rows, cols=topo.layout.cols)
    return TrafficSpec(kind, n_nodes=topo.n)


def cmd_simulate(args) -> int:
    from .experiments.registry import routed_table

    topo = _load_or_named(args.topology, args.routers)
    try:
        spec = _traffic_spec(args, topo)
        if args.burst:
            from .sim import parse_burst

            spec = spec.with_burst(parse_burst(args.burst))
    except ValueError as exc:
        raise SystemExit(str(exc))
    faults = None
    if args.faults:
        from .faults import parse_faults

        try:
            faults = parse_faults(args.faults)
            faults.validate(topo)
        except ValueError as exc:
            raise SystemExit(str(exc))
    rates = [args.max_rate * (k + 1) / args.points for k in range(args.points)]
    if faults is not None and args.engine == "turbo":
        raise SystemExit(
            "--engine turbo does not support --faults; use the exact "
            "fast engine for degraded networks"
        )
    runner = _make_runner(args)
    from .runner import CurveJob, QuarantineError

    seeds = [args.seed + k for k in range(args.seeds)]
    try:
        # Routing is a runner task: cached, and quarantined on failure.
        table = routed_table(
            topo, args.policy, seed=args.seed, use_cache=False, runner=runner,
        )
        jobs = [
            CurveJob(
                table=table, traffic=spec, rates=tuple(rates),
                name=table.topology.name,
                link_class=args.link_class or topo.link_class,
                warmup=args.warmup, measure=args.measure, seed=seed,
                faults=faults,
            )
            for seed in seeds
        ]
        curves = dict(zip(seeds, runner.curves(jobs)))
    except QuarantineError as exc:
        _report_quarantine(runner, exc)
        _print_health(runner, args)
        return 2
    curve = curves[seeds[0]]
    if args.seeds > 1:
        from .sim import summarize_replicas

        print(f"{'offered':>8} {'latency(cyc)':>21} {'accepted':>19} {'n':>3}")
        for rp in summarize_replicas(curves):
            lat = ("saturated".rjust(21)
                   if rp.latency_mean != rp.latency_mean  # NaN: no finite lanes
                   else f"{rp.latency_mean:12.1f} +- {rp.latency_ci95:5.1f}")
            print(f"{rp.offered_rate:8.3f} {lat} "
                  f"{rp.throughput_mean:10.3f} +- {rp.throughput_ci95:5.3f} "
                  f"{rp.n_replicas:3d}")
        sats = [c.saturation_throughput_ns for c in curves.values()]
        mean_sat = sum(sats) / len(sats)
        spread = max(sats) - min(sats)
        print(f"saturation throughput: {mean_sat:.3f} packets/node/ns "
              f"(spread {spread:.3f} over {args.seeds} seeds) "
              f"@ {curve.clock_ghz} GHz")
    else:
        print(f"{'offered':>8} {'latency(cyc)':>13} {'accepted':>9} {'saturated':>9}")
        for p in curve.points:
            print(f"{p.offered_rate:8.3f} {p.avg_latency_cycles:13.1f} "
                  f"{p.throughput_packets_node_cycle:9.3f} {str(p.saturated):>9}")
        print(f"saturation throughput: {curve.saturation_throughput_ns:.3f} "
              f"packets/node/ns @ {curve.clock_ghz} GHz")
    if not args.no_cache:
        print(runner.stats.summary(), file=sys.stderr)
    _print_health(runner, args)
    return 0


def cmd_explore(args) -> int:
    from .pipeline import OBJECTIVES, design_grid, explore
    from .topology import LINK_CLASSES

    layouts = [g.strip() for g in args.grids.split(",") if g.strip()]
    link_classes = [c.strip() for c in args.link_classes.split(",") if c.strip()]
    objectives = [o.strip() for o in args.objectives.split(",") if o.strip()]
    bad = [c for c in link_classes if c not in LINK_CLASSES]
    if bad:
        raise SystemExit(
            f"unknown link class(es) {bad}: use {', '.join(LINK_CLASSES)}"
        )
    bad = [o for o in objectives if o not in OBJECTIVES]
    if bad:
        raise SystemExit(f"unknown objective(s) {bad}: use {', '.join(OBJECTIVES)}")
    cluster_rows = cluster_cols = None
    if args.cluster:
        try:
            from .topology import parse_layout

            cl = parse_layout(args.cluster)
            cluster_rows, cluster_cols = cl.rows, cl.cols
        except ValueError as exc:
            raise SystemExit(f"--cluster: {exc}")
    try:
        points = design_grid(
            layouts,
            link_classes=link_classes,
            objectives=objectives,
            strategies=(args.strategy,),
            seeds=range(args.seeds),
            radix=args.radix,
            diameter_bound=args.diameter,
            time_limit=args.time_limit,
            sa_steps=args.sa_steps,
            max_iterations=args.max_iterations,
            backend=args.backend,
            use_frozen=not args.no_frozen,
            cluster_rows=cluster_rows,
            cluster_cols=cluster_cols,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(
        f"exploring {len(points)} design points "
        f"({len(layouts)} layouts x {len(link_classes)} classes x "
        f"{len(objectives)} objectives x {args.seeds} seed(s), "
        f"strategy={args.strategy})",
        file=sys.stderr,
    )
    from .pipeline.stages import SIM_CUTOFF

    sim_cutoff = (
        0 if args.no_simulate
        else SIM_CUTOFF if args.sim_cutoff is None
        else args.sim_cutoff
    )
    runner = _make_runner(args)
    from .runner import QuarantineError

    try:
        result = explore(
            points,
            runner=runner,
            policy=args.policy,
            eval_warmup=args.warmup,
            eval_measure=args.measure,
            eval_iters=args.iters,
            out_dir=args.out_dir or None,
            rank_by=args.rank_by,
            robustness=args.robustness,
            sim_cutoff=sim_cutoff,
        )
    except QuarantineError as exc:
        _report_quarantine(runner, exc)
        _print_health(runner, args)
        return 2
    except (ValueError, RuntimeError) as exc:
        # Point validation (bad radix/objective combos) and
        # all-strategies-failed sweeps get the same clean one-line
        # surface as argument errors, not a traceback.
        raise SystemExit(str(exc))
    print(result.format_table(by=args.rank_by))
    best = result.best(by=args.rank_by)
    if best is not None:
        print(f"\nbest ({args.rank_by}): {best.point.label()} -> {best.name}")
    if args.out_dir:
        print(f"[artifacts in {args.out_dir}]", file=sys.stderr)
    if not args.no_cache:
        print(runner.stats.summary(), file=sys.stderr)
    _print_health(runner, args)
    return 0


def _retry_policy(args):
    """The recovery experiment's RetryPolicy from --timeout/--retries/
    --backoff; None when no flag was given (the experiment default)."""
    flags = (
        getattr(args, "timeout", None),
        getattr(args, "retries", None),
        getattr(args, "backoff", None),
    )
    if all(f is None for f in flags):
        return None
    from .experiments.recovery import DEFAULT_RETRY
    from .fullsys.closedloop import RetryPolicy

    timeout, retries, backoff = flags
    return RetryPolicy(
        timeout=DEFAULT_RETRY.timeout if timeout is None else timeout,
        retries=DEFAULT_RETRY.retries if retries is None else retries,
        backoff=DEFAULT_RETRY.backoff if backoff is None else backoff,
        seed=DEFAULT_RETRY.seed,
    )


def cmd_run(args) -> int:
    import time

    from .experiments.registry import get_experiment, list_experiments

    if args.experiment == "list":
        print(f"{'experiment':<16} description")
        for name, desc in list_experiments():
            print(f"{name:<16} {desc}")
        print()
        print("open-loop sim engines: fast (default) | turbo  (--engine)")
        print(f"simulate traffic patterns: {', '.join(TRAFFIC_CHOICES)}")
        return 0
    runner = _make_runner(args)
    names = (
        # `report` re-renders the fig6/fig7 sections the individual
        # experiments already produce, so `all` leaves it out.
        [name for name, _ in list_experiments() if name != "report"]
        if args.experiment == "all"
        else [args.experiment]
    )
    chunks = []
    for name in names:
        try:
            spec = get_experiment(name)
        except KeyError as exc:
            raise SystemExit(exc.args[0])
        t0 = time.time()
        kw = {}
        if name == "recovery":
            retry = _retry_policy(args)
            if retry is not None:
                kw["retry"] = retry
        from .runner import EngineError, QuarantineError

        try:
            result = spec.run(runner, fast=not args.full, **kw)
        except QuarantineError as exc:
            # The wave finished (successes are cached) but some cell's
            # task exhausted its retries: report and fail loudly rather
            # than summarizing a partial experiment as success.
            print(f"[{name}: FAILED after {time.time() - t0:.1f}s]",
                  file=sys.stderr)
            _report_quarantine(runner, exc)
            if not args.no_cache:
                print(runner.stats.summary(), file=sys.stderr)
            _print_health(runner, args)
            return 2
        except EngineError as exc:
            # A usage error, as `simulate --faults --engine turbo` is.
            raise SystemExit(f"{name}: {exc}")
        text = spec.summarize(result)
        chunks.append(text)
        print(text)
        print(f"[{name}: {time.time() - t0:.1f}s, "
              f"{runner.parallel} worker(s)]", file=sys.stderr)
    if not args.no_cache:
        print(runner.stats.summary(), file=sys.stderr)
    _print_health(runner, args)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n\n".join(chunks) + "\n")
        print(f"[written to {args.out}]", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    from .experiments.report import generate_report
    from .runner import QuarantineError

    runner = _make_runner(args)
    try:
        text = generate_report(fast=not args.full, runner=runner)
    except QuarantineError as exc:
        _report_quarantine(runner, exc)
        _print_health(runner, args)
        return 2
    print(text)
    if not args.no_cache:
        print(runner.stats.summary(), file=sys.stderr)
    _print_health(runner, args)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"\n[written to {args.out}]", file=sys.stderr)
    return 0


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    """The shared runner/cache surface (see docs/CLI.md)."""
    parser.add_argument(
        "--parallel", type=_int_at_least(0), default=1, metavar="N",
        help="worker processes for independent sim points "
             "(1 = serial, 0 = all cores); results are identical either way",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="on-disk result cache location "
             "(default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache: recompute everything, store nothing",
    )
    parser.add_argument(
        "--engine", choices=("fast", "turbo"), default="fast",
        help="simulation engine for open-loop sweeps: the fast engine "
             "(default; flat arrays, pre-generated traffic traces, "
             "compiled-network reuse) or the batched turbo engine "
             "(statistically validated against fast, not bit-exact; "
             "refused where faults are injected: simulate --faults, "
             "run robustness, explore --robustness).  Closed-loop runs "
             "(fig8, recovery) ignore it",
    )
    parser.add_argument(
        "--task-timeout", type=_positive_float, default=None, metavar="SEC",
        help="wall-clock budget per task attempt; a task past it is "
             "treated as hung — the worker pool restarts and the task "
             "retries (default: unbounded)",
    )
    parser.add_argument(
        "--task-retries", type=_int_at_least(0), default=None, metavar="N",
        help="retry budget per task for transient failures, timeouts, "
             "and worker crashes; a payload that exhausts it is "
             "quarantined with a failure artifact and the run exits "
             "non-zero (default 2)",
    )
    parser.add_argument(
        "--health", action="store_true",
        help="print the execution-health report (retries, timeouts, "
             "pool restarts, quarantined tasks, cache corruption "
             "evictions, journal resume counts) after the run",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="discover a topology")
    g.add_argument("--rows", type=int, default=4)
    g.add_argument("--cols", type=int, default=5)
    g.add_argument("--link-class", choices=("small", "medium", "large"),
                   default="medium")
    g.add_argument("--radix", type=int, default=4)
    g.add_argument("--objective",
                   choices=("latency", "sparsest-cut", "shuffle", "sa"),
                   default="latency")
    g.add_argument("--symmetric", action="store_true")
    g.add_argument("--diameter", type=int, default=None)
    g.add_argument("--time-limit", type=float, default=120.0)
    g.add_argument("--sa-steps", type=int, default=8000)
    g.add_argument("--out", default=None, help="save topology JSON here")
    g.set_defaults(fn=cmd_generate)

    e = sub.add_parser("evaluate", help="Table II metrics for a topology")
    e.add_argument("topology")
    e.add_argument("--routers", type=int, default=20)
    e.set_defaults(fn=cmd_evaluate)

    r = sub.add_parser("route", help="route a topology and report loads")
    r.add_argument("topology")
    r.add_argument("--routers", type=int, default=20)
    r.add_argument("--policy", choices=("mclb", "ndbt"), default="mclb")
    r.add_argument("--time-limit", type=float, default=60.0)
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(fn=cmd_route)

    s = sub.add_parser("simulate", help="latency/throughput sweep")
    s.add_argument("topology")
    s.add_argument("--routers", type=int, default=20)
    s.add_argument("--policy", choices=("mclb", "ndbt"), default="ndbt")
    s.add_argument("--traffic", choices=TRAFFIC_CHOICES, default="uniform")
    s.add_argument("--hotspots", default=None, metavar="R1,R2,...",
                   help="hotspot routers for --traffic hotspot "
                        "(default: the MC columns)")
    s.add_argument("--hot-fraction", type=float, default=0.5,
                   help="fraction of hotspot traffic aimed at --hotspots")
    s.add_argument("--burst", default=None, metavar="SPEC",
                   help="bursty modulation of the traffic pattern: "
                        "KIND[:p_on,p_off[,on_scale|auto[,off_scale[,seed"
                        "[,alpha]]]]] with KIND one of "
                        f"{', '.join(BURST_KINDS)} (alpha: the Pareto "
                        "sojourn shape of lrd), e.g. mmpp:0.1,0.3")
    s.add_argument("--faults", default=None, metavar="SPEC",
                   help="fault schedule CYCLE:KIND:TARGET[,...] with KIND "
                        "link_down/link_up (TARGET u-v, full duplex) or "
                        "router_down/router_up (TARGET router id), e.g. "
                        "500:link_down:2-7,1500:link_up:2-7")
    s.add_argument("--link-class", default=None)
    s.add_argument("--max-rate", type=_positive_float, default=0.4)
    s.add_argument("--points", type=_int_at_least(1), default=8)
    s.add_argument("--warmup", type=_int_at_least(0), default=300)
    s.add_argument("--measure", type=_int_at_least(1), default=1200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--seeds", type=_int_at_least(1), default=1, metavar="N",
                   help="seed replicas per rate (seeds SEED..SEED+N-1), "
                        "printed as mean +- 95%% CI per rate; every "
                        "replica is an independent run of --engine "
                        "(turbo fuses each wave's replicas into one "
                        "batched call)")
    _add_runner_flags(s)
    s.set_defaults(fn=cmd_simulate)

    ex = sub.add_parser(
        "explore",
        help="design-space sweep over arbitrary layouts",
        description="Sweep a grid of design points (layouts x link "
                    "classes x objectives x seeds) through the staged "
                    "generate/route/evaluate pipeline, rank the results, "
                    "and write per-point artifacts. Every stage is cached "
                    "runner work: an interrupted sweep resumes, and an "
                    "immediate re-run is 100%% cache hits.",
    )
    ex.add_argument("--grids", default="4x5,6x5,6x6", metavar="RxC,...",
                    help="comma-separated grid shapes (default 4x5,6x5,6x6)")
    ex.add_argument("--link-classes", default="small,medium",
                    metavar="CLS,...", help="subset of small,medium,large")
    ex.add_argument("--objectives", default="latency,shuffle",
                    metavar="OBJ,...",
                    help="subset of latency,sparsest_cut,shuffle "
                         "(sparsest_cut is skipped above "
                         f"{EXACT_CUT_LIMIT} routers)")
    ex.add_argument("--strategy",
                    choices=("milp", "sa", "portfolio", "hierarchical"),
                    default="sa",
                    help="generation strategy; portfolio = SA + exact "
                         "solve with best-wins merge (warm-started from "
                         "the SA result where --backend can consume it); "
                         "hierarchical = exact clusters + annealed "
                         "stitching, for 256-1024-router grids")
    ex.add_argument("--cluster", default=None, metavar="RxC",
                    help="cluster tile shape for --strategy hierarchical "
                         "(must divide the grid; default: auto divisors "
                         "near 4 per side)")
    ex.add_argument("--backend", choices=("scipy", "bnb"), default="scipy",
                    help="exact-solve backend: scipy (HiGHS, fast, no "
                         "MIP-start surface) or bnb (in-repo branch-and-"
                         "bound; portfolio seeds its initial incumbent "
                         "from the SA result)")
    ex.add_argument("--seeds", type=_int_at_least(1), default=1,
                    help="number of generation seeds per configuration")
    ex.add_argument("--radix", type=int, default=4)
    ex.add_argument("--diameter", type=int, default=None)
    ex.add_argument("--time-limit", type=float, default=30.0,
                    help="exact-solve budget per point (seconds)")
    ex.add_argument("--sa-steps", type=int, default=1500)
    ex.add_argument("--max-iterations", type=int, default=6,
                    help="SCOp lazy-cut iteration cap")
    ex.add_argument("--no-frozen", action="store_true",
                    help="ignore the frozen registry even for standard "
                         "configurations")
    ex.add_argument("--policy", choices=("mclb", "ndbt", "bfs"),
                    default="mclb",
                    help="routing policy; bfs = destination-tree routing "
                         "compiled to sparse CSR tables, the only policy "
                         "that scales to 256+ routers")
    ex.add_argument("--sim-cutoff", type=int, default=None, metavar="N",
                    help="largest router count given a cycle-accurate "
                         "saturation search; larger points rank on exact "
                         "graph metrics only (default 128)")
    ex.add_argument("--no-simulate", action="store_true",
                    help="skip all saturation searches (rank the whole "
                         "sweep on exact graph metrics; shorthand for "
                         "--sim-cutoff 0)")
    ex.add_argument("--warmup", type=_int_at_least(0), default=250)
    ex.add_argument("--measure", type=_int_at_least(1), default=800)
    ex.add_argument("--iters", type=_int_at_least(1), default=5,
                    help="saturation binary-search iterations")
    ex.add_argument("--rank-by",
                    choices=("saturation", "hops", "cut", "robustness"),
                    default="saturation")
    ex.add_argument("--robustness", action="store_true",
                    help="also measure retained capacity under the "
                         "most-central link fault per point (implied by "
                         "--rank-by robustness)")
    ex.add_argument("--out-dir", default="explore-artifacts", metavar="PATH",
                    help="per-point artifact directory ('' disables)")
    _add_runner_flags(ex)
    ex.set_defaults(fn=cmd_explore)

    run = sub.add_parser(
        "run",
        help="run a named paper experiment through the parallel runner",
        description="Run one of the registered experiments (or 'all'); "
                    "'repro run list' shows what is available. Sim points "
                    "fan out over --parallel workers and land in the "
                    "on-disk cache, so reruns are incremental.",
    )
    run.add_argument("experiment",
                     help="experiment name, 'all', or 'list'")
    run.add_argument("--full", action="store_true",
                     help="full-budget sweeps (slow)")
    run.add_argument("--out", default=None, help="also write summaries here")
    run.add_argument("--timeout", type=int, default=None, metavar="CYCLES",
                     help="[recovery] request timeout before a retry fires "
                          "(default 192; must clear the congested "
                          "steady-state round trip or retransmissions "
                          "amplify into congestion collapse)")
    run.add_argument("--retries", type=int, default=None, metavar="N",
                     help="[recovery] retry budget per request; a request "
                          "that exhausts it counts as failed (default 6)")
    run.add_argument("--backoff", type=int, default=None, metavar="CYCLES",
                     help="[recovery] exponential-backoff base delay "
                          "between attempts (default 16)")
    _add_runner_flags(run)
    run.set_defaults(fn=cmd_run)

    rep = sub.add_parser("report", help="regenerate the experiment report")
    rep.add_argument("--full", action="store_true",
                     help="full-budget sweeps (slow)")
    rep.add_argument("--out", default=None)
    _add_runner_flags(rep)
    rep.set_defaults(fn=cmd_report)
    return p


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
