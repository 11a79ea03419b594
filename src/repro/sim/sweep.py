"""Injection-rate sweeps and saturation detection (Figs. 6, 10, 11).

``latency_throughput_curve`` reproduces the paper's synthetic-traffic
methodology: sweep the offered injection rate, record average packet
latency and accepted throughput, and flag saturation (the "sudden latency
degradation" of Fig. 6).  Throughput is reported in absolute
packets/node/ns using each link class's clock (small 3.6 GHz, medium
3.0 GHz, large 2.7 GHz) so classes are comparable, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..routing.tables import RoutingTable
from ..topology.layout import CLASS_CLOCK_GHZ
from .fastnet import DEFAULT_ENGINE, resolve_engine
from .network import SimStats
from .traffic import TrafficSpec

#: A run saturates when latency exceeds this multiple of zero-load latency
#: or when the network stops accepting the offered load.
SATURATION_LATENCY_FACTOR = 6.0
ACCEPTANCE_FLOOR = 0.90


@dataclass
class SweepPoint:
    """One (offered rate, latency, throughput) sample."""

    offered_rate: float  # packets/node/cycle
    avg_latency_cycles: float
    throughput_packets_node_cycle: float
    saturated: bool

    def latency_ns(self, clock_ghz: float) -> float:
        return self.avg_latency_cycles / clock_ghz

    def throughput_packets_node_ns(self, clock_ghz: float) -> float:
        return self.throughput_packets_node_cycle * clock_ghz


@dataclass
class SweepResult:
    """A full latency-throughput curve for one routed topology."""

    name: str
    link_class: Optional[str]
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def clock_ghz(self) -> float:
        return CLASS_CLOCK_GHZ.get(self.link_class or "", 1.0)

    @property
    def zero_load_latency_cycles(self) -> float:
        return self.points[0].avg_latency_cycles if self.points else float("nan")

    @property
    def zero_load_latency_ns(self) -> float:
        return self.zero_load_latency_cycles / self.clock_ghz

    @property
    def saturation_rate(self) -> float:
        """Highest non-saturated offered rate, packets/node/cycle."""
        ok = [p.offered_rate for p in self.points if not p.saturated]
        return max(ok) if ok else 0.0

    @property
    def saturation_throughput_ns(self) -> float:
        """Saturation throughput in packets/node/ns (Fig. 6's X axis)."""
        ok = [p for p in self.points if not p.saturated]
        if not ok:
            return 0.0
        return max(p.throughput_packets_node_ns(self.clock_ghz) for p in ok)

    def series(self) -> tuple:
        """(throughput_ns, latency_ns) arrays for plotting."""
        x = np.array([p.throughput_packets_node_ns(self.clock_ghz) for p in self.points])
        y = np.array([p.latency_ns(self.clock_ghz) for p in self.points])
        return x, y


def run_point(
    table: RoutingTable,
    traffic: TrafficSpec,
    rate: float,
    warmup: int = 500,
    measure: int = 2000,
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
    faults=None,
    **sim_kw,
) -> SimStats:
    """One measurement.  ``engine`` picks the simulator implementation:
    the bit-exact ``"fast"`` flat-array engine or the batched
    ``"turbo"`` engine, statistically validated against it.  Both take
    the table's memoized :class:`~repro.sim.fastnet.CompiledNetwork`
    (:meth:`~repro.sim.fastnet.CompiledNetwork.for_table`), so every
    measurement over one table shares a single compile.

    ``faults`` is an optional :class:`~repro.faults.FaultSchedule`; the
    fast engine honors it by swapping survivor tables at fault epochs
    (turbo rejects it).
    """
    if faults is not None:
        sim_kw["faults"] = faults
    sim = resolve_engine(engine)(table, traffic, rate, seed=seed, **sim_kw)
    return sim.run(warmup, measure)


def classify_point(
    rate: float, stats: SimStats, zero_load: Optional[float]
) -> SweepPoint:
    """Turn one measurement into a :class:`SweepPoint`.

    Shared by the serial sweep below and the parallel runner
    (:mod:`repro.runner`), so both produce identical curves from
    identical measurements.
    """
    lat = stats.avg_latency_cycles
    accepted = stats.throughput_packets_node_cycle
    # Fault losses can never be accepted; classify against what the
    # network could actually have delivered (== offered when fault-free).
    offered = stats.deliverable_packets_node_cycle
    saturated = bool(
        not np.isfinite(lat)
        or (zero_load is not None and lat > SATURATION_LATENCY_FACTOR * zero_load)
        or (offered > 0 and accepted < ACCEPTANCE_FLOOR * offered)
    )
    return SweepPoint(
        offered_rate=rate,
        avg_latency_cycles=float(lat),
        throughput_packets_node_cycle=accepted,
        saturated=saturated,
    )


def assemble_curve(
    rates: Sequence[float],
    stats_list: Iterable[SimStats],
    name: str,
    link_class: Optional[str],
) -> SweepResult:
    """Build a :class:`SweepResult` from per-rate measurements.

    The single owner of zero-load tracking, point classification, and
    early-stop truncation: the serial sweep, the parallel runner, and
    cached replays all assemble their curves here, so identical
    measurements always produce bit-identical curves.  ``stats_list``
    may be a lazy iterable — consumption stops at the truncation point,
    which is how :func:`latency_throughput_curve` avoids simulating
    rates past saturation.
    """
    result = SweepResult(name=name, link_class=link_class)
    zero_load: Optional[float] = None
    for rate, stats in zip(rates, stats_list):
        lat = stats.avg_latency_cycles
        if zero_load is None and np.isfinite(lat):
            zero_load = lat
        point = classify_point(rate, stats, zero_load)
        result.points.append(point)
        if point.saturated:
            break
    return result


def latency_throughput_curve(
    table: RoutingTable,
    traffic: TrafficSpec,
    rates: Sequence[float],
    name: Optional[str] = None,
    link_class: Optional[str] = None,
    warmup: int = 500,
    measure: int = 2000,
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
    **sim_kw,
) -> SweepResult:
    """Sweep offered injection rates and build the latency curve.

    The routed topology compiles once (the table's memoized compile) and
    every rate point reuses it; measurements stream lazily into
    :func:`assemble_curve`, which owns classification and early-stop
    truncation — a saturated prefix ends the sweep without simulating
    the remaining rates.
    """
    def measurements() -> Iterable[SimStats]:
        for rate in rates:
            yield run_point(
                table, traffic, rate, warmup=warmup, measure=measure,
                seed=seed, engine=engine, **sim_kw
            )

    return assemble_curve(
        rates,
        measurements(),
        name=name or table.topology.name,
        link_class=link_class or table.topology.link_class,
    )


def find_saturation(
    table: RoutingTable,
    traffic: TrafficSpec,
    lo: float = 0.01,
    hi: float = 1.0,
    iters: int = 6,
    warmup: int = 400,
    measure: int = 1200,
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
    faults=None,
    **sim_kw,
) -> float:
    """Binary-search the saturation injection rate (packets/node/cycle).

    Cheaper than a full sweep when only the saturation point is needed
    (Fig. 11's throughput comparisons).  All probes share one network
    compile, and results are memoized by offered rate, so no rate is
    ever simulated twice within one search (the ``lo``/``hi`` endpoint
    probes included).  Every probe is judged by :func:`classify_point`,
    against the ``lo`` probe's latency as the zero-load latency.
    """
    probes: Dict[float, SimStats] = {}

    def probe(rate: float) -> SimStats:
        st = probes.get(rate)
        if st is None:
            st = run_point(
                table, traffic, rate, warmup=warmup, measure=measure,
                seed=seed, engine=engine, faults=faults, **sim_kw
            )
            probes[rate] = st
        return st

    base = probe(lo)
    if classify_point(lo, base, None).saturated:
        # Even the base probe is saturated (no finite latency, or the
        # network cannot accept the lowest offered rate): the bisection
        # bracket [lo, hi] does not exist and returning ``a == lo``
        # would overstate capacity.
        return 0.0
    zero_load = base.avg_latency_cycles

    def saturated(rate: float) -> bool:
        return classify_point(rate, probe(rate), zero_load).saturated

    if not saturated(hi):
        return hi
    a, b = lo, hi
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if saturated(mid):
            b = mid
        else:
            a = mid
    return a


@dataclass
class ReplicaPoint:
    """Cross-seed summary of one offered rate: mean and 95% CI."""

    offered_rate: float
    n_replicas: int
    latency_mean: float
    latency_ci95: float
    throughput_mean: float
    throughput_ci95: float


def _ci95_halfwidth(vals: np.ndarray) -> float:
    k = vals.size
    if k < 2:
        return 0.0
    try:
        from scipy.stats import t

        crit = float(t.ppf(0.975, k - 1))
    except ImportError:  # pragma: no cover - scipy is a standard dep
        crit = 1.96
    return crit * float(np.std(vals, ddof=1)) / float(np.sqrt(k))


def summarize_replicas(
    curves: Mapping[int, SweepResult],
) -> List[ReplicaPoint]:
    """Per-rate mean +/- 95% CI across seed replicas.

    Latency averages over the replicas with a finite sample at that
    rate (saturated replicas report NaN); ``n_replicas`` counts the
    curves that still have the rate at all — early-stop truncation can
    leave deep-saturation rates on only some replicas.
    """
    by_rate: Dict[float, List[SweepPoint]] = {}
    for s in sorted(curves):
        for p in curves[s].points:
            by_rate.setdefault(p.offered_rate, []).append(p)
    out: List[ReplicaPoint] = []
    for rate in sorted(by_rate):
        pts = by_rate[rate]
        lat = np.array([p.avg_latency_cycles for p in pts], dtype=float)
        lat = lat[np.isfinite(lat)]
        thr = np.array(
            [p.throughput_packets_node_cycle for p in pts], dtype=float
        )
        out.append(
            ReplicaPoint(
                offered_rate=rate,
                n_replicas=len(pts),
                latency_mean=float(lat.mean()) if lat.size else float("nan"),
                latency_ci95=_ci95_halfwidth(lat),
                throughput_mean=float(thr.mean()),
                throughput_ci95=_ci95_halfwidth(thr),
            )
        )
    return out
