"""Batched multi-replica (turbo) engine suite: KS gate + runner fusion.

``repro.sim.batch.run_batch`` relaxes cross-replica draw-order
compatibility and is validated *statistically*: per-point two-sample
Kolmogorov–Smirnov tests on the latency and throughput distributions
across seed replicas, turbo vs the reference distribution, at
``ALPHA = 0.01`` (fixed seeds, so the suite is deterministic — these
exact p-values are pinned green).  The reference samples are per-point
``engine="fast"`` runs, which ``tests/test_fastnet.py`` pins
bit-identical to the reference oracle; one anchor test here re-checks
that chain directly against the oracle (``tests/network_oracle.py``).

The KS gate covers stationary traffic plus the bursty (``mmpp``) and
long-range-dependent (``lrd``) burst modulations, because turbo's
per-lane RNG relaxation must not disturb the shared burst gates.

The runner tests pin how seed replicas flow through
:meth:`Runner.curves`: one job per seed, fast points as ``sim_point``
tasks, turbo points fused into batched lanes under per-point cache keys.
"""

import pytest

from network_oracle import NetworkSimulator, register_reference
from repro.routing import assign_vcs, build_routing_table, ndbt_route
from repro.sim import (
    ENGINES,
    TurboNetworkSimulator,
    latency_throughput_curve,
    resolve_engine,
    run_batch,
    run_point,
    uniform_random,
)
from repro.sim.burst import BurstSpec
from repro.topology import LAYOUT_4X5, folded_torus

#: Significance level for the turbo KS gate.  With fixed seeds every
#: p-value below is deterministic; a failure means the turbo engine's
#: distributions actually moved, not statistical bad luck.
ALPHA = 0.01

N = LAYOUT_4X5.n


def _table():
    topo = folded_torus(LAYOUT_4X5)
    routes = ndbt_route(topo, seed=0)
    vca = assign_vcs(routes, max_vcs=8, seed=0)
    return build_routing_table(routes, vca)


@pytest.fixture(scope="module")
def table():
    return _table()


# ---------------------------------------------------------------------------
# Turbo mode: statistical validation (two-sample KS per point).
# ---------------------------------------------------------------------------

#: Traffic gates the KS suite must cover: stationary, bursty (mmpp),
#: and long-range-dependent on/off sources.
GATES = {
    "stationary": None,
    "mmpp": BurstSpec(kind="mmpp", p_on=0.1, p_off=0.3),
    "lrd": BurstSpec(kind="lrd", p_on=0.1, p_off=0.25, alpha=1.4),
}


class TestTurboKSValidation:
    RATES = (0.06, 0.12)
    SEEDS = tuple(range(10))
    BUDGET = dict(warmup=200, measure=600)

    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_latency_and_throughput_distributions(self, table, gate):
        from scipy.stats import ks_2samp

        traffic = uniform_random(N).with_burst(GATES[gate])
        lanes = [(r, s) for r in self.RATES for s in self.SEEDS]
        ref = [
            run_point(table, traffic, r, seed=s, engine="fast", **self.BUDGET)
            for r, s in lanes
        ]
        turbo = run_batch(table, traffic, lanes, **self.BUDGET)
        k = len(self.SEEDS)
        for i, rate in enumerate(self.RATES):
            r_pts = ref[i * k:(i + 1) * k]
            t_pts = turbo[i * k:(i + 1) * k]
            lat = ks_2samp(
                [p.avg_latency_cycles for p in r_pts],
                [p.avg_latency_cycles for p in t_pts],
            )
            thr = ks_2samp(
                [p.throughput_packets_node_cycle for p in r_pts],
                [p.throughput_packets_node_cycle for p in t_pts],
            )
            assert lat.pvalue >= ALPHA, (gate, rate, "latency", lat.pvalue)
            assert thr.pvalue >= ALPHA, (gate, rate, "throughput", thr.pvalue)

    def test_reference_anchor(self, table, monkeypatch):
        """The KS reference leg (the fast engine) really is the reference
        distribution: fast == reference oracle, bit-for-bit."""
        register_reference(monkeypatch)
        traffic = uniform_random(N)
        built = NetworkSimulator.built
        a = run_point(table, traffic, 0.1, warmup=100, measure=250,
                      seed=0, engine="reference")
        assert NetworkSimulator.built == built + 1
        b = run_point(table, traffic, 0.1, warmup=100, measure=250,
                      seed=0, engine="fast")
        assert a == b


# ---------------------------------------------------------------------------
# Turbo semantics: lane invariance, registry, restrictions.
# ---------------------------------------------------------------------------


class TestTurboSemantics:
    BUDGET = dict(warmup=150, measure=400)

    def test_lane_invariance(self, table):
        """A lane's turbo result is independent of its batchmates."""
        traffic = uniform_random(N)
        alone = run_batch(table, traffic, [(0.12, 3)], **self.BUDGET)[0]
        mixed = run_batch(
            table, traffic, [(0.05, 0), (0.12, 3), (0.30, 1)], **self.BUDGET,
        )[1]
        assert alone == mixed

    def test_engine_registry(self):
        assert ENGINES["turbo"] is TurboNetworkSimulator
        assert resolve_engine("turbo") is TurboNetworkSimulator

    def test_run_point_engine_turbo_is_deterministic(self, table):
        traffic = uniform_random(N)
        a = run_point(table, traffic, 0.1, seed=2, engine="turbo",
                      **self.BUDGET)
        b = run_point(table, traffic, 0.1, seed=2, engine="turbo",
                      **self.BUDGET)
        assert a == b

    def test_single_use(self, table):
        sim = TurboNetworkSimulator(table, uniform_random(N), 0.1, seed=0)
        sim.run(100, 200)
        with pytest.raises(RuntimeError, match="single-use"):
            sim.run(100, 200)

    def test_zero_rate_zero_stats(self, table):
        st = TurboNetworkSimulator(table, uniform_random(N), 0.0).run(100, 300)
        assert st.offered_packets == 0 and st.ejected_packets == 0
        assert st.cycles == 300

    def test_turbo_rejects_faults(self, table):
        from repro.faults import parse_faults

        faults = parse_faults("500:link_down:0-1")
        with pytest.raises(ValueError, match="fault"):
            run_point(table, uniform_random(N), 0.1, warmup=100, measure=200,
                      engine="turbo", faults=faults)
        with pytest.raises(ValueError, match="fault"):
            TurboNetworkSimulator(table, uniform_random(N), 0.1,
                                  faults=faults)


# ---------------------------------------------------------------------------
# Runner integration: batched task family + per-point cache identity.
# ---------------------------------------------------------------------------


class TestRunnerBatch:
    BUDGET = dict(warmup=150, measure=400)
    RATES = (0.05, 0.15, 0.30)
    SEEDS = (0, 1, 2)

    def _jobs(self, table, lanes):
        """One curve job per ``(rates, seed)`` lane."""
        from repro.runner import CurveJob
        from repro.runner.tasks import TrafficSpec

        return [
            CurveJob(table=table, traffic=TrafficSpec.uniform(N),
                     rates=rates, name="ft",
                     link_class=table.topology.link_class, seed=s,
                     **self.BUDGET)
            for rates, s in lanes
        ]

    def _seed_jobs(self, table):
        return self._jobs(table, [(self.RATES, s) for s in self.SEEDS])

    def _curves_twice(self, table, engine, tmp_path):
        """Curves from a cold run, plus the cache writes of a rerun."""
        from repro.runner import Runner

        with Runner(parallel=1, cache_dir=str(tmp_path), engine=engine) as r:
            curves = r.curves(self._seed_jobs(table))
        with Runner(parallel=1, cache_dir=str(tmp_path), engine=engine) as r:
            assert r.curves(self._seed_jobs(table)) == curves
            return curves, r.stats.puts

    def test_curves_one_job_per_seed_match_serial_sweeps(self, table,
                                                         tmp_path):
        """Fast seed replicas are per-point runs: each equals the serial
        sweep at that seed, and a rerun is served from the cache."""
        curves, rerun_puts = self._curves_twice(table, "fast", tmp_path)
        for s, got in zip(self.SEEDS, curves):
            want = latency_throughput_curve(
                table, uniform_random(N), self.RATES, name="ft", seed=s,
                **self.BUDGET,
            )
            assert got == want, s
        assert rerun_puts == 0

    def test_curves_turbo_seeds_match_direct_batch(self, table, tmp_path):
        """Turbo seed replicas fuse into batched lanes: each curve equals
        assemble_curve over the same lanes from one direct run_batch."""
        from repro.sim.sweep import assemble_curve

        curves, rerun_puts = self._curves_twice(table, "turbo", tmp_path)
        lanes = [(r, s) for s in self.SEEDS for r in self.RATES]
        direct = run_batch(table, uniform_random(N), lanes, **self.BUDGET)
        k = len(self.RATES)
        for j, (s, got) in enumerate(zip(self.SEEDS, curves)):
            want = assemble_curve(
                self.RATES, direct[j * k:(j + 1) * k], name="ft",
                link_class=table.topology.link_class,
            )
            assert got == want, s
        assert rerun_puts == 0

    def test_turbo_runner_refuses_faulted_jobs(self, table):
        """Fault schedules need the exact fast engine: a turbo runner
        refuses a faulted curve or saturation batch before any of its
        tasks runs."""
        from dataclasses import replace

        from repro.faults import parse_faults
        from repro.runner import EngineError, Runner, SaturationJob

        faults = parse_faults("500:link_down:0-1")
        [clean] = self._jobs(table, [(self.RATES, 0)])
        with Runner(parallel=1, no_cache=True, engine="turbo") as r:
            with pytest.raises(EngineError, match="fault"):
                r.curves([clean, replace(clean, faults=faults)])
            with pytest.raises(EngineError, match="fault"):
                r.saturations([SaturationJob(
                    table=table, traffic=clean.traffic,
                    faults=faults, **self.BUDGET,
                )])
            assert r.health.tasks == 0

    def test_turbo_batch_populates_per_point_cache(self, table, tmp_path):
        """Batched lanes land under the turbo engine's ``sim_point`` keys,
        so a single-point task hits them."""
        from repro.runner import Runner
        from repro.runner.tasks import TrafficSpec, sim_point_payload
        from repro.sim.sweep import assemble_curve

        spec = TrafficSpec.uniform(N)
        with Runner(parallel=1, cache_dir=str(tmp_path), engine="turbo") as r:
            batched = r.curves(self._jobs(table, [((0.05,), 0), ((0.15,), 1)]))
            single = r.run_tasks("sim_point", [sim_point_payload(
                table, spec, 0.15, self.BUDGET["warmup"],
                self.BUDGET["measure"], 1, engine="turbo",
            )])
            assert r.stats.hits == 1
        assert assemble_curve(
            (0.15,), single, name="ft", link_class=table.topology.link_class,
        ) == batched[1]

    def test_turbo_batch_single_lane_roundtrip(self, table, tmp_path):
        from repro.runner import Runner

        with Runner(parallel=1, cache_dir=str(tmp_path), engine="turbo") as r:
            first = r.curves(self._jobs(table, [((0.05,), 0), ((0.12,), 1)]))
            again = r.curves(self._jobs(table, [((0.12,), 1)]))
            hits = r.stats.hits
        assert hits == 1
        assert again[0] == first[1]
