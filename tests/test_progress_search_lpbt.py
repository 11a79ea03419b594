"""Tests for solver-progress recording, SA search, and the LPBT baseline."""

import math

import numpy as np
import pytest

from repro.core import (
    LPBTConfig,
    NetSmithConfig,
    anneal_topology,
    build_lpbt_model,
    generate_latop,
    generate_lpbt,
    record_progress_bnb,
    record_progress_scipy,
)
from repro.topology import Layout, average_hops, sparsest_cut


TINY = Layout(rows=2, cols=3)


class TestProgressRecording:
    def test_bnb_curve_has_samples(self):
        cfg = NetSmithConfig(layout=TINY, link_class="small", radix=3, diameter_bound=4)
        curve = record_progress_bnb(cfg, time_limit=15, progress_interval=0.0)
        assert len(curve.samples) >= 1
        assert curve.samples[-1].gap <= curve.samples[0].gap + 1e-9

    def test_bnb_final_gap_near_zero_on_tiny(self):
        cfg = NetSmithConfig(
            layout=Layout(rows=2, cols=2), link_class="small", radix=2,
            diameter_bound=3,
        )
        curve = record_progress_bnb(cfg, time_limit=30, progress_interval=0.0)
        assert curve.final_gap() < 0.3  # 2x2 instance should close most gap

    def test_time_to_gap(self):
        from repro.core import GapCurve, GapSample

        c = GapCurve("t", [GapSample(1.0, 0.5, None), GapSample(2.0, 0.05, 10.0)])
        assert c.time_to_gap(0.10) == 2.0
        assert c.time_to_gap(0.01) is None

    def test_scipy_ladder(self):
        cfg = NetSmithConfig(layout=TINY, link_class="small", radix=3, diameter_bound=4)
        curve = record_progress_scipy(cfg, time_points=(2.0, 6.0))
        assert 1 <= len(curve.samples) <= 2
        assert curve.samples[-1].incumbent is not None


class TestAnnealTopology:
    def test_latency_objective_valid_result(self):
        cfg = NetSmithConfig(layout=Layout(rows=3, cols=4), link_class="medium")
        res = anneal_topology(cfg, objective="latency", steps=800, seed=1)
        res.topology.check(radix=4, link_class="medium")
        assert res.status == "heuristic"
        assert math.isfinite(res.objective)

    def test_close_to_milp_on_tiny(self):
        """Ablation: SA should land within ~10% of the exact optimum."""
        cfg = NetSmithConfig(layout=TINY, link_class="small", radix=3, diameter_bound=4)
        exact = generate_latop(cfg, time_limit=60)
        sa = anneal_topology(
            NetSmithConfig(layout=TINY, link_class="small", radix=3),
            objective="latency", steps=1500, seed=2,
        )
        assert sa.objective <= exact.objective * 1.10 + 1e-9
        assert sa.objective >= exact.objective - 1e-9  # MILP is a true bound

    def test_initial_seed_respected(self):
        cfg = NetSmithConfig(layout=TINY, link_class="small", radix=3, diameter_bound=4)
        base = generate_latop(cfg, time_limit=60)
        sa = anneal_topology(
            NetSmithConfig(layout=TINY, link_class="small", radix=3),
            objective="latency", steps=100, seed=3, initial=base.topology,
        )
        assert sa.objective <= base.objective + 1e-9  # can only improve

    def test_sparsest_cut_objective(self):
        cfg = NetSmithConfig(layout=TINY, link_class="small", radix=3)
        res = anneal_topology(cfg, objective="sparsest_cut", steps=300, seed=1)
        assert res.objective == pytest.approx(
            sparsest_cut(res.topology).value
        )

    def test_sparsest_cut_large_n_rejected(self):
        cfg = NetSmithConfig(layout=Layout(rows=6, cols=5), link_class="small")
        with pytest.raises(ValueError):
            anneal_topology(cfg, objective="sparsest_cut", steps=10)


class TestLPBT:
    def test_tiny_hops_instance(self):
        cfg = LPBTConfig(layout=Layout(rows=2, cols=2), link_class="small", radix=2)
        res = generate_lpbt(cfg, time_limit=30)
        assert res.topology.is_connected()
        assert res.topology.max_radix() <= 2

    def test_power_objective_sparser(self):
        """The power objective charges for placing wires, so it should
        never use more links than the hops objective on the same grid."""
        hops = generate_lpbt(
            LPBTConfig(layout=Layout(rows=2, cols=2), link_class="small",
                       radix=2, objective="hops"),
            time_limit=30,
        )
        power = generate_lpbt(
            LPBTConfig(layout=Layout(rows=2, cols=2), link_class="small",
                       radix=2, objective="power"),
            time_limit=30,
        )
        assert power.topology.num_directed_links <= hops.topology.num_directed_links

    def test_model_size_explodes_with_n(self):
        """The structural disadvantage the paper exploits: LPBT's var
        count grows ~n^2 * |L| while NetSmith's grows ~n^2 * radix."""
        small_m, _, _ = build_lpbt_model(
            LPBTConfig(layout=Layout(rows=2, cols=2), link_class="small")
        )
        big_m, _, _ = build_lpbt_model(
            LPBTConfig(layout=Layout(rows=2, cols=4), link_class="small")
        )
        from repro.core import build_distance_formulation

        ns = build_distance_formulation(
            NetSmithConfig(layout=Layout(rows=2, cols=4), link_class="small",
                           diameter_bound=5)
        )
        assert big_m.num_vars > 4 * small_m.num_vars
        assert big_m.num_vars > ns.model.num_vars

    def test_bad_objective_rejected(self):
        with pytest.raises(ValueError):
            build_lpbt_model(
                LPBTConfig(layout=Layout(rows=2, cols=2), objective="latency")
            )
