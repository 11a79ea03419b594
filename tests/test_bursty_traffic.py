"""Bursty traffic: MMPP on/off and storm gates, spec to engine.

Covers the :mod:`repro.sim.burst` layer (spec validation, the CLI
parser, gate-sequence determinism, stationary-mean normalization) and
the engine-level contract: a bursty pattern runs bit-identically on the
reference oracle (``tests/network_oracle.py``) and the fast engine,
alone and combined with fault schedules.
The vectorized-vs-scalar draw-order differential for bursty
:class:`~repro.sim.trace.TraceStream` lives in
``tests/test_traffic_vectorized.py`` next to its stationary twin.
"""

import json

import numpy as np
import pytest

from network_oracle import NetworkSimulator
from repro.experiments.registry import NDBT, routed_table
from repro.faults import central_link_faults
from repro.sim import (
    BURST_KINDS,
    BurstSpec,
    BurstState,
    CompiledNetwork,
    FastNetworkSimulator,
    TrafficSpec,
    hotspot,
    parse_burst,
    uniform_random,
)
from repro.topology import expert_topology


# ---------------------------------------------------------------------------
# Spec objects and the CLI parser
# ---------------------------------------------------------------------------

class TestBurstSpec:
    def test_kinds(self):
        assert set(BURST_KINDS) == {"mmpp", "storm", "lrd"}
        with pytest.raises(ValueError, match="unknown burst kind"):
            BurstSpec(kind="tsunami", p_on=0.2, p_off=0.2)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0])
    def test_lrd_needs_heavy_tail_with_finite_mean(self, alpha):
        with pytest.raises(ValueError, match="alpha > 1"):
            BurstSpec(kind="lrd", p_on=0.2, p_off=0.2, alpha=alpha)
        # the shape is inert for the Markov kinds
        BurstSpec(kind="mmpp", p_on=0.2, p_off=0.2, alpha=alpha)

    def test_lrd_sojourns_hit_their_mean_exactly(self):
        """The bisection solves the discrete truncated-Pareto mean."""
        from repro.sim.burst import _pareto_xm

        for mean, alpha in [(5.0, 1.5), (10.0, 1.2), (50.0, 1.8)]:
            trunc = max(64, int(np.ceil(50.0 * mean)))
            xm = _pareto_xm(mean, alpha, trunc)
            k = np.arange(1, trunc)
            got = 1.0 + np.minimum(1.0, (xm / k) ** alpha).sum()
            assert got == pytest.approx(mean, rel=1e-9)

    @pytest.mark.parametrize("p_on,p_off", [(0.0, 0.2), (0.2, 0.0), (1.5, 0.2)])
    def test_probabilities_must_be_in_unit_interval(self, p_on, p_off):
        with pytest.raises(ValueError, match="transition probabilities"):
            BurstSpec(kind="mmpp", p_on=p_on, p_off=p_off)

    def test_negative_scales_rejected(self):
        with pytest.raises(ValueError, match="off_scale"):
            BurstSpec(kind="mmpp", p_on=0.2, p_off=0.2, off_scale=-0.1)
        with pytest.raises(ValueError, match="on_scale"):
            BurstSpec(kind="mmpp", p_on=0.2, p_off=0.2, on_scale=-1.0)

    def test_duty_cycle(self):
        spec = BurstSpec(kind="mmpp", p_on=0.1, p_off=0.3)
        assert spec.duty_cycle == pytest.approx(0.25)

    @pytest.mark.parametrize("off_scale", [0.0, 0.1, 0.5])
    def test_default_on_scale_preserves_the_mean(self, off_scale):
        spec = BurstSpec(kind="mmpp", p_on=0.1, p_off=0.3, off_scale=off_scale)
        duty = spec.duty_cycle
        mean = duty * spec.resolved_on_scale + (1 - duty) * spec.off_scale
        assert mean == pytest.approx(1.0)
        assert spec.max_scale == spec.resolved_on_scale

    def test_explicit_on_scale_wins(self):
        spec = BurstSpec(kind="storm", p_on=0.2, p_off=0.2, on_scale=3.5)
        assert spec.resolved_on_scale == 3.5

    def test_key_and_dict_roundtrip(self):
        spec = BurstSpec(
            kind="storm", p_on=0.1, p_off=0.4, on_scale=2.0,
            off_scale=0.25, seed=9,
        )
        assert BurstSpec(*spec.key()) == spec
        traffic = uniform_random(20).with_burst(spec)
        doc = json.loads(json.dumps(traffic.as_dict()))
        assert doc["burst"] == list(spec.key())
        assert TrafficSpec.from_dict(doc) == traffic


class TestParseBurst:
    def test_bare_kind_gets_defaults(self):
        spec = parse_burst("mmpp")
        assert spec == BurstSpec(kind="mmpp", p_on=0.2, p_off=0.2)
        assert spec.on_scale is None

    def test_full_spec(self):
        spec = parse_burst("storm:0.1,0.3,2.5,0.1,7")
        assert spec == BurstSpec(
            kind="storm", p_on=0.1, p_off=0.3, on_scale=2.5,
            off_scale=0.1, seed=7,
        )

    def test_auto_on_scale(self):
        spec = parse_burst("mmpp:0.1,0.3,auto,0.1")
        assert spec.on_scale is None
        assert spec.off_scale == 0.1

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed burst spec"):
            parse_burst("mmpp:zero")
        with pytest.raises(ValueError, match="unknown burst kind"):
            parse_burst("blizzard:0.2,0.2")


# ---------------------------------------------------------------------------
# Gate sequences
# ---------------------------------------------------------------------------

class TestBurstState:
    def test_chains_start_off(self):
        for kind in BURST_KINDS:
            spec = BurstSpec(kind=kind, p_on=0.2, p_off=0.2, off_scale=0.25)
            row0 = spec.state(8).row(0)
            assert np.all(row0 == spec.off_scale)

    def test_rows_matrix_matches_row_calls(self):
        spec = BurstSpec(kind="mmpp", p_on=0.3, p_off=0.3, seed=4)
        a, b = spec.state(6), spec.state(6)
        block = a.rows(40, 90)
        assert block.shape == (50, 6)
        for i in range(50):
            assert np.array_equal(block[i], b.row(40 + i))

    def test_replay_is_deterministic_and_order_independent(self):
        spec = BurstSpec(kind="mmpp", p_on=0.2, p_off=0.4, seed=1)
        fwd, rnd = spec.state(5), spec.state(5)
        rows_fwd = [fwd.row(t) for t in range(200)]
        # a consumer that jumps straight to cycle 150 reads the same rows
        assert np.array_equal(rnd.row(150), rows_fwd[150])
        for t in (0, 199, 37):
            assert np.array_equal(rnd.row(t), rows_fwd[t])

    def test_storm_gates_every_node_together(self):
        spec = BurstSpec(kind="storm", p_on=0.3, p_off=0.3, seed=2)
        rows = spec.state(10).rows(0, 400)
        assert np.all(rows == rows[:, :1])  # all columns identical
        assert {v for v in np.unique(rows)} == {0.0, spec.resolved_on_scale}

    def test_mmpp_nodes_desynchronize(self):
        spec = BurstSpec(kind="mmpp", p_on=0.3, p_off=0.3, seed=2)
        rows = spec.state(10).rows(0, 400)
        assert not np.all(rows == rows[:, :1])

    @pytest.mark.parametrize("kind", BURST_KINDS)
    @pytest.mark.parametrize("off_scale", [0.0, 0.2])
    def test_stationary_mean_matches_nominal_rate(self, kind, off_scale):
        """The mean-preserving normalization, measured: the realized
        gate average over a long horizon is the nominal rate (scale 1)."""
        spec = BurstSpec(
            kind=kind, p_on=0.2, p_off=0.2, off_scale=off_scale, seed=5
        )
        mean = float(spec.state(8).rows(0, 20000).mean())
        assert mean == pytest.approx(1.0, abs=0.06)


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

def _table(name, n):
    return routed_table(expert_topology(name, n), NDBT)


def _pair(table, pat, rate, seed, faults=None, chunk=None):
    ref = NetworkSimulator(table, pat, rate, seed=seed, faults=faults)
    cls = FastNetworkSimulator
    if chunk is not None:
        cls = type("TinyChunks", (cls,), {"trace_chunk_cycles": chunk})
    fast = cls(
        table, pat, rate, seed=seed,
        compiled=CompiledNetwork.for_table(table), faults=faults,
    )
    return ref, fast


@pytest.mark.parametrize("topo_name,n", [("Mesh", 16), ("FoldedTorus", 20)])
@pytest.mark.parametrize("kind", BURST_KINDS)
def test_engines_agree_on_bursty_uniform(topo_name, n, kind):
    table = _table(topo_name, n)
    pat = uniform_random(n).with_burst(
        BurstSpec(kind=kind, p_on=0.15, p_off=0.25, seed=6)
    )
    ref, fast = _pair(table, pat, 0.06, seed=9)
    assert fast.run(100, 400) == ref.run(100, 400)


def test_engines_agree_on_incast_storm():
    """The robustness experiment's incast scenario: hotspot + storm."""
    n = 16
    table = _table("Mesh", n)
    pat = hotspot(n, [5], 0.6).with_burst(
        BurstSpec(kind="storm", p_on=0.1, p_off=0.2, seed=2)
    )
    ref, fast = _pair(table, pat, 0.05, seed=1)
    assert fast.run(100, 400) == ref.run(100, 400)


def test_engines_agree_on_burst_plus_faults():
    """Bursty traffic across fault epochs — both axes at once."""
    table = _table("Mesh", 16)
    sched = central_link_faults(table.topology, 2, cycle=150)
    pat = uniform_random(16).with_burst(
        BurstSpec(kind="mmpp", p_on=0.2, p_off=0.2, seed=3)
    )
    ref, fast = _pair(table, pat, 0.06, seed=4, faults=sched)
    assert fast.run(100, 400) == ref.run(100, 400)


def test_small_trace_chunks_preserve_bursty_equivalence():
    """Gate rows must survive chunk boundaries at awkward strides."""
    table = _table("Mesh", 16)
    pat = uniform_random(16).with_burst(
        BurstSpec(kind="mmpp", p_on=0.25, p_off=0.25, seed=8)
    )
    ref, fast = _pair(table, pat, 0.06, seed=2, chunk=13)
    assert fast.run(80, 320) == ref.run(80, 320)


def test_unnormalized_gate_suppresses_offered_load():
    """With an explicit ``on_scale=1`` (no mean-preserving boost) the
    OFF periods genuinely remove load: offered packets land near the
    duty-cycle fraction of the stationary twin's."""
    n = 16
    table = _table("Mesh", n)
    spec = BurstSpec(kind="mmpp", p_on=0.1, p_off=0.3, on_scale=1.0, seed=7)
    plain = FastNetworkSimulator(
        table, uniform_random(n), 0.08, seed=5
    ).run(0, 1000)
    bursty = FastNetworkSimulator(
        table, uniform_random(n).with_burst(spec), 0.08, seed=5
    ).run(0, 1000)
    ratio = bursty.offered_packets / plain.offered_packets
    assert 0.1 < ratio < 0.45, ratio  # duty cycle is 0.25
