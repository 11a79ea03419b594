"""Property suite for the vectorized traffic paths.

Pins the tentpole invariant of the trace subsystem: each pattern's
`DestSpec` and the pre-generated traces (`TraceStream`) drawn from it
replicate the scalar reference draw stream of `traffic_oracle.py`
bit-exactly — same values *and* the same final RNG stream position —
for all eight built-in patterns, across seeds, layouts, chunk sizes,
and degenerate configurations numpy special-cases (single-candidate
bounds, rates above 1.0)."""

import numpy as np
import pytest

from repro.sim import TraceStream
from repro.sim.rngstream import take_raw
from repro.sim.traffic import (
    TrafficSpec,
    bit_complement,
    hotspot,
    memory_traffic,
    neighbor,
    shuffle_pattern,
    tornado,
    transpose,
    uniform_random,
)
from repro.topology import LAYOUT_4X5, Layout
from traffic_oracle import destination, dest_fn, packet_size


def all_patterns(layout):
    n = layout.n
    return [
        uniform_random(n),
        memory_traffic(layout),
        shuffle_pattern(n),
        bit_complement(n),
        transpose(layout),
        tornado(layout),
        neighbor(layout),
        hotspot(n, layout.mc_routers()),
    ]


EDGE_PATTERNS = [
    hotspot(20, [3], 0.7),        # single hotspot: bound-1 no-consume path
    hotspot(20, [3, 11], 0.0),    # hot branch never taken (draw still burned)
    hotspot(20, [3, 11], 1.0),    # hot branch always taken
]


def spec_destination(pat, n, src, rng):
    """One destination by the recipe of ``pat.dest_spec`` on ``n``
    routers, drawn with scalar ``Generator`` calls."""
    spec = pat.dest_spec
    if spec.kind == "table":
        return int(spec.table[src])
    if spec.kind == "memory":
        return int(spec.table[src, rng.integers(spec.bounds[src])])
    if spec.kind == "hotspot":
        if rng.random() < spec.hot_fraction and spec.bounds[src] > 0:
            return int(spec.table[src, rng.integers(spec.bounds[src])])
    d = int(rng.integers(n - 1))
    return d if d < src else d + 1


class TestDestinationsMatchScalarStream:
    """Every kind's DestSpec against the scalar law it must encode."""

    @pytest.mark.parametrize("pattern_idx", range(8))
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_patterns_all_seeds(self, pattern_idx, seed):
        pat = all_patterns(LAYOUT_4X5)[pattern_idx]
        srcs = np.random.default_rng(seed + 50).integers(20, size=301)
        r_scalar = np.random.default_rng(seed)
        r_spec = np.random.default_rng(seed)
        scalar = [destination(pat, int(s), r_scalar) for s in srcs]
        drawn = [spec_destination(pat, 20, int(s), r_spec) for s in srcs]
        assert drawn == scalar
        # final stream positions coincide: further draws agree
        assert r_scalar.random() == r_spec.random()
        assert int(r_scalar.integers(19)) == int(r_spec.integers(19))

    @pytest.mark.parametrize("pat", EDGE_PATTERNS, ids=lambda p: p.kind + str(p.dest_spec.hot_fraction))
    def test_degenerate_hotspots(self, pat):
        srcs = list(range(20)) * 5
        r_scalar = np.random.default_rng(7)
        r_spec = np.random.default_rng(7)
        scalar = [destination(pat, s, r_scalar) for s in srcs]
        drawn = [spec_destination(pat, 20, s, r_spec) for s in srcs]
        assert drawn == scalar
        assert r_scalar.random() == r_spec.random()

    @pytest.mark.parametrize(
        "shape", [(4, 5), (2, 3), (6, 8), (5, 6), (3, 3), (1, 4), (4, 4), (2, 2)],
        ids=lambda rc: f"{rc[0]}x{rc[1]}",
    )
    def test_tables_and_rows_on_every_layout(self, shape):
        """Permutation tables and candidate rows equal the scalar laws
        tabulated source by source, on square, flat and tiny grids."""
        lay = Layout(*shape)
        n = lay.n
        for pat in all_patterns(lay):
            spec = pat.dest_spec
            if spec.kind == "table":
                want = [dest_fn(pat)(s, None) for s in range(n)]
                assert spec.table.dtype == np.int64, pat.kind
                assert spec.table.tolist() == want, pat.kind
            elif spec.kind != "uniform":
                hot = sorted(pat.hotspots) or lay.mc_routers()
                for s in range(n):
                    row = spec.table[s, : spec.bounds[s]].tolist()
                    assert row == [h for h in hot if h != s], (pat.kind, s)


def reference_event_stream(pat, n, rate, seed, ncycles):
    """The (cycle, src, dst, size) stream the reference engine's
    ``_generate`` produces — scalar draws, verbatim order."""
    rng = np.random.default_rng(seed)
    whole = int(rate)
    frac = rate - whole
    out = []
    for c in range(ncycles):
        draws = rng.random(n)
        for node in range(n):
            count = whole + (1 if draws[node] < frac else 0)
            for _ in range(count):
                dst = destination(pat, node, rng)
                size = packet_size(pat, rng)
                out.append((c, node, dst, size))
    return out


def trace_event_stream(pat, n, rate, seed, ncycles, chunk_cycles):
    stream = TraceStream(
        pat, n, rate, np.random.default_rng(seed), chunk_cycles=chunk_cycles
    )
    out = []
    while stream.next_cycle < ncycles:
        _, cyc, src, dst, size = stream.next_chunk()
        out.extend(zip(cyc.tolist(), src.tolist(), dst.tolist(), size.tolist()))
    return [e for e in out if e[0] < ncycles]


class TestTraceStreamMatchesReference:
    @pytest.mark.parametrize("pattern_idx", range(8))
    def test_all_patterns_tiny_chunks(self, pattern_idx):
        """chunk_cycles=7 forces dozens of chunk boundaries (and
        half-word cache carries) across 150 cycles."""
        pat = all_patterns(LAYOUT_4X5)[pattern_idx]
        for rate in (0.07, 0.33):
            ref = reference_event_stream(pat, 20, rate, 5, 150)
            got = trace_event_stream(pat, 20, rate, 5, 150, chunk_cycles=7)
            assert got == ref, (pat.kind, rate)

    @pytest.mark.parametrize("rate", [1.0, 1.5, 2.25])
    def test_super_unit_rates_scalar_path(self, rate):
        """Rates >= 1 (a whole part per node plus a Bernoulli winner)
        against the reference stream."""
        pat = uniform_random(20)
        ref = reference_event_stream(pat, 20, rate, 9, 60)
        got = trace_event_stream(pat, 20, rate, 9, 60, chunk_cycles=16)
        assert got == ref

    def test_single_hotspot_scalar_path(self):
        """bounds == 1 routes to scalar emulation (numpy's integers(1)
        consumes nothing) and still matches the reference stream."""
        pat = hotspot(20, [4], 0.6)
        stream = TraceStream(pat, 20, 0.2, np.random.default_rng(1))
        assert not stream._vec_ok
        ref = reference_event_stream(pat, 20, 0.2, 1, 120)
        got = trace_event_stream(pat, 20, 0.2, 1, 120, chunk_cycles=32)
        assert got == ref

    def test_vectorized_and_scalar_paths_agree(self):
        """The two generation paths consume the identical word stream."""
        for pat in (uniform_random(20), memory_traffic(LAYOUT_4X5),
                    hotspot(20, LAYOUT_4X5.mc_routers()), tornado(LAYOUT_4X5)):
            a = TraceStream(pat, 20, 0.25, np.random.default_rng(3), chunk_cycles=64)
            b = TraceStream(pat, 20, 0.25, np.random.default_rng(3), chunk_cycles=64)
            assert a._vec_ok
            b._vec_ok = False  # force scalar emulation
            for _ in range(4):
                ca = a.next_chunk()
                cb = b.next_chunk()
                assert ca[0] == cb[0]
                for xa, xb in zip(ca[1:], cb[1:]):
                    assert np.array_equal(xa, xb), pat.kind

    @staticmethod
    def _next_word(stream):
        """The next raw word ``stream`` will read: its buffer position,
        independent of how far it pre-drew."""
        if stream._pos < stream._buf.size:
            return int(stream._buf[stream._pos])
        g = np.random.default_rng()
        g.bit_generator.state = stream.rng.bit_generator.state
        return int(take_raw(g, 1)[0])

    @pytest.mark.parametrize("rate", [1.0, 1.5, 2.0])
    def test_super_unit_rates_vectorized_match_scalar(self, rate):
        """Rates >= 1 take the vectorized path; chunk by chunk it gives
        the scalar emulation's events, stream position and half-word
        cache.  Chunks of 5 cycles cross many chunk boundaries."""
        for pat in (uniform_random(20), memory_traffic(LAYOUT_4X5),
                    hotspot(20, LAYOUT_4X5.mc_routers()), tornado(LAYOUT_4X5)):
            a = TraceStream(pat, 20, rate, np.random.default_rng(4), chunk_cycles=5)
            b = TraceStream(pat, 20, rate, np.random.default_rng(4), chunk_cycles=5)
            assert a._vec_ok
            b._vec_ok = False  # force scalar emulation
            for _ in range(12):
                ca = a._chunk_vectorized(5)
                cb = b.next_chunk()
                assert ca is not None and ca[0] == cb[0]
                for xa, xb in zip(ca[1:], cb[1:]):
                    assert np.array_equal(xa, xb), (pat.kind, rate)
                assert self._next_word(a) == self._next_word(b)
                assert a._cache_has == b._cache_has
                if a._cache_has:
                    assert a._cache_val == b._cache_val

    def test_larger_grid_memory_pattern(self):
        lay = Layout(rows=8, cols=6)
        pat = memory_traffic(lay)
        ref = reference_event_stream(pat, 48, 0.15, 2, 90)
        got = trace_event_stream(pat, 48, 0.15, 2, 90, chunk_cycles=13)
        assert got == ref


def reference_bursty_stream(pat, n, rate, seed, ncycles):
    """The reference engine's ``_generate`` under a burst gate: the
    packet-draw RNG is untouched, an independent ``BurstState`` scales
    the per-(cycle, node) Bernoulli threshold, and effective rates
    above 1.0 inject their whole part unconditionally."""
    gate = pat.burst.state(n)
    rng = np.random.default_rng(seed)
    out = []
    for c in range(ncycles):
        draws = rng.random(n)
        g = gate.row(c)
        for node in range(n):
            eff = rate * g[node]
            count = int(eff) + (1 if draws[node] < eff - int(eff) else 0)
            for _ in range(count):
                dst = destination(pat, node, rng)
                size = packet_size(pat, rng)
                out.append((c, node, dst, size))
    return out


class TestBurstyTraceMatchesReference:
    MMPP = dict(kind="mmpp", p_on=0.2, p_off=0.2, seed=4)
    STORM = dict(kind="storm", p_on=0.15, p_off=0.3, seed=9)
    LRD = dict(kind="lrd", p_on=0.12, p_off=0.3, seed=4, alpha=1.4)

    def _spec(self, fields, **over):
        from repro.sim import BurstSpec

        return BurstSpec(**{**fields, **over})

    @pytest.mark.parametrize(
        "fields", [MMPP, STORM, LRD], ids=["mmpp", "storm", "lrd"]
    )
    def test_vectorized_path_tiny_chunks(self, fields):
        """rate * max_scale < 1 keeps the vectorized path eligible; the
        gate rows must line up with chunk boundaries at stride 7."""
        pat = uniform_random(20).with_burst(self._spec(fields))
        stream = TraceStream(pat, 20, 0.2, np.random.default_rng(5))
        assert stream._vec_ok  # on_scale resolves to <= 2.5 here
        ref = reference_bursty_stream(pat, 20, 0.2, 5, 150)
        got = trace_event_stream(pat, 20, 0.2, 5, 150, chunk_cycles=7)
        assert got == ref

    def test_bursty_hotspot_vectorized(self):
        pat = hotspot(20, [3, 11], 0.6).with_burst(self._spec(self.STORM))
        ref = reference_bursty_stream(pat, 20, 0.15, 2, 120)
        got = trace_event_stream(pat, 20, 0.15, 2, 120, chunk_cycles=13)
        assert got == ref

    def test_guard_breaks_to_scalar_path(self):
        """An ON-phase effective rate above 1.0 disqualifies the
        vectorized path (the whole part would be nonzero); the scalar
        fallback must still replicate the reference stream, multi-packet
        cycles included."""
        spec = self._spec(self.MMPP, on_scale=3.0)
        pat = uniform_random(20).with_burst(spec)
        rate = 0.5  # ON phase: eff = 1.5 -> whole part 1
        stream = TraceStream(pat, 20, rate, np.random.default_rng(6))
        assert not stream._vec_ok
        ref = reference_bursty_stream(pat, 20, rate, 6, 100)
        got = trace_event_stream(pat, 20, rate, 6, 100, chunk_cycles=16)
        assert got == ref
        assert any(e[0] == f[0] and e[1] == f[1]
                   for e, f in zip(ref, ref[1:]))  # multi-packet cycles hit

    def test_bursty_lrd_hotspot(self):
        """Heavy-tailed gates over a hotspot pattern: the self-similar
        scenario the recovery/robustness grids lean on."""
        pat = hotspot(20, [3, 11], 0.6).with_burst(self._spec(self.LRD))
        ref = reference_bursty_stream(pat, 20, 0.15, 2, 160)
        got = trace_event_stream(pat, 20, 0.15, 2, 160, chunk_cycles=11)
        assert got == ref

    def test_forced_scalar_agrees_with_vectorized(self):
        """Both generation paths consume the identical word stream under
        modulation, each against its own independent gate chain."""
        pat = uniform_random(20).with_burst(self._spec(self.MMPP))
        a = TraceStream(pat, 20, 0.25, np.random.default_rng(3), chunk_cycles=64)
        b = TraceStream(pat, 20, 0.25, np.random.default_rng(3), chunk_cycles=64)
        assert a._vec_ok
        b._vec_ok = False  # force scalar emulation
        for _ in range(4):
            ca = a.next_chunk()
            cb = b.next_chunk()
            assert ca[0] == cb[0]
            for xa, xb in zip(ca[1:], cb[1:]):
                assert np.array_equal(xa, xb)


class TestHotspotValidation:
    def test_empty_hotspots_rejected(self):
        with pytest.raises(ValueError, match="at least one router"):
            hotspot(20, [])

    @pytest.mark.parametrize("bad", [-0.1, 1.01, 5.0])
    def test_hot_fraction_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="hot_fraction"):
            hotspot(20, [1, 2], bad)

    @pytest.mark.parametrize("bad", [20, 25, -1])
    def test_hotspots_out_of_range_rejected(self, bad):
        """A router outside [0, n) is refused at construction: -1 would
        read as the trace's own "no hotspot" padding, 25 would index
        past the engines' tables."""
        with pytest.raises(ValueError, match=r"outside \[0, 20\)"):
            hotspot(20, [3, bad])

    def test_boundary_fractions_accepted(self):
        assert hotspot(20, [1], 0.0).dest_spec.hot_fraction == 0.0
        assert hotspot(20, [1], 1.0).dest_spec.hot_fraction == 1.0
        assert hotspot(20, [0, 19]).hotspots == (0, 19)

    def test_spec_rejects_via_runner_builder(self):
        from repro.runner import TrafficSpec

        with pytest.raises(ValueError, match="at least one router"):
            TrafficSpec.hotspot(20, ())
        with pytest.raises(ValueError, match="hot_fraction"):
            TrafficSpec.from_dict({**hotspot(20, [1]).as_dict(), "hot_fraction": 1.5})


def test_pattern_without_dest_spec_rejected():
    """Every kind makes a DestSpec: without one the engines could
    not draw destinations, so an unknown kind is refused at
    construction."""
    with pytest.raises(ValueError, match="unknown traffic kind 'custom'"):
        TrafficSpec("custom", n_nodes=20)


def test_router_count_of_every_kind():
    """A pattern's router count: ``rows * cols`` for the grid kinds,
    ``n_nodes`` for the others."""
    for pat in all_patterns(LAYOUT_4X5):
        assert pat.n_routers == 20, pat.kind


@pytest.fixture(scope="module")
def mesh20_table():
    from repro.experiments.registry import NDBT, routed_table
    from repro.topology import expert_topology

    return routed_table(expert_topology("Mesh", 20), NDBT)


@pytest.mark.parametrize("engine", ["fast", "turbo"])
@pytest.mark.parametrize("pat,sized_for", [
    (shuffle_pattern(16), 16),
    (memory_traffic(Layout(2, 3)), 6),
    (uniform_random(16), 16),
], ids=["shuffle16", "memory2x3", "uniform16"])
def test_traffic_sized_for_another_network_refused(mesh20_table, pat,
                                                   sized_for, engine):
    """Neither open-loop engine runs a pattern sized for another router
    count: not by an IndexError inside the trace, nor silently over a
    subset of the routers."""
    from repro.sim import run_point

    with pytest.raises(ValueError) as exc:
        run_point(mesh20_table, pat, 0.05, warmup=50, measure=100,
                  engine=engine)
    assert str(exc.value) == (
        f"{pat.kind} traffic is sized for {sized_for} routers, but the "
        "network has 20"
    )
