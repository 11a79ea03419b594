"""Tests for the CLI, the fractional multipath MCLB bound, and LP export."""

import json
import os

import pytest

from mclb_lp_oracle import mclb_route_multipath
from repro.cli import main
from repro.core import mclb_route
from repro.milp import MAXIMIZE, Model, quicksum
from repro.topology import LAYOUT_4X5, Layout, Topology, folded_torus, save


class TestMultipathMCLB:
    def test_fractional_lower_bounds_integral(self):
        ft = folded_torus(LAYOUT_4X5)
        frac = mclb_route_multipath(ft, time_limit=60)
        integral = mclb_route(ft, time_limit=60)
        assert frac.max_channel_load <= integral.max_channel_load + 1e-6

    def test_shares_sum_to_one(self):
        ft = folded_torus(LAYOUT_4X5)
        frac = mclb_route_multipath(ft, time_limit=60)
        by_flow = {}
        for (sd, p), w in frac.weights.items():
            by_flow[sd] = by_flow.get(sd, 0.0) + w
        for sd, total in by_flow.items():
            assert total == pytest.approx(1.0, abs=1e-4), sd

    def test_channel_loads_match_objective(self):
        ft = folded_torus(LAYOUT_4X5)
        frac = mclb_route_multipath(ft, time_limit=60)
        loads = frac.channel_loads()
        assert max(loads.values()) == pytest.approx(
            frac.max_channel_load, abs=1e-5
        )


class TestLPExport:
    def test_lp_string_structure(self):
        m = Model("demo", sense=MAXIMIZE)
        x = m.add_binary("x")
        y = m.add_integer("y", ub=5)
        m.add_constr(x + 2 * y <= 7, name="cap")
        m.set_objective(3 * x + y)
        text = m.to_lp_string()
        assert "Maximize" in text
        assert "cap:" in text
        assert "Binaries" in text and "Generals" in text
        assert "End" in text

    def test_write_lp(self, tmp_path):
        m = Model("demo")
        x = m.add_var("x", ub=1)
        m.set_objective(x)
        p = tmp_path / "model.lp"
        m.write_lp(str(p))
        assert p.read_text().startswith("\\ demo")


class TestCLI:
    def test_evaluate_expert(self, capsys):
        assert main(["evaluate", "FoldedTorus"]) == 0
        out = capsys.readouterr().out
        assert "avg hops" in out and "2.31" in out

    def test_evaluate_json_file(self, tmp_path, capsys):
        t = Topology.from_undirected(
            Layout(rows=1, cols=4), [(0, 1), (1, 2), (2, 3), (0, 3)], name="ringy"
        )
        p = tmp_path / "t.json"
        save(t, str(p))
        assert main(["evaluate", str(p), "--routers", "4"]) == 0
        assert "ringy" in capsys.readouterr().out

    def test_evaluate_unknown_topology(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "Hypercube"])

    def test_generate_sa_and_save(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        rc = main([
            "generate", "--rows", "2", "--cols", "3", "--radix", "3",
            "--objective", "sa", "--sa-steps", "300", "--out", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["rows"] == 2 and data["cols"] == 3

    def test_route_command(self, capsys):
        assert main(["route", "FoldedTorus", "--policy", "ndbt"]) == 0
        out = capsys.readouterr().out
        assert "max_load" in out and "vcs=" in out

    def test_simulate_command(self, capsys, tmp_path):
        rc = main([
            "simulate", "FoldedTorus", "--points", "2", "--max-rate", "0.08",
            "--warmup", "100", "--measure", "300",
            "--cache-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "saturation throughput" in out

    SIM = ["simulate", "FoldedTorus", "--points", "2", "--max-rate", "0.08",
           "--warmup", "300", "--measure", "400", "--no-cache"]

    @pytest.mark.parametrize("engine", ["fast", "turbo"])
    def test_simulate_seeds_prints_replica_table(self, engine, capsys):
        assert main(self.SIM + ["--seeds", "2", "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert "+-" in out and "over 2 seeds" in out

    def test_simulate_seeds_with_faults_on_fast(self, capsys):
        rc = main(self.SIM + ["--seeds", "2", "--faults", "500:link_down:2-7"])
        assert rc == 0
        assert "over 2 seeds" in capsys.readouterr().out

    def test_simulate_turbo_rejects_faults(self):
        with pytest.raises(SystemExit, match="turbo does not support"):
            main(self.SIM + ["--engine", "turbo",
                             "--faults", "500:link_down:2-7"])

    def test_simulate_caches_its_table(self, tmp_path, monkeypatch, capsys):
        """The routed table is a cached ``routing`` task of the
        command's runner: a rerun on the same cache does not route."""
        import repro.routing

        argv = ["simulate", "FoldedTorus", "--points", "2",
                "--max-rate", "0.08", "--warmup", "100", "--measure", "300",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out

        def boom(*a, **kw):
            raise AssertionError("routing executed despite cached table")

        monkeypatch.setattr(repro.routing, "ndbt_route", boom)
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flag,value", [
        ("--warmup", "-1"), ("--measure", "0"), ("--points", "0"),
        ("--max-rate", "-0.1"), ("--max-rate", "0"), ("--engine", "reference"),
        ("--seeds", "0"), ("--parallel", "-1"), ("--task-retries", "-1"),
        ("--task-timeout", "0"),
    ])
    def test_simulate_rejects_bad_values(self, flag, value, capsys):
        """Out-of-range budgets and runner settings are usage errors
        (exit 2), not a ZeroDivisionError, an empty table, a
        negative-rate sweep, a silent clamp or a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "FoldedTorus", flag, value, "--no-cache"])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--warmup", "-1"), ("--measure", "0"), ("--seeds", "0"),
        ("--iters", "0"),
    ])
    def test_explore_rejects_bad_budgets(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--grids", "4x5", "--link-classes", "small",
                  "--objectives", "latency", "--sa-steps", "100",
                  "--no-cache", "--out-dir", "", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_ns_spec(self, capsys):
        assert main(["evaluate", "ns:latop:medium"]) == 0
        assert "avg hops" in capsys.readouterr().out
