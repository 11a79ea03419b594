"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest e2ebench -q

They show that a perturbed reference is reported as failed operations,
that the tracer's self time subtracts child spans, and that
``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _perturb(value):
    """The same value with its first number moved by one part in 1e9."""
    if isinstance(value, list):
        i = next(k for k, v in enumerate(value) if isinstance(v, float))
        return value[:i] + [value[i] * (1 + 1e-9)] + value[i + 1:]
    return value * (1 + 1e-9)


@pytest.fixture(scope="module")
def loop_job(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("work"))
    return run.run_job("loop-warm", 0, work)


def test_job_matches_its_reference(loop_job):
    ref = run.load_references()["loop-warm"]["0"]
    assert "error" not in loop_job
    assert run.job_failures(loop_job, ref) == (len(ref), 0)


def test_perturbed_reference_is_reported_as_failures(loop_job):
    ref = run.load_references()["loop-warm"]["0"]
    bad = dict(ref)
    for key in sorted(bad)[:3]:
        bad[key] = _perturb(bad[key])
    assert run.job_failures(loop_job, bad) == (len(ref), 3)
    # An operation the reference lacks is not a pass either.
    dropped = dict(ref)
    dropped.pop(sorted(ref)[0])
    assert run.job_failures(loop_job, dropped) == (len(ref), 1)


def test_failed_job_fails_every_operation():
    ref = run.load_references()["explore-sa"]["0"]
    assert run.job_failures({"error": "boom"}, ref) == (len(ref), len(ref))
    assert run.job_failures(
        {"outputs": ref, "quarantined": 2}, ref) == (len(ref) + 2, 2)


def test_references_cover_every_workload_and_input_seed():
    refs = run.load_references()
    assert set(refs) == set(WORKLOADS)
    for per_seed in refs.values():
        assert set(per_seed) == {str(s) for s in range(run.REF_SEEDS)}
        assert all(per_seed.values())


def test_self_time_subtracts_children():
    names = ["pipeline.route", "routing.vc_assign", "runner.hash"]
    doc = {
        "names": names,
        # route [0, 10] holds vc_assign [1, 7], which holds hash [2, 3];
        # a second top-level hash [11, 12].
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 7.0, 0], [2, 2.0, 3.0, 1],
                  [2, 11.0, 12.0, -1]],
        "counts": {c: 0 for c in tracing.COUNTS},
        "window": [0.0, 15.0],
    }
    m = tracing.derive(doc)
    assert m["pipeline.route.self_s"] == pytest.approx(4.0)
    assert m["routing.vc_assign.self_s"] == pytest.approx(5.0)
    assert m["runner.hash.calls"] == 2
    assert m["runner.hash.s"] == pytest.approx(2.0)
    assert m["harness.self_s"] == pytest.approx(15.0 - 10.0 - 1.0)
    assert tracing.largest_self(m) == "routing.vc_assign"


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    empty = {"names": [], "spans": [],
             "counts": {c: 0 for c in tracing.COUNTS}, "window": [0.0, 1.0]}
    job = {"trace": tracing.derive(empty), "import_s": 1.0, "route_s": 0.0,
           "wall_s": 1.0}
    printed = run.per_layer_metrics([job, job], job)
    assert {m["name"] for m in spec["per_layer"]} == set(printed)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["unit"] == run.metric_unit(m["name"]) or m in spec["end_to_end"]
