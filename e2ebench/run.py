#!/usr/bin/env python3
"""End-to-end benchmark of the NetSmith reproduction.

    python3 e2ebench/run.py --workload fig6-cold --seed 0 --seconds 28 --trace 0

Run from the repository root.  One client issues one batch job at a
time, back to back (closed loop, concurrency 1).  Every job is a fresh
single-threaded interpreter (``e2ebench/job.py``, ``Runner(parallel=1)``,
BLAS/OpenMP pools pinned to one thread) with its own empty cache
directory, removed afterwards; its stdout and stderr go to a log that is
shown only when the job fails.

``--trace 0`` runs jobs until about ``--seconds`` have passed (at least
``MIN_JOBS``) and reports the median of each end-to-end metric over the
jobs: ``wall_s``
and ``cpu_s`` of the timed phase, ``setup_s`` (interpreter start to
workload ready, topped up with set-up-only interpreters to
``MIN_SETUPS`` samples) and ``peak_rss_mb``.

``--trace 1`` runs one untraced job and two traced jobs and reports the
per-layer split (``e2ebench/tracing.py``), the exact counts, and the
tracing overhead.  It checks that the traced outputs equal the untraced
ones and that every exact count repeats across the two traced jobs.

Every job's outputs are compared, operation by operation, with the
references recorded in ``e2ebench/references.json``
(``e2ebench/record.py``); an operation that raised, was quarantined, or
differs counts as failed.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCES = os.path.join(BENCH, "references.json")
WORK_ROOT = os.path.join(ROOT, ".e2ebench-work")

#: ``--seed n`` runs input seed ``n % REF_SEEDS``; references cover them all.
REF_SEEDS = 10
#: Fewest jobs behind a reported median, even when the host runs slow.
MIN_JOBS = 2
#: Fewest set-up samples behind the reported ``setup_s`` median.
MIN_SETUPS = 3
#: A job may end this far past ``--seconds`` (as a share of it).
OVERRUN = 0.1
#: Seconds one job may take before it is killed and counted as failed.
JOB_TIMEOUT = 150

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env(work: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = work
    env["REPRO_CACHE_DIR"] = os.path.join(work, "repro-cache")
    return env


@contextlib.contextmanager
def work_dir(prefix: str):
    """A scratch directory inside the checkout, removed on exit."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it


def run_job(
    workload: str, seed: int, work: str,
    trace: bool = False, setup_only: bool = False,
) -> Dict[str, Any]:
    """One job in a fresh interpreter; its JSON document (with the derived
    trace metrics when traced, or ``error`` when it failed)."""
    job_dir = tempfile.mkdtemp(prefix="job-", dir=work)
    out = os.path.join(job_dir, "job.json")
    log = os.path.join(job_dir, "job.log")
    cmd = [
        sys.executable, os.path.join(BENCH, "job.py"),
        "--workload", workload, "--seed", str(seed),
        "--cache-dir", os.path.join(job_dir, "cache"), "--out", out,
    ]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    try:
        with open(log, "w") as fh:
            t0 = time.monotonic()
            subprocess.run(
                cmd + ["--t0", repr(t0)], stdout=fh, stderr=subprocess.STDOUT,
                env=child_env(job_dir), cwd=ROOT, timeout=JOB_TIMEOUT,
            )
        doc = {}
        if os.path.exists(out):
            with open(out) as fh:
                doc = json.load(fh)
        if "spans" in doc:
            with open(doc["spans"]) as fh:
                doc["trace"] = tracing.derive(json.load(fh))
        if not doc or ("wall_s" not in doc and not setup_only):
            doc.setdefault("error", "job produced no result")
    except subprocess.TimeoutExpired:
        doc = {"error": f"job timed out after {JOB_TIMEOUT}s"}
    if "error" in doc:
        with open(log) as fh:
            sys.stderr.write(f"[{workload} seed {seed}] {doc['error']}\n"
                             + fh.read()[-4000:] + "\n")
    shutil.rmtree(job_dir, ignore_errors=True)
    return doc


def load_references(path: str = REFERENCES) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def score(outputs: Optional[Dict[str, Any]], reference: Dict[str, Any]
          ) -> Tuple[int, int]:
    """(attempted, failed) operations of one job against its reference.

    Operations are the reference's entries plus any the job produced that
    the reference lacks.  A job that raised has no outputs, so every
    operation of it failed."""
    outputs = outputs or {}
    keys = set(reference) | set(outputs)
    missing = object()
    failed = sum(
        1 for k in keys if outputs.get(k, missing) != reference.get(k, missing)
    )
    return len(keys), failed


def job_failures(doc: Dict[str, Any], reference: Dict[str, Any]
                 ) -> Tuple[int, int]:
    attempted, failed = score(None if "error" in doc else doc["outputs"],
                              reference)
    quarantined = doc.get("quarantined", 0)
    return attempted + quarantined, failed + quarantined


def tally(jobs: List[Dict[str, Any]], reference: Dict[str, Any]
          ) -> Tuple[int, int]:
    """(attempted, failed) operations summed over ``jobs``."""
    counts = [job_failures(j, reference) for j in jobs]
    return sum(a for a, _ in counts), sum(f for _, f in counts)


def environment(jobs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """nproc, library versions (as the jobs saw them) and thread pins."""
    versions = next((j["versions"] for j in jobs if "versions" in j), {})
    return {"nproc": os.cpu_count(), **versions, "threads": THREAD_ENV}


def measure(workload: str, seed: int, seconds: float, work: str,
            reference: Dict[str, Any]) -> Dict[str, Any]:
    """Untraced jobs back to back for about ``seconds``; medians."""
    jobs: List[Dict[str, Any]] = []
    start = time.monotonic()
    while True:
        jobs.append(run_job(workload, seed, work))
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(jobs)  # if one more job ran
        if "error" in jobs[-1] or (len(jobs) >= MIN_JOBS and
                                   next_end > seconds * (1 + OVERRUN)):
            break
    attempted, failed = tally(jobs, reference)
    info = {"jobs": len(jobs), "environment": environment(jobs)}
    if "error" in jobs[-1]:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}, "info": info}
    setups = [j["setup_s"] for j in jobs]
    while len(setups) < MIN_SETUPS:
        extra = run_job(workload, seed, work, setup_only=True)
        if "error" in extra:
            return {"correct": False, "attempted": attempted,
                    "failed": failed, "metrics": {}, "info": info}
        setups.append(extra["setup_s"])
    values = {
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }
    info.update(wall_s=[j["wall_s"] for j in jobs], setup_s=setups)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in values.items()},
            "info": info}


def per_layer_metrics(traced: List[Dict[str, Any]], untraced: Dict[str, Any]
                      ) -> Dict[str, float]:
    """Span metrics averaged over the traced jobs, plus derived ones."""
    m: Dict[str, float] = {}
    for key in traced[0]["trace"]:
        m[key] = statistics.fmean(t["trace"][key] for t in traced)
    for span, cycles in (("sim", "sim.cycles"), ("fullsys", "fullsys.cycles")):
        busy = m[f"{span}.run.s"]
        m[f"{span}.kcycles_per_s"] = m[cycles] / busy / 1e3 if busy else 0.0
    gets = m["runner.cache.gets"]
    m["runner.cache.hit_ratio"] = m["runner.cache.hits"] / gets if gets else 0.0
    m["setup.import_s"] = statistics.fmean(t["import_s"] for t in traced)
    m["setup.route_s"] = statistics.fmean(t["route_s"] for t in traced)
    m["trace.wall_s"] = statistics.fmean(t["wall_s"] for t in traced)
    m["trace.overhead_s"] = m["trace.wall_s"] - untraced["wall_s"]
    return m


def metric_unit(name: str) -> str:
    if name.endswith(".calls") or name in tracing.COUNTS:
        return "count"
    if name.endswith("kcycles_per_s"):
        return "kcycles/s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "s"


def trace_run(workload: str, seed: int, work: str,
              reference: Dict[str, Any]) -> Dict[str, Any]:
    untraced = run_job(workload, seed, work)
    traced = [run_job(workload, seed, work, trace=True) for _ in range(2)]
    jobs = [untraced] + traced
    attempted, failed = tally(jobs, reference)
    info: Dict[str, Any] = {"jobs": len(jobs), "environment": environment(jobs)}
    if any("error" in j for j in jobs):
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}, "info": info}
    problems = []
    for t in traced:
        # Tracing only observes: traced outputs must equal untraced ones.
        _, diff = score(t["outputs"], untraced["outputs"])
        if diff:
            problems.append(f"{diff} traced outputs differ from untraced")
    first, second = traced[0]["trace"], traced[1]["trace"]
    # Counts that must repeat exactly across traced jobs.
    exact = [k for k in first if k.endswith(".calls") or k in tracing.COUNTS]
    unstable = [k for k in exact if first[k] != second[k]]
    if unstable:
        problems.append(f"exact counts differ across traced runs: {unstable}")
    m = per_layer_metrics(traced, untraced)
    metrics = {k: {"value": v, "unit": metric_unit(k)} for k, v in m.items()}
    info.update(largest_self=tracing.largest_self(m), problems=problems)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "info": info}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Exit through the finally blocks: the running job is killed and
    # waited for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark under {ROOT}/src", file=sys.stderr)
        return 2
    input_seed = args.seed % REF_SEEDS
    reference = load_references()[args.workload][str(input_seed)]
    # Byte-compile once so no job pays for it inside its set-up time.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src"), BENCH],
                   check=True, stdout=subprocess.DEVNULL)
    with work_dir(f"{args.workload}-") as work:
        if args.trace:
            res = trace_run(args.workload, input_seed, work, reference)
        else:
            res = measure(args.workload, input_seed, args.seconds, work,
                          reference)
    info = dict(res.pop("info"), workload=args.workload, seed=args.seed,
                input_seed=input_seed)
    print(json.dumps({"info": info}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
