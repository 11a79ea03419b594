"""One job of one workload, run in a fresh interpreter by ``run.py``.

    python3 e2ebench/job.py --workload NAME --seed N --cache-dir DIR \
        --out FILE --t0 MONOTONIC [--trace] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
interpreter, so ``setup_s`` covers interpreter start, imports and the
workload's set-up.  The job writes one JSON document to ``--out``:
timings, peak RSS, the operations' outputs and, with ``--trace``, the
path of its span file.  It exits 1 if the workload raised.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    status = 0
    try:
        t_import = time.perf_counter()
        # Every module a traced run wraps is imported in untraced runs too,
        # so the two timed phases do the same lazy-import work.
        for module in workload.modules + sorted(
            {m for m, _ in tracing.SPANS.values()}
        ):
            importlib.import_module(module)
        doc["import_s"] = time.perf_counter() - t_import
        doc["versions"] = {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": importlib.import_module("scipy").__version__,
        }
        ctx = workload.setup(args.seed, args.cache_dir)
        doc["setup_s"] = time.monotonic() - args.t0
        doc["route_s"] = ctx["route_s"]
        if not args.setup_only:
            tracer = None
            if args.trace:
                tracer = tracing.Tracer()
                tracing.install(tracer)
            gc.collect()
            if tracer is not None:
                tracer.arm()
            c0, w0 = time.process_time(), time.perf_counter()
            result = workload.run(ctx)
            doc["wall_s"] = time.perf_counter() - w0
            doc["cpu_s"] = time.process_time() - c0
            if tracer is not None:
                tracer.disarm()
                doc["spans"] = args.out + ".spans.json"
                tracer.dump(doc["spans"])
            doc["outputs"] = workload.outputs(result)
            doc["quarantined"] = len(ctx["runner"].failures)
        ctx["runner"].close()
    except Exception:  # noqa: BLE001 - the job reports, the parent counts
        doc["error"] = traceback.format_exc()
        status = 1
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
