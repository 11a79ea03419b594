#!/usr/bin/env python3
"""Record the reference outputs ``run.py`` checks every job against.

    python3 e2ebench/record.py

Runs one untraced job per workload and input seed (``0 .. REF_SEEDS-1``)
and overwrites ``e2ebench/references.json`` with their outputs, so every
reference comes from one commit.  Record only on a commit whose outputs
are known good: from then on any change to a simulated statistic counts
as failed operations.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import REF_SEEDS, REFERENCES, run_job, work_dir  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    refs = {}
    with work_dir("record-") as work:
        for name in WORKLOADS:
            per_seed = {}
            for seed in range(REF_SEEDS):
                doc = run_job(name, seed, work)
                if "error" in doc or doc.get("quarantined"):
                    print(f"{name} seed {seed} failed; nothing written",
                          file=sys.stderr)
                    return 1
                per_seed[str(seed)] = doc["outputs"]
                print(f"{name} seed {seed}: {len(doc['outputs'])} operations",
                      file=sys.stderr)
            refs[name] = per_seed
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
