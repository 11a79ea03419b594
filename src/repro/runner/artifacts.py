"""Frozen-artifact generation as runner tasks (the generate_all pipeline).

The seed's ``scripts/generate_all.py`` was a single serial script with
ad-hoc per-file resume logic.  Here every artifact — an expert/LPBT
signature reconstruction, a NetSmith SCOp/ShufOpt/LatOp generation, an SA
scale-up — is one pure-data task, so the whole pipeline:

* fans out across worker processes (the stages are independent);
* resumes at task granularity, twice over: finished entries already in
  the ``.gen/*.json`` group files are skipped, and interrupted runs find
  partial work in the content-addressed cache;
* records failures without aborting the batch (SCOp is fragile by
  design); failed results are never cached, so a retry actually retries.

``scripts/generate_all.py`` and ``scripts/freeze_artifacts.py`` are thin
CLI wrappers over :func:`generate_all` and :func:`freeze`.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from . import tasks as _tasks
from .orchestrator import Runner

#: Bump to invalidate cached artifact results.
ARTIFACT_VERSION = 1


# ---------------------------------------------------------------------------
# Worker-side builders.  Each takes a pure-data payload and returns a
# JSON-clean result dict; failures are captured, not raised, so one
# fragile MILP stage cannot abort a whole parallel batch.
# ---------------------------------------------------------------------------

def _layout(payload: Dict[str, Any]):
    from ..topology import Layout

    rows, cols = payload["layout"]
    return Layout(rows=rows, cols=cols)


def _build_recon(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Signature-matched expert/LPBT reconstruction (Table II rows)."""
    from ..topology import Signature, reconstruct

    edges, cost = reconstruct(
        _layout(payload),
        payload["link_class"],
        Signature(*payload["signature"]),
        steps=payload["steps"],
        restarts=payload["restarts"],
        seed=payload["seed"],
    )
    return {"edges": [list(e) for e in edges], "cost": float(cost)}


def _build_scop(payload: Dict[str, Any]) -> Dict[str, Any]:
    """SCOp MILP generation with SA polish from the incumbent."""
    from ..core import NetSmithConfig, anneal_topology, generate_scop
    from ..topology import summarize

    layout = _layout(payload)
    cls = payload["link_class"]
    gen, diag = generate_scop(
        NetSmithConfig(
            layout=layout, link_class=cls,
            diameter_bound=payload["diameter_bound"],
        ),
        time_limit=payload["time_limit"],
        max_iterations=payload["max_iterations"],
    )
    topo = gen.topology
    sa = anneal_topology(
        NetSmithConfig(layout=layout, link_class=cls),
        objective="sparsest_cut",
        steps=payload["sa_steps"],
        seed=payload["sa_seed"],
        initial=topo,
    )
    if sa.objective > gen.objective:
        topo = sa.topology
    return {
        "links": [list(e) for e in sorted(topo.directed_links)],
        "row": summarize(topo).as_row(),
        "iterations": diag.iterations,
    }


def _build_shufopt(payload: Dict[str, Any]) -> Dict[str, Any]:
    from ..core import NetSmithConfig, generate_shufopt
    from ..topology import summarize

    gen = generate_shufopt(
        NetSmithConfig(
            layout=_layout(payload),
            link_class=payload["link_class"],
            diameter_bound=payload["diameter_bound"],
        ),
        time_limit=payload["time_limit"],
    )
    return {
        "links": [list(e) for e in sorted(gen.topology.directed_links)],
        "row": summarize(gen.topology).as_row(),
        "mip_gap": float(gen.mip_gap),
    }


def _build_latop(payload: Dict[str, Any]) -> Dict[str, Any]:
    """LatOp: MILP when it finds an incumbent, SA polish/fallback always."""
    from ..core import NetSmithConfig, anneal_topology, generate_latop

    layout = _layout(payload)
    cls = payload["link_class"]
    topo, obj = None, float("inf")
    if payload.get("milp_time_limit"):
        try:
            gen = generate_latop(
                NetSmithConfig(
                    layout=layout, link_class=cls,
                    diameter_bound=payload.get("diameter_bound"),
                ),
                time_limit=payload["milp_time_limit"],
            )
            topo, obj = gen.topology, gen.objective
        except RuntimeError:
            pass  # MILP found no incumbent: SA-only
    sa = anneal_topology(
        NetSmithConfig(layout=layout, link_class=cls),
        objective="latency",
        steps=payload["sa_steps"],
        seed=payload["sa_seed"],
        initial=topo,
    )
    if sa.objective < obj:
        topo = sa.topology
    return {"links": [list(e) for e in sorted(topo.directed_links)]}


_BUILDERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "recon": _build_recon,
    "scop": _build_scop,
    "shufopt": _build_shufopt,
    "latop": _build_latop,
}


def artifact_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry: dispatch on ``kind``; never raises."""
    try:
        result = _BUILDERS[payload["kind"]](payload)
        result["ok"] = True
        return result
    except Exception as exc:  # noqa: BLE001 — keep the batch alive
        # Full traceback text, not just repr(exc): by the time a
        # failure summary is printed the worker (and its stack) is long
        # gone, and "KeyError('x')" without a location is undebuggable.
        return {
            "ok": False,
            "error": repr(exc),
            "traceback": traceback.format_exc(),
        }


# The artifact task family rides the same run_tasks machinery as the
# simulation tasks; results are already plain dicts, so no decoder.
_tasks.TASK_FUNCTIONS["artifact"] = (artifact_task, lambda d: d)
_tasks.TASK_VERSIONS["artifact"] = ARTIFACT_VERSION


# ---------------------------------------------------------------------------
# The task roster (mirrors the seed script's five stages).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArtifactTask:
    """One artifact: where it lands (group file + entry key) and how it
    is built (pure-data payload)."""

    group: str  # .gen/<group>.json
    entry: str  # key inside the group file
    payload: Dict[str, Any]

    @property
    def name(self) -> str:
        return f"{self.group}:{self.entry}"


_SIGS20 = {
    "Kite-Small": ("small", (38, 4, 2.38, 8)),
    "Kite-Medium": ("medium", (40, 4, 2.25, 8)),
    "Kite-Large": ("large", (36, 5, 2.27, 8)),
    "ButterDonut": ("large", (36, 4, 2.32, 8)),
    "DoubleButterfly": ("large", (32, 4, 2.59, 8)),
}

_LPBT_SIGS = {
    "LPBT-Power": ("small", (33, 5, 2.59, 4)),
    "LPBT-Hops": ("small", (34, 6, 2.74, 4)),
}

_SIGS30 = {
    "Kite-Small": ("small", (58, 5, 2.91, 10)),
    "Kite-Medium": ("medium", (60, 5, 2.66, 10)),
    "Kite-Large": ("large", (56, 5, 2.69, 10)),
    "ButterDonut": ("large", (44, 10, 3.71, 8)),
    "DoubleButterfly": ("large", (48, 5, 2.90, 8)),
}


def default_tasks() -> List[ArtifactTask]:
    """The full frozen-artifact roster (seed script stages 1-5)."""
    tasks: List[ArtifactTask] = []
    base = {"version": ARTIFACT_VERSION}

    # 1. expert reconstructions at 20 routers (Table II upper half)
    for name, (cls, sig) in _SIGS20.items():
        tasks.append(ArtifactTask("experts20", name, {
            **base, "kind": "recon", "layout": [4, 5], "link_class": cls,
            "signature": list(sig), "steps": 6000, "restarts": 3, "seed": 7,
        }))
    # 2. LPBT signature reconstructions at 20
    for name, (cls, sig) in _LPBT_SIGS.items():
        tasks.append(ArtifactTask("lpbt20", name, {
            **base, "kind": "recon", "layout": [4, 5], "link_class": cls,
            "signature": list(sig), "steps": 6000, "restarts": 3, "seed": 11,
        }))
    # 3. NS SCOp + ShufOpt at 20
    for cls, tl in (("small", 40), ("medium", 60), ("large", 60)):
        tasks.append(ArtifactTask("ns20", f"scop/{cls}", {
            **base, "kind": "scop", "layout": [4, 5], "link_class": cls,
            "diameter_bound": 4, "time_limit": tl, "max_iterations": 8,
            "sa_steps": 400, "sa_seed": 3,
        }))
    for cls in ("small", "medium", "large"):
        tasks.append(ArtifactTask("ns20", f"shufopt/{cls}", {
            **base, "kind": "shufopt", "layout": [4, 5], "link_class": cls,
            "diameter_bound": 5, "time_limit": 120,
        }))
    # 4. 30-router NS LatOp (MILP + SA) and expert reconstructions
    for cls in ("small", "medium", "large"):
        tasks.append(ArtifactTask("ns30", f"latop/{cls}", {
            **base, "kind": "latop", "layout": [6, 5], "link_class": cls,
            "diameter_bound": 6, "milp_time_limit": 180,
            "sa_steps": 6000, "sa_seed": 5,
        }))
    for name, (cls, sig) in _SIGS30.items():
        tasks.append(ArtifactTask("experts30", name, {
            **base, "kind": "recon", "layout": [6, 5], "link_class": cls,
            "signature": list(sig), "steps": 4000, "restarts": 2, "seed": 13,
            # What the router count decides anyway (30 > EXACT_CUT_LIMIT);
            # kept so the artifact keys hold.
            "exact_bisection": False,
        }))
    # 5. 48-router NS LatOp via SA (Fig. 11)
    for cls in ("small", "medium", "large"):
        tasks.append(ArtifactTask("ns48", f"latop/{cls}", {
            **base, "kind": "latop", "layout": [8, 6], "link_class": cls,
            "milp_time_limit": None, "sa_steps": 9000, "sa_seed": 9,
        }))
    return tasks


def _entry_value(task: ArtifactTask, result: Dict[str, Any]) -> Any:
    """What the group file stores (matches the seed script's formats)."""
    if task.payload["kind"] == "recon":
        return result["edges"]
    return result["links"]


def generate_all(
    out_dir: str,
    runner: Runner,
    only: Optional[List[str]] = None,
    log: Callable[[str], None] = print,
) -> Dict[str, int]:
    """Build all missing frozen artifacts into ``out_dir`` (.gen).

    Returns ``{"done": ..., "skipped": ..., "failed": ...}``.  Safe to
    interrupt and rerun: finished entries are skipped via the group
    files, and in-progress batches resume from ``runner``'s content
    cache.
    """
    os.makedirs(out_dir, exist_ok=True)

    def group_path(group: str) -> str:
        return os.path.join(out_dir, f"{group}.json")

    def load_group(group: str) -> Dict[str, Any]:
        try:
            with open(group_path(group)) as fh:
                return json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    groups: Dict[str, Dict[str, Any]] = {}
    todo: List[ArtifactTask] = []
    skipped = 0
    for task in default_tasks():
        if only and task.group not in only and task.name not in only:
            continue
        group = groups.setdefault(task.group, load_group(task.group))
        if task.entry in group:
            skipped += 1
            continue
        todo.append(task)

    if todo:
        log(f"building {len(todo)} artifacts "
            f"({skipped} already frozen) with {runner.parallel} worker(s)")
    results = runner.run_tasks("artifact", [t.payload for t in todo])

    done = failed = 0
    failures: List[Any] = []
    for task, result in zip(todo, results):
        if result.get("ok"):
            groups[task.group][task.entry] = _entry_value(task, result)
            with open(group_path(task.group), "w") as fh:
                json.dump(groups[task.group], fh, indent=1)
            done += 1
            log(f"DONE {task.name}")
        else:
            # Failures are never cached (run_tasks skips ok:false puts),
            # so the next invocation retries them automatically.
            failed += 1
            failures.append((task, result))
            log(f"FAILED {task.name}: {result.get('error')}")
    if failures:
        # A loud aggregated summary — the group files on disk are
        # partial, and a consumer that freezes them anyway should do so
        # knowingly, not because the failures scrolled past.
        log("")
        log(f"{failed} artifact(s) FAILED — the written group files are "
            f"partial; rerun to retry (failed results are never cached):")
        for task, result in failures:
            log(f"  FAILED {task.name}: {result.get('error')}")
            for line in (result.get("traceback") or "").rstrip().splitlines():
                log(f"    {line}")
    return {"done": done, "skipped": skipped, "failed": failed}


# ---------------------------------------------------------------------------
# Freezing: merge .gen group files into the package data consumed by
# repro.topology.expert_data and repro.core.pregenerated.
# ---------------------------------------------------------------------------

def freeze(gen_dir: str, src_root: str, log: Callable[[str], None] = print) -> None:
    """Merge ``gen_dir``'s group files into the package ``_data`` files."""

    def load(fname: str) -> Dict[str, Any]:
        path = os.path.join(gen_dir, fname)
        if os.path.exists(path):
            with open(path) as fh:
                return json.load(fh)
        return {}

    topo_data = os.path.join(src_root, "repro", "topology", "_data")
    core_data = os.path.join(src_root, "repro", "core", "_data")
    os.makedirs(topo_data, exist_ok=True)
    os.makedirs(core_data, exist_ok=True)

    experts: Dict[str, Any] = {}
    for fname, n in (("experts20.json", 20), ("experts30.json", 30)):
        for name, edges in load(fname).items():
            experts[f"{name}/{n}"] = edges
    for name, edges in load("lpbt20.json").items():
        experts[f"{name}/20"] = edges
    with open(os.path.join(topo_data, "experts.json"), "w") as fh:
        json.dump(experts, fh, indent=1)
    log(f"experts.json: {len(experts)} entries")

    netsmith: Dict[str, Any] = {}
    for fname, n in (("ns20.json", 20), ("ns30.json", 30), ("ns48.json", 48)):
        for key, links in load(fname).items():
            kind, cls = key.split("/")
            netsmith[f"{kind}/{cls}/{n}"] = links
    with open(os.path.join(core_data, "netsmith.json"), "w") as fh:
        json.dump(netsmith, fh, indent=1)
    log(f"netsmith.json: {len(netsmith)} entries")
