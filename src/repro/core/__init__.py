"""NetSmith core: MILP topology generation (LatOp/SCOp/ShufOpt), MCLB
routing, the LPBT baseline, solver-progress recording, heuristic search,
and the frozen-topology registry."""

from .netsmith import (
    FormulationHandles,
    GenerationResult,
    NetSmithConfig,
    build_distance_formulation,
    generate_latop,
    generate_shufopt,
    shuffle_weights,
)
from .scop import SCOpDiagnostics, generate_scop
from .mclb import MCLBResult, mclb_route
from .lpbt import LPBTConfig, build_lpbt_model, generate_lpbt
from .progress import GapCurve, GapSample, record_progress_bnb, record_progress_scipy
from .search import anneal_topology
from .pregenerated import netsmith_topology, register as register_pregenerated

__all__ = [
    "NetSmithConfig",
    "GenerationResult",
    "FormulationHandles",
    "build_distance_formulation",
    "generate_latop",
    "generate_shufopt",
    "shuffle_weights",
    "generate_scop",
    "SCOpDiagnostics",
    "MCLBResult",
    "mclb_route",
    "LPBTConfig",
    "build_lpbt_model",
    "generate_lpbt",
    "GapCurve",
    "GapSample",
    "record_progress_bnb",
    "record_progress_scipy",
    "anneal_topology",
    "netsmith_topology",
    "register_pregenerated",
]
