"""Routing substrate: path enumeration, NDBT, CDG/VC deadlock machinery,
channel-load analysis, and deployable routing tables."""

from .paths import Path, PathSet, enumerate_shortest_paths, single_shortest_paths
from .ndbt import doubles_back_horizontally, ndbt_paths, ndbt_route
from .cdg import (
    CDG,
    build_cdg,
    find_cycle,
    is_acyclic,
    path_dependencies,
    paths_are_deadlock_free,
)
from .vc_alloc import VCAssignment, assign_vcs, validate_assignment
from .channel_load import (
    LoadAnalysis,
    ThroughputBounds,
    channel_loads,
    throughput_bounds,
)
from .tables import RoutingTable, build_routing_table

__all__ = [
    "Path",
    "PathSet",
    "enumerate_shortest_paths",
    "single_shortest_paths",
    "ndbt_paths",
    "ndbt_route",
    "doubles_back_horizontally",
    "CDG",
    "build_cdg",
    "find_cycle",
    "is_acyclic",
    "path_dependencies",
    "paths_are_deadlock_free",
    "VCAssignment",
    "assign_vcs",
    "validate_assignment",
    "LoadAnalysis",
    "channel_loads",
    "ThroughputBounds",
    "throughput_bounds",
    "RoutingTable",
    "build_routing_table",
]
