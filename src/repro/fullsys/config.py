"""Full-system configuration constants (paper Table IV).

Encodes the evaluated system so tests can assert the reproduction uses
the paper's parameters, and so users changing one knob see everything it
feeds.  Where our substrate abstracts a component (e.g. the per-chiplet
NoC is folded into the CDC hop charge), the mapping is noted inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class FullSystemConfig:
    """The paper's Table IV, as data."""

    # Cores: 4 chiplets x 16 = 64 OoO cores at 3.8 GHz.
    num_chiplets: int = 4
    cores_per_chiplet: int = 16
    core_clock_ghz: float = 3.8
    l1d_kb: int = 32
    l1i_kb: int = 32
    l2_mb: int = 2

    # Memory: 16 x 2GB DDR4 behind the outer-column MC routers.
    num_memory_controllers: int = 16
    memory_gb_per_mc: int = 2

    # Network: per-chiplet 4x4 mesh NoC at 3.8 GHz feeding a 4x5 NoI.
    noc_mesh_dims: Tuple[int, int] = (4, 4)
    noc_clock_ghz: float = 3.8
    noi_dims: Tuple[int, int] = (4, 5)
    link_width_bytes: int = 8
    router_latency_cycles: int = 2
    cdc_latency_cycles: int = 2

    # VCs: 10 total; 6 escape for MCLB/LPBT routing, 2 for NDBT.
    total_vcs: int = 10
    escape_vcs_mclb: int = 6
    escape_vcs_ndbt: int = 2

    # Protocol: MESI two-level (modeled as request/response flows with
    # a directory service delay; see repro.fullsys.closedloop).
    protocol: str = "MESI Two Level"

    # Request timeout/retry defaults for degraded (faulty) closed-loop
    # runs: a request whose reply misses the timeout is retransmitted up
    # to ``request_max_retries`` times with exponential backoff (the
    # base delay doubles per attempt).  The timeout comfortably exceeds
    # the worst pristine round trip of every Table IV topology at the
    # budgets the experiments run, so retries fire on faults and extreme
    # congestion, not steady-state traffic.
    request_timeout_cycles: int = 96
    request_max_retries: int = 5
    retry_backoff_cycles: int = 8

    @property
    def num_cores(self) -> int:
        return self.num_chiplets * self.cores_per_chiplet

    @property
    def noi_routers(self) -> int:
        return self.noi_dims[0] * self.noi_dims[1]

    @property
    def cores_per_noi_router(self) -> float:
        """Concentration over the middle (core) columns (Fig. 2(b))."""
        core_routers = self.noi_routers - 2 * self.noi_dims[0]
        return self.num_cores / core_routers

    @property
    def mcs_per_noi_router(self) -> float:
        mc_routers = 2 * self.noi_dims[0]
        return self.num_memory_controllers / mc_routers


#: The canonical Table IV configuration.
TABLE4 = FullSystemConfig()
