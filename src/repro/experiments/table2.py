"""Table II: topology metrics for every contender at 20 and 30 routers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..topology import TopologyMetrics, summarize
from .registry import roster

#: Paper-published Table II values: name -> (links, diam, avg hops, bi bw).
PAPER_TABLE2_20: Dict[Tuple[str, str], Tuple[int, int, float, int]] = {
    ("small", "Kite-Small"): (38, 4, 2.38, 8),
    ("small", "LPBT-Power"): (33, 5, 2.59, 4),
    ("small", "LPBT-Hops"): (34, 6, 2.74, 4),
    ("small", "NS-LatOp-small"): (37, 4, 2.34, 7),
    ("small", "NS-SCOp-small"): (37, 4, 2.38, 8),
    ("medium", "FoldedTorus"): (40, 4, 2.32, 10),
    ("medium", "Kite-Medium"): (40, 4, 2.25, 8),
    ("medium", "NS-LatOp-medium"): (40, 4, 2.06, 10),
    ("medium", "NS-SCOp-medium"): (40, 4, 2.16, 11),
    ("large", "ButterDonut"): (36, 4, 2.32, 8),
    ("large", "DoubleButterfly"): (32, 4, 2.59, 8),
    ("large", "Kite-Large"): (36, 5, 2.27, 8),
    ("large", "NS-LatOp-large"): (40, 3, 1.96, 13),
    ("large", "NS-SCOp-large"): (40, 4, 2.03, 14),
}

PAPER_TABLE2_30: Dict[Tuple[str, str], Tuple[int, int, float, int]] = {
    ("small", "Kite-Small"): (58, 5, 2.91, 10),
    ("small", "NS-LatOp-small"): (58, 5, 2.80, 8),
    ("medium", "FoldedTorus"): (60, 5, 2.79, 10),
    ("medium", "Kite-Medium"): (60, 5, 2.66, 10),
    ("medium", "NS-LatOp-medium"): (59, 5, 2.47, 11),
    ("large", "ButterDonut"): (44, 10, 3.71, 8),
    ("large", "DoubleButterfly"): (48, 5, 2.90, 8),
    ("large", "Kite-Large"): (56, 5, 2.69, 10),
    ("large", "NS-LatOp-large"): (60, 4, 2.32, 14),
}


@dataclass
class Table2Row:
    link_class: str
    measured: TopologyMetrics
    paper: Optional[Tuple[int, int, float, int]]

    def format(self) -> str:
        m = self.measured
        cells = (
            f"{m.name:<18} {self.link_class:<7} {m.num_links:>5} "
            f"{m.diameter:>4} {m.avg_hops:>6.2f} {m.bisection_bw:>4}"
        )
        if self.paper:
            pl, pd, ph, pb = self.paper
            cells += f"   | paper: {pl:>3} {pd:>2} {ph:>5.2f} {pb:>3}"
        return cells


def table2(
    n_routers: int = 20,
    link_classes: Tuple[str, ...] = ("small", "medium", "large"),
) -> List[Table2Row]:
    """Regenerate Table II's measured rows for one system size from the
    frozen roster.  Cuts are exact up to ``EXACT_CUT_LIMIT`` routers and
    heuristic above.
    """
    paper = PAPER_TABLE2_20 if n_routers == 20 else PAPER_TABLE2_30
    rows: List[Table2Row] = []
    for cls in link_classes:
        for entry in roster(
            cls,
            n_routers,
            include_scop=(n_routers == 20),
            allow_generate=False,
        ):
            metrics = summarize(entry.topology)
            rows.append(
                Table2Row(
                    link_class=cls,
                    measured=metrics,
                    paper=paper.get((cls, entry.name)),
                )
            )
    return rows


def format_table(rows: List[Table2Row], n_routers: int) -> str:
    header = (
        f"Table II ({n_routers} routers)\n"
        f"{'topology':<18} {'class':<7} {'links':>5} {'diam':>4} "
        f"{'hops':>6} {'biBW':>4}\n" + "-" * 78
    )
    return "\n".join([header] + [r.format() for r in rows])
