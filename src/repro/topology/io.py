"""Topology serialization and pretty-printing (Fig. 4 style ASCII plots)."""

from __future__ import annotations

import json

from .graph import Topology
from .layout import Layout


def to_dict(topo: Topology) -> dict:
    return {
        "name": topo.name,
        "rows": topo.layout.rows,
        "cols": topo.layout.cols,
        "link_class": topo.link_class,
        "links": [[int(i), int(j)] for i, j in topo.directed_links],
    }


def from_dict(data: dict) -> Topology:
    layout = Layout(rows=int(data["rows"]), cols=int(data["cols"]))
    return Topology(
        layout,
        [(int(i), int(j)) for i, j in data["links"]],
        name=data.get("name", "topology"),
        link_class=data.get("link_class"),
    )


def dumps(topo: Topology) -> str:
    return json.dumps(to_dict(topo), indent=2)


def loads(text: str) -> Topology:
    return from_dict(json.loads(text))


def save(topo: Topology, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(topo))


def load(path: str) -> Topology:
    with open(path) as fh:
        return loads(fh.read())


def ascii_art(topo: Topology) -> str:
    """Fig. 4-style rendering: router grid with link summary.

    Bidirectional links are listed once (``a <-> b``); unidirectional
    halves of asymmetric pairings as ``a --> b`` (matching the paper's
    solid vs dashed convention).
    """
    lay = topo.layout
    lines = [f"{topo.name}  ({lay.rows}x{lay.cols}, {topo.num_links} links)"]
    for y in range(lay.rows):
        lines.append(
            "  ".join(f"[{lay.router_at(x, y):>2}]" for x in range(lay.cols))
        )
    bidir, unidir = [], []
    seen = set()
    for i, j in topo.directed_links:
        if (j, i) in seen:
            continue
        if topo.has_link(j, i):
            bidir.append((min(i, j), max(i, j)))
            seen.add((i, j))
        else:
            unidir.append((i, j))
            seen.add((i, j))
    bidir = sorted(set(bidir))
    lines.append("bidirectional: " + ", ".join(f"{a}<->{b}" for a, b in bidir))
    if unidir:
        lines.append("unidirectional: " + ", ".join(f"{a}-->{b}" for a, b in sorted(unidir)))
    return "\n".join(lines)
