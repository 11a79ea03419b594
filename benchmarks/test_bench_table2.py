"""Table II: topology metrics at 20 (and, when frozen, 30) routers."""

import pytest

from repro.experiments import format_table, table2


def test_table2_20_routers(once):
    rows = once(table2, 20)
    print("\n" + format_table(rows, 20))

    by_name = {(r.link_class, r.measured.name): r for r in rows}

    # Exact-construction row must match the paper exactly.
    ft = by_name[("medium", "FoldedTorus")].measured
    assert (ft.num_links, ft.diameter, ft.bisection_bw) == (40, 4, 10)
    assert abs(ft.avg_hops - 2.32) < 0.01

    # NetSmith wins per class: lowest avg hops among the class's cast
    # (paper: NS-LatOp leads every class; at 'small' Kite ties closely,
    # so allow a 1% band there).
    for cls, tol in (("small", 1.01), ("medium", 1.0), ("large", 1.0)):
        cls_rows = [r for r in rows if r.link_class == cls]
        ns = min(
            r.measured.avg_hops
            for r in cls_rows
            if r.measured.name.startswith("NS-LatOp")
        )
        best_other = min(
            r.measured.avg_hops
            for r in cls_rows
            if not r.measured.name.startswith("NS-")
        )
        assert ns <= best_other * tol, f"{cls}: NS {ns} vs expert {best_other}"

    # Every measured row with a paper reference stays within loose bands.
    for r in rows:
        if r.paper is None:
            continue
        links, diam, hops, bw = r.paper
        assert abs(r.measured.avg_hops - hops) < 0.25, r.measured.name
        assert abs(r.measured.num_links - links) <= 4, r.measured.name


@pytest.mark.slow
def test_table2_30_routers(once):
    try:
        rows = once(table2, 30)
    except KeyError:
        pytest.skip("30-router artifacts not frozen in this build")
    print("\n" + format_table(rows, 30))
    for cls in ("small", "medium", "large"):
        cls_rows = [r for r in rows if r.link_class == cls]
        if not cls_rows:
            continue
        ns = [r for r in cls_rows if r.measured.name.startswith("NS-")]
        others = [r for r in cls_rows if not r.measured.name.startswith("NS-")]
        if ns and others:
            assert min(r.measured.avg_hops for r in ns) <= min(
                r.measured.avg_hops for r in others
            ) * 1.02
