"""One latency-throughput curve through :meth:`Runner.curves`."""

from repro.runner import CurveJob


def run_curve(runner, table, traffic, rates, name=None, link_class=None,
              **job):
    """The curve of one :class:`CurveJob` on ``runner``; its name and
    link class default to the table topology's."""
    topo = table.topology
    return runner.curves([CurveJob(
        table=table, traffic=traffic, rates=tuple(rates),
        name=name or topo.name, link_class=link_class or topo.link_class,
        **job,
    )])[0]
