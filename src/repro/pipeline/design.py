"""Design points: the declarative unit of design-space exploration.

A :class:`DesignPoint` pins everything that determines one generated
topology — grid shape, link class, objective, strategy, radix, diameter
bound, seed, and solve budgets — as pure data.  That makes a point:

* **hashable** — its dict encoding keys the runner's content-addressed
  cache, so a MILP solve or annealing run is never repeated;
* **transportable** — payloads fan across worker processes;
* **reproducible** — ``point.generate()`` on any machine produces the
  same topology as a direct :func:`~repro.core.netsmith.generate_latop`
  / :func:`~repro.core.scop.generate_scop` /
  :func:`~repro.core.search.anneal_topology` call with the same
  configuration (the differential tests pin this).

Strategies:

* ``"milp"`` — the exact formulation on ``backend`` (HiGHS via scipy by
  default);
* ``"sa"`` — simulated annealing (the scalability strategy);
* ``"portfolio"`` — both, staged: SA first, then the exact solve warm-
  started from the SA result (``initial_incumbent`` for distance
  objectives through :func:`repro.milp.branch_and_bound.solve_bnb`, an
  initial lazy cut for SCOp), with a best-wins merge.  Portfolio points
  are expanded by :mod:`repro.pipeline.stages`; the worker only ever
  sees atomic ``sa``/``milp`` units;
* ``"hierarchical"`` — exact clusters replicated across the grid with
  an annealed inter-cluster stitch (:mod:`repro.pipeline.hierarchy`),
  the scale strategy for 256-1024-router points.  Atomic: it runs as a
  single wave-1 unit, never portfolio-expanded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..topology import EXACT_CUT_LIMIT, Layout, parse_layout

#: Objective names and their frozen-registry kinds.
OBJECTIVES = ("latency", "sparsest_cut", "shuffle")
_OBJECTIVE_KIND = {"latency": "latop", "sparsest_cut": "scop", "shuffle": "shufopt"}

STRATEGIES = ("milp", "sa", "portfolio", "hierarchical")

#: Exact sparsest-cut separation (and therefore SCOp and the SA
#: sparsest-cut objective) is enumeration-bound.
MAX_SCOP_ROUTERS = EXACT_CUT_LIMIT


@dataclass(frozen=True)
class DesignPoint:
    """One candidate configuration in the design space."""

    rows: int
    cols: int
    link_class: str = "medium"
    objective: str = "latency"
    strategy: str = "portfolio"
    radix: int = 4
    symmetric: bool = False
    diameter_bound: Optional[int] = None
    seed: int = 0
    #: Exact-solve budget in seconds (per lazy iteration for SCOp).
    time_limit: float = 60.0
    #: Annealing steps for the ``sa`` strategy / portfolio phase 1.
    sa_steps: int = 8000
    #: SCOp lazy-cut iteration cap.
    max_iterations: int = 25
    #: Exact-solve backend: ``"scipy"`` (HiGHS) or ``"bnb"`` (the in-repo
    #: branch-and-bound, the only backend that accepts a MIP start).
    backend: str = "scipy"
    #: Serve the frozen registry when the point matches a standard
    #: configuration (same semantics as
    #: :func:`repro.core.pregenerated.netsmith_topology`).
    use_frozen: bool = True
    #: Cluster tile shape for the ``hierarchical`` strategy; ``None``
    #: auto-picks divisors of the grid near 4 per side.  Ignored (and
    #: neutralized by :meth:`canonical`) for every other strategy.
    cluster_rows: Optional[int] = None
    cluster_cols: Optional[int] = None

    # -- derived -------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.rows * self.cols

    @property
    def layout(self) -> Layout:
        return Layout(rows=self.rows, cols=self.cols)

    @property
    def kind(self) -> str:
        """The frozen-registry kind for this objective (latop/scop/shufopt)."""
        return _OBJECTIVE_KIND[self.objective]

    def label(self) -> str:
        return (
            f"{self.rows}x{self.cols}/{self.link_class}/{self.objective}"
            f"/{self.strategy}/s{self.seed}"
        )

    def validate(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.objective == "sparsest_cut" and self.n > MAX_SCOP_ROUTERS:
            raise ValueError(
                f"sparsest-cut objective needs exact cuts "
                f"(n <= {MAX_SCOP_ROUTERS}); {self.rows}x{self.cols} has {self.n}"
            )
        if self.strategy == "hierarchical":
            from .hierarchy import cluster_shape

            if self.objective != "latency":
                raise ValueError(
                    "hierarchical strategy supports the latency objective "
                    f"only, got {self.objective!r}"
                )
            if self.symmetric:
                raise ValueError(
                    "hierarchical strategy needs asymmetric links (the "
                    "stitching moves are directed)"
                )
            if self.diameter_bound is not None:
                raise ValueError(
                    "hierarchical strategy does not honor diameter_bound"
                )
            if self.radix < 3:
                raise ValueError(
                    "hierarchical strategy needs radix >= 3 (one in/out "
                    "port per router is reserved for inter-cluster links)"
                )
            cluster_shape(self)  # raises with guidance on bad tilings
        self.build_config().validate()

    def build_config(self):
        """The :class:`~repro.core.netsmith.NetSmithConfig` of this point.

        The shuffle objective's traffic weights are derived from the
        layout on demand (never serialized), so the encoding stays small
        and canonical.
        """
        from ..core.netsmith import NetSmithConfig, shuffle_weights

        weights = (
            shuffle_weights(self.layout) if self.objective == "shuffle" else None
        )
        return NetSmithConfig(
            layout=self.layout,
            link_class=self.link_class,
            radix=self.radix,
            symmetric=self.symmetric,
            diameter_bound=self.diameter_bound,
            traffic_weights=weights,
        )

    def canonical(self) -> "DesignPoint":
        """An equivalent point with fields its strategy never reads
        neutralized, so cache keys don't fracture on irrelevant budgets.

        An SA unit ignores the exact-solve budget/backend; an exact unit
        ignores ``sa_steps``, the RNG ``seed``, and (off the sparsest-cut
        objective) ``max_iterations``.  Two points differing only in
        ignored fields generate identically, so they must hash
        identically — ``generate()`` on the canonical point is
        byte-equivalent to ``generate()`` on the original.
        """
        if self.strategy == "sa":
            return replace(
                self, time_limit=0.0, max_iterations=0, backend="scipy",
                cluster_rows=None, cluster_cols=None,
            )
        if self.strategy == "milp":
            neutral = replace(
                self, sa_steps=0, seed=0, cluster_rows=None, cluster_cols=None
            )
            if self.objective != "sparsest_cut":
                neutral = replace(neutral, max_iterations=0)
            return neutral
        if self.strategy == "hierarchical":
            # Reads the exact budget (cluster solve), SA budget + seed
            # (stitch), backend, and the cluster shape; never lazy cuts.
            return replace(self, max_iterations=0)
        return self

    # -- codecs --------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "rows": int(self.rows),
            "cols": int(self.cols),
            "link_class": self.link_class,
            "objective": self.objective,
            "strategy": self.strategy,
            "radix": int(self.radix),
            "symmetric": bool(self.symmetric),
            "diameter_bound": (
                None if self.diameter_bound is None else int(self.diameter_bound)
            ),
            "seed": int(self.seed),
            "time_limit": float(self.time_limit),
            "sa_steps": int(self.sa_steps),
            "max_iterations": int(self.max_iterations),
            "backend": self.backend,
            "use_frozen": bool(self.use_frozen),
            "cluster_rows": (
                None if self.cluster_rows is None else int(self.cluster_rows)
            ),
            "cluster_cols": (
                None if self.cluster_cols is None else int(self.cluster_cols)
            ),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "DesignPoint":
        return cls(
            rows=int(doc["rows"]),
            cols=int(doc["cols"]),
            link_class=str(doc["link_class"]),
            objective=str(doc["objective"]),
            strategy=str(doc["strategy"]),
            radix=int(doc.get("radix", 4)),
            symmetric=bool(doc.get("symmetric", False)),
            diameter_bound=(
                None if doc.get("diameter_bound") is None
                else int(doc["diameter_bound"])
            ),
            seed=int(doc.get("seed", 0)),
            time_limit=float(doc.get("time_limit", 60.0)),
            sa_steps=int(doc.get("sa_steps", 8000)),
            max_iterations=int(doc.get("max_iterations", 25)),
            backend=str(doc.get("backend", "scipy")),
            use_frozen=bool(doc.get("use_frozen", True)),
            cluster_rows=(
                None if doc.get("cluster_rows") is None
                else int(doc["cluster_rows"])
            ),
            cluster_cols=(
                None if doc.get("cluster_cols") is None
                else int(doc["cluster_cols"])
            ),
        )

    # -- worker-side generation ----------------------------------------------
    def _frozen_result(self):
        """The frozen registry's topology for this point, if it matches.

        Frozen designs were produced for the paper's standard
        configurations; a point only qualifies when it asks for exactly
        that configuration (default radix, asymmetric links, no custom
        diameter bound, the canonical grid for its router count).
        """
        from ..core import pregenerated
        from ..topology import standard_layout

        if not self.use_frozen:
            return None
        if self.radix != 4 or self.symmetric or self.diameter_bound is not None:
            return None
        try:
            std = standard_layout(self.n)
        except ValueError:
            return None
        if (std.rows, std.cols) != (self.rows, self.cols):
            return None
        links = pregenerated.lookup(self.kind, self.link_class, self.n)
        if links is None:
            return None

        from ..core.netsmith import GenerationResult
        from ..topology import Topology, sparsest_cut

        name = f"{pregenerated._KIND_LABEL[self.kind]}-{self.link_class}"
        topo = Topology(self.layout, links, name=name, link_class=self.link_class)
        if self.objective == "sparsest_cut":
            objective = sparsest_cut(topo).value
        else:
            from ..core.search import _total_hops

            objective = _total_hops(topo, self.build_config().traffic_weights)
        return GenerationResult(
            topology=topo,
            objective=float(objective),
            mip_gap=0.0,
            status="frozen",
            solve_time_s=0.0,
            result=None,
        )

    def generate(
        self,
        seed_incumbent: Optional[float] = None,
        seed_links: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        """Run this point's generation and return a
        :class:`~repro.core.netsmith.GenerationResult`.

        Dispatches to exactly the direct entry points
        (``generate_latop``/``generate_shufopt``/``generate_scop``/
        ``anneal_topology``) with this point's configuration, so staged
        results are bit-identical to direct calls.  Portfolio warm
        starts: ``seed_incumbent`` feeds ``solve_bnb``'s
        ``initial_incumbent`` hook when the backend is ``bnb`` (HiGHS
        via scipy has no MIP-start surface, so it runs cold as the
        complementary exact strategy); for SCOp, ``seed_links``'s exact
        sparsest cut joins the initial lazy cuts on either backend.
        """
        if self.strategy == "hierarchical":
            # Never served frozen: the registry holds flat designs for
            # the paper's standard small configurations only.
            from .hierarchy import generate_hierarchical

            return generate_hierarchical(self)

        frozen = self._frozen_result()
        if frozen is not None:
            return frozen

        from ..core.netsmith import generate_latop, generate_shufopt
        from ..core.scop import generate_scop
        from ..core.search import anneal_topology

        config = self.build_config()
        config.validate()

        if self.strategy == "sa":
            sa_objective = (
                "sparsest_cut" if self.objective == "sparsest_cut" else "latency"
            )
            result = anneal_topology(
                config, objective=sa_objective, steps=self.sa_steps, seed=self.seed
            )
            if self.objective == "shuffle":
                # The annealer names by its internal objective (LatOp for
                # any weighted-hops run); relabel so shuffle points are
                # distinguishable in rankings and artifacts.
                from ..topology import Topology

                result.topology = Topology(
                    self.layout,
                    result.topology.directed_links,
                    name=f"NS-SA-ShufOpt-{self.link_class}",
                    link_class=self.link_class,
                )
            return result
        if self.strategy != "milp":
            raise ValueError(
                f"cannot generate strategy {self.strategy!r} directly; "
                "portfolio points are expanded by repro.pipeline.stages"
            )

        if self.objective == "sparsest_cut":
            initial_cuts = None
            if seed_links is not None:
                from ..topology import Topology, sparsest_cut

                seed_topo = Topology(
                    self.layout, seed_links, link_class=self.link_class
                )
                initial_cuts = [sparsest_cut(seed_topo).members]
            gen, _diag = generate_scop(
                config,
                time_limit=self.time_limit,
                backend=self.backend,
                max_iterations=self.max_iterations,
                initial_cuts=initial_cuts,
            )
            return gen

        solve_kw: Dict[str, Any] = {}
        if seed_incumbent is not None and self.backend == "bnb":
            # The only backend that accepts a MIP start.
            solve_kw["initial_incumbent"] = float(seed_incumbent)
        entry = generate_shufopt if self.objective == "shuffle" else generate_latop
        return entry(
            config, time_limit=self.time_limit, backend=self.backend, **solve_kw
        )


def design_grid(
    layouts: Iterable[Union[str, Tuple[int, int], Layout]],
    link_classes: Iterable[str] = ("medium",),
    objectives: Iterable[str] = ("latency",),
    strategies: Iterable[str] = ("portfolio",),
    seeds: Iterable[int] = (0,),
    **common: Any,
) -> List[DesignPoint]:
    """The cross product of layouts x classes x objectives x strategies x
    seeds as design points; ``common`` sets shared fields (budgets,
    radix, ...).  Layouts may be ``"RxC"`` strings, ``(rows, cols)``
    tuples, or :class:`~repro.topology.Layout` objects."""
    resolved: List[Layout] = []
    for spec in layouts:
        if isinstance(spec, Layout):
            resolved.append(spec)
        elif isinstance(spec, str):
            resolved.append(parse_layout(spec))
        else:
            rows, cols = spec
            resolved.append(Layout(rows=int(rows), cols=int(cols)))
    return [
        DesignPoint(
            rows=lay.rows,
            cols=lay.cols,
            link_class=cls,
            objective=obj,
            strategy=strat,
            seed=seed,
            **common,
        )
        for lay, cls, obj, strat, seed in itertools.product(
            resolved, link_classes, objectives, strategies, seeds
        )
    ]
