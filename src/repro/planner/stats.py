"""Cheap planning signals: degree moments, skew, heavy hitters.

Everything the cost model consumes from the data graph is computed
here, once per graph (:meth:`GraphStats.of` memoises it on the
:class:`~repro.graph.digraph.Graph`, so planning a query does not pay
for it again), from the out-degree array alone — ``O(|V_G|)`` work, no
walks.  The theory ground (Joglekar & Re "It's all a matter of
degree", Ngo/Re/Rudra "Skew Strikes Back") says degree distributions
and heavy/light splits are exactly the statistics a join planner should
see, and they are the only data-graph signals it reads: nothing a
previous query left in a cache or an engine counter moves a plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.graph.digraph import Graph


@dataclass(frozen=True)
class NodeSetStats:
    """Degree profile of one query-vertex node set.

    ``hub_fraction`` — the share of the set's members above the graph's
    heavy-hitter threshold — is the planner's per-set skew signal: a
    set drawn from the hubs of a power-law graph prunes differently
    (and walks more expensively) than a same-sized set of leaves.
    """

    size: int
    degree_mass: int
    mean_out_degree: float
    max_out_degree: int
    heavy_count: int
    hub_fraction: float


class GraphStats:
    """One-pass degree statistics of a data graph.

    Parameters
    ----------
    graph:
        The data graph ``G``.  The out-degree array is the difference
        of its CSR row pointer, and all moments derive from it.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        n = graph.num_nodes
        self.out_degrees = np.diff(graph.indptr)
        out = self.out_degrees.astype(np.float64)
        self.mean_out_degree = float(out.mean()) if n else 0.0
        self.std_out_degree = float(out.std()) if n else 0.0
        self.cv_out_degree = (
            self.std_out_degree / self.mean_out_degree
            if self.mean_out_degree > 0
            else 0.0
        )
        if self.std_out_degree > 0:
            centred = (out - self.mean_out_degree) / self.std_out_degree
            self.skewness_out = float(np.mean(centred**3))
        else:
            self.skewness_out = 0.0
        # Heavy hitters a la the heavy/light split: nodes whose
        # out-degree sits two standard deviations above the mean.
        self.heavy_threshold = self.mean_out_degree + 2.0 * self.std_out_degree
        self.heavy_mask = self.out_degrees > self.heavy_threshold
        self.heavy_count = int(self.heavy_mask.sum())
        self.heavy_fraction = self.heavy_count / n if n else 0.0

    @classmethod
    def of(cls, graph: Graph) -> "GraphStats":
        """The graph's statistics, built on first use and then shared by
        every later plan over the same :class:`Graph` object (graphs are
        immutable, and so are these once built)."""
        return graph.memoized("planner.GraphStats", lambda: cls(graph))

    @property
    def graph(self) -> Graph:
        """The graph the statistics were collected from."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        return self._graph.num_nodes

    def node_set(self, nodes: Iterable[int]) -> NodeSetStats:
        """The degree profile of one node set."""
        idx = np.asarray(list(nodes), dtype=np.int64)
        if idx.size == 0:
            return NodeSetStats(0, 0, 0.0, 0, 0, 0.0)
        degrees = self.out_degrees[idx]
        heavy = int(self.heavy_mask[idx].sum())
        return NodeSetStats(
            size=int(idx.size),
            degree_mass=int(degrees.sum()),
            mean_out_degree=float(degrees.mean()),
            max_out_degree=int(degrees.max()),
            heavy_count=heavy,
            hub_fraction=heavy / float(idx.size),
        )

    def summary(self) -> dict:
        """JSON-safe signal block for :class:`ExplainedPlan.signals`."""
        return {
            "num_nodes": int(self.num_nodes),
            "num_edges": int(self._graph.num_edges),
            "mean_out_degree": round(self.mean_out_degree, 4),
            "cv_out_degree": round(self.cv_out_degree, 4),
            "skewness_out": round(self.skewness_out, 4),
            "heavy_threshold": round(self.heavy_threshold, 4),
            "heavy_count": int(self.heavy_count),
            "heavy_fraction": round(self.heavy_fraction, 6),
        }
