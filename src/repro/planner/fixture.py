"""Planner-decision test fixtures: small graphs with controlled skew.

Every planner test and the planner bench section build their specs
here, so the *mechanism under test* is stated once: edge order changes
``propagation_steps`` only under walk-cache LRU pressure (a bound on
the shared :class:`~repro.walks.cache.WalkCache`), and the win comes
from grouping edges that share right sets and building cheap
(low-fanout) edges first.  Without a bound the resumable cache makes
every order cost the same — the star and chain fixtures therefore give
their spec a walk cache whose ``max_targets`` is tight enough that the
star's interleaved natural order thrashes while the grouped order
stays resident.  (A target count, not a byte budget: an n-way query
keeps its walks at its reader rows, so what a byte budget holds
depends on the query's set sizes.)

``m`` is large relative to ``k`` so PJ's rank join never refills:
build-phase walk costs, the thing the planner orders, dominate the
counter instead of being swamped by restart re-materialisations.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dht import DHTMeasure
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.graph.builders import erdos_renyi, preferential_attachment
from repro.graph.digraph import Graph
from repro.walks.cache import WalkCache

DEFAULT_SEED = 2014


class PlannerFixture:
    """Builds the three controlled-skew planner scenarios.

    ``skewed_star_spec`` — hub centre, leaf satellites on a power-law
    graph: the canonical order-sensitive case (the centre's right set
    is shared by every in-edge).  ``chain_spec`` — hub middle set on
    the same topology.  ``uniform_er_spec`` — equal-degree sets on an
    Erdos-Renyi graph: the no-skew control where plans barely differ.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed

    # -- graphs --------------------------------------------------------

    def power_law_graph(self, n: int = 2000, m: int = 4) -> Graph:
        """Preferential-attachment graph with heavy-tailed degrees."""
        return preferential_attachment(n, m, np.random.default_rng(self.seed))

    def uniform_graph(self, n: int = 2000, expected_degree: float = 4.0) -> Graph:
        """Erdos-Renyi graph: all degrees concentrate at the mean."""
        return erdos_renyi(
            n, expected_degree / n, np.random.default_rng(self.seed), weighted=True
        )

    # -- node-set helpers ----------------------------------------------

    @staticmethod
    def degree_order(graph: Graph) -> List[int]:
        """Node ids sorted by descending out-degree."""
        n = graph.num_nodes
        deg = np.fromiter(
            (graph.out_degree(v) for v in range(n)), dtype=np.int64, count=n
        )
        return [int(v) for v in np.argsort(-deg)]

    def hub_and_leaf_sets(
        self,
        graph: Graph,
        hub_size: int,
        leaf_size: int,
        num_leaf_sets: int,
    ) -> Tuple[List[int], List[List[int]]]:
        """One hub set from the degree head, disjoint leaf sets from
        the tail half."""
        order = self.degree_order(graph)
        hubs = order[:hub_size]
        tail = order[len(order) // 2:]
        if num_leaf_sets * leaf_size > len(tail):
            raise ValueError(
                f"graph too small: need {num_leaf_sets * leaf_size} tail "
                f"nodes, have {len(tail)}"
            )
        leaves = [
            tail[i * leaf_size:(i + 1) * leaf_size] for i in range(num_leaf_sets)
        ]
        return hubs, leaves

    # -- walk-cache pressure -------------------------------------------

    @staticmethod
    def _under_pressure(
        spec: NWayJoinSpec, resident_targets: int
    ) -> NWayJoinSpec:
        """``spec`` with its shared walk cache swapped for one of the
        same engine and key that holds ``resident_targets`` targets —
        enough for one edge's right set to stay resident, not enough
        for an interleaved schedule's union."""
        spec.walk_cache = WalkCache(
            spec.engine, spec.walk_cache.params, max_targets=resident_targets
        )
        return spec

    # -- specs ---------------------------------------------------------

    @staticmethod
    def _with_measure(d: int, spec_kwargs: dict) -> dict:
        """``spec_kwargs`` with DHT at depth ``d`` as the default measure
        (a passed measure fixes its own depth)."""
        return {"measure": DHTMeasure(d=d), **spec_kwargs}

    def skewed_star_spec(
        self,
        n: int = 2000,
        spokes: int = 3,
        hub_size: int = 48,
        leaf_size: int = 96,
        k: int = 20,
        d: int = 5,
        graph: Optional[Graph] = None,
        **spec_kwargs,
    ) -> NWayJoinSpec:
        """Bidirectional star, hub centre, leaf satellites, power law.

        The natural edge order ``(0,1),(1,0),(0,2),(2,0),...`` maximally
        interleaves the shared centre right set with the leaf right
        sets; the planner should instead group the low-fanout in-edges
        (right set = hub centre) first.
        """
        graph = graph if graph is not None else self.power_law_graph(n)
        hubs, leaves = self.hub_and_leaf_sets(graph, hub_size, leaf_size, spokes)
        spec = NWayJoinSpec(
            graph=graph,
            query_graph=QueryGraph.star(spokes, bidirectional=True),
            node_sets=[hubs] + leaves,
            k=k,
            **self._with_measure(d, spec_kwargs),
        )
        # Holds the hub right set with headroom; a hub+leaf union (what
        # an interleaved order keeps alternating between) does not fit,
        # so grouping is what avoids re-walks.
        return self._under_pressure(spec, hub_size + leaf_size // 6)

    def chain_spec(
        self,
        n: int = 2000,
        length: int = 3,
        hub_size: int = 48,
        leaf_size: int = 96,
        k: int = 20,
        d: int = 5,
        graph: Optional[Graph] = None,
        **spec_kwargs,
    ) -> NWayJoinSpec:
        """Bidirectional chain with the hub set in the middle."""
        graph = graph if graph is not None else self.power_law_graph(n)
        hubs, leaves = self.hub_and_leaf_sets(graph, hub_size, leaf_size, length - 1)
        middle = length // 2
        node_sets = leaves[:middle] + [hubs] + leaves[middle:]
        spec = NWayJoinSpec(
            graph=graph,
            query_graph=QueryGraph.chain(length, bidirectional=True),
            node_sets=node_sets,
            k=k,
            **self._with_measure(d, spec_kwargs),
        )
        return self._under_pressure(spec, hub_size + leaf_size // 6)

    def uniform_er_spec(
        self,
        n: int = 2000,
        length: int = 3,
        set_size: int = 64,
        k: int = 20,
        d: int = 5,
        graph: Optional[Graph] = None,
        **spec_kwargs,
    ) -> NWayJoinSpec:
        """Directed chain over equal-sized sets on an ER graph — the
        no-skew control (no walk-cache budget: order barely matters)."""
        graph = graph if graph is not None else self.uniform_graph(n)
        rng = np.random.default_rng(self.seed + 1)
        nodes = rng.permutation(graph.num_nodes)
        node_sets = [
            [int(v) for v in nodes[i * set_size:(i + 1) * set_size]]
            for i in range(length)
        ]
        return NWayJoinSpec(
            graph=graph,
            query_graph=QueryGraph.chain(length, bidirectional=False),
            node_sets=node_sets,
            k=k,
            **self._with_measure(d, spec_kwargs),
        )

    # -- order helpers -------------------------------------------------

    @staticmethod
    def worst_interleaved_order(spec: NWayJoinSpec) -> List[int]:
        """An order that maximally alternates distinct right sets.

        Greedy anti-grouping: at each step, take an edge whose right
        vertex differs from the previous edge's (preferring the vertex
        with most edges left), so consecutive edges never share a right
        set unless forced — the cache-thrashing tier for a
        byte-budgeted walk cache.  On a bidirectional star this yields
        ``[1, 0, 3, 2, 5, 4]``: centre/leaf right sets strictly
        alternate.
        """
        buckets: dict = {}
        for e, (_, j) in enumerate(spec.query_graph.edges):
            buckets.setdefault(j, []).append(e)
        order: List[int] = []
        previous = None
        while any(buckets.values()):
            candidates = [j for j, b in buckets.items() if b and j != previous]
            if not candidates:
                candidates = [j for j, b in buckets.items() if b]
            j = max(candidates, key=lambda v: (len(buckets[v]), -v))
            order.append(buckets[j].pop(0))
            previous = j
        return order

    @staticmethod
    def all_build_orders(
        spec: NWayJoinSpec, limit: int = 24
    ) -> Iterator[Tuple[int, ...]]:
        """Every edge permutation, for exhaustive bit-identity checks.

        Guarded by ``limit``: the harness only enumerates graphs small
        enough (``E! <= limit``) to check exhaustively.
        """
        num_edges = spec.query_graph.num_edges
        perms = itertools.permutations(range(num_edges))
        for count, perm in enumerate(perms):
            if count >= limit:
                raise ValueError(
                    f"{num_edges}! orders exceed the exhaustive limit {limit}"
                )
            yield perm
