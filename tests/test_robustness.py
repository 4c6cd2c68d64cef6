"""Robustness tests: degenerate graph shapes through the full stack.

Walk-based code has two classic failure modes — dangling nodes (walk
mass silently disappears) and disconnected components (targets that are
simply unreachable).  These tests push both through every layer: walk
kernels, bounds, 2-way joins, incremental joins, and n-way joins.
"""

import numpy as np
import pytest

from oracles import exact_dht_to_target
from repro.core.dht import DHTParams
from repro.core.nway.nested_loop import NestedLoopJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.backward import BackwardBasicJoin, BackwardIDJY
from repro.core.two_way.base import make_context
from repro.core.two_way.incremental import IncrementalTwoWayJoin
from repro.graph.digraph import Graph


@pytest.fixture
def dangling_graph():
    """0 -> 1 -> 2 (2 is dangling), plus isolated node 3."""
    return Graph(4, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def two_islands():
    """Two disconnected undirected triangles: {0,1,2} and {3,4,5}."""
    return Graph.from_undirected_edges(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
         (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
    )


class TestDanglingNodes:
    def test_walk_mass_dies_not_errors(self, dangling_graph, params):
        ctx = make_context(dangling_graph, [0, 1], [2, 3], params=params, d=6)
        result = BackwardBasicJoin(ctx).top_k(10)
        scores = {(p.left, p.right): p.score for p in result}
        # 1 -> 2 is one hop; 0 -> 2 two hops; nothing reaches 3.
        assert scores[(1, 2)] > scores[(0, 2)]
        assert scores[(0, 3)] == pytest.approx(params.zero_score)
        assert scores[(1, 3)] == pytest.approx(params.zero_score)

    def test_exact_oracle_agrees_on_dangling(self, dangling_graph, params):
        assert exact_dht_to_target(dangling_graph, params, 3)[0] == pytest.approx(
            params.zero_score
        )
        # From the dangling node itself nothing is reachable.
        assert exact_dht_to_target(dangling_graph, params, 0)[2] == pytest.approx(
            params.zero_score
        )

    def test_pruned_join_agrees(self, dangling_graph, params):
        ctx1 = make_context(dangling_graph, [0, 1], [2, 3], params=params, d=6)
        ctx2 = make_context(dangling_graph, [0, 1], [2, 3], params=params, d=6)
        basic = BackwardBasicJoin(ctx1).top_k(4)
        pruned = BackwardIDJY(ctx2).top_k(4)
        assert np.allclose(
            [p.score for p in basic], [p.score for p in pruned]
        )

    def test_incremental_stream_handles_floor_ties(self, dangling_graph, params):
        # Several pairs tie at the floor score; the stream must still
        # emit every pair exactly once.
        join = IncrementalTwoWayJoin(
            make_context(dangling_graph, [0, 1], [2, 3], params=params, d=6)
        )
        stream = join.top(1)
        while True:
            item = join.next_pair()
            if item is None:
                break
            stream.append(item)
        assert len(stream) == 4
        assert len({(p.left, p.right) for p in stream}) == 4


class TestDisconnectedComponents:
    def test_cross_island_scores_are_floor(self, two_islands, params):
        ctx = make_context(two_islands, [0, 1], [4, 5], params=params, d=8)
        for pair in BackwardBasicJoin(ctx).top_k(4):
            assert pair.score == pytest.approx(params.zero_score)

    def test_nway_join_across_islands(self, two_islands, params):
        # One set per island plus one spanning both: answers exist, and
        # the best answers keep their within-island edges strong.
        spec = NWayJoinSpec(
            graph=two_islands,
            query_graph=QueryGraph.chain(3),
            node_sets=[[0, 3], [1, 4], [2, 5]],
            k=4,
            d=6,
            params=params,
        )
        reference = NestedLoopJoin(spec).run()
        spec2 = NWayJoinSpec(
            graph=two_islands,
            query_graph=QueryGraph.chain(3),
            node_sets=[[0, 3], [1, 4], [2, 5]],
            k=4,
            d=6,
            params=params,
        )
        fast = PartialJoinIncremental(spec2, m=2).run()
        assert np.allclose(
            [a.score for a in fast], [a.score for a in reference]
        )
        # The top answer stays within one island (no floor edge).
        top_nodes = set(reference[0].nodes)
        assert top_nodes <= {0, 1, 2} or top_nodes <= {3, 4, 5}

    def test_dht_e_variant_on_islands(self, two_islands):
        params = DHTParams.dht_e()
        ctx = make_context(two_islands, [0], [2, 4], params=params, d=6)
        result = BackwardBasicJoin(ctx).top_k(2)
        assert result[0].right == 2  # same island wins
        assert result[1].score == pytest.approx(params.zero_score)  # cross island


class TestSingleEdgeQueries:
    def test_nway_reduces_to_two_way(self, two_islands, params):
        # A 2-vertex query graph must reproduce the plain 2-way join.
        from repro.api import multi_way_join, two_way_join

        pairs = two_way_join(two_islands, [0, 1], [2, 5], k=3, params=params)
        answers = multi_way_join(
            two_islands, QueryGraph.chain(2), [[0, 1], [2, 5]], k=3,
            params=params,
        )
        assert np.allclose(
            [p.score for p in pairs], [a.score for a in answers]
        )
        assert [(p.left, p.right) for p in pairs] == [a.nodes for a in answers]
