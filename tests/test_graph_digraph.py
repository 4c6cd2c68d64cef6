"""Unit tests for the Graph store."""

import numpy as np
import pytest

from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_nodes_without_edges(self):
        g = Graph(3, [])
        assert g.num_nodes == 3
        assert list(g.nodes()) == [0, 1, 2]
        assert g.is_dangling(0)

    def test_simple_directed(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert g.num_edges == 2
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.weight(1, 2) == 2.0

    def test_parallel_edges_merge_weights(self):
        g = Graph(2, [(0, 1, 1.0), (0, 1, 2.5)])
        assert g.num_edges == 1
        assert g.weight(0, 1) == 3.5

    def test_undirected_creates_both_arcs(self):
        g = Graph.from_undirected_edges(2, [(0, 1, 2.0)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.weight(0, 1) == g.weight(1, 0) == 2.0

    def test_negative_num_nodes_rejected(self):
        with pytest.raises(GraphValidationError):
            Graph(-1, [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            Graph(2, [(0, 0, 1.0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphValidationError, match="out of node range"):
            Graph(2, [(0, 5, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphValidationError, match="invalid weight"):
            Graph(2, [(0, 1, 0.0)])
        with pytest.raises(GraphValidationError, match="invalid weight"):
            Graph(2, [(0, 1, -1.0)])

    def test_nan_weight_rejected(self):
        with pytest.raises(GraphValidationError, match="invalid weight"):
            Graph(2, [(0, 1, float("nan"))])

    def test_malformed_edge_rejected(self):
        with pytest.raises(GraphValidationError, match="triple"):
            Graph(2, [(0, 1)])


class TestAccessors:
    def test_neighbors(self, tiny_directed):
        assert tiny_directed.out_neighbors(0) == {1: 2.0, 2: 1.0}
        assert tiny_directed.in_neighbors(2) == {0: 1.0, 1: 1.0}
        assert tiny_directed.out_degree(0) == 2
        assert tiny_directed.in_degree(2) == 2

    def test_edges_iteration(self, tiny_directed):
        edges = set(tiny_directed.edges())
        assert (0, 1, 2.0) in edges
        assert len(edges) == 5

    def test_node_range_check(self, tiny_directed):
        with pytest.raises(GraphValidationError):
            tiny_directed.out_neighbors(99)
        with pytest.raises(GraphValidationError):
            tiny_directed.in_neighbors(-1)
        for accessor in (tiny_directed.out_degree, tiny_directed.in_degree,
                         tiny_directed.is_dangling):
            with pytest.raises(GraphValidationError):
                accessor(4)
        with pytest.raises(GraphValidationError):
            tiny_directed.transition_probability(0, -1)
        assert not tiny_directed.has_edge(5, 0)

    def test_weight_missing_edge(self, tiny_directed):
        with pytest.raises(KeyError):
            tiny_directed.weight(1, 0)


class TestTransitionProbabilities:
    def test_weighted_split(self, tiny_directed):
        assert tiny_directed.transition_probability(0, 1) == pytest.approx(2 / 3)
        assert tiny_directed.transition_probability(0, 2) == pytest.approx(1 / 3)
        assert tiny_directed.transition_probability(1, 2) == 1.0

    def test_missing_edge_is_zero(self, tiny_directed):
        assert tiny_directed.transition_probability(1, 0) == 0.0

    def test_dangling_node_is_zero(self):
        g = Graph(2, [(0, 1, 1.0)])
        assert g.is_dangling(1)
        assert g.transition_probability(1, 0) == 0.0

    def test_rows_sum_to_one(self, random_graph):
        for u in random_graph.nodes():
            total = sum(
                random_graph.transition_probability(u, v)
                for v in random_graph.out_neighbors(u)
            )
            if not random_graph.is_dangling(u):
                assert total == pytest.approx(1.0)

    def test_transition_matrix_matches_scalar_api(self, tiny_directed):
        matrix = tiny_directed.transition_matrix()
        for u in tiny_directed.nodes():
            for v in tiny_directed.nodes():
                assert matrix[u, v] == pytest.approx(
                    tiny_directed.transition_probability(u, v)
                )

    def test_transpose_cached_and_consistent(self, tiny_directed):
        t = tiny_directed.transition_matrix()
        tt = tiny_directed.transition_matrix_transpose()
        assert np.allclose(t.toarray().T, tt.toarray())
        assert tiny_directed.transition_matrix_transpose() is tt  # cached


class TestLabels:
    def test_labels_roundtrip(self):
        g = Graph(2, [(0, 1, 1.0)], labels=["alice", "bob"])
        assert g.has_labels
        assert g.label(1) == "bob"
        assert g.node_by_label("alice") == 0

    def test_default_labels(self, tiny_directed):
        assert not tiny_directed.has_labels
        assert tiny_directed.label(2) == "2"

    def test_label_count_mismatch(self):
        with pytest.raises(GraphValidationError, match="labels"):
            Graph(3, [], labels=["a"])

    def test_unknown_label(self):
        g = Graph(1, [], labels=["a"])
        with pytest.raises(KeyError):
            g.node_by_label("zzz")

    def test_lookup_without_labels(self, tiny_directed):
        with pytest.raises(KeyError):
            tiny_directed.node_by_label("anything")


class TestDerivedGraphs:
    def test_subgraph_reindexes(self, tiny_directed):
        sub, mapping = tiny_directed.subgraph([0, 1, 2])
        assert sub.num_nodes == 3
        assert mapping == {0: 0, 1: 1, 2: 2}
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(2, 0)  # 2->3 dropped with node 3

    def test_subgraph_preserves_labels(self):
        g = Graph(3, [(0, 1, 1.0)], labels=["a", "b", "c"])
        sub, _ = g.subgraph([2, 0])
        assert sub.label(0) == "c"
        assert sub.label(1) == "a"

    def test_subgraph_rejects_out_of_range_ids(self, tiny_directed):
        for bad in (-1, 4):
            with pytest.raises(GraphValidationError):
                tiny_directed.subgraph([0, bad])

    def test_without_edges_removes_both_arcs(self):
        g = Graph.from_undirected_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        g2 = g.without_edges([(0, 1)])
        assert not g2.has_edge(0, 1)
        assert not g2.has_edge(1, 0)
        assert g2.has_edge(1, 2)
        # original untouched
        assert g.has_edge(0, 1)

    def test_degree_statistics(self, tiny_directed):
        stats = tiny_directed.degree_statistics()
        assert stats["num_nodes"] == 4
        assert stats["num_edges"] == 5
        assert stats["dangling_nodes"] == 0
