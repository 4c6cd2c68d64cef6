"""Unit tests for the effectiveness harness: ROC/AUC, link- and
3-clique prediction."""

import numpy as np
import pytest

from repro.datasets.splits import remove_edge_per_clique, remove_random_cross_edges
from repro.eval.clique_prediction import evaluate_clique_prediction, score_table
from repro.eval.link_prediction import evaluate_link_prediction, rank_candidate_links
from repro.eval.roc import auc_from_scores, roc_curve, true_positive_rate_at
from repro.graph.builders import complete_graph
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError


class TestROC:
    def test_perfect_ranking(self):
        res = roc_curve([4.0, 3.0, 2.0, 1.0], [True, True, False, False])
        assert res.auc == pytest.approx(1.0)
        assert res.tpr[-1] == 1.0 and res.fpr[-1] == 1.0
        assert res.fpr[0] == 0.0 and res.tpr[0] == 0.0

    def test_inverted_ranking(self):
        res = roc_curve([1.0, 2.0, 3.0, 4.0], [True, True, False, False])
        assert res.auc == pytest.approx(0.0)

    def test_random_ranking_near_half(self, rng):
        scores = rng.normal(size=4000)
        labels = rng.random(4000) < 0.3
        res = roc_curve(scores, labels)
        assert 0.45 < res.auc < 0.55

    def test_ties_handled_as_group(self):
        # Two tied scores with one positive, one negative: the tie point
        # sits on the diagonal, AUC = 0.5.
        res = roc_curve([1.0, 1.0], [True, False])
        assert res.auc == pytest.approx(0.5)

    def test_trapezoid_matches_mann_whitney(self, rng):
        for _ in range(5):
            scores = rng.normal(size=300)
            scores[::7] = scores[3]  # inject ties
            labels = rng.random(300) < 0.4
            assert roc_curve(scores, labels).auc == pytest.approx(
                auc_from_scores(scores, labels), abs=1e-12
            )

    def test_needs_both_classes(self):
        with pytest.raises(ValueError):
            roc_curve([1.0, 2.0], [True, True])
        with pytest.raises(ValueError):
            auc_from_scores([1.0, 2.0], [False, False])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            roc_curve([1.0], [True, False])

    def test_tpr_interpolation(self):
        res = roc_curve([4.0, 3.0, 2.0, 1.0], [True, False, True, False])
        assert true_positive_rate_at(res, 0.0) == pytest.approx(0.5)
        assert true_positive_rate_at(res, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            true_positive_rate_at(res, 1.5)


class TestLinkPrediction:
    @pytest.fixture
    def planted(self, rng):
        # Duplication-divergence graphs have the local clustering that
        # makes walk-based link prediction informative (homogeneous
        # random blocks do not — every pair looks alike there).
        from repro.graph.builders import duplication_divergence

        graph = duplication_divergence(300, 0.35, rng)
        return graph, list(range(0, 150)), list(range(150, 300))

    def test_candidates_exclude_test_edges(self, planted):
        graph, left, right = planted
        candidates = rank_candidate_links(
            graph, left[:30], right[:30], d=4
        )
        assert all(not graph.has_edge(p.left, p.right) for p in candidates)

    def test_recovers_removed_edges(self, planted):
        graph, left, right = planted
        split = remove_random_cross_edges(graph, left, right, fraction=0.5, seed=8)
        result = evaluate_link_prediction(graph, split.test_graph, left, right, d=6)
        # Walk proximity must beat chance clearly on a clustered graph.
        assert result.auc > 0.75
        assert result.roc.auc == pytest.approx(result.auc, abs=1e-9)
        assert result.num_candidates == len(result.labels)

    def test_node_space_mismatch_rejected(self, planted):
        graph, left, right = planted
        other = Graph(graph.num_nodes + 1, [])
        with pytest.raises(GraphValidationError, match="node id space"):
            evaluate_link_prediction(other, graph, left, right, d=4)


class TestCliquePrediction:
    def test_score_table_complete(self):
        g = complete_graph(5)
        table = score_table(g, [0, 1], [2, 3], d=4)
        assert set(table) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_damaged_cliques_rank_high(self):
        # A clique with one edge removed should outscore never-connected
        # triples: its remaining paths are short.  (A complete graph is
        # useless here — every triple would be a positive.)
        from repro.graph.builders import erdos_renyi

        g = erdos_renyi(30, 0.35, np.random.default_rng(0))
        p, q, r = list(range(0, 8)), list(range(10, 18)), list(range(20, 28))
        split = remove_edge_per_clique(g, p, q, r, seed=5)
        result = evaluate_clique_prediction(g, split.test_graph, p, q, r, d=4)
        assert result.auc > 0.6
        assert result.num_positives > 0
        assert result.num_candidates > result.num_positives

    def test_node_space_mismatch_rejected(self):
        g = complete_graph(6)
        other = Graph(7, [])
        with pytest.raises(GraphValidationError, match="node id space"):
            evaluate_clique_prediction(other, g, [0, 1], [2, 3], [4, 5], d=3)
