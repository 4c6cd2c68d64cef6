"""Unit tests for the five 2-way join algorithms.

Every algorithm must return the same top-k as brute force over the
dense truncated-DHT oracle (``tests/oracles``), with deterministic
tie-breaking.
"""

import numpy as np
import pytest

from oracles import dht_scores, rank_pairs

from repro.core.dht import DHTParams
from repro.core.two_way.backward import (
    BackwardBasicJoin,
    BackwardIDJX,
    BackwardIDJY,
    back_walk,
)
from repro.core.two_way.base import (
    ScoredPair,
    make_context,
    sort_pairs,
    top_k_pairs,
)
from repro.core.two_way.forward import ForwardBasicJoin, ForwardIDJ
from repro.graph.validation import GraphValidationError

ALL_ALGORITHMS = [
    ForwardBasicJoin,
    ForwardIDJ,
    BackwardBasicJoin,
    BackwardIDJX,
    BackwardIDJY,
]


def reference_pairs(graph, left, right, params, d):
    """Brute-force ranking of every pair by the dense oracle."""
    return [
        ScoredPair(p, q, score)
        for (p, q), score in rank_pairs(dht_scores(graph, params, d), left, right)
    ]


class TestBaseHelpers:
    def test_sort_pairs_deterministic_ties(self):
        pairs = [ScoredPair(2, 0, 1.0), ScoredPair(1, 0, 1.0), ScoredPair(0, 0, 2.0)]
        ordered = sort_pairs(pairs)
        assert [p.left for p in ordered] == [0, 1, 2]

    def test_top_k_negative_rejected(self):
        with pytest.raises(GraphValidationError):
            top_k_pairs([], -1)

    def test_make_context_defaults(self, path4):
        ctx = make_context(path4, [0], [3])
        assert ctx.d == 8  # lambda=0.2, eps=1e-6
        assert ctx.params.alpha == pytest.approx(1.25)

    def test_make_context_epsilon(self, path4):
        ctx = make_context(path4, [0], [3], epsilon=1e-3)
        assert ctx.d == DHTParams.dht_lambda(0.2).steps_for_epsilon(1e-3)

    def test_make_context_rejects_both_d_and_epsilon(self, path4):
        with pytest.raises(GraphValidationError):
            make_context(path4, [0], [3], d=4, epsilon=1e-3)

    def test_empty_node_set_rejected(self, path4):
        with pytest.raises(GraphValidationError, match="empty"):
            make_context(path4, [], [3])

    def test_num_pairs_excludes_overlap(self, path4):
        ctx = make_context(path4, [0, 1], [1, 2], d=4)
        assert ctx.num_pairs == 3  # (1,1) excluded


@pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
class TestAlgorithmCorrectness:
    def test_matches_reference_on_random_graph(
        self, algorithm_cls, random_graph, params
    ):
        left, right = list(range(8)), list(range(25, 37))
        d = 8
        reference = reference_pairs(random_graph, left, right, params, d)
        ctx = make_context(random_graph, left, right, params=params, d=d)
        result = algorithm_cls(ctx).top_k(10)
        assert len(result) == 10
        assert np.allclose(
            [p.score for p in result], [p.score for p in reference[:10]]
        )

    def test_matches_reference_on_directed(
        self, algorithm_cls, random_digraph, params
    ):
        left, right = list(range(6)), list(range(15, 24))
        reference = reference_pairs(random_digraph, left, right, params, 6)
        ctx = make_context(random_digraph, left, right, params=params, d=6)
        result = algorithm_cls(ctx).top_k(8)
        assert np.allclose(
            [p.score for p in result], [p.score for p in reference[:8]]
        )

    def test_k_zero_returns_empty(self, algorithm_cls, path4, params):
        ctx = make_context(path4, [0, 1], [2, 3], params=params, d=4)
        assert algorithm_cls(ctx).top_k(0) == []

    def test_k_exceeding_pairs_returns_all(self, algorithm_cls, path4, params):
        ctx = make_context(path4, [0, 1], [2, 3], params=params, d=4)
        result = algorithm_cls(ctx).top_k(100)
        assert len(result) == 4

    def test_overlapping_sets_skip_reflexive(self, algorithm_cls, path4, params):
        ctx = make_context(path4, [0, 1, 2], [1, 2], params=params, d=4)
        result = algorithm_cls(ctx).top_k(100)
        assert all(p.left != p.right for p in result)
        assert len(result) == 4

    def test_results_sorted_descending(self, algorithm_cls, random_graph, params):
        ctx = make_context(
            random_graph, list(range(10)), list(range(20, 30)), params=params, d=8
        )
        result = algorithm_cls(ctx).top_k(20)
        scores = [p.score for p in result]
        assert scores == sorted(scores, reverse=True)

    def test_dht_e_variant(self, algorithm_cls, random_graph):
        params = DHTParams.dht_e()
        d = params.steps_for_epsilon(1e-6)
        left, right = list(range(5)), list(range(30, 38))
        reference = reference_pairs(random_graph, left, right, params, d)
        ctx = make_context(random_graph, left, right, params=params, d=d)
        result = algorithm_cls(ctx).top_k(6)
        assert np.allclose(
            [p.score for p in result], [p.score for p in reference[:6]]
        )


class TestBackWalk:
    def test_back_walk_scores(self, random_graph, params):
        ctx = make_context(random_graph, [0, 1], [9], params=params, d=8)
        scores = back_walk(ctx, 9, 8)
        series = ctx.engine.backward_first_hit_series(9, 8)
        assert np.allclose(scores, params.scores_from_matrix(series))

    def test_short_walk_lower_bounds_long_walk(self, random_graph, params):
        ctx = make_context(random_graph, [0], [9], params=params, d=8)
        short = back_walk(ctx, 9, 2)
        long = back_walk(ctx, 9, 8)
        assert np.all(short <= long + 1e-12)


class TestPruningBehaviour:
    def test_fidj_trace_records_levels(self, random_graph, params):
        ctx = make_context(
            random_graph, list(range(12)), list(range(25, 35)), params=params, d=8
        )
        algorithm = ForwardIDJ(ctx)
        algorithm.top_k(3)
        levels = [t["level"] for t in algorithm.pruning_trace]
        assert levels == [1, 2, 4]

    def test_bidj_trace_records_levels(self, random_graph, params):
        ctx = make_context(
            random_graph, list(range(12)), list(range(25, 35)), params=params, d=8
        )
        algorithm = BackwardIDJY(ctx)
        algorithm.top_k(3)
        levels = [t["level"] for t in algorithm.pruning_trace]
        assert levels == [1, 2, 4]
        for t in algorithm.pruning_trace:
            assert 0 <= t["pruned"] <= t["active_before"]

    def test_y_prunes_at_least_as_much_as_x(self, random_graph):
        # Lemma 5 consequence, the Fig. 10(b) effect.
        params = DHTParams.dht_lambda(0.7)
        left, right = list(range(10)), list(range(20, 40))
        d = 16
        ctx_x = make_context(random_graph, left, right, params=params, d=d)
        ctx_y = make_context(random_graph, left, right, params=params, d=d)
        algo_x, algo_y = BackwardIDJX(ctx_x), BackwardIDJY(ctx_y)
        result_x, result_y = algo_x.top_k(5), algo_y.top_k(5)
        assert np.allclose(
            [p.score for p in result_x], [p.score for p in result_y]
        )
        pruned_x = sum(t["pruned"] for t in algo_x.pruning_trace)
        pruned_y = sum(t["pruned"] for t in algo_y.pruning_trace)
        assert pruned_y >= pruned_x

    def test_observer_sees_every_walk(self, random_graph, params):
        calls = []

        left = list(range(5))

        class Recorder:
            def observe(self, targets, level, block, tails):
                # One left-aligned block per consumed group of targets,
                # never full-graph vectors.
                assert block.shape == (len(left), len(targets))
                assert len(tails) == len(targets)
                calls.extend(
                    (q, level, tail) for q, tail in zip(targets, tails.tolist())
                )

        ctx = make_context(
            random_graph, left, list(range(20, 26)), params=params, d=8
        )
        BackwardIDJY(ctx, observer=Recorder()).top_k(3)
        assert calls
        # Final full-depth walks carry a zero tail.
        finals = [c for c in calls if c[1] == 8]
        assert finals and all(c[2] == 0.0 for c in finals)
