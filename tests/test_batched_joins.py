"""Batched/resumable join paths vs. the seed per-target implementations.

``BackwardIDJ.top_k_reference`` and ``B-BJ`` with ``block_size=1`` are
the seed algorithms kept verbatim; the rewritten batched paths must
return identical top-k sequences (and strictly fewer propagation steps
for the resumable deepening).
"""

import numpy as np
import pytest

from repro.core.two_way.backward import (
    BackwardBasicJoin,
    BackwardIDJX,
    BackwardIDJY,
)
from repro.core.two_way.base import BoundedTopK, kth_largest, make_context
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache


def assert_same_pairs(got, expected, atol=1e-12):
    assert [(p.left, p.right) for p in got] == [
        (p.left, p.right) for p in expected
    ]
    assert np.allclose(
        [p.score for p in got], [p.score for p in expected], atol=atol
    )


class TestBatchedBBJ:
    @pytest.mark.parametrize("block_size", [2, 3, 16])
    def test_all_pairs_matches_per_target(self, random_graph, params, block_size):
        ctx = make_context(
            random_graph, list(range(10)), list(range(20, 33)), params=params, d=8
        )
        batched = sorted(BackwardBasicJoin(ctx, block_size=block_size).all_pairs())
        single = sorted(BackwardBasicJoin(ctx, block_size=1).all_pairs())
        assert_same_pairs(batched, single)

    def test_all_pairs_matches_on_directed(self, random_digraph, params):
        ctx = make_context(
            random_digraph, list(range(8)), list(range(10, 22)), params=params, d=6
        )
        batched = sorted(BackwardBasicJoin(ctx).all_pairs())
        single = sorted(BackwardBasicJoin(ctx, block_size=1).all_pairs())
        assert_same_pairs(batched, single)

    def test_cached_context_same_results(self, random_graph, params):
        plain = make_context(
            random_graph, list(range(6)), list(range(25, 34)), params=params, d=8
        )
        cached = make_context(
            random_graph, list(range(6)), list(range(25, 34)), params=params, d=8,
            walk_cache=WalkCache(plain.engine, params), engine=plain.engine,
        )
        assert_same_pairs(
            BackwardBasicJoin(cached).top_k(7), BackwardBasicJoin(plain).top_k(7)
        )
        # A second run over the cached context is pure cache hits.
        cached.engine.stats.reset()
        BackwardBasicJoin(cached).all_pairs()
        assert cached.engine.stats.propagation_steps == 0

    def test_invalid_block_size(self, path4, params):
        ctx = make_context(path4, [0], [3], params=params, d=4)
        with pytest.raises(GraphValidationError):
            BackwardBasicJoin(ctx, block_size=0)


@pytest.mark.parametrize("algorithm_cls", [BackwardIDJX, BackwardIDJY])
class TestResumableBIDJ:
    def test_top_k_matches_reference(self, algorithm_cls, random_graph, params):
        left, right = list(range(12)), list(range(25, 40))
        ctx = make_context(random_graph, left, right, params=params, d=8)
        resumable = algorithm_cls(ctx)
        result = resumable.top_k(6)
        reference_algo = algorithm_cls(
            make_context(random_graph, left, right, params=params, d=8)
        )
        reference = reference_algo.top_k_reference(6)
        assert_same_pairs(result, reference)
        assert resumable.pruning_trace == reference_algo.pruning_trace

    def test_strictly_fewer_propagation_steps(
        self, algorithm_cls, random_graph, params
    ):
        left, right = list(range(12)), list(range(25, 40))
        ctx = make_context(random_graph, left, right, params=params, d=8)
        ctx.engine.stats.reset()
        algorithm_cls(ctx).top_k(6)
        resumable_steps = ctx.engine.stats.propagation_steps
        ctx2 = make_context(random_graph, left, right, params=params, d=8)
        ctx2.engine.stats.reset()
        algorithm_cls(ctx2).top_k_reference(6)
        assert resumable_steps < ctx2.engine.stats.propagation_steps

    def test_matches_reference_with_cache(self, algorithm_cls, random_graph, params):
        left, right = list(range(10)), list(range(22, 36))
        plain = make_context(random_graph, left, right, params=params, d=8)
        reference = algorithm_cls(plain).top_k_reference(5)
        cached_ctx = make_context(
            random_graph, left, right, params=params, d=8,
            engine=plain.engine, walk_cache=WalkCache(plain.engine, params),
        )
        assert_same_pairs(algorithm_cls(cached_ctx).top_k(5), reference)
        # Re-running against the warm cache stays correct and cheap.
        cached_ctx.engine.stats.reset()
        rerun_ctx = make_context(
            random_graph, left, right, params=params, d=8,
            engine=plain.engine, walk_cache=cached_ctx.walk_cache,
        )
        assert_same_pairs(algorithm_cls(rerun_ctx).top_k(5), reference)
        assert (
            cached_ctx.engine.stats.propagation_steps
            < len(right) * plain.d
        )

    def test_observer_equivalent_to_reference(
        self, algorithm_cls, random_graph, params
    ):
        left, right = list(range(8)), list(range(20, 30))

        class Recorder:
            def __init__(self):
                self.calls = []
                self.scores = []
                self.blocks = 0

            def observe(self, targets, level, block, tails):
                # Left-aligned blocks on the fast and the reference path
                # alike; flattened here to one record per walk.
                assert block.shape == (len(left), len(targets))
                self.blocks += 1
                for q, scores, tail in zip(targets, block.T, tails.tolist()):
                    self.calls.append((q, level, round(tail, 12)))
                    self.scores.append(scores.copy())

        fast, slow = Recorder(), Recorder()
        ctx = make_context(random_graph, left, right, params=params, d=8)
        algorithm_cls(ctx, observer=fast).top_k(4)
        ctx2 = make_context(random_graph, left, right, params=params, d=8)
        algorithm_cls(ctx2, observer=slow).top_k_reference(4)
        assert fast.calls == slow.calls
        for got, expected in zip(fast.scores, slow.scores):
            assert np.allclose(got, expected, atol=1e-12)
        # The reference feeds one-column blocks, the join one block per
        # consumed group: far fewer observer calls for the same walks.
        assert slow.blocks == len(slow.calls)
        assert fast.blocks < slow.blocks

    def test_d_one_walks_everything_once(self, algorithm_cls, path4, params):
        ctx = make_context(path4, [0, 1], [2, 3], params=params, d=1)
        result = algorithm_cls(ctx).top_k(10)
        reference = algorithm_cls(
            make_context(path4, [0, 1], [2, 3], params=params, d=1)
        ).top_k_reference(10)
        assert_same_pairs(result, reference)


class TestThresholdHelpers:
    def test_kth_largest_matches_sorted(self, rng):
        values = rng.normal(size=200).tolist()
        for k in (1, 5, 200):
            assert kth_largest(values, k) == sorted(values, reverse=True)[k - 1]

    def test_kth_largest_underfull(self):
        assert kth_largest([1.0, 2.0], 3) == float("-inf")

    def test_bounded_topk_matches_kth_largest(self, rng):
        values = rng.normal(size=5000)
        topk = BoundedTopK(37)
        for chunk in np.array_split(values, 13):
            topk.push(chunk)
        assert topk.kth_largest() == kth_largest(values, 37)
        assert topk.count == values.size

    def test_bounded_topk_underfull(self):
        topk = BoundedTopK(10)
        topk.push(np.arange(4, dtype=np.float64))
        assert topk.kth_largest() == float("-inf")

    def test_bounded_topk_handles_scalars_and_empties(self):
        topk = BoundedTopK(2)
        topk.push(np.array([]))
        topk.push(3.0)
        topk.push(np.array([1.0, 2.0]))
        assert topk.kth_largest() == 2.0

    def test_bounded_topk_rejects_bad_k(self):
        with pytest.raises(GraphValidationError):
            BoundedTopK(0)
