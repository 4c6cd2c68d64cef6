"""Unit tests for the measure layer: PPR and SimRank joins.

Every batched, resumable, or cached measure path must reproduce the
brute-force oracle (``tests/oracles``), which ``TestSimRank`` and
``test_matches_exact_linear_solve`` check against hand-solved cases.
"""

import numpy as np
import pytest

from oracles import (
    as_ranked,
    assert_top_k,
    exact_ppr,
    in_weight_matrix,
    ppr_scores,
    rank_answers,
    rank_pairs,
    scores_for,
    simrank_scores,
)
from repro.api import explain_multi_way_plan, multi_way_join, two_way_join
from repro.core.dht import DHTParams
from repro.core.nway.aggregates import MIN, SUM
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.core.bounds import YBound
from repro.core.two_way.base import TwoWayContext, make_context, sort_pairs
from repro.extensions.measures import (
    DHTMeasure,
    TruncatedPPR,
    measure_by_name,
)
from repro.extensions.series_join import (
    SeriesBackwardJoin,
    SeriesIDJ,
    SeriesPartialJoin,
)
from repro.extensions.simrank import SimRankMeasure, _in_weight_matrix
from repro.graph.builders import (
    complete_graph,
    erdos_renyi,
    path_graph,
    preferential_attachment,
)
from repro.graph.digraph import Graph
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.kernels import DHTBlockKernel, PPRBlockKernel, as_block_kernel
from repro.walks.state import WalkState


def oracle_pairs(graph, left, right, measure):
    """The oracle's full ranking of ``left x right`` under ``measure``."""
    return rank_pairs(scores_for(graph, measure.d, measure=measure), left, right)


def oracle_answers(graph, query, sets, measure, aggregate=MIN):
    """The oracle's full ranking of the n-way answers under ``measure``."""
    scores = scores_for(graph, measure.d, measure=measure)
    return [
        (nodes, score) for nodes, score, _ in rank_answers(
            [scores] * query.num_edges, sets, query.edges, aggregate
        )
    ]


def measure_iterate(graph, decay=0.8, iterations=10):
    """The measure's ``iterations``-sweep iterate, every column of it."""
    return SimRankMeasure(decay=decay, iterations=iterations).backward_scores_block(
        WalkEngine(graph), range(graph.num_nodes), iterations
    )


class TestTruncatedPPR:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedPPR(damping=1.0)
        with pytest.raises(ValueError):
            TruncatedPPR(damping=0.5, epsilon=2.0)

    def test_depth_achieves_epsilon(self):
        measure = TruncatedPPR(damping=0.85, epsilon=1e-4)
        assert measure.damping ** (measure.d + 1) <= 1e-4 * (1 + 1e-12)

    def test_matches_exact_linear_solve(self, random_graph):
        # Path 0 - 1 by hand: T swaps the two nodes, so
        # (1 - c)(I - cT)^-1 = [[1, c], [c, 1]] / (1 + c), and the
        # i-step visit term sits on the diagonal for even i only.
        c = 0.6
        two = path_graph(2)
        assert exact_ppr(two, c) == pytest.approx(
            np.array([[1.0, c], [c, 1.0]]) / (1 + c), abs=1e-15
        )
        truncated = ppr_scores(two, c, 3)
        assert truncated[0, 0] == pytest.approx((1 - c) * (1 + c ** 2))
        assert truncated[0, 1] == pytest.approx((1 - c) * (c + c ** 3))
        measure = TruncatedPPR(damping=0.7, epsilon=1e-10)
        engine = WalkEngine(random_graph)
        exact = exact_ppr(random_graph, 0.7)
        for target in (0, 13):
            truncated = measure.backward_scores(engine, target, measure.d)
            assert np.allclose(truncated, exact[:, target], atol=1e-8)

    def test_self_score_highest(self, random_graph):
        # A PPR walker restarts at itself, so pi_v(v) dominates.
        measure = TruncatedPPR(damping=0.85)
        engine = WalkEngine(random_graph)
        scores = measure.backward_scores(engine, 5, measure.d)
        assert scores[5] == max(scores)

    def test_tail_bound_valid(self, random_graph):
        measure = TruncatedPPR(damping=0.6, epsilon=1e-8)
        engine = WalkEngine(random_graph)
        full = measure.backward_scores(engine, 7, measure.d)
        for level in (1, 2, 4):
            partial = measure.backward_scores(engine, 7, level)
            assert np.all(full <= partial + measure.tail_bound(level) + 1e-12)
            assert np.all(partial <= full + 1e-12)  # monotone in depth


class TestSeriesJoins:
    @pytest.mark.parametrize(
        "measure_factory",
        [lambda: TruncatedPPR(damping=0.7, epsilon=1e-6), lambda: DHTMeasure()],
    )
    def test_idj_equals_basic(self, random_graph, measure_factory):
        left, right = list(range(8)), list(range(20, 30))
        basic = SeriesBackwardJoin(
            make_context(random_graph, left, right, measure=measure_factory())
        ).top_k(10)
        pruned = SeriesIDJ(
            make_context(random_graph, left, right, measure=measure_factory())
        ).top_k(10)
        assert np.allclose(
            [p.score for p in basic], [p.score for p in pruned]
        )

    def test_dht_measure_matches_core(self, random_graph, params):
        from repro.core.two_way.backward import BackwardBasicJoin

        left, right = list(range(6)), list(range(25, 33))
        measure = DHTMeasure(params)
        ext = SeriesBackwardJoin(
            make_context(random_graph, left, right, measure=measure)
        ).top_k(5)
        core = BackwardBasicJoin(
            make_context(random_graph, left, right, params=params, d=measure.d)
        ).top_k(5)
        assert np.allclose([p.score for p in ext], [p.score for p in core])

    def test_two_way_facade(self, random_graph):
        measure = TruncatedPPR()
        result = two_way_join(
            random_graph, [0, 1], [20, 21], k=3, measure=measure,
            algorithm="idj",
        )
        assert len(result) == 3
        scores = [p.score for p in result]
        assert scores == sorted(scores, reverse=True)

    def test_two_way_facade_unknown_algorithm(self, random_graph):
        with pytest.raises(GraphValidationError, match="'magic' is DHT-only"):
            two_way_join(
                random_graph, [0], [5], k=1,
                measure=TruncatedPPR(), algorithm="magic",
            )

    def test_multi_way_ppr_matches_brute_force(self, random_graph):
        measure = TruncatedPPR(damping=0.7)
        sets = [[0, 1, 2], [10, 11, 12], [20, 21, 22]]
        query = QueryGraph.chain(3)
        got = multi_way_join(
            random_graph, query, sets, k=5, measure=measure, aggregate=SUM,
            algorithm="ap",
        )
        assert_top_k(
            as_ranked(got), oracle_answers(random_graph, query, sets, measure, sum), 5
        )

    def test_multi_way_set_count_mismatch(self, random_graph):
        with pytest.raises(GraphValidationError):
            multi_way_join(
                random_graph, QueryGraph.chain(3), [[0], [1]], k=1,
                measure=TruncatedPPR(), algorithm="ap",
            )


class TestSimRank:
    def test_identity_diagonal(self, random_graph):
        sim = measure_iterate(random_graph, iterations=4)
        assert np.allclose(np.diag(sim), 1.0)

    def test_symmetric_on_undirected(self, random_graph):
        sim = measure_iterate(random_graph, iterations=5)
        assert np.allclose(sim, sim.T, atol=1e-12)

    def test_range(self, random_graph):
        sim = measure_iterate(random_graph, iterations=5)
        assert np.all(sim >= -1e-12) and np.all(sim <= 1.0 + 1e-12)

    def test_hand_case_two_leaves(self):
        # Star 0-1, 0-2: leaves 1 and 2 share the single in-neighbour 0,
        # so s(1,2) converges to C * s(0,0) = C.
        g = Graph.from_undirected_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])
        for sim in (
            simrank_scores(g, decay=0.8, iterations=30),
            measure_iterate(g, decay=0.8, iterations=30),
        ):
            assert sim[1, 2] == pytest.approx(0.8, abs=1e-6)

    def test_fixed_point_residual_shrinks(self, random_graph):
        early = measure_iterate(random_graph, iterations=3)
        late = measure_iterate(random_graph, iterations=12)
        later = measure_iterate(random_graph, iterations=13)
        assert np.max(np.abs(later - late)) < np.max(np.abs(late - early))

    def test_validation(self, random_graph):
        for bad in ({"decay": 1.5}, {"iterations": 0}):
            with pytest.raises(GraphValidationError):
                simrank_scores(random_graph, **bad)
            with pytest.raises(GraphValidationError):
                SimRankMeasure(**bad)

    def test_join_ranks_structurally_similar_nodes(self):
        # Two hubs with identical leaf sets should be most SimRank-alike.
        edges = [(0, i, 1.0) for i in range(2, 6)] + [(1, i, 1.0) for i in range(2, 6)]
        g = Graph.from_undirected_edges(6, edges)
        measure = SimRankMeasure(iterations=8)
        result = two_way_join(g, [0], [1, 2, 3], k=1, measure=measure)
        assert result[0].right == 1
        assert oracle_pairs(g, [0], [1, 2, 3], measure)[0][0] == (0, 1)

    def test_join_excludes_reflexive(self, random_graph):
        measure = SimRankMeasure(iterations=3)
        result = two_way_join(random_graph, [0, 1], [1, 2], k=10, measure=measure)
        assert all(p.left != p.right for p in result)
        assert_top_k(
            as_ranked(result), oracle_pairs(random_graph, [0, 1], [1, 2], measure), 10
        )

    def test_multi_way_join_runs(self, random_graph):
        query = QueryGraph.chain(3)
        sets = [[0, 1], [10, 11], [20, 21]]
        answers = multi_way_join(
            random_graph, query, sets, k=3,
            measure=SimRankMeasure(iterations=4), algorithm="ap",
        )
        assert answers
        scores = [a.score for a in answers]
        assert scores == sorted(scores, reverse=True)
        assert_top_k(
            as_ranked(answers),
            oracle_answers(random_graph, query, sets, SimRankMeasure(iterations=4)),
            3,
        )

    def test_multi_way_set_count_mismatch(self, random_graph):
        with pytest.raises(GraphValidationError):
            multi_way_join(
                random_graph, QueryGraph.chain(2), [[0]], k=1,
                measure=SimRankMeasure(iterations=4), algorithm="ap",
            )


class TestInWeightMatrix:
    """The vectorised in-weight builder against the oracle's dict loop."""

    @pytest.mark.parametrize("weighted", [True, False])
    def test_bit_identical_to_reference(self, random_graph, weighted):
        got = _in_weight_matrix(random_graph, weighted)
        ref = in_weight_matrix(random_graph, weighted)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_bit_identical_on_hub_graph(self, weighted):
        graph = preferential_attachment(200, 3, np.random.default_rng(7))
        assert np.array_equal(
            _in_weight_matrix(graph, weighted),
            in_weight_matrix(graph, weighted),
        )

    @pytest.mark.parametrize("weighted", [True, False])
    def test_bit_identical_on_directed_weighted(self, tiny_directed, weighted):
        assert np.array_equal(
            _in_weight_matrix(tiny_directed, weighted),
            in_weight_matrix(tiny_directed, weighted),
        )

    @pytest.mark.parametrize("weighted", [True, False])
    def test_bit_identical_on_shuffled_edge_order(self, weighted):
        """Adjacency insertion order (an arbitrary on-disk edge-list
        order) dictates the reference's float summation order; the
        vectorised builder must reproduce it exactly."""
        rng = np.random.default_rng(13)
        base = erdos_renyi(60, 0.15, rng, weighted=True)
        edges = list(base.edges())
        rng.shuffle(edges)
        graph = Graph(base.num_nodes, edges)
        assert np.array_equal(
            _in_weight_matrix(graph, weighted),
            in_weight_matrix(graph, weighted),
        )

    def test_empty_and_edgeless_graphs(self):
        assert _in_weight_matrix(Graph(0, []), True).shape == (0, 0)
        assert np.array_equal(
            _in_weight_matrix(Graph(3, []), True), np.zeros((3, 3))
        )

    def test_columns_are_stochastic_or_zero(self, random_graph):
        w = _in_weight_matrix(random_graph, True)
        sums = w.sum(axis=0)
        assert np.all(
            np.isclose(sums, 1.0, atol=1e-12) | np.isclose(sums, 0.0)
        )


class TestSimRankIterateEviction:
    """The iterate memo is capped: deepest kept, shallower LRU-evicted."""

    def test_cap_holds_and_evictions_counted(self, random_graph):
        measure = SimRankMeasure(iterations=10, max_cached_iterates=2)
        engine = WalkEngine(random_graph)
        for level in (1, 2, 4, 8, 10):
            measure.backward_scores(engine, 3, level)
        assert len(measure._iterates) <= 2
        assert measure.stats.iterate_evictions > 0
        # The deepest iterate is always retained for future resumes.
        assert max(measure._iterates) == 10

    def test_scores_unchanged_by_eviction(self, random_graph):
        capped = SimRankMeasure(iterations=10, max_cached_iterates=1)
        roomy = SimRankMeasure(iterations=10, max_cached_iterates=64)
        engine = WalkEngine(random_graph)
        # Interleave shallow and deep requests so the capped measure
        # must recompute evicted iterates from the identity.
        for level in (4, 1, 8, 2, 10, 4):
            assert np.array_equal(
                capped.backward_scores(engine, 5, level),
                roomy.backward_scores(engine, 5, level),
            )
        assert capped.stats.sweeps > roomy.stats.sweeps  # recomputation
        assert roomy.stats.iterate_evictions == 0

    def test_deep_request_still_resumes_deepest(self, random_graph):
        measure = SimRankMeasure(iterations=12, max_cached_iterates=1)
        engine = WalkEngine(random_graph)
        measure.backward_scores(engine, 0, 8)
        measure.stats.reset()
        measure.backward_scores(engine, 0, 12)
        assert measure.stats.sweeps == 4  # resumed, not restarted

    def test_validation(self):
        with pytest.raises(GraphValidationError, match="max_cached_iterates"):
            SimRankMeasure(max_cached_iterates=0)


def _pairs_key(pairs):
    return [(p.left, p.right) for p in pairs]


def _answers_key(answers):
    return [(a.nodes, round(a.score, 10)) for a in answers]


MEASURE_FACTORIES = [
    lambda: TruncatedPPR(damping=0.7, epsilon=1e-6),
    lambda: DHTMeasure(),
    lambda: SimRankMeasure(iterations=8),
]


class TestMeasureBlocks:
    """Batched block kernels against the per-target paths and the oracle."""

    @pytest.mark.parametrize("measure_factory", MEASURE_FACTORIES)
    def test_block_matches_per_target(self, random_graph, measure_factory):
        measure = measure_factory()
        engine = WalkEngine(random_graph)
        targets = [3, 11, 25, 30]
        for level in (1, 3, measure.d):
            block = measure.backward_scores_block(engine, targets, level)
            oracle = scores_for(random_graph, level, measure=measure)
            for j, q in enumerate(targets):
                single = measure.backward_scores(engine, q, level)
                mask = np.arange(random_graph.num_nodes) != q
                assert np.allclose(block[mask, j], single[mask], atol=1e-12)
                assert np.allclose(block[mask, j], oracle[mask, q], atol=1e-12)

    def test_ppr_state_extension_matches_fresh(self, random_graph):
        measure = TruncatedPPR(damping=0.6)
        engine = WalkEngine(random_graph)
        kernel = measure.kernel()
        resumed = WalkState(engine, kernel, [2, 7]).advance_to(3).advance_to(9)
        fresh = WalkState(engine, kernel, [2, 7]).advance_to(9)
        assert np.allclose(
            resumed.scores_matrix(), fresh.scores_matrix(), atol=1e-15
        )

    def test_ppr_kernel_is_not_absorbing(self, random_graph):
        # A PPR walker may revisit the target: for the path 0-1, mass
        # oscillates and every even step contributes to the self score.
        g = path_graph(2)
        measure = TruncatedPPR(damping=0.5, epsilon=1e-8)
        scores = measure.backward_scores_block(WalkEngine(g), [0], measure.d)[:, 0]
        exact = exact_ppr(g, 0.5)[:, 0]
        assert np.allclose(scores, exact, atol=1e-2)
        assert scores[0] > 0.5  # revisits keep most mass at home

    def test_simrank_measure_matches_matrix_solver(self, random_graph):
        measure = SimRankMeasure(decay=0.7, iterations=6)
        engine = WalkEngine(random_graph)
        expected = simrank_scores(random_graph, decay=0.7, iterations=6)
        block = measure.backward_scores_block(engine, [1, 5, 9], 6)
        assert np.allclose(block, expected[:, [1, 5, 9]], atol=1e-15)

    def test_simrank_iterates_resume_bit_identical(self, random_graph):
        resumed = SimRankMeasure(decay=0.8, iterations=10)
        engine = WalkEngine(random_graph)
        resumed.backward_scores(engine, 0, 2)  # caches the level-2 iterate
        column = resumed.backward_scores(engine, 0, 7)
        fresh = simrank_scores(random_graph, decay=0.8, iterations=7)[:, 0]
        assert np.array_equal(column, fresh)


class TestSeriesIDJResumable:
    """The resumable, cached SeriesIDJ against the oracle."""

    @pytest.mark.parametrize("measure_factory", MEASURE_FACTORIES)
    def test_idj_matches_reference(self, random_graph, measure_factory):
        left, right = list(range(8)), list(range(20, 32))
        measure = measure_factory()
        got = SeriesIDJ(
            make_context(random_graph, left, right, measure=measure)
        ).top_k(10)
        assert_top_k(
            as_ranked(got), oracle_pairs(random_graph, left, right, measure), 10
        )

    @pytest.mark.parametrize("measure_factory", MEASURE_FACTORIES)
    def test_idj_with_walk_cache_matches(self, random_graph, measure_factory):
        measure = measure_factory()
        engine = WalkEngine(random_graph)
        cache = WalkCache(engine, measure.cache_key())
        left, right = list(range(6)), list(range(18, 30))
        def cached():
            return make_context(
                random_graph, left, right, engine=engine, walk_cache=cache,
                measure=measure,
            )

        first = SeriesIDJ(cached()).top_k(6)
        rerun = SeriesIDJ(cached()).top_k(6)
        assert_top_k(
            as_ranked(first), oracle_pairs(random_graph, left, right, measure), 6
        )
        assert _pairs_key(rerun) == _pairs_key(first)
        assert cache.stats.hits > 0  # the rerun was served from memory

    def test_resumable_idj_walks_fewer_steps(self, random_graph):
        measure = TruncatedPPR(damping=0.7, epsilon=1e-6)
        left, right = list(range(8)), list(range(20, 36))
        engine = WalkEngine(random_graph)
        def context():
            return make_context(
                random_graph, left, right, engine=engine, measure=measure
            )

        ctx = context()
        resumable = SeriesIDJ(ctx)
        resumable._bound_factory(ctx)  # the bound's own walk is not a join step
        engine.stats.reset()
        resumable.top_k(5)
        walked = engine.stats.propagation_steps
        # At most d column-steps per right node, and strictly fewer than
        # restarting every walk at every level (the seed's cost).
        trace = resumable.pruning_trace
        survivors = trace[-1]["active_before"] - trace[-1]["pruned"]
        restart = sum(r["level"] * r["active_before"] for r in trace)
        assert walked <= measure.d * len(right)
        assert walked < restart + measure.d * survivors

    def test_series_y_bound_admissible_and_tighter(self, random_graph):
        measure = TruncatedPPR(damping=0.7, epsilon=1e-6)
        engine = WalkEngine(random_graph)
        sources = list(range(8))
        weights = [measure.tail_weight(i) for i in range(1, measure.d + 1)]
        bound = YBound(engine, weights, sources, measure.d)
        full = ppr_scores(random_graph, measure.damping, measure.d).T
        for level in (1, 2, 4):
            truncated = ppr_scores(random_graph, measure.damping, level).T
            for q in range(20, 28):
                partial = truncated[q]
                tail = bound.tail(level, q)
                assert tail <= measure.tail_bound(level) + 1e-12
                for p in sources:
                    if p == q:
                        continue
                    assert full[q][p] <= partial[p] + tail + 1e-12


class TestMeasureNWay:
    @pytest.mark.parametrize(
        "measure_factory",
        [
            lambda: TruncatedPPR(damping=0.7, epsilon=1e-4),
            lambda: SimRankMeasure(iterations=6),
            lambda: DHTMeasure(),
        ],
    )
    def test_ap_and_pj_match_per_target_oracle(self, random_graph, measure_factory):
        sets = [[0, 1, 2, 3], [10, 11, 12, 13], [20, 21, 22, 23]]
        query = QueryGraph.star(2, bidirectional=True)
        ap = multi_way_join(
            random_graph, query, sets, k=6, measure=measure_factory(),
            algorithm="ap",
        )
        pj = multi_way_join(
            random_graph, query, sets, k=6, measure=measure_factory(),
            algorithm="pj", m=4,
        )
        oracle = oracle_answers(random_graph, query, sets, measure_factory())
        assert_top_k(as_ranked(ap), oracle, 6)
        assert_top_k(as_ranked(pj), oracle, 6)

    def test_nway_shares_walks_and_bounds_across_edges(self, random_graph):
        sets = [[0, 1, 2, 3], [10, 11, 12, 13], [20, 21, 22, 23]]
        # SimRank has no reach-mass bound to share; its edges still
        # share walks.
        for measure, has_reach_bound in (
            (TruncatedPPR(damping=0.7, epsilon=1e-4), True),
            (SimRankMeasure(iterations=6), False),
        ):
            spec = NWayJoinSpec(
                graph=random_graph,
                query_graph=QueryGraph.star(2, bidirectional=True),
                node_sets=[list(s) for s in sets],
                k=6,
                measure=measure,
            )
            SeriesPartialJoin(spec, m=4).run()
            assert spec.walk_cache.stats.hits > 0
            assert (spec.bound_cache.stats.y_hits > 0) == has_reach_bound
            assert (
                spec.engine.stats.bound_cache_hits
                == spec.bound_cache.stats.y_hits
            )

    def test_measure_spec_rejects_dht_configuration(self, random_graph):
        with pytest.raises(GraphValidationError, match="fixes its own"):
            NWayJoinSpec(
                graph=random_graph, query_graph=QueryGraph.chain(2),
                node_sets=[[0], [1]], k=1,
                measure=TruncatedPPR(), d=4,
            )

    def test_nway_rejects_unknown_algorithm(self, random_graph):
        with pytest.raises(GraphValidationError, match="DHT-only"):
            multi_way_join(
                random_graph, QueryGraph.chain(2), [[0], [1]], k=1,
                measure=TruncatedPPR(), algorithm="nl",
            )


class TestMeasureCacheIsolation:
    """DHT and PPR entries must never collide on one graph."""

    def test_kernels_never_compare_equal(self):
        ppr = PPRBlockKernel(0.2)
        dht = as_block_kernel(DHTParams.dht_lambda(0.2))
        assert ppr != dht
        assert isinstance(dht, DHTBlockKernel)
        # Same decay value, different family: still distinct identities.
        assert PPRBlockKernel(0.2) == PPRBlockKernel(0.2)
        assert hash(ppr) != hash(dht) or ppr != dht

    def test_context_rejects_cross_measure_walk_cache(self, random_graph, params):
        engine = WalkEngine(random_graph)
        dht_cache = WalkCache(engine, params)
        with pytest.raises(GraphValidationError, match="measure configuration"):
            make_context(
                random_graph, [0], [5], engine=engine, walk_cache=dht_cache,
                measure=TruncatedPPR(),
            )

    def test_context_rejects_cross_measure_bound_cache(self, random_graph, params):
        from repro.bounds_cache import BoundPlanCache

        engine = WalkEngine(random_graph)
        ppr = TruncatedPPR()
        ppr_bounds = BoundPlanCache(engine, ppr.cache_key())
        with pytest.raises(GraphValidationError, match="measure configuration"):
            TwoWayContext(
                graph=random_graph, params=params, left=[0], right=[5],
                d=4, engine=engine, bound_cache=ppr_bounds,
            )

    def test_cache_rejects_cross_measure_adoption(self, random_graph, params):
        engine = WalkEngine(random_graph)
        dht_cache = WalkCache(engine, params)
        ppr_state = WalkState(engine, PPRBlockKernel(0.85), [3]).advance_to(2)
        with pytest.raises(GraphValidationError, match="different measure kernel"):
            dht_cache.adopt(ppr_state)

    def test_simrank_cache_never_adopts_states(self, random_graph, params):
        """Regression: a matrix-backed cache used to misreport adoption
        as a *kernel mismatch*; the real reason is that the measure has
        no resumable walk layer at all."""
        engine = WalkEngine(random_graph)
        sim_cache = WalkCache(engine, SimRankMeasure().cache_key())
        dht_state = WalkState(engine, params, [3]).advance_to(2)
        with pytest.raises(
            GraphValidationError, match="no resumable walk layer"
        ):
            sim_cache.adopt(dht_state)
        # A genuine kernel mismatch still reports as one.
        ppr_cache = WalkCache(engine, TruncatedPPR().cache_key())
        with pytest.raises(
            GraphValidationError, match="different measure kernel"
        ):
            ppr_cache.adopt(dht_state)

    def test_same_graph_same_params_key_distinct_universes(self, random_graph):
        """A DHT spec and a PPR spec on one graph share nothing, even
        when their node sets and depths produce identical cache keys."""
        sets = [[0, 1, 2], [10, 11, 12]]
        query = QueryGraph.chain(2)
        ppr = TruncatedPPR(damping=0.7, epsilon=1e-4)
        engine = WalkEngine(random_graph)
        dht_spec = NWayJoinSpec(
            graph=random_graph, query_graph=query,
            node_sets=[list(s) for s in sets], k=3, engine=engine,
        )
        ppr_spec = NWayJoinSpec(
            graph=random_graph, query_graph=query,
            node_sets=[list(s) for s in sets], k=3, engine=engine,
            measure=ppr,
        )
        assert dht_spec.walk_cache.params != ppr_spec.walk_cache.params
        assert dht_spec.bound_cache.params != ppr_spec.bound_cache.params
        from repro.core.nway.partial_join import PartialJoin

        PartialJoin(dht_spec, m=3).run()
        SeriesPartialJoin(ppr_spec, m=3).run()
        # Same targets were walked under both measures; the vectors must
        # come from different universes (scores differ measure to measure).
        shared_targets = [
            q for q in sets[1]
            if q in dht_spec.walk_cache and q in ppr_spec.walk_cache
        ]
        assert shared_targets
        for q in shared_targets:
            dht_vec = dht_spec.walk_cache.peek(q, dht_spec.d)
            ppr_vec = ppr_spec.walk_cache.peek(q, ppr_spec.d)
            if dht_vec is not None and ppr_vec is not None:
                assert not np.allclose(dht_vec, ppr_vec)


class TestMeasureRegistryAndApi:
    def test_measure_by_name(self):
        assert measure_by_name("dht") is None
        assert measure_by_name("DHT-Lambda") is None
        assert isinstance(measure_by_name("ppr"), TruncatedPPR)
        assert isinstance(measure_by_name("simrank"), SimRankMeasure)
        with pytest.raises(GraphValidationError, match="unknown measure"):
            measure_by_name("katz")

    def test_api_two_way_measure_routing(self, random_graph):
        from repro.api import two_way_join

        got = two_way_join(
            random_graph, [0, 1, 2], [10, 11, 12], k=3, measure="ppr"
        )
        oracle = oracle_pairs(random_graph, [0, 1, 2], [10, 11, 12], TruncatedPPR())
        assert_top_k(as_ranked(got), oracle, 3)
        with pytest.raises(GraphValidationError, match="DHT-only"):
            two_way_join(
                random_graph, [0], [5], k=1, measure="ppr", algorithm="f-bj"
            )

    def test_api_multi_way_measure_routing(self, random_graph):
        from repro.api import multi_way_join

        sets = [[0, 1, 2], [10, 11, 12], [20, 21, 22]]
        query = QueryGraph.chain(3)
        got = multi_way_join(random_graph, query, sets, k=3, measure="ppr")
        oracle = oracle_answers(random_graph, query, sets, TruncatedPPR())
        assert_top_k(as_ranked(got), oracle, 3)
        with pytest.raises(GraphValidationError, match="DHT-only"):
            multi_way_join(
                random_graph, query, sets, k=1, measure="ppr", algorithm="nl"
            )

    def test_api_rejects_dht_options_under_measure(self, random_graph):
        from repro.api import multi_way_join, two_way_join

        with pytest.raises(GraphValidationError, match="DHT-only options"):
            two_way_join(random_graph, [0], [5], k=1, measure="ppr", epsilon=1e-8)
        with pytest.raises(GraphValidationError, match="DHT-only options"):
            multi_way_join(
                random_graph, QueryGraph.chain(2), [[0], [5]], k=1,
                measure="ppr", d=4,
            )

    def test_api_accepts_max_block_bytes_under_measure(self, random_graph):
        """``max_block_bytes`` stopped being DHT-only: the bounded-memory
        chunked rounds run under any measure, with identical output."""
        from repro.api import multi_way_join, two_way_join

        left, right = [0, 1, 2], [10, 11, 12, 13, 14]
        free = two_way_join(random_graph, left, right, k=4, measure="ppr")
        capped = two_way_join(
            random_graph, left, right, k=4, measure="ppr",
            max_block_bytes=16 * random_graph.num_nodes,
        )
        assert _pairs_key(capped) == _pairs_key(free)
        sets = [[0, 1, 2], [10, 11, 12]]
        query = QueryGraph.chain(2)
        free_answers = multi_way_join(
            random_graph, query, sets, k=3, measure="ppr"
        )
        capped_answers = multi_way_join(
            random_graph, query, sets, k=3, measure="ppr",
            max_block_bytes=16 * random_graph.num_nodes,
        )
        assert _answers_key(capped_answers) == _answers_key(free_answers)


class TestOneConfigurationRule:
    """Every entry point asks :func:`resolve_config` and nothing else."""

    ENTRY_POINTS = {
        "make_context": lambda g, m, **kw: make_context(
            g, [0, 1], [5, 6], measure=m, **kw
        ),
        "NWayJoinSpec": lambda g, m, **kw: NWayJoinSpec(
            graph=g, query_graph=QueryGraph.chain(2), node_sets=[[0, 1], [5]],
            k=1, measure=m, **kw,
        ),
        "two_way_join": lambda g, m, **kw: two_way_join(
            g, [0, 1], [5, 6], k=1, measure=m, **kw
        ),
        "multi_way_join": lambda g, m, **kw: multi_way_join(
            g, QueryGraph.chain(2), [[0, 1], [5]], k=1, measure=m, **kw
        ),
        "explain_multi_way_plan": lambda g, m, **kw: explain_multi_way_plan(
            g, QueryGraph.chain(2), [[0, 1], [5]], k=1, measure=m, **kw
        ),
    }
    OPTIONS = {"params": DHTParams.dht_lambda(0.2), "d": 4, "epsilon": 1e-8}

    @pytest.mark.parametrize("option", sorted(OPTIONS))
    @pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
    def test_a_measure_rejects_dht_options_with_one_message(
        self, random_graph, entry_point, option
    ):
        from repro.core.two_way.base import resolve_config

        value = self.OPTIONS[option]
        with pytest.raises(GraphValidationError) as expected:
            resolve_config(measure=TruncatedPPR(), **{option: value})
        with pytest.raises(GraphValidationError) as got:
            self.ENTRY_POINTS[entry_point](
                random_graph, TruncatedPPR(), **{option: value}
            )
        assert str(got.value) == str(expected.value)
        assert "fixes its own" in str(got.value)
        assert "DHT-only options" in str(got.value)

    def test_dht_default_is_d_8_everywhere(self, random_graph):
        from repro.service import ExplainRequest, QueryService

        assert self.ENTRY_POINTS["make_context"](random_graph, None).d == 8
        assert self.ENTRY_POINTS["NWayJoinSpec"](random_graph, None).d == 8
        with QueryService(random_graph, workers=1) as service:
            plan = service.query(
                ExplainRequest(((0, 1),), ((0, 1), (5,)), k=1)
            ).result
        assert plan.signals["d"] == 8


class TestMeasureContextsRunTheCoreOperators:
    """The classes named after the paper run a measure context or spec
    and agree with the oracle."""

    @pytest.mark.parametrize(
        "measure_factory",
        [lambda: TruncatedPPR(damping=0.7), lambda: SimRankMeasure(iterations=6)],
    )
    @pytest.mark.parametrize("operator", ["B-BJ", "B-IDJ-X", "B-IDJ-Y"])
    def test_two_way_operators_match_block_size_1(
        self, random_graph, measure_factory, operator
    ):
        from repro.core.two_way.backward import (
            BackwardBasicJoin,
            BackwardIDJX,
            BackwardIDJY,
        )

        join = {
            "B-BJ": BackwardBasicJoin, "B-IDJ-X": BackwardIDJX,
            "B-IDJ-Y": BackwardIDJY,
        }[operator]
        left, right = list(range(8)), list(range(20, 32))

        def context():
            return make_context(
                random_graph, left, right, measure=measure_factory()
            )

        got = join(context()).top_k(10)
        assert_top_k(
            as_ranked(got),
            oracle_pairs(random_graph, left, right, measure_factory()),
            10,
        )

    @pytest.mark.parametrize("executor", ["AP", "PJ", "PJ-i"])
    def test_nway_executors_match_the_per_target_oracle(
        self, random_graph, executor
    ):
        from repro.core.nway.all_pairs import AllPairsJoin
        from repro.core.nway.partial_join import PartialJoin
        from repro.core.nway.partial_join_inc import PartialJoinIncremental

        sets = [[0, 1, 2, 3], [10, 11, 12, 13], [20, 21, 22, 23]]

        def spec():
            return NWayJoinSpec(
                graph=random_graph,
                query_graph=QueryGraph.star(2, bidirectional=True),
                node_sets=[list(s) for s in sets], k=6,
                measure=TruncatedPPR(damping=0.7, epsilon=1e-4),
            )

        run = {
            "AP": lambda s: AllPairsJoin(s),
            "PJ": lambda s: PartialJoin(s, m=2),
            "PJ-i": lambda s: PartialJoinIncremental(s, m=2),
        }[executor]
        oracle = oracle_answers(
            random_graph, QueryGraph.star(2, bidirectional=True), sets,
            TruncatedPPR(damping=0.7, epsilon=1e-4),
        )
        assert_top_k(as_ranked(run(spec()).run()), oracle, 6)
