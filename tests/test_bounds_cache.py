"""Tests for the shared bound/plan cache and bounded-memory ``B-IDJ``.

Covers the ISSUE-2 equivalence requirements: cached vs. fresh
``YBound.tail`` values identical across shared query edges, restricted
tail plans reused across ``B-BJ`` re-materialisations, and ``B-IDJ``'s
chunked rounds producing identical top-k output and pruning traces vs.
the unchunked path and the brute-force oracle.
"""

import functools

import numpy as np
import pytest

from oracles import as_ranked, assert_top_k, dht_scores, rank_pairs

from repro.bounds_cache import BoundPlanCache
from repro.core.bounds import YBound, dht_tail_weights
from repro.core.dht import DHTParams
from repro.exec import BudgetExhaustedError
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.backward import (
    BackwardBasicJoin,
    BackwardIDJX,
    BackwardIDJY,
    y_bound_factory,
)
from repro.core.two_way.base import make_context
from repro.graph.builders import erdos_renyi, preferential_attachment
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.state import WalkState


def _y_bound(engine, params, sources, d):
    return YBound(engine, dht_tail_weights(params, d), sources, d)


@pytest.fixture
def engine(random_graph):
    return WalkEngine(random_graph)


@pytest.fixture
def cache(engine, params):
    return BoundPlanCache(engine, params)


class TestBoundPlanCache:
    def test_y_bound_built_once(self, cache, engine, params):
        first = cache.y_bound(
            [1, 2, 3], 4, lambda: _y_bound(engine, params, [1, 2, 3], 4)
        )
        second = cache.y_bound(
            [1, 2, 3], 4, lambda: _y_bound(engine, params, [1, 2, 3], 4)
        )
        assert first is second
        assert cache.stats.y_builds == 1 and cache.stats.y_hits == 1
        assert engine.stats.bound_builds == 1
        assert engine.stats.bound_cache_hits == 1

    def test_key_is_order_and_duplicate_insensitive(self, cache, engine, params):
        first = cache.y_bound(
            [3, 1, 2], 4, lambda: _y_bound(engine, params, [3, 1, 2], 4)
        )
        second = cache.y_bound(
            [2, 3, 1, 1], 4, lambda: _y_bound(engine, params, [2, 3, 1], 4)
        )
        assert first is second

    def test_distinct_sources_or_depth_build_separately(self, cache, engine, params):
        a = cache.y_bound([1, 2], 4, lambda: _y_bound(engine, params, [1, 2], 4))
        b = cache.y_bound([1, 3], 4, lambda: _y_bound(engine, params, [1, 3], 4))
        c = cache.y_bound([1, 2], 6, lambda: _y_bound(engine, params, [1, 2], 6))
        assert a is not b and a is not c
        assert cache.stats.y_builds == 3

    def test_cached_tails_match_fresh_bound(self, cache, engine, params):
        sources = [0, 4, 7]
        cached = cache.y_bound(
            sources, 5, lambda: _y_bound(engine, params, sources, 5)
        )
        fresh = _y_bound(engine, params, sources, 5)
        for l in range(6):
            for q in range(engine.num_nodes):
                assert cached.tail(l, q) == fresh.tail(l, q)

    def test_lru_eviction(self, engine, params):
        cache = BoundPlanCache(engine, params, max_entries=2)
        for source in (1, 2, 3):
            cache.y_bound(
                [source], 3, lambda s=source: _y_bound(engine, params, [s], 3)
            )
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The evicted entry rebuilds.
        cache.y_bound([1], 3, lambda: _y_bound(engine, params, [1], 3))
        assert cache.stats.y_builds == 4

    def test_max_entries_validated(self, engine, params):
        with pytest.raises(GraphValidationError):
            BoundPlanCache(engine, params, max_entries=0)


class TestContextIntegration:
    def test_context_gets_private_cache(self, random_graph):
        context = make_context(random_graph, [0, 1], [2, 3], d=4)
        assert isinstance(context.bound_cache, BoundPlanCache)
        assert context.bound_cache.engine is context.engine

    def test_mismatched_cache_rejected(self, random_graph, params):
        other_engine = WalkEngine(random_graph)
        bad_engine = BoundPlanCache(other_engine, params)
        with pytest.raises(GraphValidationError):
            make_context(random_graph, [0], [1], d=4, bound_cache=bad_engine)
        engine = WalkEngine(random_graph)
        bad_params = BoundPlanCache(engine, DHTParams.dht_e())
        with pytest.raises(GraphValidationError):
            make_context(
                random_graph, [0], [1], d=4, engine=engine, bound_cache=bad_params
            )

    def test_y_bound_shared_across_edges(self, random_graph, params):
        """Two contexts with the same left set share one YBound build."""
        engine = WalkEngine(random_graph)
        shared = BoundPlanCache(engine, params)
        left = [0, 1, 2]
        ctx_a = make_context(
            random_graph, left, [5, 6], params=params, d=4,
            engine=engine, bound_cache=shared,
        )
        ctx_b = make_context(
            random_graph, left, [8, 9], params=params, d=4,
            engine=engine, bound_cache=shared,
        )
        assert y_bound_factory(ctx_a) is y_bound_factory(ctx_b)
        assert engine.stats.bound_builds == 1

    def test_restart_reuses_private_cache(self, random_graph):
        """PJ-style restarts on one context build the Y bound once."""
        context = make_context(random_graph, [0, 1, 2], [4, 5, 6, 7], d=4)
        BackwardIDJY(context).top_k(3)
        builds = context.engine.stats.bound_builds
        BackwardIDJY(context).top_k(4)
        assert context.engine.stats.bound_builds == builds == 1
        assert context.engine.stats.bound_cache_hits >= 1

    def test_tail_plan_reused_across_materialisations(
        self, random_graph, byte_ceiling
    ):
        context = make_context(random_graph, list(range(6)), list(range(20, 36)), d=4)
        # Four-column blocks: one plan serves every block of a join.
        with byte_ceiling(context.engine, 4 * 16 * random_graph.num_nodes):
            BackwardBasicJoin(context).all_pairs()
            assert context.engine.stats.plan_builds == 1
            BackwardBasicJoin(context).all_pairs()
        assert context.engine.stats.plan_builds == 1
        assert context.engine.stats.plan_cache_hits >= 1


class TestNWaySharing:
    def _star_spec(self):
        graph = preferential_attachment(400, 3, np.random.default_rng(6))
        rng = np.random.default_rng(2)
        nodes = rng.permutation(400)
        sets = [sorted(int(u) for u in nodes[i * 20 : (i + 1) * 20]) for i in range(4)]
        return NWayJoinSpec(
            graph=graph,
            query_graph=QueryGraph.star(3, bidirectional=False),
            node_sets=[list(s) for s in sets],
            k=8,
            d=6,
        )

    def test_star_pj_builds_once_with_identical_answers(self):
        """Every star edge shares the centre's left set: the spec's one
        bound cache builds its ``Y`` bound once, where the per-edge
        baseline — each edge its own context with a private bound
        cache — builds it once per edge, and both rank every edge's
        pairs identically."""
        shared = self._star_spec()
        shared.engine.stats.reset()
        PartialJoin(shared, m=10).run()
        edges = range(shared.query_graph.num_edges)
        shared_prefixes = [
            BackwardIDJY(shared.edge_context(e)).top_k(10) for e in edges
        ]
        assert shared.engine.stats.bound_builds == 1

        baseline = WalkEngine(shared.graph)
        private_prefixes = [
            BackwardIDJY(make_context(
                shared.graph, *shared.edge_node_sets(e), d=shared.d,
                engine=baseline,
            )).top_k(10)
            for e in edges
        ]
        assert baseline.stats.bound_builds == shared.query_graph.num_edges
        assert [
            [(p.left, p.right, p.score) for p in prefix]
            for prefix in shared_prefixes
        ] == [
            [(p.left, p.right, p.score) for p in prefix]
            for prefix in private_prefixes
        ]

    def test_star_pji_matches_pj(self):
        spec = self._star_spec()
        pj_answers = PartialJoin(self._star_spec(), m=10).run()
        pji_answers = PartialJoinIncremental(spec, m=10).run()
        assert [a.nodes for a in pji_answers] == [a.nodes for a in pj_answers]
        assert np.allclose(
            [a.score for a in pji_answers],
            [a.score for a in pj_answers],
            atol=1e-12,
        )


@functools.lru_cache(maxsize=None)
def _chunked_workload():
    graph = erdos_renyi(600, 6.0 / 600, np.random.default_rng(4), weighted=True)
    rng = np.random.default_rng(8)
    nodes = rng.permutation(600)
    left = sorted(int(u) for u in nodes[:40])
    right = sorted(int(u) for u in nodes[40:120])
    ranking = rank_pairs(dht_scores(graph, DHTParams.dht_lambda(0.2), 8), left, right)
    return graph, left, right, ranking


class TestChunkedBIDJ:
    def _workload(self):
        return _chunked_workload()[:3]

    @pytest.mark.parametrize("algorithm_cls", [BackwardIDJY, BackwardIDJX])
    @pytest.mark.parametrize("window_cols", [1, 3, 11])
    def test_chunked_matches_unchunked_and_oracle(
        self, algorithm_cls, window_cols, byte_ceiling
    ):
        graph, left, right = self._workload()
        base_ctx = make_context(graph, left, right, d=8)
        base = algorithm_cls(base_ctx)
        expected = base.top_k(12)
        expected_trace = list(base.pruning_trace)
        assert_top_k(as_ranked(expected), _chunked_workload()[3], 12)

        ceiling = 16 * graph.num_nodes * window_cols
        ctx = make_context(graph, left, right, d=8)
        algorithm = algorithm_cls(ctx)
        with byte_ceiling(ctx.engine, ceiling):
            result = algorithm.top_k(12)
        assert [(p.left, p.right) for p in result] == [
            (p.left, p.right) for p in expected
        ]
        assert np.allclose(
            [p.score for p in result], [p.score for p in expected], atol=1e-12
        )
        assert algorithm.pruning_trace == expected_trace
        assert ctx.engine.stats.peak_block_bytes <= ceiling

    def test_single_column_ceiling_runs_and_smaller_rejected(self, byte_ceiling):
        """One column's cost is the minimum feasible ceiling; anything
        below it stops the join on ``"bytes"``, naming that minimum,
        before any walk."""
        graph, left, right = self._workload()
        minimum = 16 * graph.num_nodes
        ctx = make_context(graph, left, right, d=8)
        with byte_ceiling(ctx.engine, minimum):
            result = BackwardIDJY(ctx).top_k(5)
        base = BackwardIDJY(make_context(graph, left, right, d=8)).top_k(5)
        assert [(p.left, p.right) for p in result] == [
            (p.left, p.right) for p in base
        ]
        assert ctx.engine.stats.peak_block_bytes <= minimum
        tiny = make_context(graph, left, right, d=8)
        with byte_ceiling(tiny.engine, 1):
            with pytest.raises(BudgetExhaustedError, match=str(minimum)) as stop:
                BackwardIDJY(tiny).top_k(5)
        assert stop.value.reason == "bytes"
        assert tiny.engine.stats.propagation_steps == 0

    def test_chunked_with_walk_cache_and_rerun(self, byte_ceiling):
        graph, left, right = self._workload()
        base = BackwardIDJY(make_context(graph, left, right, d=8)).top_k(10)
        engine = WalkEngine(graph)
        walk_cache = WalkCache(engine, DHTParams.dht_lambda(0.2))
        ceiling = 16 * graph.num_nodes * 4
        for _ in range(2):  # second run is served mostly from the cache
            ctx = make_context(
                graph, left, right, d=8, engine=engine, walk_cache=walk_cache,
            )
            with byte_ceiling(engine, ceiling):
                result = BackwardIDJY(ctx).top_k(10)
            assert [(p.left, p.right) for p in result] == [
                (p.left, p.right) for p in base
            ]
        assert engine.stats.peak_block_bytes <= ceiling

    def test_bbj_clamps_block_width_under_ceiling(self, byte_ceiling):
        graph, left, right = self._workload()
        base = sorted(
            BackwardBasicJoin(make_context(graph, left, right, d=8)).all_pairs()
        )
        ceiling = 16 * graph.num_nodes * 2  # clamps the 16-wide block to 2
        for walk_cache in (None, WalkCache(WalkEngine(graph), DHTParams.dht_lambda(0.2))):
            engine = walk_cache.engine if walk_cache is not None else None
            ctx = make_context(
                graph, left, right, d=8, engine=engine, walk_cache=walk_cache,
            )
            with byte_ceiling(ctx.engine, ceiling):
                capped = sorted(BackwardBasicJoin(ctx).all_pairs())
            assert [(p.left, p.right) for p in capped] == [
                (p.left, p.right) for p in base
            ]
            assert np.allclose(
                [p.score for p in capped], [p.score for p in base], atol=1e-12
            )
            assert ctx.engine.stats.peak_block_bytes <= ceiling

    def test_budget_ceiling_reaches_every_edge(self, byte_ceiling):
        """The ceiling lives on the spec's engine (the thread's
        governor), so every edge context shares it."""
        graph = erdos_renyi(200, 0.03, np.random.default_rng(3), weighted=True)

        def spec():
            return NWayJoinSpec(
                graph=graph,
                query_graph=QueryGraph.chain(3),
                node_sets=[
                    list(range(10)), list(range(20, 30)), list(range(40, 50))
                ],
                k=5,
                d=6,
            )

        capped_spec, ceiling = spec(), 16 * 200 * 2
        join = PartialJoinIncremental(capped_spec)
        with byte_ceiling(capped_spec.engine, ceiling):
            capped = join.run()
        free = PartialJoinIncremental(spec()).run()
        assert join.reasons == []
        assert [a.nodes for a in capped] == [a.nodes for a in free]
        assert 0 < capped_spec.engine.stats.peak_block_bytes <= ceiling


class TestWalkStateConcat:
    def test_concat_matches_fresh_block(self, engine, params):
        a = WalkState(engine, params, [1, 2]).advance_to(3)
        b = WalkState(engine, params, [5]).advance_to(3)
        merged = WalkState.concat([a, b])
        fresh = WalkState(engine, params, [1, 2, 5]).advance_to(3)
        assert np.allclose(
            merged.scores_matrix(), fresh.scores_matrix(), atol=1e-15
        )
        merged.advance_to(6)
        fresh.advance_to(6)
        assert np.allclose(
            merged.scores_matrix(), fresh.scores_matrix(), atol=1e-15
        )

    def test_concat_rejects_mismatched_levels(self, engine, params):
        a = WalkState(engine, params, [1]).advance_to(2)
        b = WalkState(engine, params, [2]).advance_to(3)
        with pytest.raises(GraphValidationError):
            WalkState.concat([a, b])

    def test_concat_rejects_empty(self):
        with pytest.raises(GraphValidationError):
            WalkState.concat([])


class TestXBoundCaching:
    """F-IDJ / B-IDJ-X pull their X tables from the BoundPlanCache."""

    def test_x_bound_built_once(self, cache, engine, params):
        from repro.core.bounds import XBound

        first = cache.x_bound(4, lambda: XBound(params, 4))
        second = cache.x_bound(4, lambda: XBound(params, 4))
        assert first is second
        assert cache.stats.x_builds == 1 and cache.stats.x_hits == 1
        assert engine.stats.bound_cache_hits == 1  # hits land in engine stats

    def test_forward_idj_reuses_x_across_runs(self, random_graph):
        from repro.core.two_way.forward import ForwardIDJ

        context = make_context(random_graph, [0, 1, 2], [5, 6, 7], d=4)
        ForwardIDJ(context).top_k(2)
        assert context.bound_cache.stats.x_builds == 1
        ForwardIDJ(context).top_k(3)
        assert context.bound_cache.stats.x_builds == 1
        assert context.bound_cache.stats.x_hits >= 1
        assert context.engine.stats.bound_cache_hits >= 1

    def test_bidjx_shares_x_with_forward_idj(self, random_graph):
        from repro.core.two_way.forward import ForwardIDJ

        context = make_context(random_graph, [0, 1, 2], [5, 6, 7], d=4)
        BackwardIDJX(context).top_k(2)
        builds = context.bound_cache.stats.x_builds
        ForwardIDJ(context).top_k(2)
        assert context.bound_cache.stats.x_builds == builds == 1

    def test_forward_idj_results_unchanged_by_caching(self, random_graph, params):
        from repro.core.two_way.forward import ForwardIDJ

        shared = make_context(random_graph, [0, 1, 2, 3], [8, 9, 10], d=4,
                              params=params)
        once = ForwardIDJ(shared).top_k(4)
        again = ForwardIDJ(shared).top_k(4)
        assert [(p.left, p.right) for p in once] == [
            (p.left, p.right) for p in again
        ]
        assert np.allclose([p.score for p in once], [p.score for p in again])


class TestErrorPathLockRelease:
    """A build callback that raises inside the lookup-or-build critical
    section must leave the lock released and the key unpoisoned."""

    @staticmethod
    def assert_lock_released(lock):
        import threading

        acquired = []

        def probe():
            got = lock.acquire(timeout=2.0)
            acquired.append(got)
            if got:
                lock.release()

        worker = threading.Thread(target=probe)
        worker.start()
        worker.join()
        assert acquired == [True], "lock still held after the raise"

    def test_raising_build_releases_lock_and_key_stays_buildable(
        self, engine, params
    ):
        cache = BoundPlanCache(engine, params)

        def bad_build():
            raise RuntimeError("bound construction failed")

        with pytest.raises(RuntimeError, match="bound construction"):
            cache.y_bound((0, 1, 2), 4, bad_build)
        self.assert_lock_released(cache._lock)
        built = cache.y_bound((0, 1, 2), 4, lambda: "artifact")
        assert built == "artifact"
        assert cache.stats.y_builds == 1  # the failed attempt cached nothing

    def test_raising_tail_plan_build_releases_lock(self, engine, params):
        cache = BoundPlanCache(engine, params)

        def bad_build():
            raise RuntimeError("plan construction failed")

        with pytest.raises(RuntimeError, match="plan construction"):
            cache.tail_plan((3, 4), 5, bad_build)
        self.assert_lock_released(cache._lock)
        assert cache.tail_plan((3, 4), 5, lambda: ("plan",)) == ("plan",)
