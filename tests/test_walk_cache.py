"""Tests for the cross-join walk cache: hit/miss semantics, resumable
extension, LRU bounding, and sharing across n-way query edges."""

import numpy as np
import pytest

from oracles import dht_scores_from_series

from repro.core.dht import DHTMeasure, DHTParams
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.base import make_context
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.state import WalkState


@pytest.fixture
def engine(random_graph):
    return WalkEngine(random_graph)


@pytest.fixture
def cache(engine, params):
    return WalkCache(engine, params)


class TestHitMiss:
    def test_miss_then_hit(self, cache, engine, params):
        first = cache.scores(5, 4)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        second = cache.scores(5, 4)
        assert cache.stats.hits == 1
        assert np.array_equal(first, second)

    def test_peek_never_walks(self, cache, engine):
        engine.stats.reset()
        assert cache.peek(3, 2) is None
        assert engine.stats.propagation_steps == 0
        assert cache.stats.misses == 1

    def test_scores_match_oracle(self, cache, engine, params):
        cached = cache.scores(9, 6)
        series = engine.backward_first_hit_series(9, 6)
        assert np.allclose(cached, dht_scores_from_series(params, series), atol=1e-12)

    def test_returned_vectors_are_private_copies(self, cache):
        first = cache.scores(5, 4)
        first[:] = -1.0
        assert not np.array_equal(first, cache.scores(5, 4))

    def test_deeper_request_extends_state(self, cache, engine):
        cache.scores(7, 2)
        engine.stats.reset()
        cache.scores(7, 6)
        # Only the 4 missing steps are walked, not all 6.
        assert engine.stats.propagation_steps == 4
        assert cache.stats.extensions == 1
        assert cache.stats.steps_saved == 2

    def test_shallower_request_after_deeper(self, cache, engine, params):
        deep = cache.scores(7, 6)
        shallow = cache.scores(7, 3)
        series = engine.backward_first_hit_series(7, 3)
        assert np.allclose(
            shallow, dht_scores_from_series(params, series), atol=1e-12
        )
        # The deep vector must still be served.
        assert np.array_equal(cache.scores(7, 6), deep)


class TestDonation:
    def test_put_scores_served_back(self, cache, engine, params):
        state = WalkState(engine, params, [4]).advance_to(5)
        vector = state.score_column(0)
        cache.put_scores(4, 5, vector)
        assert np.array_equal(cache.scores(4, 5), vector)
        assert cache.stats.hits == 1

    def test_adopted_state_resumes(self, cache, engine, params):
        donated = WalkState(engine, params, [12]).advance_to(2)
        cache.adopt(donated)
        engine.stats.reset()
        cache.scores(12, 8)
        assert engine.stats.propagation_steps == 6  # only the suffix

    def test_adopt_rejects_blocks(self, cache, engine, params):
        with pytest.raises(GraphValidationError, match="single-column"):
            cache.adopt(WalkState(engine, params, [1, 2]))

    def test_adopt_keeps_deepest(self, cache, engine, params):
        deep = WalkState(engine, params, [3]).advance_to(4)
        cache.adopt(deep)
        cache.adopt(WalkState(engine, params, [3]).advance_to(1))
        engine.stats.reset()
        cache.scores(3, 4)
        assert engine.stats.propagation_steps == 0


class TestLRU:
    def test_eviction_bounds_targets(self, engine, params):
        cache = WalkCache(engine, params, max_targets=2)
        cache.scores(0, 2)
        cache.scores(1, 2)
        cache.scores(2, 2)  # evicts target 0
        assert len(cache) == 2
        assert 0 not in cache
        assert cache.stats.evictions == 1

    def test_recent_use_protects_from_eviction(self, engine, params):
        cache = WalkCache(engine, params, max_targets=2)
        cache.scores(0, 2)
        cache.scores(1, 2)
        cache.scores(0, 2)  # touch 0
        cache.scores(2, 2)  # evicts 1, not 0
        assert 0 in cache and 1 not in cache

    def test_invalid_capacity(self, engine, params):
        with pytest.raises(GraphValidationError):
            WalkCache(engine, params, max_targets=0)


class TestRejectedAtTheDoor:
    """A request the cache rejects must leave it exactly as it was: no
    phantom entry, no eviction of a valid one, nothing stored."""

    @staticmethod
    def snapshot(cache):
        return (
            len(cache), cache.current_bytes, list(cache._entries),
            cache.stats.evictions,
        )

    @pytest.fixture
    def full_cache(self, engine, params):
        cache = WalkCache(engine, params, max_targets=2)
        cache.scores(1, 2)
        cache.scores(2, 2)
        return cache

    @pytest.mark.parametrize("target", [10**6, -7])
    def test_scores_out_of_range_target(self, full_cache, target):
        before = self.snapshot(full_cache)
        for counted in (True, False):
            with pytest.raises(GraphValidationError, match="out of range"):
                full_cache.scores(target, 2, count_stats=counted)
        assert target not in full_cache
        assert self.snapshot(full_cache) == before

    @pytest.mark.parametrize("target", [10**6, -7])
    def test_put_scores_out_of_range_target(self, full_cache, engine, target):
        before = self.snapshot(full_cache)
        with pytest.raises(GraphValidationError, match="out of range"):
            full_cache.put_scores(target, 2, np.zeros(engine.num_nodes))
        assert target not in full_cache
        assert self.snapshot(full_cache) == before

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: np.zeros(3),                     # wrong length
            lambda n: np.zeros((n, 1)),                # wrong rank
            lambda n: np.zeros(n, dtype=np.float32),   # wrong dtype
            lambda n: np.zeros(n, dtype=np.int64),
        ],
    )
    def test_put_scores_rejects_non_vectors(self, full_cache, engine, make):
        before = self.snapshot(full_cache)
        with pytest.raises(GraphValidationError, match="float64 vector"):
            full_cache.put_scores(4, 2, make(engine.num_nodes))
        assert full_cache.peek(4, 2) is None
        assert self.snapshot(full_cache) == before

    def test_adopt_out_of_range_target(self, full_cache, params):
        # A state walked on a bigger graph names a node this cache's
        # graph does not have.
        from repro.graph.builders import path_graph

        foreign = WalkState(WalkEngine(path_graph(100)), params, [99])
        before = self.snapshot(full_cache)
        with pytest.raises(GraphValidationError, match="out of range"):
            full_cache.adopt(foreign.advance_to(2))
        assert self.snapshot(full_cache) == before


class TestOwnership:
    """``put_scores`` takes the array it is handed; nothing cached is
    reachable writeable afterwards."""

    def test_donor_reference_turns_read_only(self, cache, engine, params):
        vector = WalkState(engine, params, [4]).advance_to(3).score_column(0)
        expected = vector.copy()
        cache.put_scores(4, 3, vector)
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 99.0
        assert np.array_equal(cache.peek(4, 3), expected)

    def test_view_is_copied_not_aliased(self, cache, engine, params):
        block = WalkState(engine, params, [4, 5]).advance_to(3).scores_matrix()
        expected = block[:, 1].copy()
        cache.put_scores(5, 3, block[:, 1])        # strided view
        row_major = np.ascontiguousarray(block.T)
        cache.put_scores(4, 3, row_major[0])       # contiguous view
        block[:] = -1.0
        row_major[:] = -1.0
        assert np.array_equal(cache.peek(5, 3), expected)
        assert not np.array_equal(cache.peek(4, 3), row_major[0])

    def test_reads_are_fresh_and_writeable(self, cache):
        expected = cache.scores(5, 4)
        rows = np.array([1, 2, 3])
        for read in (cache.peek(5, 4), cache.peek(5, 4, rows),
                     cache.scores(5, 4), cache.scores(5, 4, rows=rows)):
            read[:] = np.nan  # the caller's to scribble on
        assert np.array_equal(cache.peek(5, 4), expected)
        for entry in cache._entries.values():
            assert all(not v.flags.writeable for v in entry.scores.values())


class TestContextBinding:
    def test_context_rejects_foreign_engine(self, random_graph, params):
        other = WalkEngine(random_graph)
        cache = WalkCache(other, params)
        with pytest.raises(GraphValidationError, match="different engine"):
            make_context(random_graph, [0], [1], params=params, d=4,
                         walk_cache=cache)

    def test_context_rejects_foreign_params(self, random_graph, params):
        engine = WalkEngine(random_graph)
        cache = WalkCache(engine, DHTParams.dht_e())
        with pytest.raises(GraphValidationError, match="different measure configuration"):
            make_context(random_graph, [0], [1], params=params, d=4,
                         engine=engine, walk_cache=cache)


class TestCrossEdgeSharing:
    def test_star_spec_shares_walks_between_edges(self, random_graph, params):
        # Star query: edges (0,1) and (0,2) walk the same center targets?
        # No - backward walks run from the *right* sets; use a query
        # where two edges share the right set: chain 0->1, 2->1.
        query = QueryGraph(3, [(0, 1), (2, 1)], names=["A", "B", "C"])
        hub = list(range(10, 18))
        spec = NWayJoinSpec(
            graph=random_graph,
            query_graph=query,
            node_sets=[list(range(5)), hub, list(range(20, 25))],
            k=3,
            measure=DHTMeasure(params),
        )
        assert spec.walk_cache is not None
        from repro.core.nway.all_pairs import AllPairsJoin

        AllPairsJoin(spec, two_way="b-bj").run()
        # Edge 2 re-walks the same right set as edge 1: every target hit.
        assert spec.walk_cache.stats.hits >= len(hub)

    def test_incremental_join_does_not_mutate_caller_context(
        self, random_graph, params
    ):
        from repro.core.two_way.incremental import IncrementalTwoWayJoin

        ctx = make_context(
            random_graph, [0, 1, 2], list(range(20, 26)), params=params, d=4
        )
        join = IncrementalTwoWayJoin(ctx)
        assert ctx.walk_cache is None  # caller's object untouched
        assert join.context.walk_cache is not None

    def test_scores_count_stats_flag(self, cache):
        cache.scores(4, 3)
        misses = cache.stats.misses
        cache.scores(4, 6, count_stats=False)
        assert cache.stats.misses == misses
        # hit path with count_stats=False still serves the vector
        again = cache.scores(4, 6, count_stats=False)
        assert again.shape[0] > 0
        assert cache.stats.hits == 0


class TestByteBudget:
    """Strict byte-denominated LRU: ``current_bytes <= max_bytes`` always."""

    def test_rejects_bad_budget(self, engine, params):
        with pytest.raises(GraphValidationError, match="max_bytes"):
            WalkCache(engine, params, max_bytes=0)

    def test_accounting_tracks_retained_bytes(self, engine, params):
        cache = WalkCache(engine, params)
        assert cache.current_bytes == 0
        cache.scores(5, 4)
        n = engine.num_nodes
        # One length-n score vector plus one resumable state (mass + acc).
        assert cache.current_bytes == 8 * n + 16 * n
        cache.scores(5, 6)  # extends the state, adds a second vector
        assert cache.current_bytes == 2 * 8 * n + 16 * n
        cache.clear()
        assert cache.current_bytes == 0

    def test_budget_evicts_least_recent(self, engine, params):
        n = engine.num_nodes
        per_target = 8 * n + 16 * n
        cache = WalkCache(engine, params, max_bytes=2 * per_target)
        cache.scores(1, 4)
        cache.scores(2, 4)
        assert len(cache) == 2 and cache.stats.evictions == 0
        cache.scores(3, 4)  # exceeds the budget: target 1 is evicted
        assert len(cache) == 2
        assert 1 not in cache and 2 in cache and 3 in cache
        assert cache.stats.evictions == 1
        assert cache.current_bytes <= cache.max_bytes

    def test_oversized_entry_is_dropped_outright(self, engine, params):
        n = engine.num_nodes
        cache = WalkCache(engine, params, max_bytes=8 * n)  # < one entry
        cache.scores(7, 4)
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.stats.evictions == 1

    def test_put_scores_and_adopt_are_accounted(self, engine, params):
        n = engine.num_nodes
        cache = WalkCache(engine, params, max_bytes=10 * (8 * n + 16 * n))
        cache.put_scores(4, 3, np.zeros(n))
        assert cache.current_bytes == 8 * n
        cache.adopt(WalkState(engine, params, [4]).advance_to(3))
        assert cache.current_bytes == 8 * n + 16 * n
        assert cache.current_bytes <= cache.max_bytes

    def test_bound_holds_under_mixed_workload(self, engine, params, rng):
        n = engine.num_nodes
        cache = WalkCache(engine, params, max_bytes=3 * (8 * n + 16 * n))
        for _ in range(60):
            target = int(rng.integers(n))
            level = int(rng.integers(1, 7))
            cache.scores(target, level)
            assert cache.current_bytes <= cache.max_bytes


class TestScopedEntries:
    """An entry kept at rows ``U`` (an n-way query's reader rows) serves
    reads inside ``U`` only; anything else misses and goes full width."""

    SCOPE = np.arange(0, 40, 3)  # 14 sorted node ids
    INSIDE = np.array([9, 0, 30])  # unsorted, inside SCOPE
    OUTSIDE = np.array([9, 1])  # 1 is not in SCOPE

    def scoped(self, engine, params, target, level):
        """A row-restricted walk of ``target`` and its finalised vector."""
        state = WalkState(engine, params, [target], rows=self.SCOPE)
        state.advance_to(level)
        return state, state.scores_at(self.SCOPE)[:, 0]

    def full(self, engine, params, target, level):
        return WalkState(engine, params, [target]).advance_to(level).score_column(0)

    def test_read_inside_matches_full_width(self, cache, engine, params):
        _, vector = self.scoped(engine, params, 5, 4)
        cache.put_block([5], 4, [vector], rows=self.SCOPE)
        full = self.full(engine, params, 5, 4)
        assert np.array_equal(cache.peek(5, 4, rows=self.INSIDE), full[self.INSIDE])
        assert np.array_equal(
            cache.scores(5, 4, rows=self.SCOPE), full[self.SCOPE]
        )
        hits, block, misses = cache.peek_block([5], 4, self.INSIDE)
        assert hits == [5] and misses == []
        assert np.array_equal(block[:, 0], full[self.INSIDE])
        assert cache.stats.hits == 3 and cache.stats.misses == 0

    def test_read_outside_misses_and_leaves_a_full_entry(
        self, cache, engine, params
    ):
        _, vector = self.scoped(engine, params, 5, 4)
        cache.put_block([5], 4, [vector], rows=self.SCOPE)
        assert cache.peek(5, 4, rows=self.OUTSIDE) is None
        assert cache.peek(5, 4) is None  # every node is outside too
        assert cache.stats.misses == 2
        engine.stats.reset()
        got = cache.scores(5, 4, rows=self.OUTSIDE)
        assert cache.stats.misses == 3
        assert engine.stats.propagation_steps == 4  # a fresh full walk
        full = self.full(engine, params, 5, 4)
        assert np.array_equal(got, full[self.OUTSIDE])
        # The entry is full now: every read hits, the whole vector too.
        assert np.array_equal(cache.peek(5, 4), full)
        assert np.array_equal(cache.peek(5, 4, rows=self.OUTSIDE), full[self.OUTSIDE])

    def test_scoped_donation_never_downgrades_a_full_entry(
        self, cache, engine, params
    ):
        full = cache.scores(5, 4)
        retained = cache.current_bytes
        state, vector = self.scoped(engine, params, 5, 2)
        cache.put_block([5], 2, [vector], rows=self.SCOPE)
        cache.adopt(state)
        assert cache.current_bytes == retained
        assert np.array_equal(cache.peek(5, 4), full)
        assert cache.peek(5, 2, rows=self.INSIDE) is None
        assert cache.resumable_level(5) == 4  # still the full walk's state

    def test_full_donation_replaces_a_scoped_entry(self, cache, engine, params):
        _, vector = self.scoped(engine, params, 5, 4)
        cache.put_block([5], 4, [vector], rows=self.SCOPE)
        cache.put_scores(5, 2, self.full(engine, params, 5, 2))
        assert cache.peek(5, 4, rows=self.INSIDE) is None  # dropped with its scope
        assert cache.peek(5, 2) is not None
        assert cache.current_bytes == 8 * engine.num_nodes

    def test_scoped_state_resumes_only_for_inside_readers(
        self, cache, engine, params
    ):
        state, _ = self.scoped(engine, params, 12, 2)
        cache.adopt(state)
        assert cache.resumable_level(12) == 0
        assert cache.resumable_level(12, self.OUTSIDE) == 0
        assert cache.resumable_level(12, self.INSIDE) == 2
        engine.stats.reset()
        got = cache.scores(12, 4, rows=self.INSIDE)
        assert engine.stats.propagation_steps == 2  # resumed
        assert cache.stats.extensions == 1
        assert np.array_equal(got, self.full(engine, params, 12, 4)[self.INSIDE])

        other = WalkCache(engine, params)
        other.adopt(self.scoped(engine, params, 12, 2)[0])
        engine.stats.reset()
        got = other.scores(12, 4, rows=self.OUTSIDE)
        assert engine.stats.propagation_steps == 4  # not resumed
        assert other.stats.extensions == 0
        assert np.array_equal(got, self.full(engine, params, 12, 4)[self.OUTSIDE])
        assert other.resumable_level(12) == 4  # the full walk's state

    def test_bytes_charge_the_scope_and_the_bound_stays_strict(
        self, engine, params
    ):
        per_vector = 8 * self.SCOPE.size
        cache = WalkCache(engine, params, max_bytes=2 * per_vector + 1)
        vectors = [self.scoped(engine, params, q, 3)[1] for q in (1, 2, 4)]
        cache.put_block([1, 2], 3, vectors[:2], rows=self.SCOPE)
        assert cache.current_bytes == 2 * per_vector
        cache.put_block([4], 3, vectors[2:], rows=self.SCOPE)
        assert cache.current_bytes == 2 * per_vector <= cache.max_bytes
        assert 1 not in cache and cache.stats.evictions == 1

    @pytest.mark.parametrize("rows", [[3, 0], [0, 0, 3], [-1, 3], [0, 10_000]])
    def test_scoped_donation_needs_sorted_node_ids(self, cache, rows):
        with pytest.raises(GraphValidationError, match="sorted"):
            cache.put_block([1], 3, [np.zeros(len(rows))], rows=rows)
        assert len(cache) == 0

    def test_scoped_donation_checks_the_vector_shape(self, cache, engine):
        with pytest.raises(GraphValidationError, match="shape"):
            cache.put_block([1], 3, [np.zeros(engine.num_nodes)], rows=self.SCOPE)


class TestErrorPathLockRelease:
    """Satellite of the RL001 pass: a raising public method must leave
    the cache usable — the lock released — and its message must speak
    the caller's vocabulary (targets, kernels, widths), never leak
    internal lock state."""

    @staticmethod
    def assert_lock_released(lock):
        """Probe from another thread — the owning RLock thread would
        re-enter successfully and prove nothing."""
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

    def test_adopt_width_error_releases_lock(self, cache, engine, params):
        with pytest.raises(GraphValidationError, match="width"):
            cache.adopt(WalkState(engine, params, [1, 2]).advance_to(2))
        self.assert_lock_released(cache._lock)
        assert np.array_equal(cache.scores(1, 2), cache.scores(1, 2))

    def test_adopt_kernel_mismatch_releases_lock(self, cache, engine):
        other = DHTParams.dht_lambda(0.7)
        with pytest.raises(GraphValidationError, match="kernel"):
            cache.adopt(WalkState(engine, other, [3]).advance_to(2))
        self.assert_lock_released(cache._lock)

    def test_scores_invalid_target_releases_lock(self, cache):
        with pytest.raises(GraphValidationError):
            cache.scores(10_000, 3)
        self.assert_lock_released(cache._lock)
        assert cache.scores(0, 2) is not None

    def test_error_messages_leak_no_lock_state(self, cache, engine, params):
        raisers = [
            lambda: cache.adopt(
                WalkState(engine, params, [1, 2]).advance_to(2)
            ),
            lambda: cache.adopt(
                WalkState(
                    engine, DHTParams.dht_lambda(0.7), [3]
                ).advance_to(2)
            ),
            lambda: cache.scores(10_000, 3),
        ]
        import re

        for raiser in raisers:
            with pytest.raises(GraphValidationError) as excinfo:
                raiser()
            message = str(excinfo.value).lower()
            for word in ("lock", "mutex", "acquire", "held", "thread"):
                assert not re.search(rf"\b{word}\b", message), (
                    f"error message leaks lock state: {excinfo.value!r}"
                )
