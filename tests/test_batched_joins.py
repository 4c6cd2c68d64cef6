"""Batched/resumable join paths against the brute-force oracle.

``B-BJ``'s target blocks (any width a byte ceiling narrows them to,
1 included) and ``B-IDJ``'s
resumable deepening must return the oracle's top-k; the deepening
walks at most ``d`` column-steps per right node — strictly fewer than
restarting every walk at every level, the seed's cost, read off the
join's own ``pruning_trace``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import as_ranked, assert_top_k, dht_scores, rank_answers, rank_pairs
from repro.core.dht import DHTMeasure
from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.backward import (
    BackwardBasicJoin,
    BackwardIDJX,
    BackwardIDJY,
)
from repro.core.two_way.base import (
    BoundedTopK,
    kth_largest,
    make_context,
    sort_pairs,
)
from repro.graph.builders import erdos_renyi, preferential_attachment
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine


def ranking(ctx):
    """The oracle's full ranking of ``ctx``'s pairs."""
    return rank_pairs(
        dht_scores(ctx.graph, ctx.measure.params, ctx.d), ctx.left, ctx.right
    )


def assert_all_pairs(pairs, ctx):
    everything = ranking(ctx)
    assert_top_k(as_ranked(sort_pairs(pairs)), everything, len(everything))


def restart_cost(trace, d, num_targets):
    """Column-steps of the seed's restart-per-level deepening: every
    round walks its active targets ``level`` steps from scratch, then
    the survivors walk ``d``."""
    survivors = num_targets
    if trace:
        survivors = trace[-1]["active_before"] - trace[-1]["pruned"]
    return sum(r["level"] * r["active_before"] for r in trace) + d * survivors


class TestBatchedBBJ:
    @pytest.mark.parametrize("width", [1, 2, 3, 16])
    def test_all_pairs_matches_per_target(
        self, random_graph, params, width, byte_ceiling
    ):
        ctx = make_context(
            random_graph, list(range(10)), list(range(20, 33)), params=params, d=8
        )
        # A ceiling of ``width`` columns narrows the blocks; a width of 1
        # is the same block path, not a per-target fork.
        max_bytes = width * 16 * random_graph.num_nodes
        with byte_ceiling(ctx.engine, max_bytes):
            assert_all_pairs(BackwardBasicJoin(ctx).all_pairs(), ctx)
        assert 0 < ctx.engine.stats.peak_block_bytes <= max_bytes

    def test_all_pairs_matches_on_directed(self, random_digraph, params):
        ctx = make_context(
            random_digraph, list(range(8)), list(range(10, 22)), params=params, d=6
        )
        assert_all_pairs(BackwardBasicJoin(ctx).all_pairs(), ctx)

    def test_resumes_the_columns_b_idj_donated(self, params):
        """``B-IDJ-Y`` donates its pruned targets' partial walks to the
        cache; a later ``B-BJ`` over the same cache resumes them — the
        same rounds resolve its targets — instead of re-walking them
        from step 0, and its answers equal a cold run's."""
        graph = erdos_renyi(150, 5.0 / 150, np.random.default_rng(7), weighted=True)
        left, right = list(range(12)), list(range(30, 70))
        cold = make_context(graph, left, right, params=params, d=8)
        shared = make_context(
            graph, left, right, params=params, d=8,
            walk_cache=WalkCache(cold.engine, params), engine=cold.engine,
        )
        BackwardIDJY(shared).top_k(8)
        stats, cached = shared.engine.stats, shared.walk_cache.stats
        before = (stats.propagation_steps, stats.steps_saved, cached.hits)
        got = BackwardBasicJoin(shared).all_pairs()
        walked = stats.propagation_steps - before[0]
        saved = stats.steps_saved - before[1]
        hits = cached.hits - before[2]
        assert saved > 0
        # Every target not already cached at full depth costs d column
        # steps, walked now or saved by a resumed donation.
        assert walked + saved == shared.d * (len(right) - hits)
        assert sort_pairs(got) == sort_pairs(BackwardBasicJoin(cold).all_pairs())

    def test_cached_context_same_results(self, random_graph, params):
        plain = make_context(
            random_graph, list(range(6)), list(range(25, 34)), params=params, d=8
        )
        cached = make_context(
            random_graph, list(range(6)), list(range(25, 34)), params=params, d=8,
            walk_cache=WalkCache(plain.engine, params), engine=plain.engine,
        )
        assert_top_k(as_ranked(BackwardBasicJoin(cached).top_k(7)), ranking(plain), 7)
        assert_top_k(as_ranked(BackwardBasicJoin(plain).top_k(7)), ranking(plain), 7)
        # A second run over the cached context is pure cache hits.
        cached.engine.stats.reset()
        BackwardBasicJoin(cached).all_pairs()
        assert cached.engine.stats.propagation_steps == 0


class TestOneColumnCeiling:
    """A byte budget of one column (``QueryBudget(max_bytes=16 n)``)
    narrows ``B-BJ`` to width-1 blocks on the same block path.  It used
    to switch to a per-target fork instead, whose ``(d, n)`` hit
    series — 19 200 B per target here — overshot the 4 800 B ceiling
    with no ``"alloc"`` checkpoint to stop it."""

    GRAPH = preferential_attachment(300, 3, np.random.default_rng(14))
    LEFT, RIGHT = list(range(200, 215)), list(range(30))

    @pytest.fixture
    def no_per_target_walks(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-target walk under a one-column ceiling")

        monkeypatch.setattr(WalkEngine, "backward_first_hit_series", forbidden)
        monkeypatch.setattr(WalkCache, "scores", forbidden)

    def test_cacheless_bbj_stays_on_the_block_path(
        self, params, no_per_target_walks, byte_ceiling
    ):
        graph = self.GRAPH
        ctx = make_context(graph, self.LEFT, self.RIGHT, params=params, d=8)
        with byte_ceiling(ctx.engine, 16 * graph.num_nodes):
            got = BackwardBasicJoin(ctx).top_k(10)
        assert_top_k(as_ranked(got), ranking(ctx), 10)
        assert ctx.engine.stats.propagation_steps == ctx.d * len(self.RIGHT)

    def test_ap_under_a_one_column_ceiling_stays_on_the_block_path(
        self, params, no_per_target_walks, byte_ceiling
    ):
        graph = self.GRAPH
        spec = NWayJoinSpec(
            graph=graph, query_graph=QueryGraph.chain(2),
            node_sets=[self.LEFT, self.RIGHT], k=10,
            measure=DHTMeasure(params, d=8),
        )
        join = AllPairsJoin(spec, two_way="b-bj")
        # The edge's B-BJ plans its width under the governor's byte
        # budget when it runs.
        with byte_ceiling(spec.engine, 16 * graph.num_nodes):
            got = join.run()
        assert join.plan.operators == ("b-bj",)
        oracle = rank_answers(
            [dht_scores(graph, params, 8)], spec.node_sets, spec.query_graph.edges
        )
        assert_top_k(as_ranked(got), [(nodes, s) for nodes, s, _ in oracle], 10)
        assert spec.engine.stats.peak_block_bytes <= 16 * graph.num_nodes


@pytest.mark.parametrize("algorithm_cls", [BackwardIDJX, BackwardIDJY])
class TestResumableBIDJ:
    def test_top_k_matches_reference(self, algorithm_cls, random_graph, params):
        left, right = list(range(12)), list(range(25, 40))
        ctx = make_context(random_graph, left, right, params=params, d=8)
        resumable = algorithm_cls(ctx)
        assert_top_k(as_ranked(resumable.top_k(6)), ranking(ctx), 6)
        # Each round starts with the previous round's survivors.
        trace = resumable.pruning_trace
        assert [r["level"] for r in trace] == [1, 2, 4]
        assert trace[0]["active_before"] == len(right)
        for before, after in zip(trace, trace[1:]):
            assert after["active_before"] == before["active_before"] - before["pruned"]

    def test_strictly_fewer_propagation_steps(
        self, algorithm_cls, random_graph, params
    ):
        left, right = list(range(12)), list(range(25, 40))
        ctx = make_context(random_graph, left, right, params=params, d=8)
        join = algorithm_cls(ctx)
        join._bound_factory(ctx)  # the bound's own walk is not a join step
        ctx.engine.stats.reset()
        join.top_k(6)
        walked = ctx.engine.stats.propagation_steps
        assert walked <= ctx.d * len(right)
        assert walked < restart_cost(join.pruning_trace, ctx.d, len(right))

    def test_matches_reference_with_cache(self, algorithm_cls, random_graph, params):
        left, right = list(range(10)), list(range(22, 36))
        plain = make_context(random_graph, left, right, params=params, d=8)
        reference = ranking(plain)
        cached_ctx = make_context(
            random_graph, left, right, params=params, d=8,
            engine=plain.engine, walk_cache=WalkCache(plain.engine, params),
        )
        assert_top_k(as_ranked(algorithm_cls(cached_ctx).top_k(5)), reference, 5)
        # Re-running against the warm cache stays correct and cheap.
        cached_ctx.engine.stats.reset()
        rerun_ctx = make_context(
            random_graph, left, right, params=params, d=8,
            engine=plain.engine, walk_cache=cached_ctx.walk_cache,
        )
        assert_top_k(as_ranked(algorithm_cls(rerun_ctx).top_k(5)), reference, 5)
        assert (
            cached_ctx.engine.stats.propagation_steps
            < len(right) * plain.d
        )

    def test_observer_equivalent_to_reference(
        self, algorithm_cls, random_graph, params
    ):
        left, right = list(range(8)), list(range(20, 30))
        seen = []

        class Recorder:
            def observe(self, targets, level, block, tails):
                assert block.shape == (len(left), len(targets))
                seen.append((list(targets), level, block.copy(), tails.copy()))

        ctx = make_context(random_graph, left, right, params=params, d=8)
        join = algorithm_cls(ctx, observer=Recorder())
        join.top_k(4)
        bound = join._bound_factory(ctx)
        for targets, level, block, tails in seen:
            h_level = dht_scores(random_graph, params, level)
            assert np.allclose(
                block, h_level[np.ix_(left, targets)], rtol=0, atol=1e-12
            )
            expected_tails = (
                np.zeros(len(targets)) if level == ctx.d
                else [bound.tail(level, q) for q in targets]
            )
            assert np.allclose(tails, expected_tails, rtol=0, atol=1e-12)
        # Every round observes exactly its active targets, once each,
        # in far fewer calls than one per walk.
        walked = {}
        for targets, level, _, _ in seen:
            walked.setdefault(level, []).extend(targets)
        active = {r["level"]: r["active_before"] for r in join.pruning_trace}
        last = join.pruning_trace[-1]
        active[ctx.d] = last["active_before"] - last["pruned"]
        assert {level: len(set(qs)) for level, qs in walked.items()} == active
        assert all(len(qs) == len(set(qs)) for qs in walked.values())
        assert len(seen) < sum(active.values())

    def test_d_one_walks_everything_once(self, algorithm_cls, path4, params):
        ctx = make_context(path4, [0, 1], [2, 3], params=params, d=1)
        join = algorithm_cls(ctx)
        assert_top_k(as_ranked(join.top_k(10)), ranking(ctx), 10)
        assert join.pruning_trace == []  # no deepening round below d = 1


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

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 80),
        pushes=st.lists(
            st.tuples(
                st.integers(0, 5000),  # push size
                st.integers(0, 4),  # distinct values: few means many ties
                st.floats(0.0, 0.5),  # share of -inf
            ),
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounded_topk_property(self, k, pushes, seed):
        """Pushes straddling the buffer (tiny, exactly free, far larger),
        ties and ``-inf``: the floor is the sorted array's ``[-k]`` bit
        for bit, and the buffer never outgrows ``max(2k, 64)``."""
        rng = np.random.default_rng(seed)
        topk = BoundedTopK(k)
        seen = []
        for size, distinct, neg_inf in pushes:
            values = rng.normal(size=size)
            if distinct:
                values = rng.integers(0, distinct, size=size).astype(np.float64)
            values[rng.random(size) < neg_inf] = -np.inf
            topk.push(values)
            seen.append(values)
            assert topk._size <= max(2 * k, 64)
        everything = np.concatenate(seen) if seen else np.empty(0)
        assert topk.count == everything.size
        want = np.sort(everything)[-k] if everything.size >= k else -np.inf
        assert np.float64(topk.kth_largest()).tobytes() == np.float64(want).tobytes()

    def test_bounded_topk_rejects_bad_k(self):
        with pytest.raises(GraphValidationError):
            BoundedTopK(0)
