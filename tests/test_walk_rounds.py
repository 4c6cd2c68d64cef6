"""Tests for the shared deepening-round machinery and the spill policy.

Covers the bounded-memory modes of both iterative-deepening joins
(``B-IDJ`` and ``Series-IDJ``), the walk-cache spill of overflow
survivors (resumed instead of re-walked, visible as ``extensions`` /
``steps_saved``), and the :class:`~repro.walks.state.WalkState`
restructuring primitives (``select`` / ``extract_column`` / ``concat``)
under both the DHT and PPR kernels.
"""

import numpy as np
import pytest

from repro.core.dht import DHTParams
from repro.core.two_way.backward import BackwardIDJY
from repro.core.two_way.base import make_context
from repro.extensions.measures import DHTMeasure, TruncatedPPR
from repro.extensions.series_join import SeriesIDJ
from repro.graph.builders import erdos_renyi
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.kernels import PPRBlockKernel
from repro.walks.rounds import DeepeningRounds
from repro.walks.state import WalkState


@pytest.fixture
def engine(random_graph):
    return WalkEngine(random_graph)


def _pairs_key(pairs):
    return [(p.left, p.right) for p in pairs]


def _mid_workload():
    graph = erdos_renyi(600, 6.0 / 600, np.random.default_rng(4), weighted=True)
    rng = np.random.default_rng(8)
    nodes = rng.permutation(600)
    left = sorted(int(u) for u in nodes[:40])
    right = sorted(int(u) for u in nodes[40:120])
    return graph, left, right


KERNEL_FACTORIES = [
    lambda: DHTParams.dht_lambda(0.2),
    lambda: PPRBlockKernel(0.7),
]


class TestWalkStateRoundTrips:
    """``select`` / ``extract_column`` / ``concat`` under both kernels."""

    @pytest.mark.parametrize("kernel_factory", KERNEL_FACTORIES)
    def test_select_concat_round_trip(self, engine, kernel_factory):
        params = kernel_factory()
        block = WalkState(engine, params, [3, 7, 11, 15]).advance_to(4)
        halves = [block.select([0, 2]), block.select([1, 3])]
        merged = WalkState.concat(halves)
        assert list(merged.targets) == [3, 11, 7, 15]
        fresh = WalkState(engine, params, [3, 11, 7, 15]).advance_to(4)
        assert np.array_equal(merged.scores_matrix(), fresh.scores_matrix())
        # Extending the re-packed block stays bit-identical to a fresh
        # deeper walk — the property the spill policy relies on.
        merged.advance_to(8)
        fresh.advance_to(8)
        assert np.array_equal(merged.scores_matrix(), fresh.scores_matrix())

    @pytest.mark.parametrize("kernel_factory", KERNEL_FACTORIES)
    def test_extract_column_round_trip(self, engine, kernel_factory):
        params = kernel_factory()
        block = WalkState(engine, params, [2, 9, 21]).advance_to(2)
        column = block.extract_column(1)
        assert column.width == 1 and int(column.targets[0]) == 9
        assert np.array_equal(
            column.score_column(0), block.score_column(1)
        )
        column.advance_to(6)
        fresh = WalkState(engine, params, [9]).advance_to(6)
        assert np.array_equal(column.score_column(0), fresh.score_column(0))
        # The source block is untouched by the copy's extension.
        assert block.level == 2

    @pytest.mark.parametrize("kernel_factory", KERNEL_FACTORIES)
    def test_concat_of_extracted_columns(self, engine, kernel_factory):
        params = kernel_factory()
        a = WalkState(engine, params, [1, 5]).advance_to(3)
        b = WalkState(engine, params, [8]).advance_to(3)
        merged = WalkState.concat([a.extract_column(1), b])
        fresh = WalkState(engine, params, [5, 8]).advance_to(3)
        assert np.array_equal(merged.scores_matrix(), fresh.scores_matrix())

    def test_concat_rejects_mixed_kernels(self, engine):
        dht = WalkState(engine, DHTParams.dht_lambda(0.2), [1]).advance_to(2)
        ppr = WalkState(engine, PPRBlockKernel(0.7), [2]).advance_to(2)
        with pytest.raises(GraphValidationError, match="identical measure kernels"):
            WalkState.concat([dht, ppr])

    @pytest.mark.parametrize("kernel_factory", KERNEL_FACTORIES)
    def test_concat_rejects_mixed_levels(self, engine, kernel_factory):
        params = kernel_factory()
        a = WalkState(engine, params, [1]).advance_to(2)
        b = WalkState(engine, params, [2]).advance_to(4)
        with pytest.raises(GraphValidationError, match="at one level"):
            WalkState.concat([a, b])

    def test_concat_rejects_mixed_engines(self, random_graph):
        params = DHTParams.dht_lambda(0.2)
        a = WalkState(WalkEngine(random_graph), params, [1]).advance_to(1)
        b = WalkState(WalkEngine(random_graph), params, [2]).advance_to(1)
        with pytest.raises(GraphValidationError, match="same engine"):
            WalkState.concat([a, b])


class TestResumableLevel:
    def test_probe_reports_adopted_state(self, engine):
        params = DHTParams.dht_lambda(0.2)
        cache = WalkCache(engine, params)
        assert cache.resumable_level(5) == 0
        cache.adopt(WalkState(engine, params, [5]).advance_to(3))
        assert cache.resumable_level(5) == 3

    def test_probe_is_stat_free(self, engine):
        params = DHTParams.dht_lambda(0.2)
        cache = WalkCache(engine, params)
        cache.adopt(WalkState(engine, params, [5]).advance_to(3))
        before = (cache.stats.hits, cache.stats.misses)
        cache.resumable_level(5)
        cache.resumable_level(6)
        assert (cache.stats.hits, cache.stats.misses) == before


class TestScopedRounds:
    """A round sharing a cache at a scope (an n-way query's reader rows)
    keeps and donates its walks there, and feeds blocks bit-identical to
    the full-width walk at the caller's rows."""

    SCOPE = np.arange(0, 40, 2)
    ROWS = np.array([8, 0, 26])  # inside SCOPE, unsorted

    @pytest.mark.parametrize("max_bytes", [None, 16 * 40 * 3])
    def test_blocks_and_donations_match_full_width(
        self, engine, random_graph, byte_ceiling, max_bytes
    ):
        params = DHTParams.dht_lambda(0.2)
        cache = WalkCache(engine, params)
        active = list(range(5, 15))
        oracle_engine = WalkEngine(random_graph)
        with byte_ceiling(engine, max_bytes):
            rounds = DeepeningRounds(engine, params, cache, self.SCOPE)
            for level in (1, 2, 4, 8):
                seen = {}

                def consume(targets, block):
                    for q, column in zip(targets, block.T):
                        seen[q] = column.copy()

                rounds.walk_level(active, level, self.ROWS, consume)
                oracle = WalkState(oracle_engine, params, active).advance_to(level)
                for j, q in enumerate(active):
                    full = oracle.score_column(j)
                    assert np.array_equal(seen[q], full[self.ROWS])
                    assert np.array_equal(
                        cache.peek(q, level, rows=self.SCOPE), full[self.SCOPE]
                    )
                    assert cache.peek(q, level) is None  # kept at the scope only
                rounds.repack(set(active), level)

    def test_target_held_full_width_is_walked_by_the_cache(self, engine):
        params = DHTParams.dht_lambda(0.2)
        cache = WalkCache(engine, params)
        cache.scores(5, 8)  # a full entry, deeper than the round's level
        assert cache.holds_full_width(5) and not cache.holds_full_width(6)
        rounds = DeepeningRounds(engine, params, cache, self.SCOPE)
        rounds.walk_level([5, 6], 2, self.ROWS, lambda targets, block: None)
        full = cache.peek(5, 2)  # donated full width, not dropped
        assert full is not None and full.shape == (engine.num_nodes,)
        assert cache.peek(6, 2) is None
        assert cache.peek(6, 2, rows=self.ROWS) is not None

    def test_reads_outside_the_scope_are_rejected(self, engine):
        params = DHTParams.dht_lambda(0.2)
        rounds = DeepeningRounds(
            engine, params, WalkCache(engine, params), self.SCOPE
        )
        with pytest.raises(GraphValidationError, match="inside its scope"):
            rounds.walk_level([5], 1, np.array([1]), lambda targets, block: None)


class TestBIDJSpill:
    """Bounded ``B-IDJ`` with a walk cache: overflow survivors spill and
    resume instead of restarting — identical output, fewer steps."""

    def test_spill_resumes_and_matches(self, byte_ceiling):
        graph, left, right = _mid_workload()
        base_alg = BackwardIDJY(make_context(graph, left, right, d=8))
        expected = base_alg.top_k(12)
        expected_trace = list(base_alg.pruning_trace)

        ceiling = 16 * graph.num_nodes * 3

        # Restart mode: bounded, no cache to spill into.
        restart_ctx = make_context(graph, left, right, d=8)
        restart_alg = BackwardIDJY(restart_ctx)
        with byte_ceiling(restart_ctx.engine, ceiling):
            restart_result = restart_alg.top_k(12)
        restart_steps = restart_ctx.engine.stats.propagation_steps
        assert restart_ctx.engine.stats.extensions == 0

        # Spill mode: same ceiling, cache present.
        engine = WalkEngine(graph)
        cache = WalkCache(engine, DHTParams.dht_lambda(0.2))
        spill_ctx = make_context(
            graph, left, right, d=8, engine=engine, walk_cache=cache,
        )
        spill_alg = BackwardIDJY(spill_ctx)
        with byte_ceiling(engine, ceiling):
            spill_result = spill_alg.top_k(12)
        spill_steps = engine.stats.propagation_steps

        for result, alg in ((restart_result, restart_alg), (spill_result, spill_alg)):
            assert _pairs_key(result) == _pairs_key(expected)
            assert np.allclose(
                [p.score for p in result],
                [p.score for p in expected],
                atol=1e-12,
            )
            assert alg.pruning_trace == expected_trace
        assert spill_ctx.engine.stats.peak_block_bytes <= ceiling
        # The spill turned restart steps into resumes.
        assert engine.stats.extensions > 0
        assert engine.stats.steps_saved > 0
        assert spill_steps < restart_steps
        assert cache.stats.extensions == engine.stats.extensions

    def test_single_column_window_spills(self, byte_ceiling):
        graph, left, right = _mid_workload()
        expected = BackwardIDJY(make_context(graph, left, right, d=8)).top_k(8)
        engine = WalkEngine(graph)
        cache = WalkCache(engine, DHTParams.dht_lambda(0.2))
        ctx = make_context(
            graph, left, right, d=8, engine=engine, walk_cache=cache,
        )
        with byte_ceiling(engine, 16 * graph.num_nodes):  # exactly one column
            result = BackwardIDJY(ctx).top_k(8)
        assert _pairs_key(result) == _pairs_key(expected)
        assert engine.stats.peak_block_bytes <= 16 * graph.num_nodes
        assert engine.stats.extensions > 0

    def test_sub_column_ceiling_rejected(self, byte_ceiling):
        """A budget below one column's cost stops on ``"bytes"`` and
        names the minimum feasible budget instead of silently
        degrading."""
        from repro.exec import BudgetExhaustedError
        from repro.walks.rounds import columns_for_budget

        graph, left, right = _mid_workload()
        minimum = 16 * graph.num_nodes
        ctx = make_context(graph, left, right, d=8)
        with byte_ceiling(ctx.engine, minimum - 1):
            with pytest.raises(BudgetExhaustedError, match=str(minimum)) as stop:
                BackwardIDJY(ctx).top_k(4)
            assert stop.value.reason == "bytes"
            with pytest.raises(BudgetExhaustedError, match="minimum"):
                columns_for_budget(ctx.engine)
        assert ctx.engine.stats.propagation_steps == 0
        assert columns_for_budget(ctx.engine) is None  # no governor
        with byte_ceiling(ctx.engine, minimum):
            assert columns_for_budget(ctx.engine) == 1
        with byte_ceiling(ctx.engine, 3 * minimum + 15):
            assert columns_for_budget(ctx.engine) == 3


SERIES_MEASURES = [
    lambda: TruncatedPPR(damping=0.7, epsilon=1e-6),
    lambda: DHTMeasure(),
]


class TestBoundedSeriesIDJ:
    """``Series-IDJ`` under a byte budget: the B-IDJ bounded
    rounds, ported to the measure-generic path."""

    @pytest.mark.parametrize("measure_factory", SERIES_MEASURES)
    @pytest.mark.parametrize("window_cols", [1, 3])
    def test_bounded_matches_unbounded(
        self, measure_factory, window_cols, byte_ceiling
    ):
        graph, left, right = _mid_workload()
        free_alg = SeriesIDJ(
            make_context(graph, left, right, measure=measure_factory())
        )
        expected = free_alg.top_k(10)
        expected_trace = list(free_alg.pruning_trace)
        free_peak = free_alg.context.engine.stats.peak_block_bytes

        ceiling = 16 * graph.num_nodes * window_cols
        capped_alg = SeriesIDJ(make_context(
            graph, left, right, measure=measure_factory(),
        ))
        with byte_ceiling(capped_alg.context.engine, ceiling):
            result = capped_alg.top_k(10)
        capped_peak = capped_alg.context.engine.stats.peak_block_bytes

        assert _pairs_key(result) == _pairs_key(expected)
        assert np.allclose(
            [p.score for p in result], [p.score for p in expected], atol=1e-12
        )
        assert capped_alg.pruning_trace == expected_trace
        assert capped_peak <= ceiling < free_peak

    @pytest.mark.parametrize("measure_factory", SERIES_MEASURES)
    def test_bounded_with_cache_spills_and_resumes(
        self, measure_factory, byte_ceiling
    ):
        graph, left, right = _mid_workload()
        measure = measure_factory()
        expected = SeriesIDJ(
            make_context(graph, left, right, measure=measure_factory())
        ).top_k(10)

        ceiling = 16 * graph.num_nodes * 2
        restart_alg = SeriesIDJ(make_context(
            graph, left, right, measure=measure_factory(),
        ))
        with byte_ceiling(restart_alg.context.engine, ceiling):
            restart_alg.top_k(10)
        restart_steps = restart_alg.context.engine.stats.propagation_steps

        engine = WalkEngine(graph)
        cache = WalkCache(engine, measure.kernel())
        spill_alg = SeriesIDJ(make_context(
            graph, left, right, engine=engine, walk_cache=cache,
            measure=measure,
        ))
        with byte_ceiling(engine, ceiling):
            result = spill_alg.top_k(10)
        assert _pairs_key(result) == _pairs_key(expected)
        assert engine.stats.peak_block_bytes <= ceiling
        assert engine.stats.extensions > 0
        assert engine.stats.steps_saved > 0
        assert engine.stats.propagation_steps < restart_steps
