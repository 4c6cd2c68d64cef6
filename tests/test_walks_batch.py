"""Tests for the batched / resumable walk layer.

The per-target Eq. 5 kernel (``backward_first_hit_series``) is the
equivalence oracle: every batched, resumable, or row-restricted path
must reproduce it to 1e-12.
"""

from unittest import mock

import numpy as np
import pytest

from repro.api import two_way_join
from repro.core.dht import DHTParams
from repro.graph.builders import complete_graph, erdos_renyi, path_graph
from repro.graph.validation import GraphValidationError
from repro.walks import engine as engine_module
from repro.walks.engine import WalkEngine, dense_block
from repro.walks.state import WalkState


@pytest.fixture
def engine(random_graph):
    return WalkEngine(random_graph)


class TestBackwardBlock:
    def test_block_matches_per_target_series(self, engine):
        targets = [3, 11, 25, 3]  # duplicates propagate independently
        block = engine.backward_first_hit_block(targets, 7)
        for j, target in enumerate(targets):
            series = engine.backward_first_hit_series(target, 7)
            assert np.allclose(block[:, :, j], series, atol=1e-12)

    def test_block_single_target(self, engine):
        block = engine.backward_first_hit_block([5], 4)
        series = engine.backward_first_hit_series(5, 4)
        assert np.allclose(block[:, :, 0], series, atol=1e-12)

    def test_block_validates_inputs(self, engine):
        with pytest.raises(GraphValidationError):
            engine.backward_first_hit_block([], 3)
        with pytest.raises(GraphValidationError):
            engine.backward_first_hit_block([0, 999], 3)
        with pytest.raises(GraphValidationError):
            engine.backward_first_hit_block([0], 0)

    def test_onehot_step_is_first_series_row(self, engine):
        targets = np.asarray([2, 9, 14])
        # Step 1 comes back as a (B, n) frontier block.
        mass = dense_block(engine.backward_onehot_step(targets))
        assert mass.shape == (engine.num_nodes, 3) and mass.flags.c_contiguous
        for j, target in enumerate(targets):
            series = engine.backward_first_hit_series(int(target), 1)
            assert np.array_equal(mass[:, j], series[0])


class TestWalkStats:
    def test_counts_are_batching_invariant(self, random_graph):
        per_target = WalkEngine(random_graph)
        batched = WalkEngine(random_graph)
        targets = [1, 2, 3, 4]
        for t in targets:
            per_target.backward_first_hit_series(t, 5)
        batched.backward_first_hit_block(targets, 5)
        assert (
            per_target.stats.propagation_steps
            == batched.stats.propagation_steps
            == 20
        )
        # ...but batching collapses the number of sparse products.
        assert batched.stats.sparse_products < per_target.stats.sparse_products

    def test_reset(self, engine):
        engine.backward_first_hit_series(0, 3)
        assert engine.stats.propagation_steps > 0
        engine.stats.reset()
        assert engine.stats.propagation_steps == 0
        assert engine.stats.sparse_products == 0


class TestFrontierSteps:
    """``frontier_steps``: how much of the walking ran on the sparse
    frontier — observable, a subset of ``propagation_steps``, and never
    an answer."""

    @staticmethod
    def _join(graph, left, right):
        engine = WalkEngine(graph)
        pairs = two_way_join(
            graph, left, right, 10, algorithm="b-idj-y", engine=engine
        )
        return pairs, engine.stats.snapshot()

    def test_bounded_degree_join_walks_partly_on_the_frontier(self):
        graph = erdos_renyi(600, 4.0 / 600, np.random.default_rng(4), weighted=True)
        nodes = np.random.default_rng(8).permutation(600)
        left, right = nodes[:20].tolist(), nodes[20:60].tolist()
        pairs, stats = self._join(graph, left, right)
        assert 0 < stats["frontier_steps"] < stats["propagation_steps"]
        # Same join, gate shut: the dense walk's answers and counters.
        with mock.patch.object(engine_module, "FRONTIER_GATE", 2**40):
            dense_pairs, dense_stats = self._join(graph, left, right)
        assert dense_stats["frontier_steps"] == 0
        assert pairs == dense_pairs
        assert dense_stats["peak_block_bytes"] >= stats["peak_block_bytes"]
        for moved in ("frontier_steps", "peak_block_bytes"):
            del stats[moved], dense_stats[moved]
        assert stats == dense_stats

    def test_complete_graph_never_steps_sparse(self):
        # Step 1 already reaches every node: the first gate is shut.
        pairs, stats = self._join(
            complete_graph(30), list(range(8)), list(range(10, 26))
        )
        assert len(pairs) == 10
        assert stats["frontier_steps"] == 0 < stats["propagation_steps"]

    def test_reaches_the_metrics_registry(self, params):
        from repro.obs import MetricsRegistry

        engine = WalkEngine(path_graph(200))
        registry = MetricsRegistry()
        registry.register_engine(engine.stats)
        # Two entries of in-degree 2 against nnz(T) = 398: step 2 pays.
        WalkState(engine, params, [100]).advance_to(2)
        samples = {s.name: s.value for s in registry.collect()}
        assert samples["repro_engine_frontier_steps_total"] == 1
        assert samples["repro_engine_propagation_steps_total"] == 2


class TestWalkState:
    def test_extension_equals_fresh_walk(self, engine, params):
        targets = [4, 17, 30]
        resumed = WalkState(engine, params, targets)
        resumed.advance_to(2)
        resumed.advance_to(4)
        resumed.advance_to(8)
        fresh = WalkState(engine, params, targets).advance_to(8)
        assert np.allclose(
            resumed.scores_matrix(), fresh.scores_matrix(), atol=1e-12
        )

    def test_scores_match_series_oracle(self, engine, params):
        state = WalkState(engine, params, [7, 21]).advance_to(6)
        for j, target in enumerate((7, 21)):
            series = engine.backward_first_hit_series(target, 6)
            oracle = params.scores_from_matrix(series)
            assert np.allclose(state.score_column(j), oracle, atol=1e-12)

    def test_level_zero_scores_are_beta(self, engine, params):
        state = WalkState(engine, params, [3])
        assert np.all(state.scores_matrix() == params.beta)
        assert state.level == 0

    def test_cannot_rewind(self, engine, params):
        state = WalkState(engine, params, [3]).advance_to(4)
        with pytest.raises(GraphValidationError, match="rewind"):
            state.advance_to(2)

    def test_select_narrows_and_keeps_level(self, engine, params):
        state = WalkState(engine, params, [2, 8, 19]).advance_to(3)
        narrowed = state.select([2, 0])
        assert narrowed.level == 3
        assert list(narrowed.targets) == [19, 2]
        assert np.allclose(
            narrowed.score_column(0), state.score_column(2), atol=0
        )
        # Narrowing copies: extending the narrowed state must not
        # disturb the original.
        narrowed.advance_to(5)
        assert state.level == 3

    def test_extract_column_resumes_like_block(self, engine, params):
        block = WalkState(engine, params, [5, 13]).advance_to(2)
        single = block.extract_column(1).advance_to(6)
        fresh = WalkState(engine, params, [13]).advance_to(6)
        assert np.allclose(
            single.score_column(0), fresh.score_column(0), atol=1e-12
        )

    def test_steps_saved_by_resuming(self, params):
        graph = erdos_renyi(50, 0.1, np.random.default_rng(0))
        engine = WalkEngine(graph)
        engine.stats.reset()
        state = WalkState(engine, params, [1, 2])
        state.advance_to(2)
        state.advance_to(4)
        resumed_steps = engine.stats.propagation_steps
        engine.stats.reset()
        WalkState(engine, params, [1, 2]).advance_to(2)
        WalkState(engine, params, [1, 2]).advance_to(4)
        restart_steps = engine.stats.propagation_steps
        assert resumed_steps == 8  # 2 targets x 4 levels, each paid once
        assert restart_steps == 12  # restart pays the prefix twice

    def test_path_graph_hand_check(self, params):
        engine = WalkEngine(path_graph(3))
        state = WalkState(engine, params, [2]).advance_to(3)
        series = engine.backward_first_hit_series(2, 3)
        assert np.allclose(
            state.score_column(0), params.scores_from_matrix(series), atol=1e-12
        )


class TestDHTEVariant:
    def test_state_matches_oracle_for_dht_e(self, engine):
        params = DHTParams.dht_e()
        state = WalkState(engine, params, [11]).advance_to(5)
        series = engine.backward_first_hit_series(11, 5)
        assert np.allclose(
            state.score_column(0),
            params.scores_from_matrix(series),
            atol=1e-12,
        )
