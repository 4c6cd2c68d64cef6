"""Unit tests for the random-walk kernels.

Three independent implementations must agree: the sparse engine, the
dense oracle (``tests/oracles``), and (statistically) Monte-Carlo
simulation.  ``TestDenseReference`` checks the oracle itself against
hand-computed values.
"""

import numpy as np
import pytest

from oracles import (
    first_hit_series,
    simulate_first_hit_series,
    transition_matrix,
)
from repro.graph.builders import path_graph
from repro.graph.validation import GraphValidationError
from repro.walks.engine import WalkEngine


class TestBackwardSeries:
    def test_hand_computed_path_graph(self):
        # Path 0-1-2: P_1(1, 2) = 1/2; P_2(0, 2) = 1/2 (0->1->2);
        # P_3(1, 2) = 1/2 * 1 * 1/2 = 1/4 (1->0->1->2).
        engine = WalkEngine(path_graph(3))
        series = engine.backward_first_hit_series(2, 3)
        assert series[0, 1] == pytest.approx(0.5)
        assert series[1, 0] == pytest.approx(0.5)
        assert series[2, 1] == pytest.approx(0.25)
        # Step-1 from node 0 cannot hit node 2.
        assert series[0, 0] == 0.0

    def test_matches_dense_reference(self, random_graph):
        engine = WalkEngine(random_graph)
        for target in (0, 7, 23):
            sparse = engine.backward_first_hit_series(target, 10)
            dense = first_hit_series(random_graph, 10)[:, :, target]
            mask = np.ones(random_graph.num_nodes, dtype=bool)
            mask[target] = False  # reflexive column is implementation-defined
            assert np.allclose(sparse[:, mask], dense[:, mask], atol=1e-12)

    def test_matches_dense_on_directed(self, random_digraph):
        engine = WalkEngine(random_digraph)
        sparse = engine.backward_first_hit_series(3, 8)
        dense = first_hit_series(random_digraph, 8)[:, :, 3]
        mask = np.ones(random_digraph.num_nodes, dtype=bool)
        mask[3] = False
        assert np.allclose(sparse[:, mask], dense[:, mask], atol=1e-12)

    def test_total_hit_probability_at_most_one(self, random_graph):
        engine = WalkEngine(random_graph)
        series = engine.backward_first_hit_series(5, 20)
        totals = series.sum(axis=0)
        assert np.all(totals <= 1.0 + 1e-9)

    def test_invalid_inputs(self, path4):
        engine = WalkEngine(path4)
        with pytest.raises(GraphValidationError):
            engine.backward_first_hit_series(99, 3)
        with pytest.raises(GraphValidationError):
            engine.backward_first_hit_series(0, 0)


class TestForwardSeries:
    def test_forward_equals_backward(self, random_graph):
        engine = WalkEngine(random_graph)
        back = engine.backward_first_hit_series(11, 8)
        for source in (0, 3, 17):
            forward = engine.forward_first_hit_series(source, 11, 8)
            assert np.allclose(forward, back[:, source], atol=1e-12)

    def test_forward_equals_backward_directed(self, random_digraph):
        engine = WalkEngine(random_digraph)
        back = engine.backward_first_hit_series(2, 6)
        forward = engine.forward_first_hit_series(9, 2, 6)
        assert np.allclose(forward, back[:, 9], atol=1e-12)

    def test_self_pair_rejected(self, path4):
        engine = WalkEngine(path4)
        with pytest.raises(GraphValidationError, match="itself"):
            engine.forward_first_hit_series(1, 1, 3)

    def test_monte_carlo_agreement(self, path4):
        engine = WalkEngine(path4)
        exact = engine.forward_first_hit_series(0, 3, 6)
        simulated = simulate_first_hit_series(
            path4, 0, 3, 6, num_walks=20000, rng=np.random.default_rng(0)
        )
        assert np.allclose(exact, simulated, atol=0.02)


class TestReachMass:
    def test_conserves_mass_without_dangling(self, random_graph):
        engine = WalkEngine(random_graph)
        series = engine.reach_mass_series([0, 1, 2], 6)
        for i in range(6):
            assert series[i].sum() == pytest.approx(3.0)

    def test_linearity_over_sources(self, random_graph):
        engine = WalkEngine(random_graph)
        combined = engine.reach_mass_series([4, 9], 5)
        separate = (
            engine.reach_mass_series([4], 5) + engine.reach_mass_series([9], 5)
        )
        assert np.allclose(combined, separate, atol=1e-12)

    def test_reach_dominates_first_hit(self, random_graph):
        # S_i(p, q) >= P_i(p, q) (Lemma 3).
        engine = WalkEngine(random_graph)
        reach = engine.reach_mass_series([6], 8)
        hits = engine.backward_first_hit_series(30, 8)
        assert np.all(reach[:, 30] >= hits[:, 6] - 1e-12)

    def test_requires_sources(self, path4):
        engine = WalkEngine(path4)
        with pytest.raises(GraphValidationError):
            engine.reach_mass_series([], 3)


class TestDenseReference:
    def test_dense_matrix_rows(self, tiny_directed):
        dense = transition_matrix(tiny_directed)
        assert dense[0, 1] == pytest.approx(2 / 3)
        assert dense[0, 2] == pytest.approx(1 / 3)
        assert dense[1, 2] == 1.0
        assert dense[1].sum() == pytest.approx(1.0)
        # Path 0-1-2: P_1(1, 2) = 1/2; P_2(0, 2) = 1/2 (0->1->2);
        # P_3(1, 2) = 1/2 * 1 * 1/2 = 1/4 (1->0->1->2); no step-1 hit
        # from 0, and no walk revisits 2 after its first hit.
        series = first_hit_series(path_graph(3), 3)
        assert series[0, 1, 2] == pytest.approx(0.5)
        assert series[1, 0, 2] == pytest.approx(0.5)
        assert series[2, 1, 2] == pytest.approx(0.25)
        assert series[0, 0, 2] == 0.0
        assert series[:, 1, 2].sum() == pytest.approx(0.75)

    def test_dense_dangling_row_zero(self):
        from repro.graph.digraph import Graph

        g = Graph(2, [(0, 1, 1.0)])
        dense = transition_matrix(g)
        assert dense[1].sum() == 0.0
        # Walk mass dies at the dangling node: it never hits node 0.
        series = first_hit_series(g, 4)
        assert np.all(series[:, 1, 0] == 0.0)
        assert series[:, 0, 1].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_exact_series_target_validation(self, path4):
        from oracles import exact_dht_to_target
        from repro.core.dht import DHTParams

        with pytest.raises(GraphValidationError):
            exact_dht_to_target(path4, DHTParams.dht_lambda(0.2), 44)
        with pytest.raises(GraphValidationError):
            first_hit_series(path4, 0)


class TestDerivedArtifactsUnderThreads:
    """Regression for the RL001 (*unguarded-shared-state*) pass: the
    lazily built CSC transition view and in-degree array are now
    resolved entirely under the derived-artifact lock, so every thread
    gets the same object with no torn double-checked read."""

    @staticmethod
    def _race(worker, threads=8):
        import threading

        barrier = threading.Barrier(threads)
        results, errors = [], []

        def body():
            barrier.wait()
            try:
                results.append(worker())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        pool = [threading.Thread(target=body) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        if errors:
            raise errors[0]
        return results

    def test_transition_columns_is_one_object_across_threads(
        self, random_graph
    ):
        engine = WalkEngine(random_graph)
        results = self._race(engine.transition_columns)
        assert all(result is results[0] for result in results)
        assert results[0] is engine.transition_columns()

    def test_in_degree_array_is_one_object_across_threads(
        self, random_graph
    ):
        engine = WalkEngine(random_graph)
        results = self._race(engine.in_degree_array)
        assert all(result is results[0] for result in results)
        # in_degree_array composes with transition_columns without
        # deadlocking on the non-reentrant derived lock.
        assert np.array_equal(
            results[0], np.diff(engine.transition_columns().indptr)
        )
