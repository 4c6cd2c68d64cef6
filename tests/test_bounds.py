"""Unit tests for the X and Y score upper bounds (Section VI-C)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.bounds import XBound, YBound
from repro.core.dht import DHTMeasure, DHTParams
from repro.extensions.measures import TruncatedPPR
from repro.graph.builders import preferential_attachment
from repro.walks.engine import WalkEngine


def dht_x(params, d):
    """DHT's ``X`` table at depth ``d``, as its measure builds it."""
    return DHTMeasure(params, d=d).x_bound(d)


class TestXBound:
    def test_closed_form(self, params):
        # X_l = alpha * lambda^{l+1} / (1 - lambda)  (Lemma 2)
        bound = dht_x(params, 8)
        for l in range(9):
            expected = params.alpha * params.decay ** (l + 1) / (1 - params.decay)
            assert bound.tail(l) == pytest.approx(expected)

    def test_decreasing_in_l(self, params):
        bound = dht_x(params, 8)
        tails = [bound.tail(l) for l in range(9)]
        assert all(b < a for a, b in zip(tails, tails[1:]))

    def test_range_checks(self, params):
        bound = dht_x(params, 4)
        with pytest.raises(ValueError):
            bound.tail(-1)
        with pytest.raises(ValueError):
            bound.tail(5)
        with pytest.raises(ValueError):
            XBound(1.0, 0.5, d=0)

    def test_dht_table_is_the_numpy_power_table(self, params):
        """DHT's table is ``alpha / (1 - lambda) * lambda ** arange``
        bit for bit (Python's scalar power differs in the last bit on
        some entries), at every depth."""
        scale = params.alpha / (1.0 - params.decay)
        for d in (1, 5, 8, 20):
            want = scale * params.decay ** np.arange(1, d + 2)
            got = np.array([dht_x(params, d).tail(l) for l in range(d + 1)])
            assert got.tobytes() == want.tobytes()

    def test_ppr_table_is_its_geometric_tail(self):
        # (1-c) sum_{i > l} c^i = c^{l+1}
        bound = TruncatedPPR(damping=0.7).x_bound(6)
        for l in range(7):
            assert bound.tail(l) == pytest.approx(0.7 ** (l + 1))

    def test_validity(self, params, random_graph):
        # h_d(p, q) <= h_l(p, q) + X_l for every prefix l.
        engine = WalkEngine(random_graph)
        d = 8
        bound = dht_x(params, d)
        series = engine.backward_first_hit_series(7, d)
        for p in (0, 3, 12):
            full = params.score_from_series(series[:, p])
            prefixes = params.partial_score_prefixes(series[:, p])
            for l in range(d + 1):
                assert full <= prefixes[l] + bound.tail(l) + 1e-12


class TestYBound:
    @pytest.fixture
    def setup(self, params, random_graph):
        engine = WalkEngine(random_graph)
        sources = [0, 1, 2, 3, 4]
        d = 8
        bound = YBound(engine, DHTMeasure(params).tail_weights(d), sources, d)
        return engine, sources, d, bound

    def test_tail_zero_at_l_equals_d(self, setup):
        engine, sources, d, bound = setup
        for q in (10, 20, 30):
            assert bound.tail(d, q) == 0.0

    def test_decreasing_in_l(self, setup):
        _, _, d, bound = setup
        for q in (10, 25):
            tails = [bound.tail(l, q) for l in range(d + 1)]
            assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))

    def test_lemma_5_y_never_exceeds_x(self, params, random_graph):
        engine = WalkEngine(random_graph)
        d = 8
        sources = list(range(6))
        y_bound = YBound(engine, DHTMeasure(params).tail_weights(d), sources, d)
        x_bound = dht_x(params, d)
        for q in range(random_graph.num_nodes):
            for l in range(d + 1):
                assert y_bound.tail(l, q) <= x_bound.tail(l) + 1e-12

    def test_theorem_1_validity(self, params, random_graph):
        # h_d(p, q) <= h_l(p, q) + Y_l(P, q) for all p in P, q, l.
        engine = WalkEngine(random_graph)
        d = 8
        sources = [0, 1, 2, 3, 4, 5]
        bound = YBound(engine, DHTMeasure(params).tail_weights(d), sources, d)
        for q in (11, 22, 33):
            series = engine.backward_first_hit_series(q, d)
            for p in sources:
                if p == q:
                    continue
                full = params.score_from_series(series[:, p])
                prefixes = params.partial_score_prefixes(series[:, p])
                for l in range(d + 1):
                    assert full <= prefixes[l] + bound.tail(l, q) + 1e-12

    def test_suffix_sum_construction(self, params, random_graph):
        # Y_l(q) - Y_{l+1}(q) == alpha * lambda^{l+1} * min(mass, 1).
        engine = WalkEngine(random_graph)
        d = 6
        sources = [2, 3]
        bound = YBound(engine, DHTMeasure(params).tail_weights(d), sources, d)
        reach = engine.reach_mass_series(sources, d)
        for q in (8, 15):
            for l in range(d):
                step = params.alpha * params.decay ** (l + 1) * min(
                    reach[l, q], 1.0
                )
                assert bound.tail(l, q) - bound.tail(l + 1, q) == pytest.approx(step)

    def test_table_is_the_reversed_cumsum_bitwise(self, params, random_graph):
        """The in-place build keeps the table of the plain expression:
        ``cumsum`` over ``min(reach, 1) * w``, reversed, bit for bit."""
        engine = WalkEngine(random_graph)
        d = 8
        weights = DHTMeasure(params).tail_weights(d)
        bound = YBound(engine, weights, [1, 4, 9], d)
        reach = engine.reach_mass_series([1, 4, 9], d)
        contributions = np.minimum(reach, 1.0) * np.asarray(weights)[:, None]
        want = np.zeros((d + 1, reach.shape[1]))
        want[:d] = np.cumsum(contributions[::-1], axis=0)[::-1]
        got = np.array([bound.tails(l, range(reach.shape[1])) for l in range(d + 1)])
        assert got.tobytes() == want.tobytes()

    def test_build_peaks_at_two_tables(self, params):
        """The build holds the reach series and the suffix table, about
        ``2 (d + 1) n`` floats, plus ``O(n)`` propagation vectors."""
        graph = preferential_attachment(3000, 3, np.random.default_rng(5))
        engine = WalkEngine(graph)
        n, d = graph.num_nodes, 8
        weights = DHTMeasure(params).tail_weights(d)
        engine.reach_mass_series([0], 1)  # the transition matrix is the graph's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            YBound(engine, weights, list(range(20)), d)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (2 * (d + 1) + 2) * n * 8, peak

    def test_range_checks(self, setup):
        _, _, d, bound = setup
        with pytest.raises(ValueError):
            bound.tail(d + 1, 0)
        with pytest.raises(ValueError):
            bound.tail(-1, 0)


class TestBoundsTightenPruning:
    def test_y_tighter_at_high_decay(self, random_graph):
        # The Fig 9(c)/10(a) mechanism: at large lambda, X barely decays
        # while Y tracks the actual reachable mass.
        params = DHTParams.dht_lambda(0.8)
        engine = WalkEngine(random_graph)
        d = 12
        sources = [0, 1]
        y_bound = YBound(engine, DHTMeasure(params).tail_weights(d), sources, d)
        x_bound = dht_x(params, d)
        q = 35
        ratios = [
            y_bound.tail(l, q) / x_bound.tail(l) for l in range(1, 5)
        ]
        assert min(ratios) < 0.9


class TestVectorTails:
    """``tails(l, qs)`` is ``[tail(l, q) for q in qs]`` as one array, bit
    for bit, on every bound shape, with the same ``l`` range check."""

    D = 6

    @pytest.fixture
    def bounds(self, random_graph, params):
        engine = WalkEngine(random_graph)
        d = self.D
        return [
            dht_x(params, d),
            YBound(engine, DHTMeasure(params).tail_weights(d), [2, 3, 5], d),
            TruncatedPPR().x_bound(d),
        ]

    def test_tails_equal_scalar_tails_bitwise(self, bounds, random_graph):
        qs = [0, 7, 3, 3, random_graph.num_nodes - 1]
        for bound in bounds:
            for l in range(self.D + 1):
                got = bound.tails(l, qs)
                assert got.dtype == np.float64 and got.shape == (len(qs),)
                want = np.array([bound.tail(l, q) for q in qs])
                assert got.tobytes() == want.tobytes(), (bound.name, l)
            assert bound.tails(1, []).shape == (0,)

    def test_out_of_range_level_raises(self, bounds):
        for bound in bounds:
            for l in (-1, self.D + 1):
                with pytest.raises(ValueError):
                    bound.tails(l, [0, 1])
                with pytest.raises(ValueError):
                    bound.tail(l, 0)
