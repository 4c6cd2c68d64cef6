"""Unit tests for the DHT framework: general form, variants, Lemma 1,
and the oracle's exact linear-system DHT (checked against hand-solved
path, star and cycle cases)."""

import math

import numpy as np
import pytest

from oracles import dht_scores, exact_dht_to_target, first_hit_series
from repro.core.dht import DHTParams
from repro.graph.builders import directed_cycle, path_graph, star_graph
from repro.walks.engine import WalkEngine


class TestParamsValidation:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            DHTParams(alpha=0.0, beta=0.0, decay=0.5)
        with pytest.raises(ValueError, match="alpha"):
            DHTParams(alpha=-1.0, beta=0.0, decay=0.5)

    def test_decay_in_open_interval(self):
        with pytest.raises(ValueError, match="decay"):
            DHTParams(alpha=1.0, beta=0.0, decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            DHTParams(alpha=1.0, beta=0.0, decay=1.0)

    def test_beta_finite(self):
        with pytest.raises(ValueError, match="beta"):
            DHTParams(alpha=1.0, beta=float("inf"), decay=0.5)


class TestVariantCoefficients:
    """Table II of the paper."""

    def test_dht_e(self):
        p = DHTParams.dht_e()
        assert p.alpha == pytest.approx(math.e)
        assert p.beta == 0.0
        assert p.decay == pytest.approx(1.0 / math.e)

    def test_dht_lambda_default(self):
        # Section VII-A: lambda = 0.2 -> alpha = 1.25, beta = -1.25.
        p = DHTParams.dht_lambda(0.2)
        assert p.alpha == pytest.approx(1.25)
        assert p.beta == pytest.approx(-1.25)
        assert p.decay == 0.2

    def test_dht_lambda_general(self):
        p = DHTParams.dht_lambda(0.6)
        assert p.alpha == pytest.approx(2.5)
        assert p.beta == pytest.approx(-2.5)

    def test_dht_lambda_range_check(self):
        with pytest.raises(ValueError):
            DHTParams.dht_lambda(1.0)

    def test_dht_e_matches_equation_one(self):
        # DHT_e(u,v) = sum_i e^{-(i-1)} P_i  must equal the general form
        # alpha * sum_i lambda^i P_i + beta with Table II's coefficients.
        p = DHTParams.dht_e()
        hits = np.array([0.3, 0.1, 0.05, 0.01])
        direct = sum(
            math.exp(-(i - 1)) * h for i, h in enumerate(hits, start=1)
        )
        assert p.score_from_series(hits) == pytest.approx(direct)


class TestLemma1:
    def test_paper_default_gives_d_8(self):
        # Section VII-A: epsilon = 1e-6 "or equivalently d = 8".
        p = DHTParams.dht_lambda(0.2)
        assert p.steps_for_epsilon(1e-6) == 8

    def test_d_achieves_epsilon(self):
        for decay in (0.2, 0.5, 0.8):
            p = DHTParams.dht_lambda(decay)
            for eps in (1e-3, 1e-6):
                d = p.steps_for_epsilon(eps)
                assert p.truncation_error_bound(d) <= eps * (1 + 1e-9)

    def test_d_is_minimal(self):
        p = DHTParams.dht_lambda(0.2)
        d = p.steps_for_epsilon(1e-6)
        assert p.truncation_error_bound(d - 1) > 1e-6

    def test_monotone_in_epsilon(self):
        p = DHTParams.dht_e()
        assert p.steps_for_epsilon(1e-8) >= p.steps_for_epsilon(1e-4)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            DHTParams.dht_e().steps_for_epsilon(0.0)

    def test_huge_epsilon_floors_at_one(self):
        assert DHTParams.dht_e().steps_for_epsilon(1e6) == 1


class TestScoring:
    def test_zero_and_max_scores(self, params):
        assert params.zero_score == params.beta
        assert params.max_score() == pytest.approx(
            params.alpha * params.decay + params.beta
        )

    def test_score_from_series_hand_case(self, params):
        # h_2 = alpha (lambda * 0.5 + lambda^2 * 0.25) + beta
        hits = np.array([0.5, 0.25])
        expected = params.alpha * (0.2 * 0.5 + 0.04 * 0.25) + params.beta
        assert params.score_from_series(hits) == pytest.approx(expected)

    def test_scores_from_matrix_vectorises(self, params, rng):
        matrix = rng.random((5, 7)) * 0.1
        vector = params.scores_from_matrix(matrix)
        for u in range(7):
            assert vector[u] == pytest.approx(params.score_from_series(matrix[:, u]))

    def test_partial_prefixes(self, params, rng):
        hits = rng.random(6) * 0.1
        prefixes = params.partial_score_prefixes(hits)
        assert prefixes[0] == params.beta
        assert prefixes[-1] == pytest.approx(params.score_from_series(hits))
        # monotone non-decreasing (alpha > 0, hits >= 0)
        assert np.all(np.diff(prefixes) >= -1e-15)

    def test_score_monotone_in_d(self, params, random_graph):
        engine = WalkEngine(random_graph)
        series = engine.backward_first_hit_series(3, 12)
        scores = [
            params.score_from_series(series[:d, 8]) for d in range(1, 13)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(scores, scores[1:]))


class TestExactOracle:
    def test_truncated_converges_to_exact(self, params, random_graph):
        engine = WalkEngine(random_graph)
        target = 13
        exact = exact_dht_to_target(random_graph, params, target)
        series = engine.backward_first_hit_series(target, 40)
        approx = params.scores_from_matrix(series)
        mask = np.arange(random_graph.num_nodes) != target
        assert np.allclose(exact[mask], approx[mask], atol=1e-10)

    def test_truncation_error_within_lemma_bound(self, params, random_graph):
        engine = WalkEngine(random_graph)
        target = 20
        exact = exact_dht_to_target(random_graph, params, target)
        for d in (2, 4, 8):
            series = engine.backward_first_hit_series(target, d)
            approx = params.scores_from_matrix(series)
            mask = np.arange(random_graph.num_nodes) != target
            gap = np.max(exact[mask] - approx[mask])
            assert gap <= params.truncation_error_bound(d) + 1e-12
            assert gap >= -1e-12  # truncation only undershoots

    def test_dht_lambda_recursion(self, random_digraph):
        # Eq. 2: DHT_lambda(u,v) = -1 + lambda sum_w p_uw DHT_lambda(w,v)
        # in the negated-similarity convention used by the general form.
        decay = 0.3
        params = DHTParams.dht_lambda(decay)
        target = 4
        scores = exact_dht_to_target(random_digraph, params, target)
        for u in random_digraph.nodes():
            if u == target or random_digraph.is_dangling(u):
                continue
            rhs = -1.0 + decay * sum(
                random_digraph.transition_probability(u, w) * scores[w]
                for w in random_digraph.out_neighbors(u)
            )
            assert scores[u] == pytest.approx(rhs, abs=1e-9)

    def test_exact_score_scalar_matches_vector(self, params, path4):
        # Path 0-1-2-3, target 3: with g(u) = sum_i lambda^i P_i(u, 3),
        # first-step analysis gives g0 = l g1, g1 = l (g0 + g2) / 2 and
        # g2 = l (1 + g1) / 2 — solved by hand below.
        lam = params.decay
        g2 = (lam / 2) / (1 - (lam / 2) ** 2 / (1 - lam ** 2 / 2))
        g1 = (lam / 2) * g2 / (1 - lam ** 2 / 2)
        g0 = lam * g1
        vector = exact_dht_to_target(path4, params, 3)
        assert vector[:3] == pytest.approx(
            [params.alpha * g + params.beta for g in (g0, g1, g2)], abs=1e-14
        )
        # The truncated dense series converges to the same vector.
        truncated = dht_scores(path4, params, 60)[:, 3]
        assert truncated[:3] == pytest.approx(vector[:3], abs=1e-14)

    def test_self_score_zero(self, params, path4):
        assert exact_dht_to_target(path4, params, 2)[2] == 0.0
        # Star, centre 0 with 4 leaves: leaf 1 reaches leaf 2 only at
        # even steps, P_2j = (3/4)^(j-1) / 4 (each return to the centre
        # picks leaf 2 with probability 1/4).
        series = first_hit_series(star_graph(4), 8)[:, 1, 2]
        assert series[1::2] == pytest.approx([0.75 ** j / 4 for j in range(4)])
        assert np.all(series[0::2] == 0.0)
        lam = params.decay
        exact = exact_dht_to_target(star_graph(4), params, 2)[1]
        # sum_j lam^(2j) (3/4)^(j-1) / 4 = (lam^2 / 4) / (1 - 3 lam^2 / 4)
        assert exact == pytest.approx(
            params.alpha * (lam ** 2 / 4) / (1 - 0.75 * lam ** 2) + params.beta,
            abs=1e-14,
        )

    def test_asymmetry_on_directed_graph(self, params, tiny_directed):
        # h(1, 0) goes 1->2->3->0 (3 hops); h(0, 1) is one hop w.p. 2/3.
        forward = exact_dht_to_target(tiny_directed, params, 1)[0]
        backward = exact_dht_to_target(tiny_directed, params, 0)[1]
        assert forward != pytest.approx(backward)
        assert forward > backward
        # Directed 5-cycle: the walk from u hits v once, at step
        # (v - u) mod 5, so h(u, v) = alpha lambda^((v - u) mod 5) + beta.
        cycle = directed_cycle(5)
        lam = params.decay
        for v in range(5):
            exact = exact_dht_to_target(cycle, params, v)
            for u in range(5):
                if u != v:
                    hops = (v - u) % 5
                    assert exact[u] == pytest.approx(
                        params.alpha * lam ** hops + params.beta, abs=1e-14
                    )
