"""Unit tests for the rank-join substrate: inputs, HRJN bound, PBRJ."""

import itertools
import math

import numpy as np
import pytest

from repro.core.nway.aggregates import MAX, MIN, SUM
from repro.core.nway.candidates import CandidateAnswer
from repro.core.nway.query_graph import QueryGraph
from repro.core.two_way.base import ScoredPair
from repro.graph.validation import GraphValidationError
from repro.rankjoin.hrjn import RoundRobinPuller, corner_bound
from repro.rankjoin.inputs import RankJoinInput
from repro.rankjoin.pbrj import PBRJ


def pairs(*triples):
    return [ScoredPair(*t) for t in triples]


class TestInputs:
    def test_pull_order_and_bookkeeping(self):
        inp = RankJoinInput(pairs((0, 1, 3.0), (0, 2, 2.0), (1, 1, 1.0)))
        assert inp.first_score is None
        assert inp.pull().score == 3.0
        assert inp.first_score == 3.0
        assert inp.last_score == 3.0
        inp.pull()
        assert inp.last_score == 2.0
        inp.pull()
        assert inp.pull() is None
        assert inp.exhausted
        assert inp.pulled == 3

    def test_unsorted_initial_rejected(self):
        with pytest.raises(GraphValidationError, match="sorted"):
            RankJoinInput(pairs((0, 1, 1.0), (0, 2, 2.0)))

    def test_refill_extends_stream(self):
        supply = iter(pairs((5, 5, 0.5), (6, 6, 0.25)))
        inp = RankJoinInput(pairs((0, 1, 1.0)), refill=lambda: next(supply, None))
        assert inp.pull().score == 1.0
        assert inp.pull().score == 0.5
        assert inp.refill_calls == 1
        assert inp.pull().score == 0.25
        assert inp.pull() is None
        assert inp.exhausted

    def test_refill_monotonicity_enforced(self):
        supply = iter(pairs((5, 5, 9.0)))
        inp = RankJoinInput(pairs((0, 1, 1.0)), refill=lambda: next(supply, None))
        inp.pull()
        with pytest.raises(GraphValidationError, match="monotone"):
            inp.pull()


class TestCornerBound:
    def make_inputs(self):
        a = RankJoinInput(pairs((0, 1, 5.0), (0, 2, 3.0)), name="A")
        b = RankJoinInput(pairs((1, 1, 4.0), (1, 2, 1.0)), name="B")
        return a, b

    def test_infinite_before_first_pull(self):
        a, b = self.make_inputs()
        assert corner_bound(SUM, [a, b]) == math.inf
        a.pull()
        assert corner_bound(SUM, [a, b]) == math.inf

    def test_sum_corner(self):
        a, b = self.make_inputs()
        a.pull()
        b.pull()  # firsts: 5, 4; lasts: 5, 4
        assert corner_bound(SUM, [a, b]) == pytest.approx(9.0)
        a.pull()  # last(A) = 3 -> corners: (3 + 4), (5 + 4)
        assert corner_bound(SUM, [a, b]) == pytest.approx(9.0)
        b.pull()  # last(B) = 1 -> corners: (3 + 4), (5 + 1)
        assert corner_bound(SUM, [a, b]) == pytest.approx(7.0)

    def test_min_corner(self):
        a, b = self.make_inputs()
        a.pull(), b.pull(), a.pull(), b.pull()
        # corners: min(3, 4) = 3 and min(5, 1) = 1
        assert corner_bound(MIN, [a, b]) == pytest.approx(3.0)

    def test_exhausted_input_excluded(self):
        a, b = self.make_inputs()
        for _ in range(3):
            a.pull()
        b.pull()
        assert a.exhausted
        # Only B's corner remains: sum(first_a, last_b) = 5 + 4.
        assert corner_bound(SUM, [a, b]) == pytest.approx(9.0)

    def test_all_exhausted_is_minus_infinity(self):
        a, b = self.make_inputs()
        for _ in range(3):
            a.pull(), b.pull()
        assert corner_bound(SUM, [a, b]) == -math.inf


class TestRoundRobin:
    def test_cycles_and_skips_exhausted(self):
        a = RankJoinInput(pairs((0, 1, 1.0)), name="A")
        b = RankJoinInput(pairs((1, 1, 1.0), (1, 2, 0.5)), name="B")
        puller = RoundRobinPuller(2)
        assert puller.next_input([a, b]) == 0
        assert puller.next_input([a, b]) == 1
        a.pull(), a.pull()  # exhaust A
        assert puller.next_input([a, b]) == 1
        b.pull(), b.pull(), b.pull()
        assert puller.next_input([a, b]) is None

    def test_requires_inputs(self):
        with pytest.raises(ValueError):
            RoundRobinPuller(0)


def brute_force_join(query, aggregate, lists, k):
    """Materialise everything and rank (the PBRJ oracle)."""
    answers = []
    # Enumerate assignments over vertices from the cartesian product of
    # per-vertex candidate values seen in the lists.
    values = [set() for _ in range(query.num_vertices)]
    for e, (i, j) in enumerate(query.edges):
        for p in lists[e]:
            values[i].add(p.left)
            values[j].add(p.right)
    tables = [
        {(p.left, p.right): p.score for p in lists[e]}
        for e in range(len(lists))
    ]
    for nodes in itertools.product(*[sorted(v) for v in values]):
        edge_scores = []
        ok = True
        for e, (i, j) in enumerate(query.edges):
            s = tables[e].get((nodes[i], nodes[j]))
            if s is None:
                ok = False
                break
            edge_scores.append(s)
        if ok:
            answers.append(
                CandidateAnswer(tuple(nodes), aggregate(edge_scores), tuple(edge_scores))
            )
    answers.sort(key=lambda a: (-a.score, a.nodes))
    return answers[:k]


def random_edge_list(rng, lefts, rights, density=0.8):
    result = []
    for l in lefts:
        for r in rights:
            if rng.random() < density:
                result.append(ScoredPair(l, r, float(rng.normal())))
    result.sort(key=lambda sp: (-sp.score, sp.left, sp.right))
    return result


class TestPBRJ:
    @pytest.mark.parametrize("aggregate", [SUM, MIN, MAX])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_chain(self, aggregate, seed):
        rng = np.random.default_rng(seed)
        query = QueryGraph.chain(3)
        lists = [
            random_edge_list(rng, range(4), range(10, 14)),
            random_edge_list(rng, range(10, 14), range(20, 24)),
        ]
        expected = brute_force_join(query, aggregate, lists, 7)
        inputs = [RankJoinInput(l) for l in lists]
        got = PBRJ(query, aggregate, inputs, 7).run()
        assert [a.nodes for a in got] == [a.nodes for a in expected]
        assert np.allclose([a.score for a in got], [a.score for a in expected])

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_brute_force_triangle(self, seed):
        rng = np.random.default_rng(seed)
        query = QueryGraph.triangle(bidirectional=False)
        lists = [
            random_edge_list(rng, range(4), range(10, 14)),
            random_edge_list(rng, range(10, 14), range(20, 24)),
            random_edge_list(rng, range(20, 24), range(4)),
        ]
        expected = brute_force_join(query, MIN, lists, 5)
        got = PBRJ(query, MIN, [RankJoinInput(l) for l in lists], 5).run()
        assert np.allclose([a.score for a in got], [a.score for a in expected])
        assert [a.nodes for a in got] == [a.nodes for a in expected]

    def test_matches_brute_force_star(self):
        rng = np.random.default_rng(9)
        query = QueryGraph.star(3, bidirectional=False)
        lists = [
            random_edge_list(rng, range(3), range(10 * (i + 1), 10 * (i + 1) + 3))
            for i in range(3)
        ]
        expected = brute_force_join(query, SUM, lists, 6)
        got = PBRJ(query, SUM, [RankJoinInput(l) for l in lists], 6).run()
        assert np.allclose([a.score for a in got], [a.score for a in expected])

    def test_early_termination_pulls_less_than_everything(self):
        rng = np.random.default_rng(5)
        query = QueryGraph.chain(2)  # single edge: join is the list itself
        big = random_edge_list(rng, range(30), range(100, 130), density=1.0)
        inp = RankJoinInput(big)
        result = PBRJ(query, SUM, [inp], 3).run()
        assert len(result) == 3
        assert inp.pulled < len(big)

    def test_k_zero(self):
        query = QueryGraph.chain(2)
        assert PBRJ(query, SUM, [RankJoinInput([])], 0).run() == []

    def test_k_larger_than_results(self):
        query = QueryGraph.chain(2)
        inp = RankJoinInput(pairs((0, 1, 1.0), (0, 2, 0.5)))
        result = PBRJ(query, SUM, [inp], 10).run()
        assert len(result) == 2

    def test_input_count_mismatch_rejected(self):
        query = QueryGraph.chain(3)
        with pytest.raises(GraphValidationError, match="inputs"):
            PBRJ(query, SUM, [RankJoinInput([])], 3)

    def test_stats_populated(self):
        rng = np.random.default_rng(6)
        query = QueryGraph.chain(3)
        lists = [
            random_edge_list(rng, range(3), range(10, 13)),
            random_edge_list(rng, range(10, 13), range(20, 23)),
        ]
        driver = PBRJ(query, MIN, [RankJoinInput(l) for l in lists], 4)
        driver.run()
        assert driver.stats.pulls > 0
        assert len(driver.stats.pulls_per_edge) == 2
