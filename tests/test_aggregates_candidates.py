"""Unit tests for aggregates and candidate-buffer expansion."""

import pytest

from repro.core.nway.aggregates import (
    AVG,
    MAX,
    MIN,
    SUM,
    aggregate_by_name,
    check_monotone,
)
from repro.core.nway.candidates import CandidateBuffer, CandidateGenerator
from repro.core.nway.query_graph import QueryGraph
from repro.core.two_way.base import ScoredPair


class TestAggregates:
    def test_values(self):
        scores = [-1.0, -0.5, -2.0]
        assert SUM(scores) == pytest.approx(-3.5)
        assert MIN(scores) == -2.0
        assert MAX(scores) == -0.5
        assert AVG(scores) == pytest.approx(-3.5 / 3)

    def test_by_name(self):
        assert aggregate_by_name("min") is MIN
        assert aggregate_by_name("SUM") is SUM
        with pytest.raises(ValueError, match="unknown aggregate"):
            aggregate_by_name("median")

    def test_all_builtins_monotone(self, rng):
        for agg in (SUM, MIN, MAX, AVG):
            assert check_monotone(agg, arity=4, rng=rng)

    def test_monotone_checker_catches_decreasing(self, rng):
        class Negate:
            name = "NEG"

            def __call__(self, scores):
                return -sum(scores)

        assert not check_monotone(Negate(), arity=3, rng=rng)


class TestCandidateBuffer:
    def test_indexes(self):
        buf = CandidateBuffer()
        buf.add(ScoredPair(1, 10, 0.5))
        buf.add(ScoredPair(1, 11, 0.4))
        buf.add(ScoredPair(2, 10, 0.3))
        assert len(buf) == 3
        assert buf.score_of(1, 10) == 0.5
        assert buf.score_of(9, 9) is None
        assert sorted(buf.rights_for(1)) == [(10, 0.5), (11, 0.4)]
        assert sorted(buf.lefts_for(10)) == [(1, 0.5), (2, 0.3)]
        assert buf.rights_for(99) == []


class TestCandidateGenerator:
    def test_chain_completion_exactly_once(self):
        query = QueryGraph.chain(3)
        gen = CandidateGenerator(query, SUM)
        # Pull (a, b) on edge 0: no completion possible yet.
        assert gen.on_new_pair(0, ScoredPair(1, 10, 0.5)) == []
        # Pull (b, c) on edge 1: completes (1, 10, 20).
        answers = gen.on_new_pair(1, ScoredPair(10, 20, 0.25))
        assert len(answers) == 1
        assert answers[0].nodes == (1, 10, 20)
        assert answers[0].score == pytest.approx(0.75)
        assert answers[0].edge_scores == (0.5, 0.25)

    def test_multiple_matches_fan_out(self):
        query = QueryGraph.chain(3)
        gen = CandidateGenerator(query, SUM)
        gen.on_new_pair(0, ScoredPair(1, 10, 0.5))
        gen.on_new_pair(0, ScoredPair(2, 10, 0.4))
        answers = gen.on_new_pair(1, ScoredPair(10, 20, 0.1))
        assert {a.nodes for a in answers} == {(1, 10, 20), (2, 10, 20)}

    def test_no_duplicates_across_pulls(self):
        query = QueryGraph.chain(3)
        gen = CandidateGenerator(query, SUM)
        produced = []
        produced += gen.on_new_pair(0, ScoredPair(1, 10, 0.5))
        produced += gen.on_new_pair(1, ScoredPair(10, 20, 0.3))
        produced += gen.on_new_pair(0, ScoredPair(2, 10, 0.2))
        produced += gen.on_new_pair(1, ScoredPair(10, 21, 0.1))
        nodes = [a.nodes for a in produced]
        assert len(nodes) == len(set(nodes)) == 4

    def test_triangle_requires_all_three_edges(self):
        query = QueryGraph.triangle(bidirectional=False)
        gen = CandidateGenerator(query, MIN)
        assert gen.on_new_pair(0, ScoredPair(1, 10, 0.9)) == []
        assert gen.on_new_pair(1, ScoredPair(10, 20, 0.8)) == []
        answers = gen.on_new_pair(2, ScoredPair(20, 1, 0.7))
        assert len(answers) == 1
        assert answers[0].nodes == (1, 10, 20)
        assert answers[0].score == pytest.approx(0.7)

    def test_triangle_closing_edge_mismatch_is_dead_end(self):
        query = QueryGraph.triangle(bidirectional=False)
        gen = CandidateGenerator(query, MIN)
        gen.on_new_pair(0, ScoredPair(1, 10, 0.9))
        gen.on_new_pair(1, ScoredPair(10, 20, 0.8))
        # Closing edge back to the wrong left node: no completion.
        assert gen.on_new_pair(2, ScoredPair(20, 2, 0.7)) == []

    def test_star_completion(self):
        query = QueryGraph.star(2, bidirectional=False)
        gen = CandidateGenerator(query, SUM)
        gen.on_new_pair(0, ScoredPair(0, 10, 0.5))
        answers = gen.on_new_pair(1, ScoredPair(0, 20, 0.25))
        assert answers[0].nodes == (0, 10, 20)

    def test_edge_scores_follow_edge_order(self):
        query = QueryGraph(3, [(0, 1), (1, 2), (0, 2)])
        gen = CandidateGenerator(query, SUM)
        gen.on_new_pair(1, ScoredPair(10, 20, 0.2))
        gen.on_new_pair(2, ScoredPair(1, 20, 0.3))
        answers = gen.on_new_pair(0, ScoredPair(1, 10, 0.1))
        assert answers[0].edge_scores == (0.1, 0.2, 0.3)
