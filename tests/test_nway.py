"""Unit and equivalence tests for the four n-way join algorithms.

The central invariant (Section VII-B: "all our n-way join algorithms
produce the same answer"): NL, AP, PJ, and PJ-i must agree on every
instance, for every query shape and monotone aggregate.
"""

import numpy as np
import pytest

from repro.core.dht import DHTMeasure
from repro.core.nway.aggregates import MIN, SUM
from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.nested_loop import NestedLoopJoin
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.graph.builders import erdos_renyi
from repro.graph.validation import GraphValidationError


def make_spec(graph, query, sets, k, aggregate=MIN, d=6):
    return NWayJoinSpec(
        graph=graph,
        query_graph=query,
        node_sets=[list(s) for s in sets],
        k=k,
        aggregate=aggregate,
        measure=DHTMeasure(d=d),
    )


@pytest.fixture
def graph():
    return erdos_renyi(35, 0.14, np.random.default_rng(3), weighted=True)


class TestSpecValidation:
    def test_set_count_mismatch(self, graph):
        with pytest.raises(GraphValidationError, match="node sets"):
            make_spec(graph, QueryGraph.chain(3), [[0], [1]], k=1)

    def test_negative_k(self, graph):
        with pytest.raises(GraphValidationError, match="k"):
            make_spec(graph, QueryGraph.chain(2), [[0], [1]], k=-1)

    def test_d_and_epsilon_exclusive(self, graph):
        with pytest.raises(GraphValidationError):
            DHTMeasure(d=4, epsilon=1e-3)

    def test_default_configuration(self, graph):
        spec = NWayJoinSpec(
            graph=graph, query_graph=QueryGraph.chain(2),
            node_sets=[[0], [1]], k=1,
        )
        assert spec.d == 8
        assert spec.measure.params.decay == 0.2

    def test_edge_node_sets(self, graph):
        spec = make_spec(graph, QueryGraph.chain(3), [[0], [1], [2]], k=1)
        left, right = spec.edge_node_sets(1)
        assert (left, right) == ([1], [2])


class TestNestedLoop:
    def test_reflexive_tuples_skipped(self, graph):
        # Overlapping sets: tuples pairing a node with itself are invalid.
        spec = make_spec(graph, QueryGraph.chain(2), [[0, 1], [1, 2]], k=10)
        answers = NestedLoopJoin(spec).run()
        assert all(a.nodes[0] != a.nodes[1] for a in answers)
        assert len(answers) == 3

    def test_k_zero(self, graph):
        spec = make_spec(graph, QueryGraph.chain(2), [[0], [1]], k=0)
        assert NestedLoopJoin(spec).run() == []

    def test_instrumentation(self, graph):
        spec = make_spec(graph, QueryGraph.chain(2), [[0, 1], [5, 6]], k=2)
        join = NestedLoopJoin(spec)
        join.run()
        assert join.tuples_scored == 4
        assert join.dht_computations == 4

    def test_scores_are_truncated_dht(self, graph, params):
        from repro.core.two_way.base import make_context
        from repro.core.two_way.backward import back_walk

        spec = make_spec(graph, QueryGraph.chain(2), [[0], [7]], k=1)
        answer = NestedLoopJoin(spec).run()[0]
        ctx = make_context(graph, [0], [7], measure=spec.measure)
        assert answer.score == pytest.approx(float(back_walk(ctx, 7, spec.d)[0]))


QUERY_CASES = [
    ("chain-2", QueryGraph.chain(2), 2),
    ("chain-3", QueryGraph.chain(3), 3),
    ("cycle-3", QueryGraph.cycle(3), 3),
    ("triangle-bidir", QueryGraph.triangle(), 3),
    ("star-3", QueryGraph.star(3, bidirectional=False), 4),
    ("chain-4", QueryGraph.chain(4), 4),
]


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("name,query,nsets", QUERY_CASES)
    @pytest.mark.parametrize("aggregate", [MIN, SUM])
    def test_all_four_agree(self, graph, name, query, nsets, aggregate):
        rng = np.random.default_rng(hash(name) % 2**32)
        universe = list(range(graph.num_nodes))
        sets = [
            sorted(rng.choice(universe, size=4, replace=False).tolist())
            for _ in range(nsets)
        ]
        k = 6
        reference = NestedLoopJoin(
            make_spec(graph, query, sets, k, aggregate)
        ).run()
        for make_join in (
            lambda s: AllPairsJoin(s),
            lambda s: AllPairsJoin(s, two_way="b-bj"),
            lambda s: PartialJoin(s, m=3),
            lambda s: PartialJoinIncremental(s, m=3),
        ):
            got = make_join(make_spec(graph, query, sets, k, aggregate)).run()
            assert len(got) == len(reference), name
            assert np.allclose(
                [a.score for a in got], [a.score for a in reference]
            ), name

    @pytest.mark.parametrize("m", [0, 1, 2, 10, 100])
    def test_pj_variants_insensitive_to_m(self, graph, m):
        sets = [[0, 1, 2], [8, 9, 10], [20, 21, 22]]
        query = QueryGraph.chain(3)
        reference = NestedLoopJoin(make_spec(graph, query, sets, 5)).run()
        pj = PartialJoin(make_spec(graph, query, sets, 5), m=m).run()
        pji = PartialJoinIncremental(make_spec(graph, query, sets, 5), m=m).run()
        assert np.allclose([a.score for a in pj], [a.score for a in reference])
        assert np.allclose([a.score for a in pji], [a.score for a in reference])

    @pytest.mark.parametrize("k", [1, 3, 9, 50])
    def test_varying_k(self, graph, k):
        sets = [[0, 1, 2, 3], [10, 11, 12, 13], [25, 26, 27, 28]]
        query = QueryGraph.chain(3)
        reference = NestedLoopJoin(make_spec(graph, query, sets, k)).run()
        got = PartialJoinIncremental(make_spec(graph, query, sets, k), m=2).run()
        assert len(got) == len(reference)
        assert np.allclose([a.score for a in got], [a.score for a in reference])

    def test_pji_x_bound_flavour(self, graph):
        sets = [[0, 1, 2], [8, 9, 10]]
        query = QueryGraph.chain(2)
        reference = NestedLoopJoin(make_spec(graph, query, sets, 4)).run()
        got = PartialJoinIncremental(
            make_spec(graph, query, sets, 4), m=2, bound="x"
        ).run()
        assert np.allclose([a.score for a in got], [a.score for a in reference])

    def test_answers_expose_edge_scores(self, graph):
        sets = [[0, 1], [8, 9], [20, 21]]
        spec = make_spec(graph, QueryGraph.chain(3), sets, 3, SUM)
        for answer in PartialJoinIncremental(spec, m=2).run():
            assert len(answer.edge_scores) == 2
            assert answer.score == pytest.approx(sum(answer.edge_scores))


class TestErrorHandling:
    def test_unknown_two_way_algorithm(self, graph):
        spec = make_spec(graph, QueryGraph.chain(2), [[0], [1]], k=1)
        with pytest.raises(GraphValidationError, match="unknown 2-way"):
            PartialJoin(spec, two_way="nope")

    def test_unknown_bound(self, graph):
        spec = make_spec(graph, QueryGraph.chain(2), [[0], [1]], k=1)
        with pytest.raises(GraphValidationError, match="unknown bound"):
            PartialJoinIncremental(spec, bound="z")

    def test_unknown_ap_materializer(self, graph):
        spec = make_spec(graph, QueryGraph.chain(2), [[0], [1]], k=1)
        with pytest.raises(GraphValidationError, match="materializer"):
            AllPairsJoin(spec, two_way="b-idj-y")

    def test_negative_m(self, graph):
        spec = make_spec(graph, QueryGraph.chain(2), [[0], [1]], k=1)
        with pytest.raises(GraphValidationError):
            PartialJoin(spec, m=-1)
        with pytest.raises(GraphValidationError):
            PartialJoinIncremental(spec, m=-1)

    def test_k_zero_everywhere(self, graph):
        for make_join in (
            lambda s: NestedLoopJoin(s),
            lambda s: AllPairsJoin(s),
            lambda s: PartialJoin(s),
            lambda s: PartialJoinIncremental(s),
        ):
            spec = make_spec(graph, QueryGraph.chain(2), [[0], [1]], k=0)
            assert make_join(spec).run() == []
