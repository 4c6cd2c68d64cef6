"""Unit tests for the high-level facade (`repro.two_way_join`,
`repro.multi_way_join`)."""

import numpy as np
import pytest

from repro import (
    DHTParams,
    Graph,
    GraphValidationError,
    QueryGraph,
    SUM,
    multi_way_join,
    two_way_join,
)
from repro.graph.builders import erdos_renyi


@pytest.fixture
def graph():
    return erdos_renyi(30, 0.15, np.random.default_rng(2), weighted=True)


class TestTwoWayFacade:
    def test_default_algorithm(self, graph):
        result = two_way_join(graph, [0, 1, 2], [20, 21, 22], k=3)
        assert len(result) == 3
        scores = [p.score for p in result]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize(
        "name", ["f-bj", "f-idj", "b-bj", "b-idj-x", "b-idj-y"]
    )
    def test_all_algorithms_agree(self, graph, name):
        expected = two_way_join(graph, [0, 1, 2], [20, 21, 22], k=5, algorithm="b-bj")
        got = two_way_join(graph, [0, 1, 2], [20, 21, 22], k=5, algorithm=name)
        assert np.allclose([p.score for p in got], [p.score for p in expected])

    def test_algorithm_name_case_insensitive(self, graph):
        assert two_way_join(graph, [0], [5], k=1, algorithm="B-IDJ-Y")

    def test_unknown_algorithm(self, graph):
        with pytest.raises(GraphValidationError, match="unknown 2-way"):
            two_way_join(graph, [0], [5], k=1, algorithm="quantum")

    def test_custom_params_and_epsilon(self, graph):
        result = two_way_join(
            graph, [0, 1], [20, 21], k=2,
            params=DHTParams.dht_e(), epsilon=1e-4,
        )
        assert len(result) == 2

    @pytest.mark.parametrize(
        "algorithm,measure", [("f-bj", None), ("b-bj", None), ("b-bj", "ppr")]
    )
    def test_negative_k_rejected_before_any_work(self, graph, algorithm, measure):
        """The basic joins score everything and only then slice to
        ``k``; a bad ``k`` must be refused before they walk or warm a
        shared cache."""
        from repro.query import resolve_measure
        from repro.walks.cache import WalkCache
        from repro.walks.engine import WalkEngine

        engine = WalkEngine(graph)
        resolved = resolve_measure(measure)
        cache = WalkCache(engine, resolved.kernel())
        with pytest.raises(GraphValidationError, match="k must be >= 0, got -1"):
            two_way_join(
                graph, [0, 1, 2], [20, 21, 22], -1, algorithm=algorithm,
                measure=resolved, engine=engine, walk_cache=cache,
            )
        assert engine.stats.propagation_steps == 0
        assert len(cache) == 0

    @pytest.mark.parametrize("measure", [5, "ppr-ish", object(), "simrank"])
    def test_a_measure_that_is_not_one_is_refused_up_front(self, graph, measure):
        """Anything but ``None``, a known name or an object with the
        measure contract is a validation error naming both — not an
        ``AttributeError`` from deep inside the join."""
        with pytest.raises(GraphValidationError) as info:
            two_way_join(graph, [1, 2], [10, 11], 3, measure=measure)
        message = str(info.value)
        assert "dht, dht-e, dht-lambda, ppr" in message
        if not isinstance(measure, str):
            for attribute in ("d", "floor", "kernel", "tail_weights", "x_bound"):
                assert attribute in message

    def test_a_measure_without_tail_weights_is_refused_up_front(self, graph):
        """The contract is what the joins read: a measure lacking the
        reach-mass weights fails at the door, not inside ``B-IDJ-Y``."""
        from repro.extensions.measures import TruncatedPPR
        from repro.query import resolve_measure

        class NoTailWeights:
            def __init__(self):
                self._ppr = TruncatedPPR()
                self.d, self.floor = self._ppr.d, self._ppr.floor
                self.kernel, self.x_bound = self._ppr.kernel, self._ppr.x_bound

        with pytest.raises(GraphValidationError, match="tail_weights"):
            resolve_measure(NoTailWeights())
        with pytest.raises(GraphValidationError, match="tail_weights"):
            two_way_join(graph, [1, 2], [10, 11], 3, measure=NoTailWeights())

    def test_shared_engine_reuse(self, graph):
        from repro.walks.engine import WalkEngine

        engine = WalkEngine(graph)
        a = two_way_join(graph, [0], [20], k=1, engine=engine)
        b = two_way_join(graph, [0], [20], k=1, engine=engine)
        assert a[0].score == b[0].score


class TestMultiWayFacade:
    def test_default_pji(self, graph):
        result = multi_way_join(
            graph, QueryGraph.chain(3), [[0, 1], [10, 11], [20, 21]], k=4
        )
        assert 0 < len(result) <= 4
        assert all(len(a.nodes) == 3 for a in result)

    @pytest.mark.parametrize("name", ["nl", "ap", "pj", "pj-i"])
    def test_all_algorithms_agree(self, graph, name):
        sets = [[0, 1, 2], [10, 11, 12], [20, 21, 22]]
        expected = multi_way_join(graph, QueryGraph.chain(3), sets, k=5, algorithm="nl")
        got = multi_way_join(
            graph, QueryGraph.chain(3), sets, k=5, algorithm=name, m=2
        )
        assert np.allclose([a.score for a in got], [a.score for a in expected])

    def test_sum_aggregate(self, graph):
        result = multi_way_join(
            graph,
            QueryGraph.chain(3),
            [[0, 1], [10, 11], [20, 21]],
            k=2,
            aggregate=SUM,
        )
        for answer in result:
            assert answer.score == pytest.approx(sum(answer.edge_scores))

    def test_unknown_algorithm(self, graph):
        with pytest.raises(GraphValidationError, match="unknown n-way"):
            multi_way_join(
                graph, QueryGraph.chain(2), [[0], [1]], k=1, algorithm="magic"
            )

    @pytest.mark.parametrize("plan", ["FIXED", "Fixed"])
    def test_nl_accepts_fixed_in_any_case(self, graph, plan):
        """The spec lower-cases ``plan``; NL's no-planning check reads
        the spec, not the raw argument."""
        sets = [[0, 1], [10, 11], [20, 21]]
        expected = multi_way_join(
            graph, QueryGraph.chain(3), sets, k=3, algorithm="nl"
        )
        got = multi_way_join(
            graph, QueryGraph.chain(3), sets, k=3, algorithm="nl", plan=plan
        )
        assert got == expected
        with pytest.raises(GraphValidationError, match="NL strategy"):
            multi_way_join(
                graph, QueryGraph.chain(3), sets, k=3, algorithm="nl",
                plan="AUTO",
            )

    def test_example_from_module_docstring(self):
        graph = Graph.from_undirected_edges(
            5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 2.0)]
        )
        pairs = two_way_join(graph, left=[0, 1], right=[3, 4], k=2)
        assert len(pairs) == 2
        answers = multi_way_join(graph, QueryGraph.chain(3), [[0], [2], [4]], k=1)
        assert answers[0].nodes == (0, 2, 4)
