"""Property-based tests (hypothesis) over randomly generated graphs.

These are the paper's core invariants, checked on arbitrary inputs:

* all five 2-way algorithms return the same score sequence;
* all four n-way algorithms agree;
* the X/Y bounds are valid and Y <= X (Lemma 5);
* truncated scores are monotone in ``d`` and within Lemma 1's error;
* the incremental stream equals the fully sorted join;
* PBRJ equals brute-force materialisation for monotone aggregates.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bounds import YBound
from repro.core.dht import DHTMeasure, DHTParams
from repro.core.nway.aggregates import MIN, SUM
from repro.core.nway.nested_loop import NestedLoopJoin
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.backward import (
    BackwardBasicJoin,
    BackwardIDJX,
    BackwardIDJY,
)
from repro.core.two_way.base import make_context, sort_pairs
from repro.core.two_way.forward import ForwardBasicJoin, ForwardIDJ
from repro.core.two_way.incremental import IncrementalTwoWayJoin
from repro.graph.digraph import Graph
from repro.walks.engine import WalkEngine

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, min_nodes=6, max_nodes=14):
    """Random directed weighted graphs with at least a few edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edge_flags = draw(
        st.lists(st.booleans(), min_size=len(possible), max_size=len(possible))
    )
    edges = []
    for (u, v), keep in zip(possible, edge_flags):
        if keep:
            weight = draw(st.integers(1, 4))
            edges.append((u, v, float(weight)))
    if not edges:
        edges = [(0, 1, 1.0), (1, 0, 1.0)]
    return Graph(n, edges)


@st.composite
def graph_with_sets(draw, num_sets=2, set_size=3):
    graph = draw(graphs(min_nodes=num_sets * set_size, max_nodes=14))
    nodes = list(range(graph.num_nodes))
    picked = draw(
        st.permutations(nodes).map(lambda p: p[: num_sets * set_size])
    )
    sets = [
        sorted(picked[i * set_size : (i + 1) * set_size])
        for i in range(num_sets)
    ]
    return graph, sets


@st.composite
def dht_params(draw):
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return DHTParams.dht_e()
    decay = draw(st.floats(0.05, 0.9))
    if choice == 1:
        return DHTParams.dht_lambda(decay)
    alpha = draw(st.floats(0.1, 3.0))
    beta = draw(st.floats(-2.0, 2.0))
    return DHTParams(alpha=alpha, beta=beta, decay=decay)


class TestTwoWayEquivalence:
    @SETTINGS
    @given(data=graph_with_sets(), params=dht_params(), k=st.integers(1, 12))
    def test_all_five_agree(self, data, params, k):
        graph, (left, right) = data
        d = 6
        reference = None
        for cls in (
            ForwardBasicJoin,
            ForwardIDJ,
            BackwardBasicJoin,
            BackwardIDJX,
            BackwardIDJY,
        ):
            ctx = make_context(graph, left, right, params=params, d=d)
            result = cls(ctx).top_k(k)
            scores = [p.score for p in result]
            assert scores == sorted(scores, reverse=True)
            if reference is None:
                reference = scores
            else:
                assert np.allclose(scores, reference, atol=1e-10), cls.name

    @SETTINGS
    @given(data=graph_with_sets(), params=dht_params(), m=st.integers(0, 10))
    def test_incremental_stream_sorted_and_complete(self, data, params, m):
        graph, (left, right) = data
        d = 6
        ctx = make_context(graph, left, right, params=params, d=d)
        reference = sort_pairs(BackwardBasicJoin(ctx).all_pairs())
        join = IncrementalTwoWayJoin(
            make_context(graph, left, right, params=params, d=d)
        )
        stream = join.top(m)
        while True:
            item = join.next_pair()
            if item is None:
                break
            stream.append(item)
        assert len(stream) == len(reference)
        assert np.allclose(
            [p.score for p in stream],
            [p.score for p in reference],
            atol=1e-10,
        )


class TestBoundProperties:
    @SETTINGS
    @given(data=graph_with_sets(), params=dht_params())
    def test_bounds_valid_and_ordered(self, data, params):
        graph, (left, right) = data
        d = 6
        engine = WalkEngine(graph)
        x_bound = DHTMeasure(params, d=d).x_bound(d)
        y_bound = YBound(engine, DHTMeasure(params).tail_weights(d), left, d)
        for q in right:
            series = engine.backward_first_hit_series(q, d)
            for p in left:
                if p == q:
                    continue
                full = params.score_from_series(series[:, p])
                prefixes = params.partial_score_prefixes(series[:, p])
                for l in range(d + 1):
                    y = y_bound.tail(l, q)
                    x = x_bound.tail(l)
                    assert y <= x + 1e-12  # Lemma 5
                    assert full <= prefixes[l] + y + 1e-10  # Theorem 1

    @SETTINGS
    @given(graph=graphs(), params=dht_params())
    def test_score_monotone_in_d_and_lemma_1(self, graph, params):
        engine = WalkEngine(graph)
        target = 1
        deep = 24
        series = engine.backward_first_hit_series(target, deep)
        for u in range(min(graph.num_nodes, 5)):
            if u == target:
                continue
            prefixes = params.partial_score_prefixes(series[:, u])
            assert np.all(np.diff(prefixes) >= -1e-12)
            # Lemma 1's d for eps=1e-3 keeps h_deep - h_d below eps.
            d = params.steps_for_epsilon(1e-3)
            if d < deep:
                assert prefixes[deep] - prefixes[d] <= 1e-3 + 1e-9


class TestNWayEquivalence:
    @SETTINGS
    @given(
        data=graph_with_sets(num_sets=3, set_size=2),
        use_min=st.booleans(),
        m=st.integers(0, 4),
        k=st.integers(1, 8),
    )
    def test_chain_pj_variants_match_nl(self, data, use_min, m, k):
        graph, sets = data
        aggregate = MIN if use_min else SUM
        query = QueryGraph.chain(3)

        def spec():
            return NWayJoinSpec(
                graph=graph,
                query_graph=query,
                node_sets=[list(s) for s in sets],
                k=k,
                aggregate=aggregate,
                measure=DHTMeasure(d=5),
            )

        reference = NestedLoopJoin(spec()).run()
        pj = PartialJoin(spec(), m=m).run()
        pji = PartialJoinIncremental(spec(), m=m).run()
        assert np.allclose(
            [a.score for a in pj], [a.score for a in reference], atol=1e-10
        )
        assert np.allclose(
            [a.score for a in pji], [a.score for a in reference], atol=1e-10
        )

    @SETTINGS
    @given(data=graph_with_sets(num_sets=3, set_size=2), k=st.integers(1, 6))
    def test_triangle_pji_matches_nl(self, data, k):
        graph, sets = data
        query = QueryGraph.triangle()

        def spec():
            return NWayJoinSpec(
                graph=graph,
                query_graph=query,
                node_sets=[list(s) for s in sets],
                k=k,
                aggregate=MIN,
                measure=DHTMeasure(d=5),
            )

        reference = NestedLoopJoin(spec()).run()
        got = PartialJoinIncremental(spec(), m=2).run()
        assert np.allclose(
            [a.score for a in got], [a.score for a in reference], atol=1e-10
        )


class TestDHTSeriesProperties:
    @SETTINGS
    @given(graph=graphs())
    def test_first_hit_is_probability_mass(self, graph):
        engine = WalkEngine(graph)
        series = engine.backward_first_hit_series(0, 12)
        assert np.all(series >= -1e-15)
        mask = np.arange(graph.num_nodes) != 0
        assert np.all(series[:, mask].sum(axis=0) <= 1.0 + 1e-9)

    @SETTINGS
    @given(graph=graphs())
    def test_forward_backward_duality(self, graph):
        engine = WalkEngine(graph)
        target = graph.num_nodes - 1
        back = engine.backward_first_hit_series(target, 8)
        for source in range(min(3, graph.num_nodes)):
            if source == target:
                continue
            forward = engine.forward_first_hit_series(source, target, 8)
            assert np.allclose(forward, back[:, source], atol=1e-12)
