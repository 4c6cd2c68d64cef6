"""Property-based planner equivalence: auto == fixed on random inputs.

Random query graphs (up to 4 edges) over random data graphs, across
DHT and Truncated PPR: the auto plan's top-k must match the
fixed plan's oracle — same tuples, scores within 1e-9 — for every
strategy that accepts a plan.  This is the planner's core safety net:
whatever order and operators the cost model picks on inputs nobody
hand-tuned, answers never move.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import multi_way_join
from repro.core.nway.query_graph import QueryGraph
from repro.extensions.measures import TruncatedPPR

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Query graphs with at most 4 edges (the issue's property bound).
_QUERY_SHAPES = (
    lambda: QueryGraph.chain(2, bidirectional=True),   # 2 edges
    lambda: QueryGraph.chain(3),                       # 2 edges
    lambda: QueryGraph.chain(3, bidirectional=True),   # 4 edges
    lambda: QueryGraph.star(2, bidirectional=True),    # 4 edges
    lambda: QueryGraph.star(3, bidirectional=False),   # 3 edges
    lambda: QueryGraph.cycle(3),                       # 3 edges
)


@st.composite
def workload(draw):
    """A random (graph, query_graph, node_sets) triple."""
    n = draw(st.integers(8, 16))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    flags = draw(
        st.lists(st.booleans(), min_size=len(possible), max_size=len(possible))
    )
    edges = [
        (u, v, float(draw(st.integers(1, 4))))
        for (u, v), keep in zip(possible, flags)
        if keep
    ]
    if len(edges) < 4:
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (1, 0, 2.0)]
    from repro.graph.digraph import Graph

    graph = Graph(n, edges)
    query = _QUERY_SHAPES[draw(st.integers(0, len(_QUERY_SHAPES) - 1))]()
    node_sets = []
    for _ in range(query.num_vertices):
        size = draw(st.integers(1, 3))
        members = draw(
            st.lists(
                st.integers(0, n - 1), min_size=size, max_size=size, unique=True
            )
        )
        node_sets.append(members)
    return graph, query, node_sets


def _assert_plans_agree(graph, query, node_sets, k, **kwargs):
    auto = multi_way_join(
        graph, query, node_sets, k, plan="auto", **kwargs
    )
    fixed = multi_way_join(
        graph, query, node_sets, k, plan="fixed", **kwargs
    )
    assert [a.nodes for a in auto] == [a.nodes for a in fixed]
    assert np.allclose(
        [a.score for a in auto], [a.score for a in fixed], atol=1e-9
    )


class TestAutoEqualsFixedOracle:
    @SETTINGS
    @given(data=workload(), k=st.integers(1, 6),
           algorithm=st.sampled_from(["ap", "pj", "pj-i"]))
    def test_dht(self, data, k, algorithm):
        graph, query, node_sets = data
        _assert_plans_agree(
            graph, query, node_sets, k, algorithm=algorithm, m=30, d=5
        )

    @SETTINGS
    @given(data=workload(), k=st.integers(1, 5),
           algorithm=st.sampled_from(["ap", "pj"]))
    def test_ppr(self, data, k, algorithm):
        graph, query, node_sets = data
        _assert_plans_agree(
            graph, query, node_sets, k, algorithm=algorithm, m=30,
            measure=TruncatedPPR(damping=0.85, epsilon=1e-3),
        )

    @SETTINGS
    @given(data=workload(), k=st.integers(1, 5),
           step_budget=st.integers(20, 400))
    def test_partials_flagged_only_under_budget(self, data, k, step_budget):
        """Flagged partial results appear only when a budget is set,
        and the budgeted auto-plan run keeps intervals ordered."""
        from repro.exec.budget import PartialResult, QueryBudget

        graph, query, node_sets = data
        ungoverned = multi_way_join(
            graph, query, node_sets, k, algorithm="pj", m=30, d=5,
            plan="auto",
        )
        assert ungoverned.exact and ungoverned.reason is None
        governed = multi_way_join(
            graph, query, node_sets, k, algorithm="pj", m=30, d=5,
            plan="auto", budget=QueryBudget(step_budget=step_budget),
        )
        assert isinstance(governed, PartialResult)
        for lower, upper in governed.bounds:
            assert lower <= upper + 1e-12
        if governed.exact:
            assert [a.nodes for a in governed.results] == [
                a.nodes for a in ungoverned
            ]
