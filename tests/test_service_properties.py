"""Property-based tests (hypothesis) for the concurrent query service.

The invariant, over arbitrary seeded request mixes pushed through a
real worker pool: **every** completed query comes back either exactly
equal to the fixed-plan single-caller answer, or as a flagged
``PartialResult`` whose per-answer intervals contain the exact scores.
No interleaving may produce a silently-wrong result.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.dht import DHTParams
from repro.core.nway.query_graph import QueryGraph
from repro.exec.budget import BUDGET_REASONS, PartialResult, QueryBudget
from repro.graph.builders import erdos_renyi
from repro.service import MultiWayRequest, QueryService, TwoWayRequest

GRAPH = erdos_renyi(24, 0.18, np.random.default_rng(3), weighted=True)
PARAMS = DHTParams.dht_lambda(0.2)
DEPTH = PARAMS.steps_for_epsilon(1e-6)
POOLS = [
    (0, 1, 2), (4, 5, 6), (8, 9, 10), (12, 13, 14), (16, 17, 18),
]

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def two_way_requests(draw):
    left = POOLS[draw(st.integers(0, len(POOLS) - 1))]
    right = POOLS[draw(st.integers(0, len(POOLS) - 1))]
    k = draw(st.integers(1, 4))
    algorithm = draw(st.sampled_from(["b-idj-y", "b-bj"]))
    step_budget = draw(st.sampled_from([None, 2, 15, 200]))
    budget = (
        QueryBudget(step_budget=step_budget) if step_budget else None
    )
    return TwoWayRequest(left, right, k=k, algorithm=algorithm, budget=budget)


@st.composite
def multi_way_requests(draw):
    sets = tuple(
        POOLS[draw(st.integers(0, len(POOLS) - 1))] for _ in range(3)
    )
    k = draw(st.integers(1, 3))
    return MultiWayRequest(
        query_edges=((0, 1), (1, 2)), node_sets=sets, k=k, plan="fixed"
    )


@st.composite
def request_mixes(draw):
    return draw(st.lists(
        st.one_of(two_way_requests(), multi_way_requests()),
        min_size=2, max_size=8,
    ))


def _rows(items):
    out = []
    for item in items:
        if hasattr(item, "nodes"):
            out.append((tuple(item.nodes), item.score, tuple(item.edge_scores)))
        else:
            out.append((item.left, item.right, item.score))
    return out


def _single_caller_oracle(request):
    """Ungoverned fixed-plan answer rows and (for 2-way) the score map."""
    if isinstance(request, TwoWayRequest):
        top = api.two_way_join(
            GRAPH, list(request.left), list(request.right), request.k,
            algorithm=request.algorithm, params=PARAMS, d=DEPTH,
        )
        full = api.two_way_join(
            GRAPH, list(request.left), list(request.right),
            len(request.left) * len(request.right),
            algorithm=request.algorithm, params=PARAMS, d=DEPTH,
        )
        return _rows(top), {(p.left, p.right): p.score for p in full}
    query = QueryGraph(len(request.node_sets), request.query_edges)
    top = api.multi_way_join(
        GRAPH, query, [list(nodes) for nodes in request.node_sets],
        request.k, algorithm=request.algorithm, m=request.m,
        params=PARAMS, d=DEPTH, plan="fixed",
    )
    return _rows(top), None


@given(mix=request_mixes())
@SETTINGS
def test_any_interleaving_is_exact_or_soundly_flagged(mix):
    with QueryService(
        GRAPH, workers=4, queue_depth=len(mix), params=PARAMS, d=DEPTH
    ) as service:
        tickets = [service.submit(request) for request in mix]
        responses = [ticket.result(timeout=120.0) for ticket in tickets]

    for request, response in zip(mix, responses):
        assert response.ok, (response.status, response.error)
        result = response.result
        assert isinstance(result, PartialResult)
        expected_rows, score_map = _single_caller_oracle(request)
        if result.exact:
            assert _rows(result.results) == expected_rows
        else:
            # Only a budgeted request may be cut short, and then every
            # reported interval must contain the exact score.
            assert request.budget is not None
            assert result.reason in BUDGET_REASONS
            for item, (lower, upper) in zip(result.results, result.bounds):
                truth = score_map[(item.left, item.right)]
                assert lower - 1e-9 <= truth <= upper + 1e-9


@given(mix=request_mixes(), replays=st.integers(2, 3))
@SETTINGS
def test_replayed_mix_is_deterministic_when_ungoverned(mix, replays):
    """Replaying an ungoverned mix (any cache temperature, any thread
    schedule) returns identical answers every time."""
    ungoverned = [
        request for request in mix
        if getattr(request, "budget", None) is None
    ]
    if not ungoverned:
        return
    outcomes = []
    with QueryService(
        GRAPH, workers=4, queue_depth=len(ungoverned), params=PARAMS, d=DEPTH
    ) as service:
        for _ in range(replays):
            tickets = [service.submit(request) for request in ungoverned]
            outcomes.append([
                _rows(ticket.result(timeout=120.0).result.results)
                for ticket in tickets
            ])
    for later in outcomes[1:]:
        assert later == outcomes[0]
