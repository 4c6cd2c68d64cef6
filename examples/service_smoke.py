"""Service smoke: 50 mixed queries through a 4-worker QueryService.

The CI service-smoke bar: on a small random graph, a seeded mix of
two-way DHT, two-way PPR, and fixed-plan chain multi-way requests must
come back with **nonzero cross-query cache hits** and **zero
non-flagged mismatches** — every exact answer bit-identical to the
single-caller oracle, every budget-flagged partial explicitly marked.

Run with::

    PYTHONPATH=src python examples/service_smoke.py
"""

import numpy as np

from repro import api
from repro.core.nway.query_graph import QueryGraph
from repro.exec.budget import QueryBudget
from repro.graph.builders import erdos_renyi
from repro.service import MultiWayRequest, QueryService, TwoWayRequest

QUERIES = 50
WORKERS = 4


def _rows(items):
    out = []
    for item in items:
        if hasattr(item, "nodes"):
            out.append((tuple(item.nodes), item.score, tuple(item.edge_scores)))
        else:
            out.append((item.left, item.right, item.score))
    return out


def _oracle_rows(graph, request):
    measure = request.measure
    if isinstance(request, TwoWayRequest):
        return _rows(api.two_way_join(
            graph, list(request.left), list(request.right), request.k,
            algorithm=request.algorithm, measure=measure,
        ))
    return _rows(api.multi_way_join(
        graph,
        QueryGraph(len(request.node_sets), request.query_edges),
        [list(nodes) for nodes in request.node_sets],
        request.k,
        algorithm=request.algorithm,
        m=request.m,
        measure=measure,
        plan="fixed",
    ))


def main() -> None:
    rng = np.random.default_rng(7)
    graph = erdos_renyi(200, 0.04, rng, weighted=True)
    pools = [tuple(range(i * 6, (i + 1) * 6)) for i in range(4)]

    requests = []
    for _ in range(QUERIES):
        left = pools[int(rng.integers(len(pools)))]
        right = pools[int(rng.integers(len(pools)))]
        roll = int(rng.integers(10))
        if roll < 5:
            requests.append(TwoWayRequest(left, right, k=5))
        elif roll < 7:
            requests.append(TwoWayRequest(left, right, k=5, measure="ppr"))
        elif roll < 9:
            third = pools[int(rng.integers(len(pools)))]
            requests.append(MultiWayRequest(
                query_edges=((0, 1), (1, 2)),
                node_sets=(left, right, third),
                k=3,
                plan="fixed",
            ))
        else:
            requests.append(TwoWayRequest(
                left, right, k=5, budget=QueryBudget(step_budget=10)
            ))

    with QueryService(graph, workers=WORKERS, queue_depth=QUERIES) as service:
        tickets = [service.submit(request) for request in requests]
        responses = [ticket.result(timeout=300.0) for ticket in tickets]
        stats = service.stats()

    mismatches = 0
    flagged = 0
    for request, response in zip(requests, responses):
        assert response.ok, (response.status, response.error)
        result = response.result
        if not result.exact:
            flagged += 1  # explicitly marked partial: allowed, never silent
            continue
        if _rows(result.results) != _oracle_rows(graph, request):
            mismatches += 1

    assert stats.completed == QUERIES, stats
    assert stats.rejected == 0 and stats.errors == 0, stats
    assert stats.walk_cache_hits > 0, "cross-query sharing never fired"
    assert mismatches == 0, f"{mismatches} non-flagged mismatches"
    print(
        f"service smoke ok: {QUERIES} queries / {WORKERS} workers, "
        f"{stats.walk_cache_hits} cross-query walk hits "
        f"(rate {stats.walk_cache_hit_rate:.2f}), {flagged} flagged "
        f"partials, 0 mismatches, p50 {stats.p50_ms:.1f} ms / "
        f"p99 {stats.p99_ms:.1f} ms"
    )


if __name__ == "__main__":
    main()
