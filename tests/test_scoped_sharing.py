"""Row-scoped sharing inside one n-way query: answers and steps pinned.

An n-way query's walk cache is read only at its edges' left rows, so
the query walks, keeps and donates each cached target at the union of
those rows (``NWayJoinSpec.walk_rows``) instead of as a full-graph
vector.  Two checks keep that honest:

* **The pin.**  36 one-shot ``pj-i`` queries shaped like the
  ``nway_cold`` workload (Erdos-Renyi, 8 000 nodes, sets of 32, k = 10,
  m = 50, seed 2015; chain / star / triangle x fixed / auto plans),
  each with a fresh caller-supplied walk cache.  The per-query answer
  digests and the total ``propagation_steps`` were generated on the
  commit before the scoping and must never move: scoping changes the
  width of the work, not the work.
* **The guard.**  With ``WalkState.score_column`` / ``scores_matrix``
  patched to raise, every cache-reading n-way strategy (``pj-i``,
  ``pj``, and ``ap`` on its backward materialiser) under DHT, DHT_e and
  PPR still returns the brute-force oracle's top-k: no n-way query
  finalises a full-width score vector.
"""

import hashlib
import json

import numpy as np
import pytest

from oracles import as_ranked, assert_top_k, rank_answers, scores_for
from repro import api
from repro.core.dht import DHTParams
from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.graph.builders import erdos_renyi
from repro.query import resolve_measure
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.state import WalkState

SHAPES = {
    "chain": QueryGraph.chain(3),
    "star": QueryGraph.star(3),
    "triangle": QueryGraph.triangle(),
}

# Generated on the parent of the scoping change (full-width donation).
PINNED_STEPS = 28_264
PINNED_ANSWERS = [
    "35b2ff91cc1b", "be069e435766", "8aa5c4d9370d", "e5356bc1751f",
    "7ff8a1821b68", "c835bc37da2f", "a823d50794f3", "08c4c3efb6df",
    "aabf8fef9e4f", "39a6b0e4d6c0", "bbc8ee7e3615", "e87295f26fbc",
    "4db25aaf5db6", "a1515cf98495", "0c3eb203d9bf", "23410c1e6d59",
    "fcd4caac7d3b", "2dc177638612", "3a2542726033", "1e73129a9af1",
    "20e9984ef761", "68f973a86fa2", "8b7d9db28c47", "a55278c33ce0",
    "0e4f53de353b", "fc71044c43b7", "799adbf8a1a8", "8d80caef6216",
    "18b8c4695415", "5b138ddcd527", "8b29d0b1c85b", "81136653ffa1",
    "3bcc718227c4", "a52ce3c11dd7", "6ab7877ed567", "bc05048f1afe",
]


def _cold_queries():
    """The graph and the 36 ``(shape, plan, node sets)`` queries."""
    rng = np.random.default_rng(2015)
    graph = erdos_renyi(8_000, 4.0 / 8_000, rng, weighted=True)
    cycle = [(shape, plan) for shape in SHAPES for plan in ("fixed", "auto")]
    queries = []
    for i in range(36):
        shape, plan = cycle[i % len(cycle)]
        count = SHAPES[shape].num_vertices
        nodes = rng.choice(graph.num_nodes, count * 32, replace=False)
        sets = [nodes[v * 32:(v + 1) * 32].tolist() for v in range(count)]
        queries.append((shape, plan, sets))
    return graph, queries


def _digest(results) -> str:
    """Answer nodes and exact scores of one query, hashed."""
    rows = [[list(answer.nodes), answer.score.hex()] for answer in results]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:12]


def test_cold_nway_answers_and_steps_are_pinned():
    graph, queries = _cold_queries()
    params = DHTParams.dht_lambda(0.2)
    engine = WalkEngine(graph)
    digests = []
    for shape, plan, sets in queries:
        result = api.multi_way_join(
            graph, SHAPES[shape], sets, 10, algorithm="pj-i", m=50,
            params=params, engine=engine, walk_cache=WalkCache(engine, params),
            plan=plan,
        )
        assert result.exact
        digests.append(_digest(result.results))
    assert digests == PINNED_ANSWERS
    assert engine.stats.snapshot()["propagation_steps"] == PINNED_STEPS


GRAPH = erdos_renyi(240, 5.0 / 240, np.random.default_rng(4), weighted=True)
STRATEGIES = {
    "pj-i": lambda spec: PartialJoinIncremental(spec, m=3),
    "pj": lambda spec: PartialJoin(spec, m=3),
    "ap": lambda spec: AllPairsJoin(spec, two_way="b-bj"),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("measure_name", ["dht", "dht-e", "ppr"])
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_nway_query_never_finalises_a_full_vector(
    shape, measure_name, strategy, monkeypatch
):
    query_graph = SHAPES[shape]
    nodes = np.random.default_rng(8).permutation(GRAPH.num_nodes)
    sets = [nodes[v * 7:(v + 1) * 7].tolist()
            for v in range(query_graph.num_vertices)]
    # One node in two sets: on a star or triangle, two right sets share a
    # target, so their edges must share its scope too.
    sets[-1][0] = sets[0][1]
    measure = resolve_measure(measure_name)
    spec = NWayJoinSpec(
        graph=GRAPH, query_graph=query_graph, node_sets=sets, k=5,
        measure=measure,
    )
    scores = scores_for(GRAPH, spec.d, measure=measure)
    ranking = [
        (nodes, score) for nodes, score, _ in rank_answers(
            [scores] * query_graph.num_edges, spec.node_sets, query_graph.edges,
        )
    ]

    def forbidden(self, *args):
        raise AssertionError("full-width score finalise in an n-way query")

    monkeypatch.setattr(WalkState, "score_column", forbidden)
    monkeypatch.setattr(WalkState, "scores_matrix", forbidden)
    got = STRATEGIES[strategy](spec).run()
    assert_top_k(as_ranked(got), ranking, 5)
