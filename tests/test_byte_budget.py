"""``QueryBudget.max_bytes``, the one walk-block ceiling, on every block
operator.

Each operator plans its block width under the ceiling before it walks,
so a feasible ceiling changes nothing but the memory/compute trade-off:
the result is exact, equal to the unbudgeted run, nothing is vetoed and
backed off (``alloc_retries == 0``), and no block outgrows the ceiling.
A ceiling below one column (``16 n - 1``) is a flagged ``"bytes"``
partial whose intervals contain the oracle scores — the cache-less
``B-BJ`` included.
"""

import numpy as np
import pytest

from oracles import scores_for
from repro.api import multi_way_join, two_way_join
from repro.core.nway.query_graph import QueryGraph
from repro.core.two_way.base import make_context
from repro.exec import QueryBudget
from repro.extensions.measures import TruncatedPPR
from repro.extensions.simrank import SimRankMeasure
from repro.graph.builders import preferential_attachment
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine

GRAPH = preferential_attachment(300, 3, np.random.default_rng(14))
N = GRAPH.num_nodes
LEFT = [3, 17, 42, 101, 150]
RIGHT = [150] + list(range(60, 77))
FOUR_COLUMNS = 16 * N * 4
BELOW_ONE_COLUMN = 16 * N - 1
ATOL = 1e-9

MEASURES = {
    "dht": None,
    "ppr": TruncatedPPR(damping=0.7),
    "simrank": SimRankMeasure(iterations=4),
}

# (algorithm, measure, with a walk cache)
TWO_WAY_CASES = [
    ("b-bj", "dht", False),
    ("b-bj", "dht", True),
    ("b-bj", "ppr", False),
    ("b-bj", "simrank", False),
    ("b-idj-x", "dht", False),
    ("b-idj-y", "dht", False),
]


def _case_id(case):
    algorithm, measure, cached = case
    return f"{algorithm}-{measure}-{'cache' if cached else 'nocache'}"


def _oracle(measure_name, left=LEFT, right=RIGHT):
    measure = MEASURES[measure_name]
    ctx = make_context(GRAPH, left, right, measure=measure)
    return scores_for(GRAPH, ctx.d, params=ctx.params, measure=ctx.measure)


def _two_way(algorithm, measure_name, cached, budget=None, k=10):
    measure = MEASURES[measure_name]
    engine = WalkEngine(GRAPH)
    cache = None
    if cached:
        key = make_context(GRAPH, LEFT, RIGHT, measure=measure).cache_params
        cache = WalkCache(engine, key)
    result = two_way_join(
        GRAPH, LEFT, RIGHT, k, algorithm=algorithm, measure=measure,
        engine=engine, walk_cache=cache, budget=budget,
    )
    return result, engine


@pytest.mark.parametrize("case", TWO_WAY_CASES, ids=_case_id)
def test_two_way_four_column_ceiling_is_planned_and_exact(case):
    expected, _ = _two_way(*case)
    result, engine = _two_way(*case, budget=QueryBudget(max_bytes=FOUR_COLUMNS))
    assert result.exact and result.reason is None
    assert result.results == expected.results
    assert engine.stats.alloc_retries == 0
    assert engine.stats.budget_stops == 0
    assert engine.stats.peak_block_bytes <= FOUR_COLUMNS


@pytest.mark.parametrize("case", TWO_WAY_CASES, ids=_case_id)
def test_two_way_sub_column_ceiling_is_a_sound_bytes_partial(case):
    algorithm, measure_name, _ = case
    scores = _oracle(measure_name)
    result, engine = _two_way(
        *case, budget=QueryBudget(max_bytes=BELOW_ONE_COLUMN)
    )
    assert not result.exact and result.reason == "bytes"
    for pair, (lower, upper) in zip(result.results, result.bounds):
        assert lower - ATOL <= scores[pair.left, pair.right] <= upper + ATOL
    # Planned before any walk: nothing was propagated, then vetoed.
    assert engine.stats.propagation_steps == 0
    assert engine.stats.budget_stops == 1


NWAY_SETS = [[3, 17, 42, 101], list(range(60, 72)), list(range(120, 130))]
NWAY_QUERY = QueryGraph.chain(3)


def _multi_way(algorithm, budget=None):
    engine = WalkEngine(GRAPH)
    result = multi_way_join(
        GRAPH, NWAY_QUERY, NWAY_SETS, 5, algorithm=algorithm, engine=engine,
        budget=budget,
    )
    return result, engine


@pytest.mark.parametrize("algorithm", ["ap", "pj", "pj-i"])
def test_multi_way_four_column_ceiling_is_planned_and_exact(algorithm):
    expected, _ = _multi_way(algorithm)
    result, engine = _multi_way(
        algorithm, budget=QueryBudget(max_bytes=FOUR_COLUMNS)
    )
    assert result.exact and result.reason is None
    assert result.results == expected.results
    assert engine.stats.alloc_retries == 0
    assert engine.stats.budget_stops == 0
    assert engine.stats.peak_block_bytes <= FOUR_COLUMNS


@pytest.mark.parametrize("algorithm", ["ap", "pj", "pj-i"])
def test_multi_way_sub_column_ceiling_is_a_sound_bytes_partial(algorithm):
    scores = _oracle("dht")
    result, engine = _multi_way(
        algorithm, budget=QueryBudget(max_bytes=BELOW_ONE_COLUMN)
    )
    assert not result.exact and result.reason == "bytes"
    for answer, (lower, upper) in zip(result.results, result.bounds):
        exact = min(
            scores[answer.nodes[i], answer.nodes[j]]
            for i, j in NWAY_QUERY.edges
        )
        assert lower - ATOL <= exact <= upper + ATOL
    assert engine.stats.propagation_steps == 0


def test_ungoverned_explain_replays_under_a_ceiling():
    """A plan carries no block width: an explain runs ungoverned, and
    the replayed plan's joins plan their widths under the byte budget
    when they run."""
    from repro.api import explain_multi_way_plan

    plan = explain_multi_way_plan(
        GRAPH, NWAY_QUERY, NWAY_SETS, 5, algorithm="ap", measure="ppr",
    )
    assert set(plan.operators) == {"basic"}
    engine = WalkEngine(GRAPH)
    result = multi_way_join(
        GRAPH, NWAY_QUERY, NWAY_SETS, 5, algorithm="ap", measure="ppr",
        engine=engine, plan=plan, budget=QueryBudget(max_bytes=FOUR_COLUMNS),
    )
    assert result.exact
    assert engine.stats.alloc_retries == 0
    assert engine.stats.peak_block_bytes <= FOUR_COLUMNS


class TestOnBudgetCheckedAtEntry:
    """An unknown ``on_budget`` policy is rejected before any context is
    built, governed or not."""

    def test_two_way(self):
        engine = WalkEngine(GRAPH)
        with pytest.raises(GraphValidationError, match="on_budget"):
            two_way_join(GRAPH, LEFT, RIGHT, 5, engine=engine, on_budget="bogus")
        assert engine.stats.propagation_steps == 0

    def test_multi_way(self):
        engine = WalkEngine(GRAPH)
        with pytest.raises(GraphValidationError, match="on_budget"):
            multi_way_join(
                GRAPH, NWAY_QUERY, NWAY_SETS, 5, engine=engine,
                on_budget="bogus",
            )
        assert engine.stats.propagation_steps == 0
