"""``QueryBudget.max_bytes``, the one walk-block ceiling, on every block
operator.

Each operator plans its block width under the ceiling before it walks,
so a feasible ceiling changes nothing but the memory/compute trade-off:
the result is exact, equal to the unbudgeted run, nothing is vetoed and
backed off (``alloc_retries == 0``), and no block outgrows the ceiling.
A ceiling below one column (``16 n - 1``) is a flagged ``"bytes"``
partial whose intervals contain the oracle scores — the cache-less
``B-BJ`` included.  :class:`TestAllocationProperty` holds every measure
to what README's ``--max-bytes`` row says a query may allocate.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import scores_for
from repro.api import multi_way_join, two_way_join
from repro.core.nway.query_graph import QueryGraph
from repro.core.two_way.base import make_context
from repro.exec import QueryBudget
from repro.extensions.measures import TruncatedPPR
from repro.graph.builders import preferential_attachment
from repro.graph.validation import GraphValidationError
from repro.query import resolve_measure
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.state import RestrictedTail

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
}

# (algorithm, measure, with a walk cache)
TWO_WAY_CASES = [
    ("b-bj", "dht", False),
    ("b-bj", "dht", True),
    ("b-bj", "ppr", False),
    ("b-idj-x", "dht", False),
    ("b-idj-y", "dht", False),
]


def _case_id(case):
    algorithm, measure, cached = case
    return f"{algorithm}-{measure}-{'cache' if cached else 'nocache'}"


def _oracle(measure_name, left=LEFT, right=RIGHT):
    measure = MEASURES[measure_name]
    ctx = make_context(GRAPH, left, right, measure=measure)
    return scores_for(GRAPH, ctx.d, measure=ctx.measure)


def _two_way(algorithm, measure_name, cached, budget=None, k=10):
    measure = MEASURES[measure_name]
    engine = WalkEngine(GRAPH)
    cache = None
    if cached:
        key = make_context(GRAPH, LEFT, RIGHT, measure=measure).measure.kernel()
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
    assert set(plan.operators) == {"b-bj"}
    engine = WalkEngine(GRAPH)
    result = multi_way_join(
        GRAPH, NWAY_QUERY, NWAY_SETS, 5, algorithm="ap", measure="ppr",
        engine=engine, plan=plan, budget=QueryBudget(max_bytes=FOUR_COLUMNS),
    )
    assert result.exact
    assert engine.stats.alloc_retries == 0
    assert engine.stats.peak_block_bytes <= FOUR_COLUMNS


def test_nway_query_cache_keeps_to_the_ceiling(monkeypatch):
    """The walk cache an n-way query creates for itself is bounded by
    the query's ``max_bytes``, like every walk block it plans."""
    import repro.api
    import repro.core.nway.spec

    created = []

    class Recorded(WalkCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(repro.api, "WalkCache", Recorded)
    monkeypatch.setattr(repro.core.nway.spec, "WalkCache", Recorded)
    graph = preferential_attachment(1200, 4, np.random.default_rng(7))
    order = np.random.default_rng(3).permutation(1200).tolist()
    sets = [order[:10], order[10:50], order[50:60]]
    max_bytes = 16 * 1200 * 4
    expected = multi_way_join(graph, QueryGraph.chain(3), sets, 5)
    del created[:]
    result = multi_way_join(
        graph, QueryGraph.chain(3), sets, 5, algorithm="pj-i",
        budget=QueryBudget(max_bytes=max_bytes),
    )
    assert result.exact and result.results == expected.results
    assert len(created) == 1
    assert 0 < created[0].current_bytes <= max_bytes


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


class TestAllocationProperty:
    """Every allocation a query makes is planned under ``max_bytes`` or
    named in README's ``--max-bytes`` row: the peak ``tracemalloc`` sees
    during a query stays under the ceiling plus those named terms, or
    the query stops with ``reason="bytes"``.

    The named terms, per query: ``B-IDJ``'s retained window and repack
    candidates (up to two more ceilings beside the block being walked),
    each reach-mass ``Y`` bound built (about ``2 (d + 1) n`` floats
    while it builds, plus ``O(n)``), each restricted-tail plan (what building it
    allocates, traced on its own), what the walk cache retains, and the
    left-row score blocks and answers with a fixed bookkeeping
    allowance.
    """

    SIZES = (300, 1200)
    MEASURE_NAMES = ("dht", "dht-e", "ppr")
    ALGORITHMS = ("b-bj", "b-idj-x", "b-idj-y", "pj-i")
    BOOKKEEPING = 64 * 1024

    @staticmethod
    def _workload(n):
        graph = preferential_attachment(n, 4, np.random.default_rng(7))
        order = np.random.default_rng(3).permutation(n).tolist()
        return graph, [order[:10], order[10:50], order[50:60]]

    @staticmethod
    def _tail_plan_bytes(engine, left_sets, d):
        """The largest restricted-tail plan build over ``left_sets``,
        traced on its own."""
        peaks = []
        for rows in left_sets:
            tracemalloc.start()
            try:
                RestrictedTail(engine, rows, d)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return max(peaks)

    def _allowance(self, engine, measure, sets, stats, cache_bytes, rounds):
        """The named terms outside the ceiling, summed over the query."""
        n, d = engine.num_nodes, measure.d
        y_builds = stats["bound_builds"] * (2 * (d + 1) + 2) * n * 8
        tail_plans = stats["plan_builds"] * self._tail_plan_bytes(
            engine, sets[:-1], d
        )
        blocks = sum(64 * len(a) * len(b) for a, b in zip(sets, sets[1:]))
        return (
            rounds + y_builds + tail_plans + cache_bytes + blocks
            + self.BOOKKEEPING
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("measure_name", MEASURE_NAMES)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("columns", [0, 4])
    def test_peak_within_ceiling_plus_named_terms(
        self, n, measure_name, algorithm, columns
    ):
        graph, sets = self._workload(n)
        engine = WalkEngine(graph)
        measure = resolve_measure(measure_name)
        max_bytes = max(16 * n * columns, 16 * n - 1)
        budget = QueryBudget(max_bytes=max_bytes)

        def query(node_sets, walk_cache=None):
            if algorithm == "pj-i":
                return multi_way_join(
                    graph, QueryGraph.chain(3), node_sets, 5,
                    algorithm="pj-i", engine=engine, measure=measure,
                    budget=budget, walk_cache=walk_cache,
                )
            return two_way_join(
                graph, node_sets[0], node_sets[1], 5, algorithm=algorithm,
                engine=engine, measure=measure, budget=budget,
            )

        # Lazily built graph structures and first-call imports belong to
        # the process, not the query: pay them before tracing.
        query([s[:1] for s in sets])
        walk_cache = WalkCache(engine, measure.kernel())
        before = {
            name: getattr(engine.stats, name)
            for name in ("bound_builds", "plan_builds")
        }
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = query(sets, walk_cache)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        stats = {
            name: getattr(engine.stats, name) - count
            for name, count in before.items()
        }
        allowance = self._allowance(
            engine, measure, sets if algorithm == "pj-i" else sets[:2],
            stats, walk_cache.current_bytes,
            rounds=0 if algorithm == "b-bj" else 2 * max_bytes,
        )
        assert peak <= max_bytes + allowance or (
            result.reason == "bytes" and not result.exact
        ), (peak, max_bytes, allowance)
