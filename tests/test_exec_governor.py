"""Tests for the execution governor: budgets, partial results, backoff.

The contract under test (the tentpole invariant): a governed join either
returns an *exact* result — identical to the ungoverned run — or a
flagged :class:`~repro.exec.budget.PartialResult` whose per-result
score intervals contain the exact (oracle) scores.  Budget stops never
surface as unhandled exceptions under ``on_budget="partial"``, and the
``budget_stops`` / ``degradations`` / ``alloc_retries`` counters are
nonzero exactly when the corresponding degradation occurred.
"""

import json
import math

import numpy as np
import pytest

from repro.api import multi_way_join, two_way_join
from repro.cli import main as cli_main
from repro.core.nway.query_graph import QueryGraph
from repro.exec.budget import (
    BudgetExhaustedError,
    PartialResult,
    QueryBudget,
    exact_result,
)
from repro.exec.governor import ExecutionGovernor
from repro.graph.builders import erdos_renyi
from repro.graph.io import write_edge_list
from repro.graph.validation import GraphValidationError
from repro.walks.engine import WalkEngine


@pytest.fixture
def workload():
    graph = erdos_renyi(150, 5.0 / 150, np.random.default_rng(7), weighted=True)
    left = list(range(12))
    right = list(range(30, 70))
    return graph, left, right


def _oracle_scores(graph, left, right, **kwargs):
    """Exact score of every candidate pair from an ungoverned run."""
    pairs = two_way_join(
        graph, left, right, k=len(left) * len(right), algorithm="b-bj", **kwargs
    )
    return {(p.left, p.right): p.score for p in pairs}


def assert_sound(result, oracle, atol=1e-9):
    """Every returned bound interval contains the exact score."""
    assert isinstance(result, PartialResult)
    assert len(result.results) == len(result.bounds)
    for item, (lower, upper) in zip(result.results, result.bounds):
        assert lower <= upper + atol
        exact = oracle[(item.left, item.right)]
        assert lower - atol <= exact <= upper + atol
        if result.exact:
            assert lower == upper == item.score


class TestBudgetValidation:
    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError):
            QueryBudget(deadline_ms=0)
        with pytest.raises(ValueError):
            QueryBudget(step_budget=0)
        with pytest.raises(ValueError):
            QueryBudget(max_bytes=0)
        assert QueryBudget().unlimited
        assert not QueryBudget(step_budget=5).unlimited

    def test_partial_result_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            PartialResult(results=[1], bounds=[])
        with pytest.raises(ValueError, match="reason"):
            PartialResult(results=[], bounds=[], exact=False)
        with pytest.raises(ValueError, match="no exhaustion reason"):
            PartialResult(results=[], bounds=[], exact=True, reason="steps")

    def test_bad_policy_rejected(self, workload):
        graph, left, right = workload
        with pytest.raises(GraphValidationError, match="on_budget"):
            two_way_join(
                graph, left, right, 5,
                budget=QueryBudget(step_budget=10), on_budget="retry",
            )

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError, match="reason"):
            BudgetExhaustedError("patience")


class TestGovernedTwoWay:
    def test_unlimited_budget_is_exact(self, workload):
        graph, left, right = workload
        plain = two_way_join(graph, left, right, 8)
        governed = two_way_join(
            graph, left, right, 8, budget=QueryBudget(step_budget=10**9)
        )
        assert governed.exact and governed.reason is None
        assert governed.results == plain.results
        assert all(lo == hi for lo, hi in governed.bounds)

    @pytest.mark.parametrize("algorithm", ["b-idj-y", "b-idj-x", "b-bj"])
    def test_step_budget_yields_sound_partial(self, workload, algorithm):
        graph, left, right = workload
        oracle = _oracle_scores(graph, left, right)
        engine = WalkEngine(graph)
        result = two_way_join(
            graph, left, right, 8, algorithm=algorithm, engine=engine,
            budget=QueryBudget(step_budget=40),
        )
        assert not result.exact and result.reason == "steps"
        assert_sound(result, oracle)
        assert engine.stats.budget_stops == 1
        assert engine.stats.checkpoints > 0

    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.75, None])
    def test_recall_vs_step_budget(self, workload, fraction):
        """Top-k quality against the step budget, as a fraction of the
        ungoverned run's propagation steps (``None``: one step more than
        the full run — checkpoints trip on ``steps >= budget``).  The
        intervals are sound at every fraction, a starved run comes back
        flagged ``"steps"``, the full budget returns the reference."""
        graph, left, right = workload
        oracle = _oracle_scores(graph, left, right)
        engine = WalkEngine(graph)
        reference = two_way_join(
            graph, left, right, 8, algorithm="b-idj-y", engine=engine
        )
        full_steps = engine.stats.propagation_steps
        step_budget = (
            full_steps + 1 if fraction is None
            else max(1, math.ceil(fraction * full_steps))
        )
        result = two_way_join(
            graph, left, right, 8, algorithm="b-idj-y",
            budget=QueryBudget(step_budget=step_budget),
        )
        assert_sound(result, oracle)
        assert result.exact == (result.reason is None)
        wanted = {(p.left, p.right) for p in reference}
        found = {(p.left, p.right) for p in result.results}
        assert 0.0 <= len(wanted & found) / len(wanted) <= 1.0
        if fraction is None:
            assert result.exact and result.results == reference.results
        elif not result.exact:
            assert result.reason == "steps"
        if fraction == 0.1:
            assert not result.exact  # a tenth of the steps cannot finish

    def test_deadline_budget_stops(self, workload):
        graph, left, right = workload
        engine = WalkEngine(graph)
        # A microsecond deadline exhausts at the first checkpoint.
        result = two_way_join(
            graph, left, right, 8, engine=engine,
            budget=QueryBudget(deadline_ms=1e-3),
        )
        assert not result.exact and result.reason == "deadline"
        assert engine.stats.budget_stops == 1

    def test_on_budget_error_raises(self, workload):
        graph, left, right = workload
        engine = WalkEngine(graph)
        with pytest.raises(BudgetExhaustedError) as info:
            two_way_join(
                graph, left, right, 8, engine=engine,
                budget=QueryBudget(step_budget=40), on_budget="error",
            )
        assert info.value.reason == "steps"
        assert engine.stats.budget_stops == 1

    def test_partial_ranking_matches_snapshot_order(self, workload):
        graph, left, right = workload
        result = two_way_join(
            graph, left, right, 8, budget=QueryBudget(step_budget=40),
        )
        scores = [p.score for p in result.results]
        assert scores == sorted(scores, reverse=True)
        assert len(result) <= 8

    def test_series_measures_yield_sound_partials(self, workload):
        graph, left, right = workload
        oracle = _oracle_scores(graph, left, right, measure="ppr")
        result = two_way_join(
            graph, left, right, 8, measure="ppr",
            budget=QueryBudget(step_budget=30),
        )
        assert_sound(result, oracle)

    def test_ungoverned_runs_have_zero_budget_counters(self, workload):
        graph, left, right = workload
        engine = WalkEngine(graph)
        two_way_join(graph, left, right, 8, engine=engine)
        assert engine.stats.budget_stops == 0
        assert engine.stats.degradations == 0
        assert engine.stats.alloc_retries == 0


class TestByteBudgetBackoff:
    """``max_bytes`` is planned up front: a feasible ceiling narrows the
    window before the first walk, a sub-column one is a flagged stop."""

    def test_backoff_recovers_exactly(self, workload):
        graph, left, right = workload
        expected = two_way_join(graph, left, right, 10)
        engine = WalkEngine(graph)
        # Two columns fit; the window is planned at two columns, so no
        # block is ever vetoed and nothing needs to back off.
        result = two_way_join(
            graph, left, right, 10, engine=engine,
            budget=QueryBudget(max_bytes=16 * graph.num_nodes * 2),
        )
        assert result.exact
        assert result.results == expected.results
        assert engine.stats.alloc_retries == 0
        assert engine.stats.degradations == 0
        assert engine.stats.budget_stops == 0
        assert engine.stats.peak_block_bytes <= 16 * graph.num_nodes * 2

    def test_sub_column_byte_budget_is_partial(self, workload):
        graph, left, right = workload
        oracle = _oracle_scores(graph, left, right)
        engine = WalkEngine(graph)
        result = two_way_join(
            graph, left, right, 10, engine=engine,
            budget=QueryBudget(max_bytes=16 * graph.num_nodes - 1),
        )
        assert not result.exact and result.reason == "bytes"
        assert_sound(result, oracle)
        assert engine.stats.budget_stops == 1


class TestGovernedMultiWay:
    @pytest.fixture
    def nway(self):
        graph = erdos_renyi(150, 5.0 / 150, np.random.default_rng(7), weighted=True)
        query = QueryGraph(3, [(0, 1), (1, 2)], names=["A", "B", "C"])
        sets = [list(range(8)), list(range(30, 45)), list(range(60, 72))]
        return graph, query, sets

    def _edge_oracles(self, graph, query, sets, **kwargs):
        oracles = []
        for i, j in query.edges:
            oracles.append(_oracle_scores(graph, sets[i], sets[j], **kwargs))
        return oracles

    def assert_answers_sound(self, result, query, oracles, atol=1e-9):
        for answer, (lower, upper) in zip(result.results, result.bounds):
            exact_edges = [
                oracles[e][(answer.nodes[i], answer.nodes[j])]
                for e, (i, j) in enumerate(query.edges)
            ]
            exact = min(exact_edges)  # MIN aggregate (the default)
            assert lower - atol <= exact <= upper + atol

    def test_unlimited_budget_is_exact(self, nway):
        graph, query, sets = nway
        plain = multi_way_join(graph, query, sets, 5)
        governed = multi_way_join(
            graph, query, sets, 5, budget=QueryBudget(step_budget=10**9)
        )
        assert governed.exact
        assert governed.results == plain.results

    @pytest.mark.parametrize("algorithm", ["pj", "ap"])
    def test_step_budget_yields_sound_partial(self, nway, algorithm):
        graph, query, sets = nway
        oracles = self._edge_oracles(graph, query, sets)
        engine = WalkEngine(graph)
        result = multi_way_join(
            graph, query, sets, 5, algorithm=algorithm, engine=engine,
            budget=QueryBudget(step_budget=160),
        )
        assert not result.exact and result.reason == "steps"
        if algorithm == "pj":
            # The prefixes joined: best-effort answers with intervals.
            assert len(result) > 0
        self.assert_answers_sound(result, query, oracles)
        assert engine.stats.budget_stops >= 1

    def test_nl_rejected_under_budget(self, nway):
        graph, query, sets = nway
        with pytest.raises(GraphValidationError, match="NL"):
            multi_way_join(
                graph, query, sets, 5, algorithm="nl",
                budget=QueryBudget(step_budget=100),
            )

    def test_on_budget_error_raises(self, nway):
        graph, query, sets = nway
        with pytest.raises(BudgetExhaustedError):
            multi_way_join(
                graph, query, sets, 5,
                budget=QueryBudget(step_budget=160), on_budget="error",
            )

    def test_series_measure_partial_is_sound(self, nway):
        graph, query, sets = nway
        oracles = self._edge_oracles(graph, query, sets, measure="ppr")
        result = multi_way_join(
            graph, query, sets, 5, measure="ppr",
            budget=QueryBudget(step_budget=250),
        )
        assert not result.exact
        self.assert_answers_sound(result, query, oracles)


class TestGovernorObject:
    def test_install_uninstall(self, random_graph):
        engine = WalkEngine(random_graph)
        governor = ExecutionGovernor(QueryBudget(step_budget=5)).install(engine)
        assert engine.governor is governor
        governor.uninstall()
        assert engine.governor is None

    def test_checkpoint_counts(self, random_graph):
        engine = WalkEngine(random_graph)
        governor = ExecutionGovernor().install(engine)
        engine.checkpoint("step")
        engine.checkpoint("round")
        assert engine.stats.checkpoints == 2
        governor.uninstall()
        engine.checkpoint("step")  # ungoverned: free
        assert engine.stats.checkpoints == 2

    def test_counted_checkpoint_is_count_visits_in_one_call(self, random_graph):
        from repro.obs.trace import QueryTracer

        engine = WalkEngine(random_graph)
        governor = ExecutionGovernor().install(engine)
        tracer = QueryTracer()
        engine.tracer = tracer
        try:
            with tracer.span("query", stats=engine.stats):
                engine.checkpoint("cache", count=5)
                engine.checkpoint("cache", count=0)  # an empty pass: no visit
        finally:
            engine.tracer = None
            governor.uninstall()
        assert engine.stats.checkpoints == 5
        assert tracer.traces[-1].events == {"cache": 5}

    @pytest.mark.parametrize("now, visits", [(0.1, 7), (1.0, 1)])
    def test_counted_checkpoint_checks_the_budget_once(
        self, random_graph, now, visits
    ):
        engine = WalkEngine(random_graph)
        clock = iter([0.0, now])  # install, then exactly one deadline check
        governor = ExecutionGovernor(
            QueryBudget(deadline_ms=500.0), clock=lambda: next(clock)
        ).install(engine)
        try:
            if now < 0.5:
                engine.checkpoint("cache", count=7)
            else:
                with pytest.raises(BudgetExhaustedError):
                    engine.checkpoint("cache", count=7)
        finally:
            governor.uninstall()
        assert engine.stats.checkpoints == visits  # a raise counts one

    def test_counted_checkpoint_replays_faults_one_visit_at_a_time(
        self, random_graph
    ):
        from repro.exec.faults import FaultInjector

        def schedule(counts):
            engine = WalkEngine(random_graph)
            injector = FaultInjector(
                3, faults=("clock",), rate=0.3, max_fires=None,
                sites=("cache",),
            )
            governor = ExecutionGovernor(fault_injector=injector).install(engine)
            try:
                for count in counts:
                    engine.checkpoint("cache", count=count)
            finally:
                governor.uninstall()
            return injector.fired, injector.checkpoints_seen, engine.stats.checkpoints

        counted = schedule([4, 9, 3])
        assert counted == schedule([1] * 16)
        assert counted[0] and counted[1] == counted[2] == 16

    def test_exact_result_helper(self):
        wrapped = exact_result([])
        assert wrapped.exact and len(wrapped) == 0


class TestCLIBudgetFlags:
    @pytest.fixture
    def cli_files(self, tmp_path):
        graph = erdos_renyi(80, 6.0 / 80, np.random.default_rng(3), weighted=True)
        graph_path = tmp_path / "graph.tsv"
        write_edge_list(graph, graph_path)
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps(
            {"P": list(range(8)), "Q": list(range(20, 50))}
        ))
        return str(graph_path), str(sets_path)

    def test_partial_json_output(self, cli_files, capsys):
        graph_path, sets_path = cli_files
        code = cli_main([
            "two-way", graph_path, "--sets", sets_path,
            "--left", "P", "--right", "Q", "-k", "5",
            "--step-budget", "30", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is False
        assert payload["reason"] == "steps"
        for row in payload["results"]:
            assert row["lower"] <= row["upper"]

    def test_exact_json_output_keeps_shape(self, cli_files, capsys):
        graph_path, sets_path = cli_files
        code = cli_main([
            "two-way", graph_path, "--sets", sets_path,
            "--left", "P", "--right", "Q", "-k", "5",
            "--step-budget", "100000000", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is True and payload["reason"] is None

    def test_on_budget_error_exit_code(self, cli_files, capsys):
        graph_path, sets_path = cli_files
        code = cli_main([
            "two-way", graph_path, "--sets", sets_path,
            "--left", "P", "--right", "Q", "-k", "5",
            "--step-budget", "30", "--on-budget", "error",
        ])
        assert code == 3
        assert "budget" in capsys.readouterr().err

    def test_multi_way_deadline_flag(self, cli_files, capsys):
        graph_path, sets_path = cli_files
        code = cli_main([
            "multi-way", graph_path, "--sets", sets_path,
            "--node-sets", "P", "Q", "-k", "3",
            "--deadline-ms", "0.001", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is False
        assert payload["reason"] == "deadline"


class TestWarmCacheInterruptibility:
    """Regression for the RL002 (*ungoverned-loop*) pass: a query served
    entirely from the warm walk cache performs zero propagation steps,
    so before the ``"cache"`` checkpoint site existed a deadline or
    fault schedule could never reach it — it would run to an "exact"
    answer on a budget that had already expired."""

    def test_warm_scores_still_honours_deadline(self, random_graph):
        from repro.core.dht import DHTParams
        from repro.walks.cache import WalkCache

        params = DHTParams.dht_lambda(0.2)
        engine = WalkEngine(random_graph)
        cache = WalkCache(engine, params)
        baseline = cache.scores(3, 4)  # warm the entry, ungoverned
        assert baseline is not None
        governor = ExecutionGovernor(
            QueryBudget(deadline_ms=1e-3)
        ).install(engine)
        try:
            with pytest.raises(BudgetExhaustedError) as excinfo:
                cache.scores(3, 4)
        finally:
            governor.uninstall()
        assert excinfo.value.reason == "deadline"

    def test_fully_cached_triage_loop_still_honours_deadline(
        self, random_graph
    ):
        from repro.core.dht import DHTParams
        from repro.core.two_way.backward import BackwardBasicJoin
        from repro.core.two_way.base import make_context
        from repro.walks.cache import WalkCache

        params = DHTParams.dht_lambda(0.2)
        engine = WalkEngine(random_graph)
        cache = WalkCache(engine, params)
        context = make_context(
            random_graph, [0, 1, 2], [5, 6, 7], params=params, d=4,
            engine=engine, walk_cache=cache,
        )
        BackwardBasicJoin(context).top_k(3)  # every right target now warm
        assert cache.stats.misses > 0
        governor = ExecutionGovernor(
            QueryBudget(deadline_ms=1e-3)
        ).install(engine)
        try:
            with pytest.raises(BudgetExhaustedError):
                BackwardBasicJoin(context).top_k(3)
        finally:
            governor.uninstall()
