"""Tests for the concurrent query service: request execution against the
direct-API oracle, admission control, queued-deadline semantics (the
governor/service interaction), stats snapshots, and the ``serve`` CLI
subcommand."""

import json
import threading

import numpy as np
import pytest

from repro import api
from repro.core.dht import DHTParams
from repro.core.nway.query_graph import QueryGraph
from repro.exec.budget import BUDGET_REASONS, PartialResult, QueryBudget
from repro.query import resolve_measure
from repro.graph.builders import erdos_renyi
from repro.graph.io import write_edge_list, write_node_sets
from repro.service import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    ExplainRequest,
    MultiWayRequest,
    QueryService,
    ServiceStats,
    TwoWayRequest,
)
from repro.service.stats import percentile

LEFT = (0, 1, 2, 3)
RIGHT = (10, 11, 12, 13)
THIRD = (20, 21, 22)


def rows(items):
    """Exact-comparable tuples for ScoredPair / CandidateAnswer lists."""
    out = []
    for item in items:
        if hasattr(item, "nodes"):
            out.append((tuple(item.nodes), item.score, tuple(item.edge_scores)))
        else:
            out.append((item.left, item.right, item.score))
    return out


@pytest.fixture
def graph():
    return erdos_renyi(40, 0.12, np.random.default_rng(11), weighted=True)


@pytest.fixture
def service(graph):
    with QueryService(graph, workers=2, queue_depth=16) as svc:
        yield svc


class TestExecution:
    def test_two_way_matches_direct_api(self, graph, service):
        response = service.query(TwoWayRequest(LEFT, RIGHT, k=5))
        assert response.ok
        assert isinstance(response.result, PartialResult)
        assert response.result.exact
        oracle = api.two_way_join(graph, list(LEFT), list(RIGHT), k=5)
        assert rows(response.result.results) == rows(oracle)

    def test_multi_way_matches_direct_api(self, graph, service):
        request = MultiWayRequest(
            query_edges=((0, 1), (1, 2)),
            node_sets=(LEFT, RIGHT, THIRD),
            k=3,
        )
        response = service.query(request)
        assert response.ok and response.result.exact
        oracle = api.multi_way_join(
            graph,
            QueryGraph(3, [(0, 1), (1, 2)]),
            [list(LEFT), list(RIGHT), list(THIRD)],
            k=3,
        )
        assert rows(response.result.results) == rows(oracle)

    def test_measure_request_matches_direct_api(self, graph, service):
        response = service.query(
            TwoWayRequest(LEFT, RIGHT, k=4, measure="ppr")
        )
        assert response.ok and response.result.exact
        oracle = api.two_way_join(
            graph, list(LEFT), list(RIGHT), k=4, measure=resolve_measure("ppr")
        )
        assert rows(response.result.results) == rows(oracle)

    def test_explain_returns_plan(self, graph, service):
        response = service.query(ExplainRequest(
            query_edges=((0, 1), (1, 2)),
            node_sets=(LEFT, RIGHT, THIRD),
            k=3,
        ))
        assert response.ok
        plan = response.result.to_json()
        direct = api.explain_multi_way_plan(
            graph, QueryGraph(3, [(0, 1), (1, 2)]),
            [list(LEFT), list(RIGHT), list(THIRD)], k=3,
        )
        assert len(plan["edges"]) == direct.num_edges == 2
        assert plan["strategy"] == direct.strategy == "pj-i"
        assert [row["operator"] for row in plan["edges"]] == list(direct.operators)

    def test_two_way_reads_outside_an_nway_scope_go_full_width(
        self, graph, service
    ):
        """A chain query donates its right sets' walks at its reader rows
        only; two-way queries on the same tier that read those targets at
        other rows must miss, re-walk full width, match the oracle, and
        leave full entries behind."""
        chain = MultiWayRequest(
            query_edges=((0, 1), (1, 2)), node_sets=(LEFT, RIGHT, THIRD), k=3,
        )
        assert service.query(chain).ok
        walk_cache, _ = service.cache_tier(None)
        d = resolve_measure(None).d
        scope = sorted(LEFT)  # what edge (0, 1) reads RIGHT's walks at
        assert walk_cache.peek(RIGHT[0], d, rows=np.array(scope)) is not None
        assert walk_cache.peek(RIGHT[0], d) is None  # not a full vector
        outside = (30, 31, 32, 33)
        for right in (RIGHT, THIRD):
            response = service.query(TwoWayRequest(outside, right, k=5))
            assert response.ok and response.result.exact
            oracle = api.two_way_join(graph, list(outside), list(right), k=5)
            assert rows(response.result.results) == rows(oracle)
        # Every target is walked at level 1 by both kinds of query.
        for target in RIGHT + THIRD:
            full = walk_cache.peek(target, 1)
            assert full is not None and full.shape == (graph.num_nodes,)

    def test_query_sync_wrapper_and_ticket(self, service):
        ticket = service.submit(TwoWayRequest(LEFT, RIGHT, k=2))
        response = ticket.result(timeout=30.0)
        assert ticket.done()
        assert response.ok
        assert response.latency_ms >= response.queued_ms >= 0.0

    def test_unknown_request_type_is_error_response(self, service):
        response = service.query(object())
        assert response.status == STATUS_ERROR
        assert "unknown request type" in response.error
        assert response.result is None

    def test_invalid_nodes_are_error_response_not_crash(self, service):
        response = service.query(TwoWayRequest((10**9,), RIGHT, k=2))
        assert response.status == STATUS_ERROR
        follow_up = service.query(TwoWayRequest(LEFT, RIGHT, k=2))
        assert follow_up.ok  # the worker survived

    @pytest.mark.parametrize(
        "algorithm,measure", [("f-bj", None), ("b-bj", None), ("b-bj", "ppr")]
    )
    def test_negative_k_is_error_response_without_work(
        self, service, algorithm, measure
    ):
        """A bad ``k`` is answered with an error before the request can
        walk or fill the tier's shared walk cache."""
        response = service.query(
            TwoWayRequest(LEFT, RIGHT, k=-1, algorithm=algorithm, measure=measure)
        )
        assert response.status == STATUS_ERROR
        assert "k must be >= 0, got -1" in response.error
        assert service.engine.stats.propagation_steps == 0
        assert len(service.cache_tier(measure)[0]) == 0

    @pytest.mark.parametrize("request_type", ["two-way", "multi-way"])
    def test_a_measure_that_is_not_one_is_a_validation_error(
        self, service, request_type
    ):
        """Answered with the resolver's message, not an
        ``AttributeError`` raised while picking the cache tier."""
        if request_type == "two-way":
            request = TwoWayRequest(LEFT, RIGHT, 3, measure=5)
        else:
            request = MultiWayRequest(((0, 1),), (LEFT, RIGHT), 3, measure=5)
        response = service.query(request)
        assert response.status == STATUS_ERROR
        assert "AttributeError" not in response.error
        for attribute in ("d", "floor", "kernel", "tail_weights", "x_bound"):
            assert attribute in response.error
        assert service.query(TwoWayRequest(LEFT, RIGHT, k=2)).ok

    def test_nl_accepts_fixed_in_any_case(self, graph, service):
        request = MultiWayRequest(
            ((0, 1), (1, 2)), (LEFT, RIGHT, THIRD), 3, algorithm="nl",
            plan="FIXED",
        )
        response = service.query(request)
        assert response.ok, response.error
        oracle = api.multi_way_join(
            graph, QueryGraph.chain(3), [LEFT, RIGHT, THIRD], 3,
            algorithm="nl",
        )
        assert rows(response.result.results) == rows(oracle)


class TestCacheSharing:
    def test_cross_query_hits_accumulate(self, service):
        first = service.query(TwoWayRequest(LEFT, RIGHT, k=5))
        after_cold = service.stats()
        second = service.query(TwoWayRequest(LEFT, RIGHT, k=5))
        after_warm = service.stats()
        assert rows(first.result.results) == rows(second.result.results)
        assert after_warm.walk_cache_hits > after_cold.walk_cache_hits
        assert after_warm.walk_cache_hit_rate > 0.0

    def test_tiers_are_per_measure_identity(self, service):
        dht_tier = service.cache_tier(None)
        ppr_tier = service.cache_tier("ppr")
        assert dht_tier is not ppr_tier
        # Same identity from a name and from a fresh equal instance.
        assert service.cache_tier("ppr") is ppr_tier
        assert service.cache_tier(resolve_measure("ppr")) is ppr_tier

    def test_answers_identical_warm_and_cold(self, graph, service):
        request = MultiWayRequest(
            query_edges=((0, 1), (1, 2)),
            node_sets=(LEFT, RIGHT, THIRD),
            k=3,
        )
        cold = service.query(request)
        warm = service.query(request)
        assert rows(cold.result.results) == rows(warm.result.results)


class TestAdmission:
    def _gated(self, graph, **kwargs):
        """A service whose single worker blocks until ``release`` is set."""
        svc = QueryService(graph, workers=1, **kwargs)
        started = threading.Event()
        release = threading.Event()
        original = svc._dispatch

        def blocking(request, budget):
            started.set()
            release.wait(30.0)
            return original(request, budget)

        svc._dispatch = blocking
        return svc, started, release

    def test_in_flight_ceiling_rejects(self, graph):
        svc, started, release = self._gated(
            graph, queue_depth=4, max_in_flight=1
        )
        try:
            first = svc.submit(TwoWayRequest(LEFT, RIGHT, k=1))
            assert started.wait(10.0)
            second = svc.submit(TwoWayRequest(LEFT, RIGHT, k=1))
            response = second.result(timeout=5.0)
            assert response.status == STATUS_REJECTED
            assert "in flight" in response.error
            assert response.result is None
            release.set()
            assert first.result(timeout=30.0).ok
        finally:
            release.set()
            svc.close()

    def test_queue_depth_rejects(self, graph):
        svc, started, release = self._gated(
            graph, queue_depth=1, max_in_flight=10
        )
        try:
            first = svc.submit(TwoWayRequest(LEFT, RIGHT, k=1))
            assert started.wait(10.0)  # worker holds the first request
            second = svc.submit(TwoWayRequest(LEFT, RIGHT, k=1))  # fills queue
            third = svc.submit(TwoWayRequest(LEFT, RIGHT, k=1))
            response = third.result(timeout=5.0)
            assert response.status == STATUS_REJECTED
            assert "queue is full" in response.error
            release.set()
            assert first.result(timeout=30.0).ok
            assert second.result(timeout=30.0).ok
        finally:
            release.set()
            svc.close()

    def test_rejections_show_in_stats(self, graph):
        svc, started, release = self._gated(
            graph, queue_depth=4, max_in_flight=1
        )
        try:
            svc.submit(TwoWayRequest(LEFT, RIGHT, k=1))
            assert started.wait(10.0)
            svc.submit(TwoWayRequest(LEFT, RIGHT, k=1)).result(timeout=5.0)
            release.set()
        finally:
            release.set()
            svc.close()
        stats = svc.stats()
        assert stats.rejected == 1
        assert stats.submitted == 2

    def test_closed_service_rejects(self, graph):
        svc = QueryService(graph, workers=1)
        svc.close()
        response = svc.submit(TwoWayRequest(LEFT, RIGHT, k=1)).result(1.0)
        assert response.status == STATUS_REJECTED
        assert "closed" in response.error
        svc.close()  # idempotent

    def test_validation(self, graph):
        from repro.graph.validation import GraphValidationError

        with pytest.raises(GraphValidationError):
            QueryService(graph, workers=0)
        with pytest.raises(GraphValidationError):
            QueryService(graph, queue_depth=0)
        with pytest.raises(GraphValidationError):
            QueryService(graph, max_in_flight=0)
        with pytest.raises(GraphValidationError):
            QueryService(graph, d=3, epsilon=1e-4)


class TestQueuedDeadline:
    """Satellite: a deadline expiring while the request is still queued
    must come back as a flagged PartialResult counted in budget_stops —
    never a crash, never an unflagged answer."""

    def test_expiry_in_queue_is_flagged_budget_stop(self, graph):
        clock = FakeClock()
        svc = QueryService(graph, workers=1, queue_depth=4, clock=clock)
        started = threading.Event()
        release = threading.Event()
        original = svc._dispatch

        def blocking(request, budget):
            started.set()
            release.wait(30.0)
            return original(request, budget)

        svc._dispatch = blocking
        try:
            stops_before = svc.engine.stats.budget_stops
            blocker = svc.submit(TwoWayRequest(LEFT, RIGHT, k=1))
            assert started.wait(10.0)
            doomed = svc.submit(TwoWayRequest(
                LEFT, RIGHT, k=1, budget=QueryBudget(deadline_ms=50.0)
            ))
            clock.now += 1.0  # 1000 ms in the queue >> the 50 ms deadline
            release.set()
            response = doomed.result(timeout=30.0)
            assert blocker.result(timeout=30.0).ok
        finally:
            release.set()
            svc.close()
        assert response.status == STATUS_OK
        result = response.result
        assert isinstance(result, PartialResult)
        assert not result.exact
        assert result.reason == "deadline"
        assert result.results == []
        assert svc.engine.stats.budget_stops == stops_before + 1
        stats = svc.stats()
        assert stats.partial >= 1
        assert stats.budget_stops >= 1

    def test_default_budget_governs_requests(self, graph):
        with QueryService(
            graph, workers=1, default_budget=QueryBudget(step_budget=1)
        ) as svc:
            response = svc.query(TwoWayRequest(LEFT, RIGHT, k=3))
        assert response.ok
        result = response.result
        assert not result.exact
        assert result.reason in BUDGET_REASONS
        for lower, upper in result.bounds:
            assert lower <= upper

    def test_per_request_budget_overrides_default(self, graph):
        with QueryService(
            graph, workers=1, default_budget=QueryBudget(step_budget=1)
        ) as svc:
            response = svc.query(TwoWayRequest(
                LEFT, RIGHT, k=3, budget=QueryBudget(step_budget=10**9)
            ))
        assert response.ok and response.result.exact


class FakeClock:
    """Monotonic-clock stand-in the tests can advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestStats:
    def test_percentile(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_snapshot_counts(self, service):
        for _ in range(3):
            assert service.query(TwoWayRequest(LEFT, RIGHT, k=2)).ok
        stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.submitted == 3
        assert stats.completed == 3
        assert stats.exact == 3
        assert stats.partial == 0
        assert stats.errors == 0
        assert stats.in_flight == 0
        assert stats.p50_ms > 0.0
        assert stats.p99_ms >= stats.p50_ms
        assert stats.qps > 0.0

    def test_error_responses_counted(self, service):
        service.query(object())
        assert service.stats().errors == 1


@pytest.fixture
def cli_workspace(tmp_path):
    graph = erdos_renyi(30, 0.15, np.random.default_rng(4), weighted=True)
    graph_path = tmp_path / "graph.tsv"
    sets_path = tmp_path / "sets.json"
    requests_path = tmp_path / "requests.json"
    write_edge_list(graph, graph_path)
    write_node_sets(
        {"A": [0, 1, 2, 3], "B": [10, 11, 12], "C": [20, 21, 22]}, sets_path
    )
    mix = [
        {"type": "two-way", "left": "A", "right": "B", "k": 3},
        {"type": "two-way", "left": "A", "right": "B", "k": 3},
        {"type": "multi-way", "shape": "chain",
         "node_sets": ["A", "B", "C"], "k": 2},
        {"type": "two-way", "left": "B", "right": "C", "k": 2,
         "measure": "ppr"},
        {"type": "explain", "shape": "chain",
         "node_sets": ["A", "B", "C"], "k": 2},
    ]
    requests_path.write_text(json.dumps(mix))
    return graph_path, sets_path, requests_path


@pytest.fixture
def er150_workspace(tmp_path):
    """ER 150 (p = 0.05, seed 4): a graph where a 5-pair query under a
    60-step budget stops mid-deepening."""
    graph = erdos_renyi(150, 0.05, np.random.default_rng(4), weighted=True)
    graph_path, sets_path = tmp_path / "graph.tsv", tmp_path / "sets.json"
    write_edge_list(graph, graph_path)
    write_node_sets({"A": list(range(12)), "B": list(range(40, 80))}, sets_path)

    def serve(entry, capsys):
        requests_path = tmp_path / "requests.json"
        requests_path.write_text(json.dumps([entry]))
        from repro.cli import main

        capsys.readouterr()
        code = main([
            "serve", str(graph_path), "--sets", str(sets_path),
            "--requests", str(requests_path), "--workers", "1", "--json",
        ])
        return code, capsys.readouterr()

    return serve


class TestServeCLI:
    def test_request_max_bytes_reaches_the_budget(self, er150_workspace,
                                                  capsys):
        code, out = er150_workspace(
            {"type": "two-way", "left": "A", "right": "B", "k": 3,
             "max_bytes": 1},
            capsys,
        )
        assert code == 0
        (row,) = json.loads(out.out)["responses"]
        assert row["exact"] is False and row["reason"] == "bytes"

    def test_unknown_request_key_is_a_usage_error(self, er150_workspace,
                                                  capsys):
        code, out = er150_workspace(
            {"type": "two-way", "left": "A", "right": "B", "k": 3,
             "stepbudget": 1},
            capsys,
        )
        assert code == 2
        assert "request #0" in out.err
        assert "unknown key 'stepbudget'" in out.err

    def test_partial_rows_carry_the_one_shot_envelope(self, er150_workspace,
                                                      capsys):
        code, out = er150_workspace(
            {"type": "two-way", "left": "A", "right": "B", "k": 5,
             "step_budget": 60},
            capsys,
        )
        assert code == 0
        (row,) = json.loads(out.out)["responses"]
        assert row["exact"] is False and row["reason"] == "steps"
        assert len(row["results"]) == 5
        for result in row["results"]:
            assert result["lower"] <= result["score"] <= result["upper"]

    def test_serve_json(self, cli_workspace, capsys):
        from repro.cli import main

        graph_path, sets_path, requests_path = cli_workspace
        code = main([
            "serve", str(graph_path), "--sets", str(sets_path),
            "--requests", str(requests_path), "--workers", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["responses"]) == 5
        assert all(r["status"] == "ok" for r in payload["responses"])
        assert payload["stats"]["completed"] == 5
        assert payload["stats"]["walk_cache_hits"] > 0  # repeated two-way
        kinds = {r["type"] for r in payload["responses"]}
        assert kinds == {"TwoWayRequest", "MultiWayRequest", "ExplainRequest"}
        explain = next(
            r for r in payload["responses"] if r["type"] == "ExplainRequest"
        )
        assert "plan" in explain
        for response in payload["responses"]:
            if response["type"] == "ExplainRequest":
                continue
            assert response["exact"] is True and response["reason"] is None
            for row in response["results"]:
                assert row["lower"] == row["score"] == row["upper"]
                assert ("edge_scores" in row) == ("nodes" in row)

    def test_serve_text(self, cli_workspace, capsys):
        from repro.cli import main

        graph_path, sets_path, requests_path = cli_workspace
        code = main([
            "serve", str(graph_path), "--sets", str(sets_path),
            "--requests", str(requests_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# service stats" in out
        assert "walk_cache_hit_rate" in out

    def test_serve_explicit_node_lists_and_budget(self, cli_workspace,
                                                  tmp_path, capsys):
        from repro.cli import main

        graph_path, sets_path, _ = cli_workspace
        requests_path = tmp_path / "explicit.json"
        requests_path.write_text(json.dumps([
            {"type": "two-way", "left": [0, 1], "right": [10, 11], "k": 2,
             "step_budget": 1},
        ]))
        code = main([
            "serve", str(graph_path), "--sets", str(sets_path),
            "--requests", str(requests_path), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["responses"][0]
        assert row["status"] == "ok"
        assert row["exact"] is False
        assert row["reason"] in BUDGET_REASONS

    def test_serve_rejects_bad_requests_file(self, cli_workspace, tmp_path,
                                             capsys):
        from repro.cli import main

        graph_path, sets_path, _ = cli_workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not": "a list"}))
        assert main([
            "serve", str(graph_path), "--sets", str(sets_path),
            "--requests", str(bad),
        ]) == 2
        bad.write_text(json.dumps([{"left": "A"}]))
        assert main([
            "serve", str(graph_path), "--sets", str(sets_path),
            "--requests", str(bad),
        ]) == 2
        bad.write_text(json.dumps([{"type": "sideways"}]))
        assert main([
            "serve", str(graph_path), "--sets", str(sets_path),
            "--requests", str(bad),
        ]) == 2
        # A field of the wrong type is a usage error naming the entry,
        # not a TypeError traceback out of ``main`` nor a worker-side
        # error response, and a non-bool ``bidirectional`` is not
        # silently read as true.
        good = {"type": "two-way", "left": "A", "right": "B", "k": 3}
        chain = {"type": "multi-way", "node_sets": ["A", "B", "C"]}
        for entry in (
            {"type": "two-way", "left": "A", "right": "B", "k": None},
            {"type": "two-way", "left": 5, "right": "B"},
            {"type": "multi-way", "node_sets": 7},
            {"type": "two-way", "left": "A", "right": "B", "algorithm": 5},
            {"type": "two-way", "left": "A", "right": "B", "measure": 5},
            {**chain, "algorithm": ["pj"]},
            {**chain, "shape": 3},
            {**chain, "plan": True},
            {**chain, "type": "explain", "plan": 1},
            {**chain, "bidirectional": "no"},
            {**chain, "bidirectional": 1},
            {**good, "max_bytes": "1"},
            {**good, "stepbudget": 1},
            {**good, "m": 5},
            {**chain, "left": "A"},
        ):
            bad.write_text(json.dumps([good, entry]))
            capsys.readouterr()
            assert main([
                "serve", str(graph_path), "--sets", str(sets_path),
                "--requests", str(bad),
            ]) == 2
            err = capsys.readouterr().err
            assert "request #1" in err and str(bad) in err
            assert "Traceback" not in err

    def test_serve_unknown_set_name(self, cli_workspace, tmp_path):
        from repro.cli import main

        graph_path, sets_path, _ = cli_workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            [{"type": "two-way", "left": "NOPE", "right": "B", "k": 1}]
        ))
        assert main([
            "serve", str(graph_path), "--sets", str(sets_path),
            "--requests", str(bad),
        ]) == 2
