"""Observability layer: tracer, metrics registry, explain-analyze.

Four pillars:

* span mechanics — nesting per thread, LIFO enforcement, counter deltas
  from the engine's thread-local stats, checkpoint events, the bounded
  trace ring, and the no-op cost path when no tracer is installed;
* the metrics registry — every emitted name is in the frozen
  :data:`repro.obs.METRIC_NAMES` contract, counters are monotone across
  snapshots, and both exporters fail without touching query state;
* snapshot consistency under load — a sampler thread reads
  ``service.stats()`` and ``service.metrics_registry().collect()``
  *while* an 8-worker battery runs; every observed snapshot must be
  internally consistent (completed <= submitted, exact + partial ==
  completed, hit rates in [0, 1], counters never moving backwards);
* explain-analyze — ``analyze=True`` runs the query under tracing and
  the per-edge actuals must be nonzero, trace-sourced, and the answers
  bit-identical to an untraced run of the same query.
"""

from __future__ import annotations

import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.core.nway.query_graph import QueryGraph
from repro.graph.builders import erdos_renyi
from repro.obs import (
    METRIC_NAMES,
    QueryTracer,
    TRACE_SCHEMA,
    render_jsonl,
    render_prometheus,
    validate_trace_dict,
)
from repro.obs.metrics import (
    _SERVICE_FIELDS,
    BOUND_CACHE_FIELDS,
    SERVICE_GAUGES,
    WALK_CACHE_FIELDS,
)
from repro.planner import PlannerFixture
from repro.service import MultiWayRequest, QueryService, TwoWayRequest
from repro.service.stats import (
    LATENCY_WINDOW,
    SLOW_QUERY_RING,
    StatsAccumulator,
)
from repro.walks.engine import NULL_SPAN, STAT_COUNTERS, STAT_PEAKS, WalkEngine


@pytest.fixture
def mid_graph():
    return erdos_renyi(160, 4.0 / 160, np.random.default_rng(2014),
                       weighted=True)


# ----------------------------------------------------------------------
# Span mechanics
# ----------------------------------------------------------------------


class TestTraceSpans:
    def test_nesting_and_counters(self, mid_graph):
        engine = WalkEngine(mid_graph)
        tracer = QueryTracer()
        engine.tracer = tracer
        try:
            with tracer.span("query", "q", stats=engine.stats):
                with engine.trace_span("edge", edge=0):
                    api.two_way_join(
                        mid_graph, list(range(8)), list(range(16, 24)), 3,
                        engine=engine,
                    )
        finally:
            engine.tracer = None
        tracer.assert_all_closed()
        (root,) = tracer.traces
        assert root.kind == "query" and root.name == "q"
        edge_spans = root.find("edge", edge=0)
        assert len(edge_spans) == 1
        # The join opened its own spans under the edge span.
        assert edge_spans[0].children
        # Counter deltas flow up: the root saw at least the edge's work.
        assert root.counters["propagation_steps"] > 0
        assert (root.counters["propagation_steps"]
                >= edge_spans[0].counters["propagation_steps"])

    def test_out_of_order_close_raises(self):
        tracer = QueryTracer()
        outer = tracer.span("query", "outer")
        inner = tracer.span("edge", "inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)
        # Clean up so the tracer is consistent again.
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
        tracer.assert_all_closed()

    def test_assert_all_closed_catches_leaks(self):
        tracer = QueryTracer()
        span = tracer.span("query", "leaky")
        span.__enter__()
        with pytest.raises(AssertionError, match="left open"):
            tracer.assert_all_closed()
        span.__exit__(None, None, None)
        tracer.assert_all_closed()

    def test_disabled_hooks_are_null_span(self, mid_graph):
        engine = WalkEngine(mid_graph)
        assert engine.tracer is None
        span = engine.trace_span("edge", edge=3)
        assert span is NULL_SPAN
        with span as s:
            s.set(anything=1)  # must be a silent no-op

    def test_trace_ring_is_bounded(self):
        tracer = QueryTracer(max_traces=4)
        for i in range(10):
            with tracer.span("query", str(i)):
                pass
        assert len(tracer.traces) == 4
        assert [s.name for s in tracer.traces] == ["6", "7", "8", "9"]
        assert tracer.dropped_traces == 6

    def test_checkpoint_events_reach_open_span(self, mid_graph):
        engine = WalkEngine(mid_graph)
        tracer = QueryTracer()
        engine.tracer = tracer
        try:
            with tracer.span("query", "ev", stats=engine.stats) as root:
                engine.checkpoint("round")
                engine.checkpoint("alloc", nbytes=4096)
                engine.checkpoint("alloc", nbytes=128)
        finally:
            engine.tracer = None
        assert root.events == {"round": 1, "alloc": 2}
        assert root.peak_block_bytes == 4096

    def test_error_inside_span_is_recorded_not_swallowed(self):
        tracer = QueryTracer()
        with pytest.raises(ValueError):
            with tracer.span("query", "boom") as span:
                raise ValueError("inner failure")
        assert span.attrs["error"] == "ValueError"
        tracer.assert_all_closed()

    def test_export_roundtrip_and_validation(self, tmp_path):
        tracer = QueryTracer()
        with tracer.span("query", "export", k=3):
            with tracer.span("edge", edge=0):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(str(path)) == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["schema"] == TRACE_SCHEMA
        assert validate_trace_dict(doc) == []
        assert validate_trace_dict({"schema": "bogus"}) != []
        # write_jsonl drained the ring.
        assert tracer.traces == []

    def test_export_failure_never_raises(self, tmp_path):
        tracer = QueryTracer()
        with tracer.span("query", "doomed"):
            pass
        bad_path = tmp_path / "no" / "such" / "dir" / "trace.jsonl"
        assert tracer.write_jsonl(str(bad_path)) == 0
        assert tracer.export_errors == 1


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    @pytest.fixture
    def service_registry(self, mid_graph):
        """A service and its own registry, the DHT tier created by one
        query (tiers, and their cache rows, appear on first use)."""
        with QueryService(mid_graph, workers=1) as service:
            assert service.query(TwoWayRequest((0, 1, 2), (8, 9, 10), k=2)).ok
            yield service, service.metrics_registry()

    def test_names_match_frozen_contract(self, service_registry):
        service, registry = service_registry
        # The service's registry renders its lazily created tiers
        # through one cache-sample rule: one walk-cache and one
        # bound-cache row per counter, labeled by tier.
        assert service.query(
            TwoWayRequest((0, 1), (8, 9), k=2, measure="ppr")
        ).ok
        samples = registry.collect()
        names = {s.name for s in samples}
        tier_rows = [
            (s.name, s.labels, s.value, s.kind) for s in samples if s.labels
        ]
        expected = []
        for index, (walk, bound) in enumerate(service._tiers.values()):
            for tier, cache, fields in (
                ("walk_cache", walk, WALK_CACHE_FIELDS),
                ("bound_cache", bound, BOUND_CACHE_FIELDS),
            ):
                expected += [
                    (f"repro_{tier}_{field}_total",
                     (("tier", str(index)),),
                     float(getattr(cache.stats, field)), "counter")
                    for field in fields
                ]
        assert names == METRIC_NAMES
        assert len(expected) == 2 * (len(WALK_CACHE_FIELDS) + len(BOUND_CACHE_FIELDS))
        assert tier_rows == expected
        assert METRIC_NAMES == frozenset(
            [
                f"repro_engine_{f}" + ("" if f in STAT_PEAKS else "_total")
                for f in STAT_COUNTERS + STAT_PEAKS
            ]
            + [f"repro_walk_cache_{f}_total" for f in WALK_CACHE_FIELDS]
            + [f"repro_bound_cache_{f}_total" for f in BOUND_CACHE_FIELDS]
            + [
                f"repro_service_{f}" + ("" if f in SERVICE_GAUGES else "_total")
                for f in _SERVICE_FIELDS
            ]
        )

    def test_counters_monotone_and_consistent(self, service_registry):
        service, registry = service_registry

        def counter_values():
            return {
                (s.name, s.labels): s.value
                for s in registry.collect() if s.kind == "counter"
            }

        before = counter_values()
        assert service.query(
            TwoWayRequest(tuple(range(8)), tuple(range(16, 24)), k=3)
        ).ok
        after = counter_values()
        assert after.keys() == before.keys()
        assert all(after[key] >= before[key] for key in before)
        assert any(after[key] > before[key] for key in before)

    def test_render_formats(self, service_registry):
        _, registry = service_registry
        samples = registry.collect()
        prom = render_prometheus(samples)
        assert "# TYPE repro_engine_propagation_steps_total counter" in prom
        assert 'tier="0"' in prom
        doc = json.loads(render_jsonl(samples))
        assert set(doc) == {"ts", "metrics"}
        assert {m["name"] for m in doc["metrics"]} == {s.name for s in samples}

    def test_snapshot_files(self, service_registry, tmp_path):
        _, registry = service_registry
        prom_path = tmp_path / "metrics.prom"
        jsonl_path = tmp_path / "metrics.jsonl"
        assert registry.write_snapshot(str(prom_path))
        assert registry.write_snapshot(str(prom_path))  # overwrites
        assert len(prom_path.read_text().splitlines()) == len(
            render_prometheus(registry.collect()).splitlines()
        )
        assert registry.write_snapshot(str(jsonl_path))
        assert registry.write_snapshot(str(jsonl_path))  # appends
        assert len(jsonl_path.read_text().splitlines()) == 2

    def test_snapshot_failure_never_raises(self, service_registry, tmp_path):
        _, registry = service_registry
        assert not registry.write_snapshot(
            str(tmp_path / "missing" / "metrics.jsonl")
        )
        assert registry.export_errors == 1


# ----------------------------------------------------------------------
# Bounded service accounting (the unbounded-latency-list regression)
# ----------------------------------------------------------------------


def _response(latency_ms, status="ok", exact=True):
    return SimpleNamespace(
        status=status,
        latency_ms=latency_ms,
        queued_ms=0.5,
        request=SimpleNamespace(),
        result=SimpleNamespace(exact=exact),
    )


class TestBoundedServiceAccounting:
    def test_latency_ring_stays_flat(self):
        acc = StatsAccumulator()
        total = 3 * LATENCY_WINDOW
        for i in range(total):
            acc.record_response(_response(float(i)), now=float(i))
        window = acc.latency_window()
        assert len(window) == LATENCY_WINDOW
        # Only the most recent window is retained.
        assert sorted(window) == [
            float(i) for i in range(total - LATENCY_WINDOW, total)
        ]
        assert acc.completed == total

    def test_slow_query_ring_keeps_worst(self):
        acc = StatsAccumulator()
        latencies = list(range(100))
        for latency in latencies:
            acc.record_response(_response(float(latency)), now=0.0)
        slow = acc.slow_queries()
        assert len(slow) == SLOW_QUERY_RING
        assert [entry["latency_ms"] for entry in slow] == [
            float(v) for v in sorted(latencies, reverse=True)[:SLOW_QUERY_RING]
        ]

    def test_rejections_and_errors_not_in_latencies(self):
        acc = StatsAccumulator()
        acc.record_response(_response(5.0), now=0.0)
        acc.record_response(_response(99.0, status="rejected"), now=0.0)
        acc.record_response(_response(99.0, status="error"), now=0.0)
        assert acc.latency_window() == [5.0]
        assert acc.rejected == 1 and acc.errors == 1
        assert len(acc.slow_queries()) == 1

    def test_service_snapshot_exposes_slow_queries(self, mid_graph):
        with QueryService(mid_graph, workers=2) as service:
            tickets = [
                service.submit(TwoWayRequest(
                    tuple(range(4)), tuple(range(8, 12)), k=2,
                ))
                for _ in range(3)
            ]
            for ticket in tickets:
                assert ticket.result(timeout=60.0).ok
            snapshot = service.stats()
        slow = snapshot.slow_queries()
        assert 1 <= len(slow) <= 3
        assert all(entry["request"] == "TwoWayRequest" for entry in slow)
        latencies = [entry["latency_ms"] for entry in slow]
        assert latencies == sorted(latencies, reverse=True)
        # Not a dataclass field: asdict stays numeric for the CLI.
        import dataclasses

        assert "slow_queries" not in dataclasses.asdict(snapshot)


# ----------------------------------------------------------------------
# Snapshot consistency while the battery runs
# ----------------------------------------------------------------------


class TestSnapshotConsistencyUnderLoad:
    QUERIES = 64
    WORKERS = 8

    def _mix(self, rng):
        pools = [tuple(range(i * 8, i * 8 + 4)) for i in range(4)]
        requests = []
        for _ in range(self.QUERIES):
            left = pools[int(rng.integers(len(pools)))]
            right = pools[int(rng.integers(len(pools)))]
            if int(rng.integers(4)) == 0:
                third = pools[int(rng.integers(len(pools)))]
                requests.append(MultiWayRequest(
                    query_edges=((0, 1), (1, 2)),
                    node_sets=(left, right, third), k=2, plan="fixed",
                ))
            else:
                requests.append(TwoWayRequest(left, right, k=2))
        return requests

    def test_mid_battery_snapshots_are_consistent(self, mid_graph):
        rng = np.random.default_rng(8)
        requests = self._mix(rng)
        tracer = QueryTracer(max_traces=self.QUERIES)
        snapshots = []
        metric_snaps = []
        stop = threading.Event()

        with QueryService(
            mid_graph, workers=self.WORKERS, queue_depth=self.QUERIES,
            tracer=tracer,
        ) as service:
            registry = service.metrics_registry()

            def sampler():
                while not stop.is_set():
                    snapshots.append(service.stats())
                    metric_snaps.append(registry.collect())
                    time.sleep(0.002)

            thread = threading.Thread(target=sampler)
            thread.start()
            tickets = [service.submit(request) for request in requests]
            responses = [ticket.result(timeout=120.0) for ticket in tickets]
            stop.set()
            thread.join()
            snapshots.append(service.stats())
            metric_snaps.append(registry.collect())

        assert all(response.ok for response in responses)
        assert len(snapshots) >= 2, "sampler never ran"
        prev = None
        for snap in snapshots:
            # Internal consistency of every single snapshot.
            assert snap.completed <= snap.submitted
            assert snap.exact + snap.partial == snap.completed
            assert 0.0 <= snap.walk_cache_hit_rate <= 1.0
            assert snap.walk_cache_hits >= 0
            assert snap.in_flight >= 0
            assert snap.p99_ms >= snap.p50_ms >= 0.0
            # Monotonicity between consecutive snapshots.
            if prev is not None:
                assert snap.submitted >= prev.submitted
                assert snap.completed >= prev.completed
                assert snap.walk_cache_hits >= prev.walk_cache_hits
                assert snap.walk_cache_misses >= prev.walk_cache_misses
            prev = snap
        assert snapshots[-1].completed == self.QUERIES

        for samples in metric_snaps:
            by_name = {}
            for sample in samples:
                assert sample.name in METRIC_NAMES
                assert sample.value >= 0.0
                by_name[(sample.name, sample.labels)] = sample.value
            hits = sum(v for (n, _), v in by_name.items()
                       if n == "repro_walk_cache_hits_total")
            misses = sum(v for (n, _), v in by_name.items()
                         if n == "repro_walk_cache_misses_total")
            assert hits >= 0 and misses >= 0

        # Tracer agreement: all spans closed, one root per completion.
        tracer.assert_all_closed()
        assert len(tracer.traces) == self.QUERIES
        assert tracer.counts.get("admitted") == self.QUERIES


# ----------------------------------------------------------------------
# Explain-analyze
# ----------------------------------------------------------------------


class TestExplainAnalyze:
    def test_actuals_are_trace_sourced_and_answers_identical(self):
        fixture = PlannerFixture()
        spec = fixture.skewed_star_spec()
        kwargs = dict(algorithm="pj", m=200, plan="auto")

        analyzed = api.explain_multi_way_plan(
            spec.graph, spec.query_graph, spec.node_sets, spec.k,
            analyze=True, **kwargs,
        )
        untraced = api.multi_way_join(
            spec.graph, spec.query_graph,
            [list(nodes) for nodes in spec.node_sets], spec.k, **kwargs,
        )

        # The trace layer observes, never interferes: bit-identical.
        assert [(tuple(a.nodes), a.score) for a in analyzed.answers] == [
            (tuple(a.nodes), a.score) for a in untraced
        ]

        plan = analyzed.plan
        assert [row.edge_index for row in analyzed.actuals] == list(
            plan.build_order
        )
        assert analyzed.total_actual_steps > 0
        # Per-edge actuals came from the trace: every edge either
        # walked (fresh propagation steps) or was served from the
        # cross-edge walk cache — never silently absent.
        assert all(
            row.propagation_steps > 0 or row.walk_cache_hits > 0
            for row in analyzed.actuals
        )
        assert any(row.propagation_steps > 0 for row in analyzed.actuals)
        assert any(row.peak_block_bytes > 0 for row in analyzed.actuals)
        assert analyzed.trace is not None
        doc = {"schema": TRACE_SCHEMA, "span": analyzed.trace.to_dict()}
        assert validate_trace_dict(doc) == []
        for row in analyzed.actuals:
            spans = analyzed.trace.find("edge", edge=row.edge_index)
            refills = analyzed.trace.find("refill", edge=row.edge_index)
            assert spans, f"edge {row.edge_index} missing from trace"
            traced = sum(
                s.counters.get("propagation_steps", 0)
                for s in spans + refills
            )
            assert traced == row.propagation_steps
            assert row.refills == len(refills)

        text = analyzed.format()
        assert "actual: steps=" in text
        assert "analyze: total actual steps=" in text
        payload = analyzed.to_json()
        assert payload["total_actual_steps"] == analyzed.total_actual_steps
        assert len(payload["actuals"]) == len(plan.build_order)

    def test_format_text_is_pinned(self):
        """The ``--explain analyze`` text, byte for byte: the plan's
        header, then each build-order row with its actuals under it."""
        from repro.obs import AnalyzedPlan, EdgeActuals
        from repro.planner import EdgePlan, ExplainedPlan

        def row(e, name, operator, estimated, reasons):
            return EdgePlan(
                edge_index=e, edge_name=name, operator=operator,
                estimated_steps=estimated, walk_steps=estimated + 5.0,
                bound_steps=5.0, credit=10.0, survivor_fraction=0.5,
                cached_targets=2, reasons=reasons,
            )

        plan = ExplainedPlan(
            mode="auto", strategy="pj", cost_model_version=2,
            build_order=(1, 0),
            edges=(
                row(0, "A->B", "b-idj-y", 120.0, ("rho=0.40, Y build 5",)),
                row(1, "B->C", "b-bj", 80.0, ()),
            ),
            signals={"graph": {
                "num_nodes": 400, "mean_out_degree": 3.98,
                "cv_out_degree": 1.2345, "heavy_count": 9,
                "heavy_fraction": 0.0225,
            }},
            total_estimated_steps=200.0,
        )
        analyzed = AnalyzedPlan(
            plan=plan,
            actuals=(
                EdgeActuals(1, 64, 3, 5, 1, 4096, 0, 0.0021),
                EdgeActuals(0, 150, 0, 8, 0, 8192, 2, 0.0104),
            ),
            answers=[object(), object()],
            elapsed_s=0.0125,
        )
        rows = [
            "  1. edge 1 B->C         op=b-bj     est=80 "
            "(walk 85 + bound 5 - credit 10)",
            "  2. edge 0 A->B         op=b-idj-y  est=120 "
            "(walk 125 + bound 5 - credit 10)  [rho=0.40, Y build 5]",
        ]
        header = [
            "plan[auto] strategy=pj cost-model=v2 est-steps=200",
            "signals: n=400 mean-out=3.98 cv-out=1.2345 heavy=9 (2.2%)",
        ]
        assert plan.format() == "\n".join(header + rows)
        assert analyzed.format() == "\n".join(header + [
            rows[0],
            "      actual: steps=64 (est 80, 0.80x) walk_hits=3 "
            "bound_hits=1 peak_block_bytes=4096 refills=0 elapsed=2.1ms",
            rows[1],
            "      actual: steps=150 (est 120, 1.25x) walk_hits=0 "
            "bound_hits=0 peak_block_bytes=8192 refills=2 elapsed=10.4ms",
            "analyze: total actual steps=214 (est 200) answers=2 "
            "elapsed=0.013s",
        ])

    def test_api_tracer_kwarg_installs_and_uninstalls(self, mid_graph):
        engine = WalkEngine(mid_graph)
        tracer = QueryTracer()
        query = QueryGraph.chain(2)
        answers = api.multi_way_join(
            mid_graph, query, [list(range(6)), list(range(8, 14))], 2,
            algorithm="pj-i", engine=engine, tracer=tracer,
        )
        assert engine.tracer is None, "tracer must be uninstalled after"
        tracer.assert_all_closed()
        (root,) = tracer.traces
        assert root.kind == "query"
        assert root.counters["propagation_steps"] > 0
        assert root.find("edge", edge=0)
        bare = api.multi_way_join(
            mid_graph, query, [list(range(6)), list(range(8, 14))], 2,
            algorithm="pj-i",
        )
        assert [(tuple(a.nodes), a.score) for a in answers] == [
            (tuple(a.nodes), a.score) for a in bare
        ]
