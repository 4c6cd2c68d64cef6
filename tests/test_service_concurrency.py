"""Concurrency battery: shared caches and counters under real threads.

Four pillars, all seeded and barrier-started so schedules are as hostile
as the GIL allows while staying reproducible:

* ``WalkCache`` hammered by 8 threads mixing gets, adoptions, donations,
  and evictions — every returned vector bit-identical to a
  single-threaded reference, and no hit/miss accounting lost;
* ``BoundPlanCache`` under concurrent lookup-or-build — each artifact
  built exactly once, every thread handed the same object;
* ``WalkEngineStats`` sharded counters — no lost updates under raw
  contention, and the pinned regression: total ``propagation_steps``
  across 8 workers sharing one engine equals the serial count;
* the acceptance battery — 200 seeded mixed queries through an
  8-worker :class:`~repro.service.QueryService`, every completed answer
  bit-identical to the single-caller fixed-plan oracle or a flagged
  partial whose intervals contain the exact scores.
"""

import threading

import numpy as np
import pytest

from repro import api
from repro.bounds_cache import BoundPlanCache
from repro.core.dht import DHTParams
from repro.core.nway.query_graph import QueryGraph
from repro.exec.budget import BUDGET_REASONS, PartialResult, QueryBudget
from repro.graph.builders import erdos_renyi
from repro.service import MultiWayRequest, QueryService, TwoWayRequest
from repro.walks.cache import WalkCache
from repro.walks.engine import STAT_COUNTERS, WalkEngine, WalkEngineStats
from repro.walks.state import WalkState

THREADS = 8


def run_threads(count, body):
    """Run ``body(index)`` on ``count`` barrier-started threads; re-raise."""
    barrier = threading.Barrier(count)
    errors = []

    def wrapped(index):
        barrier.wait()
        try:
            body(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


@pytest.fixture
def graph():
    return erdos_renyi(40, 0.12, np.random.default_rng(11), weighted=True)


@pytest.fixture
def params():
    return DHTParams.dht_lambda(0.2)


class TestWalkCacheStress:
    def test_concurrent_mix_is_bit_identical_and_lossless(self, graph, params):
        targets = list(range(12))
        levels = [2, 3, 5, 8]
        # Single-threaded reference, one vector per (target, level).
        ref_engine = WalkEngine(graph)
        ref_cache = WalkCache(ref_engine, params)
        reference = {
            (t, d): ref_cache.scores(t, d) for t in targets for d in levels
        }

        engine = WalkEngine(graph)
        cache = WalkCache(engine, params, max_targets=8)  # forces evictions
        calls_per_thread = 60
        mismatches = []

        def body(index):
            rng = np.random.default_rng(1000 + index)
            for step in range(calls_per_thread):
                t = targets[int(rng.integers(len(targets)))]
                d = levels[int(rng.integers(len(levels)))]
                op = rng.integers(10)
                if op == 0:
                    # Donate a fresh state mid-flight.
                    cache.adopt(WalkState(engine, params, [t]).advance_to(d))
                elif op == 1:
                    cache.peek(t, d)  # pure probe, counted as hit or miss
                elif op == 2 and index == 0 and step % 29 == 0:
                    cache.clear()  # eviction storm from one thread
                else:
                    got = cache.scores(t, d)
                    if not np.array_equal(got, reference[(t, d)]):
                        mismatches.append((t, d))

        run_threads(THREADS, body)
        assert mismatches == []
        # No lost accounting: every scores()/peek() call landed exactly
        # once as a hit or a miss (adopt/clear don't count lookups).
        rng_totals = 0
        for index in range(THREADS):
            rng = np.random.default_rng(1000 + index)
            for step in range(calls_per_thread):
                rng.integers(len(targets))
                rng.integers(len(levels))
                op = rng.integers(10)
                if op == 0 or (op == 2 and index == 0 and step % 29 == 0):
                    continue
                rng_totals += 1
        assert cache.stats.hits + cache.stats.misses == rng_totals

    def test_block_triage_and_donation_under_the_sanitizer(
        self, graph, params, lock_sanitizer
    ):
        """``peek_block`` / ``put_block`` — the joins' group lookups and
        donations — from 8 workers against an evicting cache: every block
        bit-identical to the reference, no lookup lost, and the traced
        locks show no walk under the cache lock (the workers walk their
        misses themselves, outside it) and no lock taken inside it."""
        targets, levels = list(range(12)), [2, 3, 5]
        rows = np.array([0, 7, 13, 21, 39])
        ref_cache = WalkCache(WalkEngine(graph), params)
        reference = {
            (t, d): ref_cache.scores(t, d) for t in targets for d in levels
        }
        engine = WalkEngine(graph)
        cache = WalkCache(engine, params, max_targets=8)  # forces evictions
        lock_sanitizer.instrument_engine(engine)
        assert "WalkCache._lock" in lock_sanitizer.instrument(cache)
        rounds, width = 40, 4
        mismatches = []

        def body(index):
            rng = np.random.default_rng(3000 + index)
            for _ in range(rounds):
                group = rng.choice(targets, size=width, replace=False).tolist()
                d = levels[int(rng.integers(len(levels)))]
                hits, block, misses = cache.peek_block(group, d, rows)
                if sorted(hits + misses) != sorted(group):
                    mismatches.append(("split", group))
                for j, q in enumerate(hits):
                    if not np.array_equal(block[:, j], reference[(q, d)][rows]):
                        mismatches.append((q, d))
                if misses:
                    state = WalkState(engine, params, misses).advance_to(d)
                    cache.put_block(
                        misses, d, map(state.score_column, range(len(misses)))
                    )

        run_threads(THREADS, body)
        assert mismatches == []
        assert cache.stats.hits + cache.stats.misses == THREADS * rounds * width
        assert cache.stats.hits > 0 and cache.stats.evictions > 0
        assert len(cache) <= 8
        report = lock_sanitizer.assert_clean()
        assert report["propagation_holds"] == {}
        assert not [edge for edge in report["edges"] if edge[0] == "WalkCache._lock"]

    def test_concurrent_same_key_returns_private_copies(self, graph, params):
        engine = WalkEngine(graph)
        cache = WalkCache(engine, params)
        baseline = cache.scores(5, 4).copy()
        seen = []

        def body(index):
            vector = cache.scores(5, 4)
            assert np.array_equal(vector, baseline)
            vector[:] = -float(index)  # scribble on the returned copy
            seen.append(vector)

        run_threads(THREADS, body)
        assert np.array_equal(cache.scores(5, 4), baseline)
        assert len(seen) == THREADS


class TestBoundCacheStress:
    def test_build_exactly_once_per_key(self, graph, params):
        engine = WalkEngine(graph)
        cache = BoundPlanCache(engine, params, max_entries=32)
        keys = [((0, 1, 2), 4), ((3, 4), 4), ((0, 1, 2), 6), ((5, 6, 7), 5)]
        build_counts = {key: 0 for key in keys}
        count_lock = threading.Lock()
        results = {key: [] for key in keys}
        results_lock = threading.Lock()

        def body(index):
            rng = np.random.default_rng(2000 + index)
            for _ in range(40):
                sources, d = keys[int(rng.integers(len(keys)))]

                def build(sources=sources, d=d):
                    with count_lock:
                        build_counts[(sources, d)] += 1
                    return ("artifact", sources, d)

                got = cache.y_bound(sources, d, build)
                with results_lock:
                    results[(sources, d)].append(got)

        run_threads(THREADS, body)
        for key, count in build_counts.items():
            assert count == 1, f"{key} built {count} times"
        for key, values in results.items():
            assert values, f"{key} never looked up"
            first = values[0]
            assert all(value is first for value in values)
        assert cache.stats.y_builds == len(keys)
        assert cache.stats.y_hits + cache.stats.y_builds == THREADS * 40


class TestStatsSharding:
    def test_no_lost_updates_under_contention(self):
        stats = WalkEngineStats()
        per_thread = 20_000

        def body(index):
            for _ in range(per_thread):
                stats.add("propagation_steps", 1)
            stats.add("sparse_products", index)

        run_threads(THREADS, body)
        assert stats.propagation_steps == THREADS * per_thread
        assert stats.sparse_products == sum(range(THREADS))

    def test_assignment_keeps_single_thread_semantics(self):
        stats = WalkEngineStats()
        stats.add("checkpoints", 7)
        # This test pins the single-thread assignment semantics the
        # sharded API preserves — the direct writes are the subject.
        stats.checkpoints = 2  # repro-lint: disable=RL004
        assert stats.checkpoints == 2
        stats.checkpoints += 1  # repro-lint: disable=RL004
        assert stats.checkpoints == 3
        snapshot = stats.snapshot()
        assert snapshot["checkpoints"] == 3
        assert all(name in snapshot for name in STAT_COUNTERS)

    def test_propagation_steps_across_workers_equal_serial(self, graph):
        """Pinned regression: a shared engine's merged step count must
        equal the single-threaded count for the same set of walks."""
        targets = list(range(16))
        depth = 8

        serial_engine = WalkEngine(graph)
        for target in targets:
            serial_engine.backward_first_hit_series(target, depth)
        serial_steps = serial_engine.stats.propagation_steps
        serial_products = serial_engine.stats.sparse_products
        assert serial_steps > 0

        shared_engine = WalkEngine(graph)

        def body(index):
            for target in targets[index::THREADS]:
                shared_engine.backward_first_hit_series(target, depth)

        run_threads(THREADS, body)
        assert shared_engine.stats.propagation_steps == serial_steps
        assert shared_engine.stats.sparse_products == serial_products


class TestServiceBattery:
    """The acceptance battery: 200 seeded queries, 8 workers, one oracle."""

    QUERIES = 200
    WORKERS = 8

    def _build_mix(self, rng, pools):
        requests = []
        for _ in range(self.QUERIES):
            roll = rng.integers(100)
            left = pools[int(rng.integers(len(pools)))]
            right = pools[int(rng.integers(len(pools)))]
            k = int(rng.integers(1, 5))
            if roll < 55:
                requests.append(TwoWayRequest(
                    left, right, k=k,
                    algorithm=("b-idj-y", "b-bj")[int(rng.integers(2))],
                ))
            elif roll < 70:
                requests.append(TwoWayRequest(left, right, k=k, measure="ppr"))
            elif roll < 90:
                third = pools[int(rng.integers(len(pools)))]
                requests.append(MultiWayRequest(
                    query_edges=((0, 1), (1, 2)),
                    node_sets=(left, right, third),
                    k=min(k, 3),
                    plan="fixed",
                ))
            else:
                budget = QueryBudget(
                    step_budget=int((3, 20, 100)[int(rng.integers(3))])
                )
                requests.append(TwoWayRequest(
                    left, right, k=k, budget=budget
                ))
        return requests

    def _oracle(self, graph, request, params, d, cache):
        """Single-caller ungoverned answer rows + exact score map."""
        key = (request if request.budget is None
               else type(request)(**{**request.__dict__, "budget": None}))
        if key in cache:
            return cache[key]
        measure = request.measure
        if isinstance(request, TwoWayRequest):
            common = dict(algorithm=request.algorithm)
            if measure is None:
                common.update(params=params, d=d)
            else:
                common.update(measure=measure)
            top = api.two_way_join(
                graph, list(request.left), list(request.right),
                request.k, **common,
            )
            full = api.two_way_join(
                graph, list(request.left), list(request.right),
                len(request.left) * len(request.right), **common,
            )
            scores = {(p.left, p.right): p.score for p in full}
            value = (_rows(top), scores)
        else:
            query = QueryGraph(len(request.node_sets), request.query_edges)
            common = dict(algorithm=request.algorithm, m=request.m,
                          plan="fixed")
            if measure is None:
                common.update(params=params, d=d)
            top = api.multi_way_join(
                graph, query,
                [list(nodes) for nodes in request.node_sets],
                request.k, **common,
            )
            value = (_rows(top), None)
        cache[key] = value
        return value

    @pytest.mark.parametrize("traced", [False, True], ids=["bare", "traced"])
    def test_eight_workers_match_single_threaded_oracle(
        self, graph, lock_sanitizer, traced
    ):
        rng = np.random.default_rng(20140808)
        pools = [
            tuple(range(0, 4)), tuple(range(8, 12)), tuple(range(16, 20)),
            tuple(range(24, 28)), tuple(range(32, 36)),
        ]
        requests = self._build_mix(rng, pools)
        params = DHTParams.dht_lambda(0.2)
        d = params.steps_for_epsilon(1e-6)

        # The traced arm runs the identical battery under the
        # structured tracer: answers, oracle checks, and the lock-order
        # report must all hold with spans being recorded.
        tracer = None
        if traced:
            from repro.obs import QueryTracer

            tracer = QueryTracer(max_traces=self.QUERIES)

        with QueryService(
            graph, workers=self.WORKERS, queue_depth=self.QUERIES,
            params=params, d=d, tracer=tracer,
        ) as service:
            # Every lock the battery can touch is traced: the service's
            # own, the engine's, its stats shards, and both tiers the
            # request mix exercises (pre-created here, before workers
            # see a query).
            lock_sanitizer.instrument_service(service, measures=(None, "ppr"))
            tickets = [service.submit(request) for request in requests]
            responses = [ticket.result(timeout=300.0) for ticket in tickets]
            snapshot = service.stats()

        oracle_cache = {}
        exact = partial = 0
        for request, response in zip(requests, responses):
            assert response.ok, (response.status, response.error)
            result = response.result
            assert isinstance(result, PartialResult)
            expected_rows, score_map = self._oracle(
                graph, request, params, d, oracle_cache
            )
            if result.exact:
                exact += 1
                assert _rows(result.results) == expected_rows, (
                    f"concurrent answer differs from oracle for {request}"
                )
            else:
                partial += 1
                assert request.budget is not None
                assert result.reason in BUDGET_REASONS
                assert score_map is not None
                for item, (lower, upper) in zip(result.results, result.bounds):
                    truth = score_map[(item.left, item.right)]
                    assert lower - 1e-9 <= truth <= upper + 1e-9

        assert exact + partial == self.QUERIES
        assert exact > 0
        assert snapshot.completed == self.QUERIES
        assert snapshot.rejected == 0 and snapshot.errors == 0
        assert snapshot.exact == exact and snapshot.partial == partial
        # The whole point of the shared tiers: the mix repeats targets,
        # so cross-query hits must show up.
        assert snapshot.walk_cache_hits > 0
        assert snapshot.walk_cache_hit_rate > 0.0
        # The acquisition-order graph recorded across all 8 workers is
        # acyclic and no lock outside the documented cold-path set was
        # held across engine propagation.
        report = lock_sanitizer.assert_clean()
        assert report["edges"], "the battery must actually trace locks"

        if tracer is not None:
            # Every worker span closed and properly nested, one root
            # "service" span per completed request, and the admission
            # counters agree with the service's own accounting.
            tracer.assert_all_closed()
            roots = tracer.traces
            assert len(roots) == self.QUERIES
            assert all(span.kind == "service" for span in roots)
            assert tracer.counts.get("admitted", 0) == self.QUERIES
            assert "rejected" not in tracer.counts
            total_steps = sum(
                span.counters.get("propagation_steps", 0) for span in roots
            )
            assert total_steps > 0, "traced battery recorded no walk work"


def _rows(items):
    out = []
    for item in items:
        if hasattr(item, "nodes"):
            out.append((tuple(item.nodes), item.score, tuple(item.edge_scores)))
        else:
            out.append((item.left, item.right, item.score))
    return out
