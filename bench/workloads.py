"""The four workloads: generated inputs, set-up, one op, and its oracle.

Every input comes from ``--seed``: the data graph is generated, written
as a TSV edge list under ``bench/out/`` and from then on the program
under test only sees that file (``graph.io.read_edge_list``) and the
request list.  ``why`` records what each workload is for; the same text
is in ``BENCHMARK.json`` and ``bench/README.md``.

The two axes follow what decides join cost: degree skew of the data
(preferential attachment vs. bounded-degree Erdos-Renyi) and whether
intermediate results are shared across queries (cold one-shot calls, a
warm service whose working set fits its walk cache, and a churning one
whose working set does not).
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro import api
from repro.core.dht import DHTParams
from repro.core.nway.query_graph import QueryGraph
from repro.exec.budget import QueryBudget
from repro.graph import io as graph_io
from repro.graph.builders import erdos_renyi, preferential_attachment
from repro.service import MultiWayRequest, QueryService, TwoWayRequest
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine

#: The paper's configuration (lambda = 0.2, epsilon = 1e-6, so d = 8);
#: also what the API and the service default to.
PARAMS = DHTParams.dht_lambda(0.2)

#: The machine has 2 cores: the service under test is pinned to 2 workers
#: and the load generator never runs more than 2 client threads.
SERVICE_WORKERS = 2
SERVICE_QUEUE_DEPTH = 64
#: A deadline no op comes near: the service runs every request governed
#: (the exec layer is on the path) yet none may stop on budget.
SERVICE_BUDGET = QueryBudget(deadline_ms=60_000.0)

QUERY_GRAPHS = {
    "chain": QueryGraph.chain(3),
    "star": QueryGraph.star(3),
    "triangle": QueryGraph.triangle(),
}


class OpFailed(Exception):
    """An op that returned without an exact, accepted answer.

    ``kind`` is the service's response status (``rejected``/``error``) or
    ``partial`` for an inexact ``PartialResult``.
    """

    def __init__(self, kind: str, detail: object) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


@dataclass(frozen=True)
class TwoWayOp:
    left: Tuple[int, ...]
    right: Tuple[int, ...]
    k: int
    algorithm: str


@dataclass(frozen=True)
class NWayOp:
    shape: str
    node_sets: Tuple[Tuple[int, ...], ...]
    k: int
    m: int
    plan: str


@dataclass
class Inputs:
    graph_path: Path
    requests: List[object]
    sha256: str


class Session:
    """What set-up leaves behind: the loaded graph, engine and service."""

    def __init__(self, graph, engine, service=None) -> None:
        self.graph = graph
        self.engine = engine
        self.service = service
        # Stats of walk caches that lived for one op only (nway_cold).
        self.private_walk_cache = Counter()
        self.timings: Dict[str, float] = {}

    def counters(self) -> Counter:
        """Cumulative public counters, read at phase boundaries.

        Engine counters come from ``WalkEngineStats.snapshot()`` (which
        also mirrors the bound cache's builds and hits); walk-cache
        counters from the ``WalkCacheStats`` of the service's tiers or of
        the per-op private caches.
        """
        counts = Counter(self.engine.stats.snapshot())
        counts.update(self.private_walk_cache)
        if self.service is not None:
            for measure in (None, "ppr"):
                walk_cache, _ = self.service.cache_tier(measure)
                counts.update(_walk_cache_counts(walk_cache))
        return counts

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


def _walk_cache_counts(cache: WalkCache) -> Dict[str, int]:
    stats = cache.stats
    return {
        "walk_cache.hits": stats.hits,
        "walk_cache.misses": stats.misses,
        "walk_cache.evictions": stats.evictions,
        "walk_cache.steps_saved": stats.steps_saved,
    }


def _digest(graph_path: Path, requests: List[object]) -> str:
    digest = hashlib.sha256(graph_path.read_bytes())
    for request in requests:
        digest.update(repr(request).encode())
    return digest.hexdigest()


def _draw_sets(rng, num_nodes: int, count: int, size: int) -> List[Tuple[int, ...]]:
    """``count`` pairwise disjoint node sets of ``size`` nodes each."""
    nodes = rng.choice(num_nodes, count * size, replace=False)
    return [
        tuple(int(u) for u in nodes[i * size:(i + 1) * size])
        for i in range(count)
    ]


class Workload:
    """One workload; subclasses fill in requests, execution and the oracle."""

    name: str
    why: str
    clients = 1
    #: Untimed ops run during set-up so lazy initialisation and cache
    #: fill are paid before the first timed op; (full, smoke).
    warm_ops = (3, 1)
    #: Share of a traced run's seconds given to :meth:`extra_layer_metrics`.
    extras_share = 0.0

    def __init__(self, name: str, why: str) -> None:
        self.name = name
        self.why = why

    # -- inputs --------------------------------------------------------

    def build_graph(self, rng, smoke: bool):
        raise NotImplementedError

    def build_requests(self, rng, num_nodes: int, smoke: bool) -> List[object]:
        raise NotImplementedError

    def generate(self, seed: int, smoke: bool, out_dir: Path) -> Inputs:
        rng = np.random.default_rng(seed)
        graph = self.build_graph(rng, smoke)
        graph_path = out_dir / f"graph_{self.name}_{seed}.tsv"
        graph_io.write_edge_list(graph, graph_path)
        requests = self.build_requests(rng, graph.num_nodes, smoke)
        return Inputs(graph_path, requests, _digest(graph_path, requests))

    # -- set-up --------------------------------------------------------

    def start(self, graph) -> Session:
        """Engine (and service) over a freshly loaded graph."""
        engine = WalkEngine(graph)
        return Session(graph, engine)

    def set_up(self, inputs: Inputs, smoke: bool) -> Session:
        """Everything before the first timed op, timed piece by piece."""
        t0 = time.perf_counter()
        graph = graph_io.read_edge_list(inputs.graph_path)
        t1 = time.perf_counter()
        session = self.start(graph)
        session.engine.transition_columns()
        session.engine.in_degree_array()
        t2 = time.perf_counter()
        for request in inputs.requests[:self.warm_ops[smoke]]:
            self.execute(session, request)
        t3 = time.perf_counter()
        session.timings = {
            "graph.load_s": t1 - t0,
            "graph.engine_init_s": t2 - t1,
            "warm_s": t3 - t2,
            "setup_s": t3 - t0,
        }
        return session

    # -- ops -----------------------------------------------------------

    def execute(self, session: Session, request):
        """Run one op; the outcome, or :class:`OpFailed`."""
        raise NotImplementedError

    def rows(self, outcome) -> list:
        """The answer rows of an outcome (for the verifier)."""
        return outcome

    def oracle(self, graph, engine, request) -> list:
        """The same question answered on a different code path."""
        raise NotImplementedError

    def kind(self, request) -> str:
        """Op type, for the per-op-type latency medians."""
        return type(request).__name__

    def extra_layer_metrics(
        self, session: Session, requests: list, seconds: float, smoke: bool
    ) -> Dict[str, float]:
        """Per-layer metrics that need runs of their own (untimed ops)."""
        return {}


class TwoWayCold(Workload):
    ALGORITHMS = ("b-idj-y", "b-idj-y", "b-bj")

    def build_graph(self, rng, smoke):
        return preferential_attachment(300 if smoke else 20_000, 4, rng)

    def build_requests(self, rng, num_nodes, smoke):
        size, k, count = (12, 10, 30) if smoke else (64, 50, 600)
        requests = []
        for i in range(count):
            left, right = _draw_sets(rng, num_nodes, 2, size)
            requests.append(TwoWayOp(left, right, k, self.ALGORITHMS[i % 3]))
        return requests

    def execute(self, session, request):
        return api.two_way_join(
            session.graph, request.left, request.right, request.k,
            algorithm=request.algorithm, engine=session.engine,
        )

    def oracle(self, graph, engine, request):
        other = "b-bj" if request.algorithm != "b-bj" else "b-idj-y"
        return api.two_way_join(
            graph, request.left, request.right, request.k,
            algorithm=other, engine=engine,
        )

    def kind(self, request):
        return f"api.two_way.{request.algorithm}"


class NWayCold(Workload):
    extras_share = 0.3

    def build_graph(self, rng, smoke):
        n = 300 if smoke else 8_000
        return erdos_renyi(n, 4.0 / n, rng, weighted=True)

    def build_requests(self, rng, num_nodes, smoke):
        size, k, m, count = (8, 5, 10, 30) if smoke else (32, 10, 50, 600)
        cycle = [
            (shape, plan)
            for shape in QUERY_GRAPHS
            for plan in ("fixed", "auto")
        ]
        requests = []
        for i in range(count):
            shape, plan = cycle[i % len(cycle)]
            sets = _draw_sets(
                rng, num_nodes, QUERY_GRAPHS[shape].num_vertices, size
            )
            requests.append(NWayOp(shape, tuple(sets), k, m, plan))
        return requests

    def execute(self, session, request):
        # Fresh caches per call, as the API would build them itself; the
        # walk cache is passed in only so its WalkCacheStats can be read.
        walk_cache = WalkCache(session.engine, PARAMS)
        result = api.multi_way_join(
            session.graph, QUERY_GRAPHS[request.shape], request.node_sets,
            request.k, algorithm="pj-i", m=request.m, params=PARAMS,
            engine=session.engine, walk_cache=walk_cache, plan=request.plan,
        )
        session.private_walk_cache.update(_walk_cache_counts(walk_cache))
        return result

    def oracle(self, graph, engine, request):
        return api.multi_way_join(
            graph, QUERY_GRAPHS[request.shape], request.node_sets, request.k,
            algorithm="ap", params=PARAMS, engine=engine, plan="auto",
        )

    def kind(self, request):
        return f"api.multi_way.{request.shape}"

    def extra_layer_metrics(self, session, requests, seconds, smoke):
        """Planner estimate error and the enabled ``QueryTracer``'s cost.

        Each gets half of ``seconds`` and stops early at its sample size:
        12 explain-analyze queries, 20 traced/untraced pairs.
        """
        from repro.obs import QueryTracer

        def run(request, tracer=None, explain=False):
            call = api.explain_multi_way_plan if explain else api.multi_way_join
            options = {"plan": "auto", "analyze": True} if explain else {
                "plan": request.plan, "tracer": tracer,
            }
            t0 = time.perf_counter()
            result = call(
                session.graph, QUERY_GRAPHS[request.shape], request.node_sets,
                request.k, algorithm="pj-i", m=request.m, params=PARAMS,
                engine=session.engine, **options,
            )
            return result, time.perf_counter() - t0

        # The tail of the request list: never reached by the timed phases.
        pending = iter(reversed(requests))
        q_errors: List[float] = []
        deadline = time.perf_counter() + seconds / 2
        for _ in range(2 if smoke else 12):
            analyzed, _ = run(next(pending), explain=True)
            for row in analyzed.actuals:
                predicted = max(analyzed.plan.edges[row.edge_index].estimated_steps, 1.0)
                actual = max(row.propagation_steps, 1)
                q_errors.append(max(predicted / actual, actual / predicted))
            if time.perf_counter() >= deadline:
                break
        overheads: List[float] = []
        deadline = time.perf_counter() + seconds / 2
        for pair in range(2 if smoke else 20):
            request = next(pending)
            arms = [None, QueryTracer()]
            if pair % 2:
                arms.reverse()
            elapsed = {tracer is not None: run(request, tracer)[1] for tracer in arms}
            overheads.append(elapsed[True] / elapsed[False] - 1.0)
            if time.perf_counter() >= deadline:
                break
        return {
            "planner.q_error_p50": float(np.median(q_errors)),
            "obs.query_tracer_overhead_frac": float(np.median(overheads)),
        }


class ServiceMix(Workload):
    """60 % DHT two-way, 20 % PPR two-way, 20 % chain three-way requests
    over a pool of node sets; the pool size sets the working set."""

    clients = 2

    def __init__(self, name, why, pools, warm_ops) -> None:
        super().__init__(name, why)
        self.pools = pools  # (full, smoke)
        self.warm_ops = warm_ops

    def build_graph(self, rng, smoke):
        return preferential_attachment(300 if smoke else 8_000, 4, rng)

    def build_requests(self, rng, num_nodes, smoke):
        size, k2, k3, count = (8, 5, 3, 40) if smoke else (32, 10, 5, 6_000)
        pools = self.pools[smoke]
        pool = _draw_sets(rng, num_nodes, pools, size)
        requests = []
        for _ in range(count):
            draw = rng.random()
            a, b, c = (int(i) for i in rng.choice(pools, 3, replace=False))
            if draw < 0.6:
                requests.append(TwoWayRequest(pool[a], pool[b], k=k2))
            elif draw < 0.8:
                requests.append(
                    TwoWayRequest(pool[a], pool[b], k=k2, measure="ppr")
                )
            else:
                requests.append(MultiWayRequest(
                    ((0, 1), (1, 2)), (pool[a], pool[b], pool[c]),
                    k=k3, plan="auto",
                ))
        return requests

    def start(self, graph):
        service = QueryService(
            graph,
            workers=SERVICE_WORKERS,
            queue_depth=SERVICE_QUEUE_DEPTH,
            default_budget=SERVICE_BUDGET,
        )
        return Session(graph, service.engine, service)

    def execute(self, session, request):
        response = session.service.query(request)
        if not response.ok:
            raise OpFailed(response.status, response.error)
        if not response.result.exact:
            raise OpFailed("partial", response.result.reason)
        return response

    def rows(self, outcome):
        return outcome.result.results

    def oracle(self, graph, engine, request):
        if isinstance(request, TwoWayRequest):
            return api.two_way_join(
                graph, request.left, request.right, request.k,
                algorithm=request.algorithm, engine=engine,
                measure=request.measure,
            )
        return api.multi_way_join(
            graph,
            QueryGraph(len(request.node_sets), request.query_edges),
            request.node_sets, request.k, algorithm=request.algorithm,
            m=request.m, engine=engine, plan="fixed",
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        TwoWayCold(
            "twoway_cold",
            "one-shot two-way joins on a 20k-node power-law graph, nothing "
            "planned, cached or rank-joined: walk kernels dominate, so kernel "
            "work shows here and cache/planner/service work must leave it flat",
        ),
        NWayCold(
            "nway_cold",
            "one-shot PJ-i chain/star/triangle joins, fixed and auto plans, on "
            "a bounded-degree graph: the only workload running planner, n-way "
            "driver, rank join and intra-query cache sharing together",
        ),
        ServiceMix(
            "service_warm",
            "2 closed-loop clients, 2-worker service, 128 targets that fit the "
            "256-target walk cache (hit ratio > 0.99): time is cache lookups, "
            "lock waits, GIL hand-offs and worker queueing",
            pools=(4, 4),
            warm_ops=(200, 10),
        ),
        ServiceMix(
            "service_churn",
            "same service and mix over 2048 targets, 8x the walk cache (hit "
            "ratio < 0.3): the caches' write/evict/rebuild side, where dearer "
            "insertion or more retained memory costs ops_per_s or peak_rss_mb",
            pools=(64, 16),
            warm_ops=(40, 10),
        ),
    )
}
