"""Fault-injection matrix: every fault x join x measure stays sound.

Each cell installs a seeded :class:`~repro.exec.faults.FaultInjector`
(one fired fault, mid-query) and asserts the tentpole invariant: the
stack never returns a wrong answer — only an *exact* result identical
to the fault-free oracle run, or a flagged partial whose per-result
intervals contain the oracle scores.  Seeded runs are bit-reproducible:
the same seed fires the same fault at the same checkpoint and returns
identical results.

Fault-to-site mapping (faults only make sense where their trigger
exists):

* ``alloc`` fires at allocation/block checkpoints and is absorbed by
  the adaptive window backoff (``alloc_retries``/``degradations``);
* ``nan`` poisons an in-flight walk block and is absorbed by the
  validated re-walk (``degradations``);
* ``evict`` clears the shared walk cache anywhere — correctness must
  not depend on cache contents;
* ``clock`` jumps the governed clock and turns a deadline query into a
  flagged partial (``budget_stops``).
"""

from unittest import mock

import numpy as np
import pytest

from repro.api import multi_way_join, two_way_join
from repro.core.dht import DHTParams
from repro.core.nway.query_graph import QueryGraph
from repro.exec.budget import PartialResult, QueryBudget
from repro.exec.faults import FaultInjector
from repro.graph.builders import erdos_renyi
from repro.graph.digraph import Graph
from repro.walks import engine as engine_module
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.state import WalkState

MEASURES = [None, "ppr", "simrank"]  # None = the DHT core path

#: Sites where each fault's trigger exists.  ``alloc``/``nan`` outside
#: these sites would model failures the layer under test never produces.
FAULT_SITES = {
    "alloc": ("alloc", "block"),
    "nan": ("block",),
    "evict": None,
    "clock": None,
}


def _injector(fault: str, seed: int = 13) -> FaultInjector:
    return FaultInjector(
        seed,
        faults=(fault,),
        rate=1.0,
        start_after=5,  # let some work happen before the fault lands
        max_fires=1,
        sites=FAULT_SITES[fault],
    )


def _budget(fault: str):
    # Only the clock fault needs a deadline to have something to break;
    # a generous one that only the injected 3600 s jump can exceed.
    return QueryBudget(deadline_ms=60_000.0) if fault == "clock" else None


@pytest.fixture(scope="module")
def workload():
    graph = erdos_renyi(150, 5.0 / 150, np.random.default_rng(7), weighted=True)
    left = list(range(12))
    right = list(range(30, 70))
    return graph, left, right


@pytest.fixture(scope="module")
def pair_oracles(workload):
    """Exact score of every candidate pair, per measure."""
    graph, left, right = workload
    oracles = {}
    for measure in MEASURES:
        pairs = two_way_join(
            graph, left, right, k=len(left) * len(right), algorithm="b-bj",
            measure=measure,
        )
        oracles[measure] = {(p.left, p.right): p.score for p in pairs}
    return oracles


def assert_two_way_sound(result, oracle, expected, atol=1e-9):
    assert isinstance(result, PartialResult)
    if result.exact:
        assert result.results == expected.results
        assert all(lo == hi for lo, hi in result.bounds)
        return
    assert result.reason in ("deadline", "steps", "bytes")
    for pair, (lower, upper) in zip(result.results, result.bounds):
        assert lower - atol <= oracle[(pair.left, pair.right)] <= upper + atol


def _run_two_way(workload, measure, fault, seed=13, algorithm="b-idj-y"):
    graph, left, right = workload
    engine = WalkEngine(graph)
    injector = _injector(fault, seed)
    result = two_way_join(
        graph, left, right, 8, algorithm=algorithm, engine=engine,
        measure=measure, budget=_budget(fault), fault_injector=injector,
    )
    return result, engine, injector


class TestTwoWayMatrix:
    @pytest.mark.parametrize("algorithm", ["b-idj-y", "b-bj"])
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("fault", sorted(FAULT_SITES))
    def test_exact_or_flagged_partial(
        self, workload, pair_oracles, measure, fault, algorithm
    ):
        graph, left, right = workload
        expected = two_way_join(
            graph, left, right, 8, algorithm=algorithm, measure=measure
        )
        result, engine, injector = _run_two_way(
            workload, measure, fault, algorithm=algorithm
        )
        assert_two_way_sound(result, pair_oracles[measure], expected)
        assert engine.stats.checkpoints > 0
        if fault in ("alloc", "nan") and injector.fired and result.exact:
            # The fault was absorbed by a counted recovery, not ignored.
            assert engine.stats.degradations + engine.stats.alloc_retries > 0
        if fault == "alloc" and injector.fired:
            # Both joins walk through the same rounds, so one failed
            # allocation is one backoff retry, never a stopped query.
            assert result.exact and engine.stats.alloc_retries == 1
        if fault == "clock" and injector.fired:
            assert not result.exact and result.reason == "deadline"
            assert engine.stats.budget_stops == 1
        if not injector.fired:
            # No trigger site on this path (e.g. nan under SimRank's
            # matrix gathers): the run must simply be exact.
            assert result.exact

    @pytest.mark.parametrize("fault", sorted(FAULT_SITES))
    def test_seeded_runs_are_identical(self, workload, fault):
        first, engine_a, injector_a = _run_two_way(workload, None, fault)
        second, engine_b, injector_b = _run_two_way(workload, None, fault)
        assert injector_a.fired == injector_b.fired
        assert first.results == second.results
        assert first.bounds == second.bounds
        assert (first.exact, first.reason) == (second.exact, second.reason)
        for name in ("checkpoints", "budget_stops", "degradations",
                     "alloc_retries", "propagation_steps"):
            assert getattr(engine_a.stats, name) == getattr(engine_b.stats, name)

    def test_different_seeds_change_the_schedule(self, workload):
        _, _, injector_a = _run_two_way(workload, None, "evict", seed=13)
        _, _, injector_b = _run_two_way(workload, None, "evict", seed=14)
        # rate=1.0 fires at the first armed checkpoint either way; the
        # logs agree here, so distinguish via the drawn schedules of a
        # lower-rate injector instead.
        low_a = FaultInjector(1, faults=("evict",), rate=0.3, max_fires=None)
        low_b = FaultInjector(2, faults=("evict",), rate=0.3, max_fires=None)

        class _Gov:
            walk_cache = None

        for _ in range(50):
            low_a.fire("step", _Gov())
            low_b.fire("step", _Gov())
        assert [i for i, _, _ in low_a.fired] != [i for i, _, _ in low_b.fired]

    def test_evict_storm_with_shared_cache(self, workload):
        """An eviction storm mid-join leaves results bit-identical."""
        graph, left, right = workload
        expected = two_way_join(graph, left, right, 8)
        engine = WalkEngine(graph)
        from repro.core.dht import DHTParams

        cache = WalkCache(engine, DHTParams.dht_lambda(0.2))
        injector = _injector("evict")
        result = two_way_join(
            graph, left, right, 8, engine=engine, walk_cache=cache,
            fault_injector=injector,
            budget=QueryBudget(max_bytes=16 * graph.num_nodes * 3),  # spill mode
        )
        assert injector.fired
        assert result.exact
        assert result.results == expected.results


class TestCorruptedBlockInBasicJoin:
    """``B-BJ`` walks through the rounds, so their bounded re-walk
    covers it under every measure: a measure's corrupted block is
    re-walked like DHT's."""

    @staticmethod
    def _measure(name):
        from repro.extensions.measures import DHTMeasure, TruncatedPPR

        return {"dht": None, "dht-measure": DHTMeasure(), "ppr": TruncatedPPR()}[name]

    def _faulted(self, workload, name, cached, max_fires):
        """Engine, cache, injector and the ``two_way_join`` keywords of
        one faulted ``b-bj`` call."""
        graph, _, _ = workload
        measure = self._measure(name)
        engine = WalkEngine(graph)
        cache = None
        if cached:
            from repro.core.dht import DHTParams

            cache = WalkCache(
                engine,
                DHTParams.dht_lambda(0.2) if measure is None
                else measure.cache_key(),
            )
        injector = FaultInjector(
            5, faults=("nan",), rate=1.0, start_after=3, max_fires=max_fires
        )
        kwargs = dict(
            algorithm="b-bj", engine=engine, walk_cache=cache,
            measure=measure, fault_injector=injector,
        )
        return engine, cache, injector, kwargs

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("name", ["dht", "dht-measure", "ppr"])
    def test_one_nan_is_rewalked(self, workload, name, cached):
        graph, left, right = workload
        expected = two_way_join(
            graph, left, right, 8, algorithm="b-bj", measure=self._measure(name)
        )
        engine, cache, injector, kwargs = self._faulted(workload, name, cached, 1)
        result = two_way_join(graph, left, right, 8, **kwargs)
        assert len(injector.fired) == 1
        assert result.exact and result.results == expected.results
        assert engine.stats.degradations == 1
        if cached:  # every target donated at full depth, none poisoned
            depth = 8 if name == "dht" else self._measure(name).d
            for q in right:
                assert np.isfinite(cache.peek(q, depth)).all()

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("name", ["dht", "dht-measure", "ppr"])
    def test_a_broken_environment_still_surfaces(self, workload, name, cached):
        from repro.exec.budget import CorruptedWalkError
        from repro.walks.rounds import REWALK_ATTEMPTS

        graph, left, right = workload
        engine, cache, _, kwargs = self._faulted(workload, name, cached, None)
        with pytest.raises(CorruptedWalkError):
            two_way_join(graph, left, right, 8, **kwargs)
        assert engine.stats.degradations == REWALK_ATTEMPTS
        if cached:
            assert len(cache) == 0  # nothing poisoned was donated


class TestFrontierPhaseFaults:
    """The fault matrix reaches the frontier phase.

    On a ring with chords (every node has in-degree 4, ``nnz(T) = 4n =
    2 400``) the walker mass of one column sits on exactly ``(l + 1)^2``
    nodes after ``l`` steps, so the gate — sum of in-degrees ``* 32 <=
    nnz(T)`` per column — is open before steps 2, 3 and 4 (4, 9, 16
    entries: 512, 1 152, 2 048) and shut before step 5 (25 entries:
    3 200).  Levels 1 and 2 walk on frontier blocks, the deepest level
    ends dense, and a fault at the first ``"block"`` checkpoint that
    carries a block — step 2 of the full-width block — lands on a
    sparse one.
    """

    N = 600

    @pytest.fixture(scope="class")
    def ring(self):
        rng = np.random.default_rng(19)
        edges = [
            (u, (u + hop) % self.N, float(rng.integers(1, 5)))
            for u in range(self.N)
            for hop in (1, 9)
        ]
        graph = Graph.from_undirected_edges(self.N, edges)
        left = list(range(0, 48, 4))
        right = list(range(1, 80, 2))
        return graph, left, right

    def _run(self, ring, injector=None, budget=None):
        graph, left, right = ring
        engine = WalkEngine(graph)
        result = two_way_join(
            graph, left, right, 8, engine=engine, budget=budget,
            fault_injector=injector,
        )
        return result, engine

    @staticmethod
    def _nan_at_first_block():
        # The step-1 checkpoint carries no block (nothing to poison, not
        # logged), so at rate 1 this fires at step 2.
        return FaultInjector(
            3, faults=("nan",), rate=1.0, max_fires=1, sites=("block",)
        )

    def test_levels_one_and_two_walk_on_the_frontier(self, ring):
        graph, _, right = ring
        engine = WalkEngine(graph)
        state = WalkState(engine, DHTParams.dht_lambda(0.2), right)
        state.advance_to(2)
        assert engine.stats.frontier_steps == len(right)
        assert state.nbytes < 16 * self.N * 2  # 40 columns, under two dense ones
        state.advance_to(8)
        assert state.nbytes == 16 * self.N * len(right)
        assert engine.stats.frontier_steps == 3 * len(right)  # steps 2, 3, 4

    def test_nan_in_a_sparse_block_is_rewalked(self, ring):
        expected, clean = self._run(ring, budget=QueryBudget())
        injector = self._nan_at_first_block()
        result, engine = self._run(ring, injector)
        assert [(site, fault) for _, site, fault in injector.fired] == [
            ("block", "nan")
        ]
        assert result.exact and result.results == expected.results
        assert engine.stats.degradations == 1
        # The poisoned level-2 walk was thrown away and walked again.
        assert engine.stats.propagation_steps > clean.stats.propagation_steps
        assert engine.stats.frontier_steps > clean.stats.frontier_steps

    def test_alloc_failure_halves_a_sparse_block(self, ring):
        expected, _ = self._run(ring, budget=QueryBudget())
        probe = self._nan_at_first_block()
        self._run(ring, probe)
        at = probe.fired[0][0]  # index of the step-2 checkpoint
        injector = FaultInjector(
            3, faults=("alloc",), rate=1.0, max_fires=1, sites=("block",),
            start_after=at - 1,
        )
        result, engine = self._run(ring, injector)
        assert injector.fired == [(at, "block", "alloc")]
        assert result.exact and result.results == expected.results
        # The level-1 frontier block was split and both halves went on.
        assert engine.stats.alloc_retries == 1
        assert engine.stats.degradations == 1

    def test_byte_veto_backs_off_before_anything_is_dense(self, ring):
        expected, _ = self._run(ring, budget=QueryBudget())
        # The ceiling is on the dense cost (16 bytes x n x B), whatever
        # the frontier would have held: the window is planned at 5
        # columns before the first walk, so nothing is vetoed.
        result, engine = self._run(
            ring, budget=QueryBudget(max_bytes=16 * self.N * 5)
        )
        assert result.exact and result.results == expected.results
        assert engine.stats.alloc_retries == 0
        assert engine.stats.peak_block_bytes <= 16 * self.N * 5
        assert engine.stats.frontier_steps > 0

    @pytest.mark.parametrize("fault", ["nan", "alloc"])
    def test_seeded_runs_fire_the_same_faults(self, ring, fault):
        def run():
            injector = FaultInjector(
                11, faults=(fault,), rate=0.2, start_after=40, max_fires=3,
                sites=("block",),
            )
            result, engine = self._run(ring, injector)
            return result, engine, injector

        first, engine_a, injector_a = run()
        second, engine_b, injector_b = run()
        assert injector_a.fired and injector_a.fired == injector_b.fired
        assert first.results == second.results and first.exact == second.exact
        assert engine_a.stats.snapshot() == engine_b.stats.snapshot()

    def test_frontier_walk_visits_the_dense_walks_checkpoints(self, ring):
        """Sites and order are the walk plan's, not the block form's: a
        governed query counts the same checkpoints with the gate shut
        (the dense walk) as with the gate the code ships."""
        result, engine = self._run(ring, budget=QueryBudget())
        with mock.patch.object(engine_module, "FRONTIER_GATE", 2**40):
            dense_result, dense_engine = self._run(ring, budget=QueryBudget())
        assert dense_engine.stats.frontier_steps == 0 < engine.stats.frontier_steps
        assert result.results == dense_result.results
        shipped, shut = engine.stats.snapshot(), dense_engine.stats.snapshot()
        for name in ("checkpoints", "propagation_steps", "sparse_products",
                     "bound_builds", "degradations"):
            assert shipped[name] == shut[name], name


class TestNWayMatrix:
    @pytest.fixture(scope="class")
    def nway(self):
        graph = erdos_renyi(150, 5.0 / 150, np.random.default_rng(7), weighted=True)
        query = QueryGraph(3, [(0, 1), (1, 2)], names=["A", "B", "C"])
        sets = [list(range(8)), list(range(30, 45)), list(range(60, 72))]
        return graph, query, sets

    @pytest.fixture(scope="class")
    def edge_oracles(self, nway):
        graph, query, sets = nway
        oracles = {}
        for measure in MEASURES:
            per_edge = []
            for i, j in query.edges:
                pairs = two_way_join(
                    graph, sets[i], sets[j], k=len(sets[i]) * len(sets[j]),
                    algorithm="b-bj", measure=measure,
                )
                per_edge.append({(p.left, p.right): p.score for p in pairs})
            oracles[measure] = per_edge
        return oracles

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("fault", sorted(FAULT_SITES))
    def test_exact_or_flagged_partial(self, nway, edge_oracles, measure, fault):
        graph, query, sets = nway
        expected = multi_way_join(graph, query, sets, 5, measure=measure)
        engine = WalkEngine(graph)
        injector = _injector(fault)
        result = multi_way_join(
            graph, query, sets, 5, engine=engine, measure=measure,
            budget=_budget(fault), fault_injector=injector,
        )
        assert isinstance(result, PartialResult)
        if result.exact:
            assert result.results == expected.results
        else:
            assert result.reason in ("deadline", "steps", "bytes")
            atol = 1e-9
            for answer, (lower, upper) in zip(result.results, result.bounds):
                exact_edges = [
                    edge_oracles[measure][e][(answer.nodes[i], answer.nodes[j])]
                    for e, (i, j) in enumerate(query.edges)
                ]
                assert lower - atol <= min(exact_edges) <= upper + atol
        if not injector.fired:
            assert result.exact

    @pytest.mark.parametrize("fault", sorted(FAULT_SITES))
    def test_seeded_runs_are_identical(self, nway, fault):
        graph, query, sets = nway

        def run():
            engine = WalkEngine(graph)
            injector = _injector(fault)
            result = multi_way_join(
                graph, query, sets, 5, engine=engine,
                budget=_budget(fault), fault_injector=injector,
            )
            return result, injector

        first, injector_a = run()
        second, injector_b = run()
        assert injector_a.fired == injector_b.fired
        assert first.results == second.results
        assert first.bounds == second.bounds
        assert (first.exact, first.reason) == (second.exact, second.reason)


class TestInjectorValidation:
    def test_rejects_unknown_faults(self):
        with pytest.raises(ValueError, match="faults"):
            FaultInjector(1, faults=("gremlin",))
        with pytest.raises(ValueError, match="faults"):
            FaultInjector(1, faults=())

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(1, rate=0.0)

    def test_max_fires_bounds_the_log(self, workload):
        _, _, injector = _run_two_way(workload, None, "evict")
        assert len(injector.fired) == 1
        assert injector.checkpoints_seen > len(injector.fired)
