"""Row-restricted walks: a walk with no cache keeps its prefix at ``P``.

``WalkState(..., rows=P)`` holds a ``(|P|, B)`` score prefix instead of
an ``(n, B)`` one, and ``advance_to(d, tail)`` runs the last
``tail.depth`` steps on a :class:`~repro.walks.state.RestrictedTail`'s
row-sliced operators.  Both read the same entries in the same order as
the full-width walk, so every score at ``P`` must be *bit-identical* to
``WalkState(...).scores_at(P)`` — not merely close — whatever the tail
depth, the block form (frontier or dense), the dense step's path, or
the restructuring (``select`` / ``concat``) in between.

The joins build these states whenever there is no walk cache (the
deepening rounds of ``B-IDJ`` and of ``B-BJ``, its final level alone),
and every step they run — tail steps included — is a ``"block"``
checkpoint.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro import api
from repro.core.dht import DHTParams
from repro.exec.budget import QueryBudget
from repro.extensions.measures import TruncatedPPR
from repro.graph.builders import erdos_renyi, preferential_attachment
from repro.graph.validation import GraphValidationError
from repro.walks import engine as engine_module
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.kernels import PPRBlockKernel
from repro.walks.state import RestrictedTail, WalkState

GRAPHS = {
    "pa": preferential_attachment(300, 3, np.random.default_rng(14)),
    "er": erdos_renyi(240, 0.03, np.random.default_rng(41), weighted=True),
}
KERNELS = {
    "dht": DHTParams.dht_lambda(0.2),
    "ppr": PPRBlockKernel(0.7),
}
# Listed out of sorted order on purpose: the plan is keyed by the set,
# the prefix is kept in the caller's order.
LEFT = np.array([150, 3, 101, 17, 42])
RIGHT = [150] + list(range(60, 77))
D = 8
GATES = {"shipped": engine_module.FRONTIER_GATE, "open": 0, "shut": 2**40}


def _full(engine, kernel, targets, level, rows=LEFT):
    return WalkState(engine, kernel, targets).advance_to(level).scores_at(rows)


def _wide_rows(graph):
    """A left set whose reverse frontier is over half of ``nnz(T)``:
    its tail plan serves no step at all."""
    return np.arange(0, graph.num_nodes * 7 // 10)


class TestScoresAtRows:
    """Row-restricted ≡ full-width at ``P``, bit for bit."""

    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("gate", GATES)
    def test_restricted_prefix_and_tail_match_full_width(
        self, graph, kernel, gate, dense_paths
    ):
        engine = WalkEngine(GRAPHS[graph])
        params = KERNELS[kernel]
        tail = RestrictedTail(engine, LEFT, D)
        assert tail.depth >= 2
        with mock.patch.object(engine_module, "FRONTIER_GATE", GATES[gate]):
            for path in dense_paths():
                for level in (1, 2, 5, D):
                    full = _full(engine, params, RIGHT, level)
                    plain = WalkState(engine, params, RIGHT, rows=LEFT)
                    assert np.array_equal(
                        plain.advance_to(level).scores_at(LEFT), full
                    ), (level, path)
                    finished = WalkState(engine, params, RIGHT, rows=LEFT)
                    got = finished.advance_to(level, tail).scores_at(LEFT)
                    assert np.array_equal(got, full), (level, path)

    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tail_of_depth_zero_is_a_plain_restricted_walk(self, graph, kernel):
        engine = WalkEngine(GRAPHS[graph])
        params = KERNELS[kernel]
        rows = _wide_rows(GRAPHS[graph])
        tail = RestrictedTail(engine, rows, D)
        assert tail.depth == 0
        state = WalkState(engine, params, RIGHT, rows=rows).advance_to(D, tail)
        assert np.array_equal(
            state.scores_at(rows), _full(engine, params, RIGHT, D, rows)
        )
        # Nothing ran on the tail, so the walk can still go on.
        assert state.advance_to(D + 2).level == D + 2

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_resumed_state_finishes_on_the_tail(self, kernel):
        """A state walked to ``d / 2`` (``B-IDJ``'s last pruning level)
        finishes on the tail from there."""
        engine = WalkEngine(GRAPHS["pa"])
        params = KERNELS[kernel]
        tail = RestrictedTail(engine, LEFT, D)
        state = WalkState(engine, params, RIGHT, rows=LEFT).advance_to(D // 2)
        assert np.array_equal(
            state.advance_to(D, tail).scores_at(LEFT),
            _full(engine, params, RIGHT, D),
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_select_and_concat_copy_the_row_prefix(self, kernel, dense_paths):
        engine = WalkEngine(GRAPHS["er"])
        params = KERNELS[kernel]
        tail = RestrictedTail(engine, LEFT, D)
        for path in dense_paths():
            for level in (1, 3):  # frontier mass, then dense mass
                a = WalkState(engine, params, RIGHT[:7], rows=LEFT).advance_to(level)
                b = WalkState(engine, params, RIGHT[7:], rows=LEFT).advance_to(level)
                picked = [4, 0, 2]
                narrowed = a.select(picked)
                assert narrowed.nbytes <= a.nbytes
                merged = WalkState.concat([narrowed, b])
                targets = [RIGHT[j] for j in picked] + RIGHT[7:]
                assert np.array_equal(
                    merged.advance_to(D, tail).scores_at(LEFT),
                    _full(engine, params, targets, D),
                ), (level, path)

    def test_finished_walk_holds_its_prefix_only(self):
        engine = WalkEngine(GRAPHS["pa"])
        params = KERNELS["dht"]
        tail = RestrictedTail(engine, LEFT, D)
        state = WalkState(engine, params, RIGHT, rows=LEFT).advance_to(D, tail)
        assert state.nbytes == 8 * LEFT.size * len(RIGHT)
        assert engine.stats.peak_block_bytes == state.nbytes
        with pytest.raises(GraphValidationError, match="cannot be extended"):
            state.advance_to(D + 1)
        assert state.advance_to(D, tail) is state  # nothing left to walk
        # A finished block still narrows.
        assert np.array_equal(
            state.select([2, 0]).scores_at(LEFT),
            _full(engine, params, [RIGHT[2], RIGHT[0]], D),
        )

    def test_restricted_state_is_read_at_its_rows_only(self):
        engine = WalkEngine(GRAPHS["pa"])
        params = KERNELS["dht"]
        state = WalkState(engine, params, RIGHT, rows=LEFT).advance_to(3)
        with pytest.raises(GraphValidationError):
            state.scores_at(np.sort(LEFT))
        full = WalkState(engine, params, RIGHT).advance_to(3)
        with pytest.raises(GraphValidationError):
            WalkState.concat([state, full])
        tail = RestrictedTail(engine, LEFT, D)
        with pytest.raises(GraphValidationError):
            full.advance_to(D, tail)
        with pytest.raises(GraphValidationError):
            WalkState(engine, params, RIGHT, rows=LEFT[:3]).advance_to(D, tail)

    def test_failed_tail_step_leaves_the_state_where_it_was(self):
        """The tail commits at the end: a step that fails among its
        steps leaves the full-width mass and prefix untouched, so the
        same state can be retried (or split by the backoff)."""
        engine = WalkEngine(GRAPHS["pa"])
        params = KERNELS["dht"]
        tail = RestrictedTail(engine, LEFT, D)
        assert tail.depth == 2
        state = WalkState(engine, params, RIGHT, rows=LEFT).advance_to(D - 3)
        real = engine.backward_block_step
        calls = Counter()

        def failing(mass, targets, first, **kwargs):
            if kwargs.get("restricted") is not None:
                calls["tail"] += 1
                if calls["tail"] == 2:
                    raise MemoryError("injected")
            return real(mass, targets, first, **kwargs)

        with mock.patch.object(engine, "backward_block_step", failing):
            with pytest.raises(MemoryError):
                state.advance_to(D, tail)
        # The full-width step ran; neither tail step committed.
        assert state.level == D - tail.depth
        assert np.array_equal(
            state.scores_at(LEFT),
            WalkState(engine, params, RIGHT, rows=LEFT)
            .advance_to(D - tail.depth).scores_at(LEFT),
        )
        assert np.array_equal(
            state.advance_to(D, tail).scores_at(LEFT),
            _full(engine, params, RIGHT, D),
        )


# -- the joins ------------------------------------------------------------

ALGORITHMS = ("b-bj", "b-idj-x", "b-idj-y")
MEASURES = {"dht": None, "ppr": TruncatedPPR(damping=0.7)}


def _run(graph, algorithm, measure, cache, max_bytes=None):
    engine = WalkEngine(graph)
    walk_cache = None
    if cache:
        identity = DHTParams.dht_lambda(0.2) if measure is None else measure.cache_key()
        walk_cache = WalkCache(engine, identity)
    result = api.two_way_join(
        graph, LEFT.tolist(), RIGHT, 10, algorithm=algorithm, engine=engine,
        walk_cache=walk_cache, measure=measure,
        budget=QueryBudget(max_bytes=max_bytes),
    )
    assert result.exact
    return result, engine


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("measure", MEASURES)
def test_every_cacheless_step_is_a_block_checkpoint(graph, algorithm, measure):
    """Deadlines and the fault injector see a walk through its
    ``"block"`` checkpoints, so every walk product of a cache-less join
    — ``B-BJ``'s restricted-tail steps included — must pass one.  The
    only other products are the ``Y`` bound's reach-mass steps, each a
    ``"step"`` checkpoint."""
    engine = WalkEngine(GRAPHS[graph])
    seen = Counter()
    real = engine.checkpoint

    def spy(site, *args, count=1, **kwargs):
        seen[site] += count
        return real(site, *args, count=count, **kwargs)

    with mock.patch.object(engine, "checkpoint", spy):
        result = api.two_way_join(
            GRAPHS[graph], LEFT.tolist(), RIGHT, 10, algorithm=algorithm,
            engine=engine, measure=MEASURES[measure],
        )
    assert result.exact and len(result.results) == 10
    assert engine.stats.plan_builds == 1
    assert seen["block"] > 0
    assert seen["block"] + seen["step"] == engine.stats.sparse_products
    assert (seen["step"] > 0) == (engine.stats.bound_builds > 0)
    assert seen["alloc"] > 0


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("measure", MEASURES)
def test_cacheless_joins_equal_the_full_width_walk(
    graph, algorithm, measure, dense_paths
):
    """No cache (row-restricted states, restricted tail) against a
    fresh walk cache (full-width states that donate their columns):
    the same answers bit for bit, the same steps, under no ceiling and
    under a 4-column one."""
    g = GRAPHS[graph]
    four_columns = 16 * g.num_nodes * 4
    for path in dense_paths():
        reference, ref_engine = _run(g, algorithm, MEASURES[measure], cache=True)
        for max_bytes in (None, four_columns):
            got, engine = _run(g, algorithm, MEASURES[measure], False, max_bytes)
            assert got.results == reference.results, (path, max_bytes)
            if max_bytes is None:
                assert (
                    engine.stats.propagation_steps
                    == ref_engine.stats.propagation_steps
                ), path
            else:
                assert engine.stats.peak_block_bytes <= four_columns

