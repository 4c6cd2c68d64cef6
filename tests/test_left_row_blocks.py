"""The row-restricted, block-shaped score path.

The backward joins only ever read ``h_l(p, q)`` for ``p`` in the left
set, so every layer between the walk kernel and the join hands over
``|P|`` rows per walked block: ``WalkState.scores_at``, the ``rows``
argument of the walk-cache lookups, and ``DeepeningRounds``'
``consume(targets, block)`` protocol.  These tests pin that each of
those reads is *bit-identical* to the full-width read indexed by the
same rows, with the same cache bookkeeping, and that a cache-less
``B-IDJ`` never finalises a full-graph vector at all.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import as_ranked, assert_top_k, dht_scores, rank_pairs
from repro.core.dht import DHTParams
from repro.core.two_way.backward import BackwardIDJX, BackwardIDJY
from repro.core.two_way.base import make_context
from repro.graph.builders import (
    directed_cycle,
    erdos_renyi,
    preferential_attachment,
    random_directed,
)
from repro.walks import engine as engine_module
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.kernels import DHTBlockKernel, PPRBlockKernel
from repro.walks.rounds import DeepeningRounds
from repro.walks.state import WalkState

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NUM_NODES = 40
GRAPH = erdos_renyi(NUM_NODES, 0.12, np.random.default_rng(11), weighted=True)
KERNELS = [DHTBlockKernel(alpha=0.7, beta=-0.3, decay=0.4), PPRBlockKernel(0.6)]

node_lists = st.lists(
    st.integers(0, NUM_NODES - 1), min_size=1, max_size=8, unique=True
)


@st.composite
def walked_blocks(draw):
    """A walked state, the rows to read it at, and its targets.

    ``rows`` always contains some of the targets — the entries where
    PPR's self-visit term lands and DHT carries its return-walk
    artefact — plus arbitrary other nodes, in arbitrary order.
    """
    kernel = draw(st.sampled_from(KERNELS))
    targets = draw(node_lists)
    level = draw(st.integers(0, 5))
    others = draw(node_lists)
    shared = draw(st.lists(st.sampled_from(targets), max_size=3, unique=True))
    rows = draw(st.permutations(list(dict.fromkeys(shared + others))))
    state = WalkState(WalkEngine(GRAPH), kernel, targets).advance_to(level)
    return state, np.asarray(rows, dtype=np.int64)


class TestScoresAt:
    @SETTINGS
    @given(block=walked_blocks())
    def test_equals_full_matrix_rows(self, block):
        state, rows = block
        got = state.scores_at(rows)
        assert got.shape == (rows.size, state.width)
        assert np.array_equal(got, state.scores_matrix()[rows])
        # Column by column it is what cache donation finalises.
        for j in range(state.width):
            assert np.array_equal(got[:, j], state.score_column(j)[rows])

    @SETTINGS
    @given(block=walked_blocks(), data=st.data())
    def test_after_select(self, block, data):
        state, rows = block
        keep = data.draw(
            st.lists(st.integers(0, state.width - 1), min_size=1, max_size=6)
        )
        narrowed = state.select(keep)
        assert np.array_equal(
            narrowed.scores_at(rows), state.scores_matrix()[rows][:, keep]
        )

    @SETTINGS
    @given(block=walked_blocks(), extra=node_lists)
    def test_after_concat(self, block, extra):
        state, rows = block
        other = WalkState(state.engine, state.kernel, extra).advance_to(state.level)
        merged = WalkState.concat([state, other])
        assert np.array_equal(
            merged.scores_at(rows),
            np.hstack([state.scores_matrix(), other.scores_matrix()])[rows],
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fresh_array_each_call(self, kernel):
        rows = np.array([3, 1, 2])
        for level in (0, 3):
            state = WalkState(WalkEngine(GRAPH), kernel, [1, 5]).advance_to(level)
            first = state.scores_at(rows)
            first[:] = -1.0
            assert np.array_equal(
                state.scores_at(rows), state.scores_matrix()[rows]
            )


class TestSelectTake:
    @SETTINGS
    @given(block=walked_blocks(), data=st.data())
    def test_matches_fancy_index_and_owns_buffers(self, block, data):
        state, _ = block
        keep = data.draw(
            st.lists(st.integers(0, state.width - 1), min_size=1, max_size=6)
        )
        narrowed = state.select(keep)
        assert narrowed.targets.tolist() == [int(state.targets[j]) for j in keep]
        assert narrowed.level == state.level
        if state.level == 0:
            assert narrowed.nbytes == 0
            return
        # The selected prefix columns are the fancy index of the block's.
        before = state.scores_matrix()
        assert np.array_equal(narrowed.scores_matrix(), before[:, keep])
        # Advancing the copy leaves the original where it was ...
        deeper = state.level + 2
        narrowed.advance_to(deeper)
        assert state.level == deeper - 2
        assert np.array_equal(state.scores_matrix(), before)
        # ... and the original, advanced afterwards, lands on the same
        # columns: the copy took the walker mass too, and shares no
        # buffer its own steps could have disturbed.
        state.advance_to(deeper)
        assert np.array_equal(narrowed.scores_matrix(), state.scores_matrix()[:, keep])


def _sparse_graph(kind, n, seed):
    """A bounded-mean-degree graph, so frontier blocks stay smaller than
    dense ones for a few levels (``Graph`` rejects self-loops at the
    door, so no walk ever sees one)."""
    rng = np.random.default_rng(seed)
    if kind == "er":
        return erdos_renyi(n, 2.5 / n, rng, weighted=True)
    if kind == "pa":
        return preferential_attachment(n, 2, rng)
    return random_directed(n, 2.0 / n, rng)


@st.composite
def frontier_scripts(draw):
    """A graph, a target block and a walk script for the sparse-vs-dense
    property.  The block may repeat a target, holds a target's in- or
    out-neighbour when it has one (mutually adjacent columns: each is on
    the other's frontier) and, on directed graphs, a target nothing
    points at (an empty frontier row)."""
    kind = draw(st.sampled_from(["er", "pa", "directed"]))
    n = draw(st.integers(60, 140))
    graph = _sparse_graph(kind, n, draw(st.integers(0, 2**16)))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    neighbours = sorted(
        set(graph.out_neighbors(targets[0])) | set(graph.in_neighbors(targets[0]))
    )
    if neighbours and draw(st.booleans()):
        targets.append(draw(st.sampled_from(neighbours)))
    sources = [u for u in range(n) if not graph.in_neighbors(u)]
    if sources and draw(st.booleans()):
        targets.append(draw(st.sampled_from(sources)))
    if draw(st.booleans()):
        targets.append(draw(st.sampled_from(targets)))
    levels = sorted(draw(
        st.lists(st.integers(1, 6), min_size=2, max_size=4, unique=True)
    ))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8, unique=True))
    rows = draw(st.permutations(list(dict.fromkeys(targets[:2] + rows))))
    keep = draw(st.lists(st.integers(0, len(targets) - 1), min_size=1, max_size=4))
    return (
        graph, draw(st.sampled_from(KERNELS)), targets, levels,
        np.asarray(rows, dtype=np.int64), keep,
        draw(st.integers(0, len(targets) - 1)),
    )


#: ``frontier_pays`` is ``bound * FRONTIER_GATE <= nnz(T) * B``: factor 0
#: keeps every step on the frontier, a huge one closes the gate before
#: step 2 (the only step it cannot close is one with nothing to multiply).
GATE_OPEN, GATE_SHUT = 0, 2**40


def _observe(script, gate):
    """Run ``script`` with the frontier gate pinned and return every
    array the public surface hands out, plus each state's ``nbytes``."""
    graph, kernel, targets, levels, rows, keep, column = script
    n = graph.num_nodes
    seen, sizes = [], []

    def look(state):
        seen.append(state.scores_at(rows))
        seen.append(state.scores_matrix())
        seen.extend(state.score_column(j) for j in range(state.width))
        assert state.nbytes <= 16 * n * state.width
        sizes.append((state.level, state.width, state.nbytes))

    engine = WalkEngine(graph)
    with mock.patch.object(engine_module, "FRONTIER_GATE", GATE_SHUT):
        # A dense partner whatever ``gate`` says (from level 2 on).
        partner = WalkState(engine, kernel, targets[::-1]).advance_to(levels[0])
    with mock.patch.object(engine_module, "FRONTIER_GATE", gate):
        state = WalkState(engine, kernel, targets)
        for level in levels[:-1]:
            look(state.advance_to(level))
        # select -> advance_to: pruning between deepening rounds.
        narrowed = state.select(keep)
        look(narrowed)
        look(narrowed.advance_to(levels[-1]))
        # extract_column -> adopt -> scores(): the spill / resume path.
        cache = WalkCache(engine, kernel)
        cache.adopt(state.extract_column(column))
        seen.append(cache.scores(targets[column], levels[-1] + 1))
        assert cache.stats.extensions == 1
        # concat of a frontier state with a dense one (mixed forms when
        # the gate is open), then more steps on the merged block.
        merged = WalkState.concat(
            [WalkState(engine, kernel, targets).advance_to(levels[0]), partner]
        )
        look(merged)
        look(merged.advance_to(levels[-1]))
        look(state.advance_to(levels[-1]))
    return seen, sizes


class TestFrontierPhase:
    """Sparse ≡ dense, bit for bit, through the public surface only.

    The same script runs with the gate forced open (every step a
    sparse x sparse product, as long as the frontier blocks stay smaller
    than dense ones) and forced shut (dense from step 2): everything a
    caller can read must be ``array_equal``.  The constant is patched
    here, in the test — there is no runtime switch.
    """

    @SETTINGS
    @given(script=frontier_scripts())
    def test_open_and_shut_gate_agree_everywhere(self, script):
        frontier, frontier_sizes = _observe(script, GATE_OPEN)
        dense, dense_sizes = _observe(script, GATE_SHUT)
        assert len(frontier) == len(dense)
        for a, b in zip(frontier, dense):
            assert a.shape == b.shape and np.array_equal(a, b)
        # What the frontier holds never exceeds what the dense walk of
        # the same script holds (each already checked <= 16 * n * B).
        for (_, _, held), (_, _, dense_held) in zip(frontier_sizes, dense_sizes):
            assert held <= dense_held

    def test_frontier_nbytes_is_what_the_sparse_arrays_hold(self):
        """On a directed cycle a column's walker mass is one entry and
        its prefix one entry per step: a frontier state holds those
        values plus their indices, a fraction of one dense column."""
        n = 500
        engine = WalkEngine(directed_cycle(n))
        for level in (1, 2, 5):
            state = WalkState(engine, KERNELS[0], [7]).advance_to(level)
            entries = 1 + level
            assert entries * 8 <= state.nbytes <= entries * 16 + 64
            assert state.nbytes < 16 * n // 10
        assert engine.stats.frontier_steps == (2 - 1) + (5 - 1)
        assert engine.stats.peak_block_bytes == state.nbytes


def _cache_effects(cache):
    return (
        cache.stats.hits, cache.stats.misses, cache.stats.extensions,
        cache.stats.steps_saved, cache.stats.evictions,
        list(cache._entries), cache.current_bytes,
    )


@st.composite
def cache_scripts(draw):
    """A request script over a few targets and levels, mixing ``peek``
    and ``scores`` — repeats make it warm, ``max_targets`` makes it
    evict."""
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(["peek", "scores", "scores_uncounted"]),
            st.integers(0, 5),   # target
            st.integers(1, 4),   # level
        ),
        min_size=1, max_size=14,
    ))
    return steps, draw(st.integers(1, 4)), draw(st.sampled_from(KERNELS))


class TestCacheRowsReads:
    @SETTINGS
    @given(script=cache_scripts(), rows=node_lists)
    def test_rows_read_equals_indexed_full_read(self, script, rows):
        """Cold, warm and evicting: the same script through the full
        form and through ``rows=`` returns ``full[rows]`` at every step
        and leaves hits / misses / extensions / LRU order / bytes
        identical."""
        steps, max_targets, kernel = script
        rows = np.asarray(rows, dtype=np.int64)
        full = WalkCache(WalkEngine(GRAPH), kernel, max_targets=max_targets)
        narrow = WalkCache(WalkEngine(GRAPH), kernel, max_targets=max_targets)
        for op, target, level in steps:
            if op == "peek":
                a = full.peek(target, level)
                b = narrow.peek(target, level, rows)
            else:
                counted = op == "scores"
                a = full.scores(target, level, count_stats=counted)
                b = narrow.scores(target, level, count_stats=counted, rows=rows)
            assert (a is None) == (b is None)
            if a is not None:
                assert b.shape == (rows.size,) and b.flags.writeable
                assert np.array_equal(b, a[rows])
            assert _cache_effects(full) == _cache_effects(narrow)

    def test_rows_read_is_fresh(self):
        cache = WalkCache(WalkEngine(GRAPH), KERNELS[0])
        rows = np.array([2, 9])
        first = cache.scores(4, 3, rows=rows)
        first[:] = -1.0
        assert np.array_equal(cache.peek(4, 3, rows), cache.peek(4, 3)[rows])


class TestBlockConsumer:
    """``walk_level`` hands over ``(|rows|, len(targets))`` blocks that
    tile the active set exactly once, whatever resolved each target."""

    @pytest.mark.parametrize("max_bytes", [None, 16 * NUM_NODES * 3])
    @pytest.mark.parametrize("with_cache", [False, True])
    def test_blocks_tile_active_and_match_oracle(
        self, with_cache, max_bytes, byte_ceiling
    ):
        engine = WalkEngine(GRAPH)
        params = DHTParams.dht_lambda(0.3)
        cache = WalkCache(engine, params) if with_cache else None
        if cache is not None:
            cache.scores(7, 2)  # a hit at level 2, a resume beyond it
        rows = np.array([0, 7, 3, 21])
        active = list(range(5, 15))
        # The full-width oracle walks on its own, ungoverned engine.
        oracle_engine = WalkEngine(GRAPH)
        with byte_ceiling(engine, max_bytes):
            rounds = DeepeningRounds(engine, params, cache)
            assert rounds.max_cols == (None if max_bytes is None else 3)
            for level in (1, 2, 4):
                seen = {}

                def consume(targets, block):
                    assert block.shape == (rows.size, len(targets))
                    for q, column in zip(targets, block.T):
                        assert q not in seen
                        seen[q] = column.copy()

                rounds.walk_level(active, level, rows, consume)
                assert sorted(seen) == active
                oracle = WalkState(oracle_engine, params, active).advance_to(level)
                for j, q in enumerate(active):
                    assert np.array_equal(seen[q], oracle.score_column(j)[rows])
                rounds.repack(set(active), level)


class TestNoFullVectorOnColdPath:
    """The deterministic perf guard: what ``twoway_cold`` measures — a
    cache-less ``B-IDJ`` — never finalises a full-graph score vector."""

    @pytest.mark.parametrize("algorithm_cls", [BackwardIDJY, BackwardIDJX])
    @pytest.mark.parametrize("max_bytes", [None, 16 * 600 * 8])
    def test_cacheless_bidj_reads_rows_only(
        self, algorithm_cls, max_bytes, monkeypatch, byte_ceiling
    ):
        graph = erdos_renyi(600, 6.0 / 600, np.random.default_rng(4), weighted=True)
        nodes = np.random.default_rng(8).permutation(600)
        left, right = nodes[:30].tolist(), nodes[30:90].tolist()
        params = DHTParams.dht_lambda(0.2)

        ctx = make_context(graph, left, right, params=params, d=8)
        ranking = rank_pairs(dht_scores(graph, params, 8), left, right)

        def forbidden(self, *args):
            raise AssertionError("full-width score finalise on the cold path")

        monkeypatch.setattr(WalkState, "score_column", forbidden)
        monkeypatch.setattr(WalkState, "scores_matrix", forbidden)
        with byte_ceiling(ctx.engine, max_bytes):
            got = algorithm_cls(ctx).top_k(10)
        assert_top_k(as_ranked(got), ranking, 10)
