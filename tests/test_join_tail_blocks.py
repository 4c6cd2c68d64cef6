"""The block-shaped tail of the backward joins.

After the walk, the joins stay in blocks: ``TwoWayContext.top_pairs``
picks the k winners straight from the ``(|P|, B)`` left-row blocks,
``FStructure`` keeps ``F`` a column per right node with one heap record
each, and the walk cache is triaged (``peek_block``) and fed
(``put_block``) a group of targets at a time.  Each of those replaced a
per-pair or per-target loop; these tests pin them to what the loops
computed — as *sequences*, ties included — and pin the object counts
that make the change a property rather than a wall-clock observation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dht import DHTParams
from repro.core.two_way import backward, base
from repro.core.two_way.backward import BackwardBasicJoin, BackwardIDJY
from repro.core.two_way.base import ScoredPair, make_context, sort_pairs
from repro.core.two_way.incremental import FStructure, IncrementalTwoWayJoin
from repro.extensions.measures import TruncatedPPR
from repro.extensions.series_join import (
    SeriesBackwardJoin,
    make_series_context,
    series_bound,
)
from repro.graph.builders import erdos_renyi
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine
from repro.walks.kernels import DHTBlockKernel
from repro.walks.state import WalkState

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NUM_NODES = 40
GRAPH = erdos_renyi(NUM_NODES, 0.12, np.random.default_rng(11), weighted=True)
KERNEL = DHTBlockKernel(alpha=0.7, beta=-0.3, decay=0.4)

node_lists = st.lists(
    st.integers(0, NUM_NODES - 1), min_size=1, max_size=7, unique=True
)


# ---------------------------------------------------------------------------
# Selection from left-row blocks


@st.composite
def scored_blocks(draw):
    """A context whose sets overlap, and every right node scored in
    several blocks whose column order is not the context's target order;
    at most three distinct score values, so ties are the common case."""
    left = draw(node_lists)
    right = draw(node_lists)
    right = list(dict.fromkeys(right + [draw(st.sampled_from(left))]))
    ctx = make_context(GRAPH, left, right, d=2)
    columns = draw(st.permutations(ctx.right))
    cuts = sorted(draw(st.lists(st.integers(0, len(columns)), max_size=3)))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    blocks = []
    for start, end in zip([0] + cuts, cuts + [len(columns)]):
        if start < end:
            block = np.array(
                draw(st.lists(
                    st.lists(st.sampled_from(values), min_size=end - start,
                             max_size=end - start),
                    min_size=len(ctx.left), max_size=len(ctx.left),
                )),
                dtype=np.float64,
            )
            blocks.append((list(columns[start:end]), block))
    return ctx, blocks


class TestTopPairs:
    @SETTINGS
    @given(case=scored_blocks(), data=st.data())
    def test_equals_sorted_prefix_as_a_sequence(self, case, data):
        ctx, blocks = case
        every = [
            ScoredPair(p, q, float(block[i, j]))
            for targets, block in blocks
            for j, q in enumerate(targets)
            for i, p in enumerate(ctx.left)
            if p != q
        ]
        assert len(every) == ctx.num_pairs
        reference = sort_pairs(every)
        some = data.draw(st.integers(1, len(every) + 3)) if every else 1
        for k in (1, some, len(every), len(every) + 5, None):
            assert ctx.top_pairs(blocks, k) == reference[:k]
        assert ctx.top_pairs(blocks, 0) == []
        assert ctx.top_pairs([], 3) == []


# ---------------------------------------------------------------------------
# The column store against a brute-force F


class BruteF:
    """The per-pair ``F`` the column store replaced: a dict of live
    entries, the top two found by ``min`` over ``(-upper, p, q)``."""

    def __init__(self, left):
        self.left = list(left)
        self.entries = {}  # (p, q) -> (lower, upper, level)
        self.levels = {}
        self.removed = set()

    def update_column(self, q, level, scores, tail):
        if self.levels.get(q, 0) >= level:
            return
        self.levels[q] = level
        for p, score in zip(self.left, scores.tolist()):
            if p != q and (p, q) not in self.removed:
                self.entries[(p, q)] = (score, score + tail, level)

    def remove(self, pair):
        self.removed.add(pair)
        self.entries.pop(pair, None)

    def top_two(self):
        rest = dict(self.entries)
        found = []
        while rest and len(found) < 2:
            pair = min(rest, key=lambda pq: (-rest[pq][1], pq[0], pq[1]))
            found.append((pair, *rest.pop(pair)))
        return found + [None] * (2 - len(found))


# 0.25 and its successor are distinct scores that a tail of 1.0 rounds
# to the same upper bound: order inside a column is by the rounded value.
SCORES = [0.25, 0.25 + 2.0 ** -54, 0.5, 0.0]
TAILS = [0.0, 0.5, 1.0]


@st.composite
def f_scripts(draw):
    left = draw(node_lists)
    rights = draw(st.lists(st.integers(0, NUM_NODES - 1), min_size=1,
                           max_size=4, unique=True))
    column = st.tuples(
        st.just("column"), st.sampled_from(rights), st.integers(1, 4),
        st.lists(st.sampled_from(SCORES), min_size=len(left), max_size=len(left)),
        st.sampled_from(TAILS),
    )
    drop = st.tuples(st.just("drop"), st.sampled_from(left), st.sampled_from(rights))
    return left, draw(st.lists(
        st.one_of(column, st.just(("pop",)), drop), min_size=1, max_size=25
    ))


class TestColumnStore:
    def test_rounding_makes_the_tie(self):
        assert SCORES[0] != SCORES[1] and SCORES[0] + 1.0 == SCORES[1] + 1.0

    @SETTINGS
    @given(script=f_scripts())
    def test_matches_brute_force(self, script):
        left, ops = script
        f, brute = FStructure(left), BruteF(left)
        for op in ops:
            if op[0] == "column":
                _, q, level, scores, tail = op
                # Deeper and shallower re-walks both occur: levels are
                # drawn independently of what the column already holds.
                f.update_column(q, level, np.array(scores), tail)
                brute.update_column(q, level, np.array(scores), tail)
            elif op[0] == "drop":
                f.remove(op[1:])
                brute.remove(op[1:])
            else:  # emit the head, as next_pair does
                head = f.peek_top_two()[0]
                if head is not None:
                    f.remove(head.pair)
                    brute.remove(head.pair)
            got = [None if e is None else tuple(e) for e in f.peek_top_two()]
            assert got == brute.top_two()
            assert len(f) == len(brute.entries)
            assert all(pair in f for pair in brute.entries)
            assert not any(pair in f for pair in brute.removed)


# ---------------------------------------------------------------------------
# The incremental stream end to end


def _dht_join(left, right, engine):
    params = DHTParams.dht_lambda(0.2)
    return make_context(
        GRAPH, left, right, params=params, d=6, engine=engine,
        walk_cache=WalkCache(engine, params),
    )


def _ppr_join(left, right, engine):
    measure = TruncatedPPR(damping=0.7)
    return make_series_context(
        GRAPH, measure, left, right, engine=engine,
        walk_cache=WalkCache(engine, measure.cache_key()),
    )


class TestIncrementalStream:
    LEFT = [0, 3, 5, 7, 9, 11]
    RIGHT = [5, 9, 20, 21, 0, 22, 23]  # overlaps the left set

    @pytest.mark.parametrize("m", ["none", "one", "all"])
    @pytest.mark.parametrize("measure", ["dht", "ppr"])
    def test_top_then_drain_is_the_sorted_join(self, measure, m):
        engine = WalkEngine(GRAPH)
        if measure == "dht":
            ctx = _dht_join(self.LEFT, self.RIGHT, engine)
            full = BackwardBasicJoin(ctx).all_pairs()
            join = IncrementalTwoWayJoin(_dht_join(self.LEFT, self.RIGHT, engine))
        else:
            ctx = _ppr_join(self.LEFT, self.RIGHT, engine)
            full = SeriesBackwardJoin.from_context(ctx).all_pairs()
            join = IncrementalTwoWayJoin(
                _ppr_join(self.LEFT, self.RIGHT, engine), bound_factory=series_bound
            )
        reference = sort_pairs(full)
        assert len(reference) == ctx.num_pairs == 6 * 7 - 3
        stream = join.top({"none": 0, "one": 1, "all": len(reference)}[m])
        while (pair := join.next_pair()) is not None:
            stream.append(pair)
        assert stream == reference
        assert join.pairs_remaining == 0


# ---------------------------------------------------------------------------
# Block triage and donation against the per-target calls


def _effects(cache):
    return (
        cache.stats.hits, cache.stats.misses, cache.stats.evictions,
        list(cache._entries), cache.current_bytes,
    )


@st.composite
def cache_scripts(draw):
    """Interleaved group lookups and group donations over a few targets
    and levels, under an LRU bound that makes most scripts evict."""
    group = st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True)
    steps = draw(st.lists(
        st.tuples(st.sampled_from(["peek", "put"]), group, st.integers(1, 3)),
        min_size=1, max_size=12,
    ))
    pressure = draw(st.sampled_from([
        {"max_targets": 2}, {"max_targets": 4},
        {"max_bytes": 8 * NUM_NODES * 3}, {"max_bytes": 8 * NUM_NODES * 6},
    ]))
    return steps, pressure


class TestCacheBlocks:
    @SETTINGS
    @given(script=cache_scripts(), rows=node_lists)
    def test_block_calls_equal_the_per_target_calls(self, script, rows):
        steps, pressure = script
        rows = np.asarray(rows, dtype=np.int64)
        single = WalkCache(WalkEngine(GRAPH), KERNEL, **pressure)
        blocked = WalkCache(WalkEngine(GRAPH), KERNEL, **pressure)
        for op, targets, level in steps:
            if op == "put":
                state = WalkState(single.engine, KERNEL, targets).advance_to(level)
                for j, q in enumerate(targets):
                    single.put_scores(q, level, state.score_column(j))
                blocked.put_block(
                    targets, level, map(state.score_column, range(len(targets)))
                )
            else:
                reads = [single.peek(q, level, rows) for q in targets]
                hits, block, misses = blocked.peek_block(targets, level, rows)
                assert hits == [q for q, r in zip(targets, reads) if r is not None]
                assert misses == [q for q, r in zip(targets, reads) if r is None]
                if hits:
                    assert block.shape == (rows.size, len(hits))
                    assert block.flags.writeable
                    assert np.array_equal(
                        block, np.stack([r for r in reads if r is not None], axis=1)
                    )
                else:
                    assert block is None
            assert _effects(single) == _effects(blocked)
            if "max_bytes" in pressure:
                assert blocked.current_bytes <= pressure["max_bytes"]

    def test_put_block_rejects_everything_or_nothing(self):
        cache = WalkCache(WalkEngine(GRAPH), KERNEL)
        good = np.zeros(NUM_NODES)
        with pytest.raises(ValueError):
            cache.put_block([1, 2], 3, [good, np.zeros(NUM_NODES - 1)])
        assert len(cache) == 0 and cache.current_bytes == 0


# ---------------------------------------------------------------------------
# Object counts: the property, not the stopwatch


@pytest.fixture
def built_pairs(monkeypatch):
    """Every ``ScoredPair`` the two-way layer constructs, counted."""
    built = []

    def counting(left, right, score):
        pair = ScoredPair(left, right, score)
        built.append(pair)
        return pair

    monkeypatch.setattr(base, "ScoredPair", counting)
    monkeypatch.setattr(backward, "ScoredPair", counting)
    return built


class TestCounts:
    LEFT = list(range(8))
    RIGHT = list(range(4, 16))  # 8 * 12 - 4 = 92 pairs

    @pytest.mark.parametrize("k", [1, 7, 92, 500])
    @pytest.mark.parametrize("with_cache", [False, True])
    @pytest.mark.parametrize("algorithm", [BackwardIDJY, BackwardBasicJoin])
    def test_top_k_builds_only_the_winners(
        self, algorithm, with_cache, k, built_pairs, params
    ):
        engine = WalkEngine(GRAPH)
        ctx = make_context(
            GRAPH, self.LEFT, self.RIGHT, params=params, d=6, engine=engine,
            walk_cache=WalkCache(engine, params) if with_cache else None,
        )
        assert ctx.num_pairs == 92
        result = algorithm(ctx).top_k(k)
        assert len(result) == len(built_pairs) == min(k, 92)

    def test_all_pairs_still_builds_every_pair(self, built_pairs, params):
        ctx = make_context(GRAPH, self.LEFT, self.RIGHT, params=params, d=6)
        assert len(BackwardBasicJoin(ctx).all_pairs()) == len(built_pairs) == 92

    @pytest.mark.parametrize("m", [0, 5, 40])
    def test_f_heap_holds_columns_not_pairs(self, m, params):
        ctx = make_context(GRAPH, self.LEFT, self.RIGHT, params=params, d=8)
        join = IncrementalTwoWayJoin(ctx)
        heap = join._f._heap
        join.top(m)
        assert 0 < len(heap) <= len(self.RIGHT)
        growth = []
        for name in ("_refine", "_emit"):
            inner = getattr(join, name)

            def counted(*args, inner=inner):
                before = len(heap)
                out = inner(*args)
                growth.append(len(heap) - before)
                return out

            setattr(join, name, counted)
        emitted = m
        while join.next_pair() is not None:
            emitted += 1
        assert emitted == 92 and growth
        # peek_top_two only ever discards stale records in between.
        assert max(growth) <= 1
