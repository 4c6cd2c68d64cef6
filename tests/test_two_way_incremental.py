"""Unit tests for the F structure and the incremental 2-way join."""

import numpy as np
import pytest

from repro.core.two_way.backward import BackwardBasicJoin, x_bound_factory
from repro.core.two_way.base import make_context, sort_pairs
from repro.core.two_way.incremental import FStructure, IncrementalTwoWayJoin
from repro.graph.validation import GraphValidationError


class TestFStructure:
    """The column store: ``update_column(q, level, scores, tail)`` with
    ``scores`` aligned with the structure's left set."""

    LEFT = [5, 2, 0]  # not sorted: ties break on the node id, not the slot

    def column(self, f, q, level, lowers, tail=0.0):
        f.update_column(q, level, np.array(lowers, dtype=np.float64), tail)

    def test_insert_and_peek_order(self):
        f = FStructure(self.LEFT)
        self.column(f, 11, 1, [0.1, 0.0, 0.3], tail=0.4)  # uppers .5 .4 .7
        self.column(f, 12, 1, [0.2, 0.1, 0.0], tail=0.7)  # uppers .9 .8 .7
        first, second = f.peek_top_two()
        # Runner-up from the best column itself ...
        assert (first.pair, second.pair) == ((5, 12), (2, 12))
        assert first.lower == 0.2 and first.upper == pytest.approx(0.9)
        self.column(f, 13, 1, [0.85, 0.0, 0.0])           # exact: tail 0
        first, second = f.peek_top_two()
        # ... or the next column's head, whichever bounds higher.
        assert (first.pair, second.pair) == ((5, 12), (5, 13))

    def test_update_requires_deeper_level(self):
        f = FStructure(self.LEFT)
        self.column(f, 1, 2, [0.1, 0.1, 0.1], tail=0.4)
        self.column(f, 1, 1, [0.4, 0.4, 0.4], tail=0.05)  # shallower: ignored
        assert f.get((5, 1)).upper == 0.5
        self.column(f, 1, 4, [0.42, 0.3, 0.2], tail=0.02)  # deeper: applied
        entry = f.get((5, 1))
        assert entry.upper == 0.42 + 0.02
        assert (entry.lower, entry.level) == (0.42, 4)
        assert f.peek_top_two()[0].pair == (5, 1)

    def test_lazy_deletion(self):
        f = FStructure([0])
        self.column(f, 1, 1, [0.1], tail=0.8)
        self.column(f, 2, 1, [0.1], tail=0.7)
        f.remove((0, 1))
        assert (0, 1) not in f
        first, second = f.peek_top_two()
        assert first.pair == (0, 2)
        assert second is None

    def test_update_after_remove_reinserts(self):
        # A removed (emitted) pair stays out of a later, deeper walk of
        # its column; the column's other entries are re-ranked.
        f = FStructure(self.LEFT)
        self.column(f, 1, 1, [0.3, 0.2, 0.1], tail=0.5)
        f.remove((5, 1))
        f.remove((0, 9))  # before column 9 exists
        self.column(f, 1, 2, [0.35, 0.2, 0.25], tail=0.1)
        self.column(f, 9, 1, [0.1, 0.1, 0.9])
        assert (5, 1) not in f and (0, 9) not in f
        first, second = f.peek_top_two()
        assert (first.pair, second.pair) == ((0, 1), (2, 1))
        assert len(f) == 4

    def test_tie_break_on_upper(self):
        f = FStructure(self.LEFT)
        # Distinct scores that round to equal uppers tie on (p, q).
        self.column(f, 9, 1, [0.5, 0.0, 0.0])
        self.column(f, 1, 1, [0.1, 0.25, 0.0], tail=0.25)
        first, second = f.peek_top_two()
        assert first.upper == second.upper == 0.5
        assert (first.pair, second.pair) == ((2, 1), (5, 9))

    def test_len_and_contains(self):
        f = FStructure([1, 2])
        assert len(f) == 0
        self.column(f, 2, 1, [0.0, 1.0])
        assert len(f) == 1  # the reflexive (2, 2) is never an entry
        assert (1, 2) in f
        assert (2, 2) not in f and (7, 2) not in f and (1, 3) not in f

    def test_empty_peek(self):
        assert FStructure([0]).peek_top_two() == (None, None)


class TestIncrementalJoin:
    def full_reference(self, graph, left, right, params, d):
        ctx = make_context(graph, left, right, params=params, d=d)
        return sort_pairs(BackwardBasicJoin(ctx).all_pairs())

    def drain(self, join, prefix):
        stream = list(prefix)
        while True:
            item = join.next_pair()
            if item is None:
                return stream
            stream.append(item)

    @pytest.mark.parametrize("m", [0, 1, 5, 17, 1000])
    def test_stream_equals_sorted_full_join(self, random_graph, params, m):
        left, right = list(range(7)), list(range(25, 33))
        reference = self.full_reference(random_graph, left, right, params, 8)
        join = IncrementalTwoWayJoin(
            make_context(random_graph, left, right, params=params, d=8)
        )
        stream = self.drain(join, join.top(m))
        assert len(stream) == len(reference)
        assert np.allclose(
            [p.score for p in stream], [p.score for p in reference]
        )
        assert {(p.left, p.right) for p in stream} == {
            (p.left, p.right) for p in reference
        }

    def test_stream_on_directed_graph(self, random_digraph, params):
        left, right = list(range(6)), list(range(12, 20))
        reference = self.full_reference(random_digraph, left, right, params, 6)
        join = IncrementalTwoWayJoin(
            make_context(random_digraph, left, right, params=params, d=6)
        )
        stream = self.drain(join, join.top(3))
        assert np.allclose(
            [p.score for p in stream], [p.score for p in reference]
        )

    def test_x_bound_flavour(self, random_graph, params):
        left, right = list(range(5)), list(range(20, 26))
        reference = self.full_reference(random_graph, left, right, params, 8)
        join = IncrementalTwoWayJoin(
            make_context(random_graph, left, right, params=params, d=8),
            bound_factory=x_bound_factory,
        )
        stream = self.drain(join, join.top(4))
        assert np.allclose(
            [p.score for p in stream], [p.score for p in reference]
        )

    def test_emitted_scores_are_exact(self, random_graph, params):
        # Every emitted score must equal the full-depth h_d, not a bound.
        left, right = list(range(5)), list(range(20, 26))
        reference = {
            (p.left, p.right): p.score
            for p in self.full_reference(random_graph, left, right, params, 8)
        }
        join = IncrementalTwoWayJoin(
            make_context(random_graph, left, right, params=params, d=8)
        )
        for pair in self.drain(join, join.top(6)):
            assert pair.score == pytest.approx(reference[(pair.left, pair.right)])

    def test_recorder_retains_left_rows_only(
        self, random_graph, params, monkeypatch, byte_ceiling
    ):
        """``B-IDJ``'s bounded-memory promise (live walk memory
        ``O(max_bytes + |P||Q|)``) holds with ``PJ-i``'s observer
        attached: the recorder owns one ``|Q| x |P|`` array of its own
        and copies each observed block into it — it keeps no walk block,
        no full-graph vector and no view pinning one — and ``F``'s
        columns are rows of that array."""
        from repro.core.two_way import incremental

        recorders = []

        class Spy(incremental._FRecorder):
            def __init__(self, context):
                super().__init__(context)
                self.seen = []
                recorders.append(self)

            def observe(self, targets, level, block, tails):
                self.seen.append(block)
                super().observe(targets, level, block, tails)

        monkeypatch.setattr(incremental, "_FRecorder", Spy)
        left, right = list(range(6)), list(range(15, 35))
        n = random_graph.num_nodes
        ctx = make_context(random_graph, left, right, params=params, d=8)
        join = IncrementalTwoWayJoin(ctx)
        with byte_ceiling(ctx.engine, 16 * n * 4):
            prefix = join.top(5)
        assert len(prefix) == 5
        (recorder,) = recorders
        assert recorder.scores.shape == (len(right), len(left))
        assert recorder.scores.base is None  # owns its |Q| x |P| floats
        assert (recorder.levels > 0).all()   # every target was observed
        held = [
            value for value in vars(recorder).values()
            if isinstance(value, np.ndarray)
        ]
        assert sum(a.size for a in held) <= len(right) * (len(left) + 2)
        for block in recorder.seen:
            assert block.shape[0] == len(left)  # left rows, never n
            assert not any(np.shares_memory(block, a) for a in held)
        for column in join._f._columns.values():
            assert column.scores.shape == (len(left),)
            assert column.scores.base is recorder.scores
        # And the stream built from them is still the sorted join.
        full = sort_pairs(BackwardBasicJoin(ctx).all_pairs())
        rest = [join.next_pair() for _ in range(4)]
        assert [(p.left, p.right) for p in prefix + rest] == [
            (p.left, p.right) for p in full[:9]
        ]

    def test_top_twice_rejected(self, path4, params):
        join = IncrementalTwoWayJoin(make_context(path4, [0], [3], params=params, d=4))
        join.top(1)
        with pytest.raises(GraphValidationError, match="once"):
            join.top(1)

    def test_next_before_top_rejected(self, path4, params):
        join = IncrementalTwoWayJoin(make_context(path4, [0], [3], params=params, d=4))
        with pytest.raises(GraphValidationError, match="top"):
            join.next_pair()

    def test_negative_m_rejected(self, path4, params):
        join = IncrementalTwoWayJoin(make_context(path4, [0], [3], params=params, d=4))
        with pytest.raises(GraphValidationError):
            join.top(-1)

    def test_exhaustion_returns_none_forever(self, path4, params):
        join = IncrementalTwoWayJoin(
            make_context(path4, [0, 1], [2, 3], params=params, d=4)
        )
        stream = self.drain(join, join.top(2))
        assert len({pair[:2] for pair in stream}) == len(stream) == 4
        assert join.next_pair() is None
        assert join.next_pair() is None

    def test_d_equal_one(self, random_graph, params):
        # Degenerate depth: no refinement rounds possible.
        left, right = list(range(4)), list(range(20, 25))
        reference = self.full_reference(random_graph, left, right, params, 1)
        join = IncrementalTwoWayJoin(
            make_context(random_graph, left, right, params=params, d=1)
        )
        stream = self.drain(join, join.top(2))
        assert np.allclose(
            [p.score for p in stream], [p.score for p in reference]
        )
