"""Unit tests for the F structure and the incremental 2-way join."""

import numpy as np
import pytest

from repro.core.two_way.backward import BackwardBasicJoin, x_bound_factory
from repro.core.two_way.base import make_context, sort_pairs
from repro.core.two_way.incremental import FStructure, IncrementalTwoWayJoin
from repro.graph.validation import GraphValidationError


class TestFStructure:
    def test_insert_and_peek_order(self):
        f = FStructure()
        f.update((0, 1), lower=0.1, upper=0.5, level=1)
        f.update((0, 2), lower=0.2, upper=0.9, level=1)
        f.update((0, 3), lower=0.1, upper=0.7, level=1)
        first, second = f.peek_top_two()
        assert first.pair == (0, 2)
        assert second.pair == (0, 3)

    def test_update_requires_deeper_level(self):
        f = FStructure()
        f.update((0, 1), lower=0.1, upper=0.5, level=2)
        f.update((0, 1), lower=0.4, upper=0.45, level=1)  # shallower: ignored
        assert f.get((0, 1)).upper == 0.5
        f.update((0, 1), lower=0.42, upper=0.44, level=4)  # deeper: applied
        assert f.get((0, 1)).upper == 0.44
        assert f.get((0, 1)).level == 4

    def test_lazy_deletion(self):
        f = FStructure()
        f.update((0, 1), 0.1, 0.9, 1)
        f.update((0, 2), 0.1, 0.8, 1)
        f.remove((0, 1))
        assert (0, 1) not in f
        first, second = f.peek_top_two()
        assert first.pair == (0, 2)
        assert second is None

    def test_update_after_remove_reinserts(self):
        f = FStructure()
        f.update((0, 1), 0.1, 0.9, 2)
        f.remove((0, 1))
        f.update((0, 1), 0.2, 0.7, 1)  # level restriction resets after remove
        assert f.get((0, 1)).upper == 0.7

    def test_tie_break_on_upper(self):
        f = FStructure()
        f.update((5, 1), 0.1, 0.5, 1)
        f.update((2, 9), 0.1, 0.5, 1)
        first, second = f.peek_top_two()
        assert first.pair == (2, 9)
        assert second.pair == (5, 1)

    def test_len_and_contains(self):
        f = FStructure()
        assert len(f) == 0
        f.update((1, 2), 0.0, 1.0, 1)
        assert len(f) == 1
        assert (1, 2) in f

    def test_empty_peek(self):
        assert FStructure().peek_top_two() == (None, None)


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

    def test_recorder_retains_left_rows_only(self, random_graph, params, monkeypatch):
        """``B-IDJ``'s bounded-memory promise (live walk memory
        ``O(max_block_bytes + |P||Q|)``) holds with ``PJ-i``'s observer
        attached: what the recorder keeps per target is ``|P|`` floats
        of its own, never a full-graph vector or a view pinning one."""
        from repro.core.two_way import incremental

        recorders = []

        class Spy(incremental._FRecorder):
            def __init__(self):
                super().__init__()
                recorders.append(self)

        monkeypatch.setattr(incremental, "_FRecorder", Spy)
        left, right = list(range(6)), list(range(15, 35))
        n = random_graph.num_nodes
        ctx = make_context(
            random_graph, left, right, params=params, d=8,
            max_block_bytes=16 * n * 4,
        )
        join = IncrementalTwoWayJoin(ctx)
        prefix = join.top(5)
        assert len(prefix) == 5
        (recorder,) = recorders
        assert sorted(recorder.latest) == right
        for _, scores, _ in recorder.latest.values():
            assert scores.shape == (len(left),)
            assert scores.base is None  # owns its |P| floats
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
        assert len(stream) == 4
        assert join.next_pair() is None
        assert join.next_pair() is None

    def test_pairs_remaining(self, path4, params):
        join = IncrementalTwoWayJoin(
            make_context(path4, [0, 1], [2, 3], params=params, d=4)
        )
        join.top(1)
        assert join.pairs_remaining == 3
        join.next_pair()
        assert join.pairs_remaining == 2

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
