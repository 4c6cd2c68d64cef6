"""The runtime lock-order sanitizer, unit-tested on synthetic
schedules and smoke-tested on the real cache/engine stack.

The concurrency battery (``tests/test_service_concurrency.py``) is
where the sanitizer earns its keep; here we prove the detector itself:
a two-lock cycle is caught from a purely sequential schedule (the order
graph needs conflicting *edges*, not an actual interleaving), re-entrant
RLock use records no edge, same-identity/different-object inversions
surface as self-loops, and a lock held across engine propagation
outside the documented cold-path set is flagged.
"""

import threading

import numpy as np
import pytest

from repro.analysis.lockorder import (
    DEFAULT_PROPAGATION_ALLOWED,
    LockOrderError,
)
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine


class TestCycleDetection:
    def test_synthetic_two_lock_cycle_is_detected(self, lock_sanitizer):
        a = lock_sanitizer.wrap(threading.Lock(), "A._lock")
        b = lock_sanitizer.wrap(threading.Lock(), "B._lock")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        cycle = lock_sanitizer.find_cycle()
        assert cycle is not None
        assert set(cycle) == {"A._lock", "B._lock"}
        with pytest.raises(LockOrderError, match="cycle"):
            lock_sanitizer.assert_clean()

    def test_consistent_order_is_clean(self, lock_sanitizer):
        a = lock_sanitizer.wrap(threading.Lock(), "A._lock")
        b = lock_sanitizer.wrap(threading.Lock(), "B._lock")
        for _ in range(3):
            with a:
                with b:
                    pass
        report = lock_sanitizer.assert_clean()
        assert report["cycle"] is None
        assert report["edges"] == {("A._lock", "B._lock"): 3}

    def test_reentrant_rlock_records_no_edge(self, lock_sanitizer):
        lock = lock_sanitizer.wrap(threading.RLock(), "WalkCache._lock")
        with lock:
            with lock:  # the documented evict-inside-scores pattern
                pass
        assert lock_sanitizer.edges() == {}
        lock_sanitizer.assert_clean()

    def test_same_identity_different_objects_is_a_self_loop(
        self, lock_sanitizer
    ):
        """Two instances of one class crossed in opposite orders is a
        real deadlock risk; identity-by-name makes it a self-loop."""
        first = lock_sanitizer.wrap(threading.Lock(), "WalkCache._lock")
        second = lock_sanitizer.wrap(threading.Lock(), "WalkCache._lock")
        with first:
            with second:
                pass
        assert lock_sanitizer.find_cycle() == [
            "WalkCache._lock", "WalkCache._lock"
        ]

    def test_cross_thread_edges_merge_into_one_graph(self, lock_sanitizer):
        a = lock_sanitizer.wrap(threading.Lock(), "A._lock")
        b = lock_sanitizer.wrap(threading.Lock(), "B._lock")

        def inverted():
            with b:
                with a:
                    pass

        with a:
            with b:
                pass
        worker = threading.Thread(target=inverted)
        worker.start()
        worker.join()
        assert lock_sanitizer.find_cycle() is not None

    def test_held_stacks_are_per_thread(self, lock_sanitizer):
        lock = lock_sanitizer.wrap(threading.Lock(), "A._lock")
        seen = []

        def observer():
            seen.append(lock_sanitizer.held_names())

        with lock:
            assert lock_sanitizer.held_names() == ("A._lock",)
            worker = threading.Thread(target=observer)
            worker.start()
            worker.join()
        assert seen == [()]
        assert lock_sanitizer.held_names() == ()


class TestPropagationHolds:
    def test_lock_held_across_propagation_is_flagged(
        self, lock_sanitizer, random_graph
    ):
        engine = WalkEngine(random_graph)
        lock_sanitizer.instrument_engine(engine)
        rogue = lock_sanitizer.wrap(threading.Lock(), "Rogue._lock")
        with rogue:
            engine.backward_first_hit_series(0, 3)
        holds = lock_sanitizer.propagation_holds()
        assert holds == {("Rogue._lock", "backward_first_hit_series"): 1}
        with pytest.raises(LockOrderError, match="Rogue._lock"):
            lock_sanitizer.assert_clean()
        lock_sanitizer.assert_clean(
            allowed=DEFAULT_PROPAGATION_ALLOWED | {"Rogue._lock"}
        )

    def test_documented_cold_path_holds_are_allowed(
        self, lock_sanitizer, random_graph, params
    ):
        """A cold WalkCache.scores() walks under its own lock — the
        documented exception must pass assert_clean unmodified."""
        engine = WalkEngine(random_graph)
        cache = WalkCache(engine, params)
        wrapped = lock_sanitizer.instrument_engine(engine)
        wrapped += lock_sanitizer.instrument(cache)
        assert "WalkCache._lock" in wrapped
        assert "WalkEngineStats._lock" in wrapped
        cache.scores(3, 4)  # cold miss: propagation under the lock
        assert any(
            name == "WalkCache._lock"
            for name, _ in lock_sanitizer.propagation_holds()
        )
        report = lock_sanitizer.assert_clean()
        assert report["cycle"] is None


class TestInstrumentation:
    def test_instrumented_cache_stays_bit_identical(
        self, lock_sanitizer, random_graph, params
    ):
        engine = WalkEngine(random_graph)
        reference = WalkCache(WalkEngine(random_graph), params)
        cache = WalkCache(engine, params)
        lock_sanitizer.instrument_engine(engine)
        lock_sanitizer.instrument(cache)
        for target, level in [(0, 3), (5, 2), (0, 3), (7, 6)]:
            got = cache.scores(target, level)
            assert np.array_equal(got, reference.scores(target, level))
        lock_sanitizer.assert_clean()

    def test_instrument_finds_slotted_locks(self, lock_sanitizer,
                                            random_graph):
        engine = WalkEngine(random_graph)
        wrapped = lock_sanitizer.instrument(engine.stats)
        assert wrapped == ["WalkEngineStats._lock"]

    def test_wrap_is_idempotent(self, lock_sanitizer):
        lock = lock_sanitizer.wrap(threading.Lock(), "A._lock")
        assert lock_sanitizer.wrap(lock, "A._lock") is lock
