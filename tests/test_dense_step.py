"""The dense walk step: one owned, row-partitioned CSR x dense product.

:func:`repro.walks.kernels.dense_step` is the walk layer's only CSR x
dense product.  Whatever the number of row ranges it cuts a product
into, every entry must be bit-identical to ``T.dot`` — checked here
over random CSR shapes and every thread count from 1 to 4 (4 to 16
row ranges) — and the ledger must keep the helper threads off the
cores a :class:`~repro.service.QueryService` owns.
"""

import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.dht import DHTParams
from repro.graph.builders import preferential_attachment
from repro.service import QueryService, TwoWayRequest
from repro.walks import engine as engine_module
from repro.walks import kernels
from repro.walks.engine import WalkEngine
from repro.walks.rounds import DeepeningRounds
from repro.walks.state import WalkState

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PARAMS = DHTParams.dht_lambda(0.2)


def threads(count):
    """Patch the ledger so every product runs on ``count`` threads
    (``count`` cores, no service workers, the work gate open)."""
    return mock.patch.multiple(
        kernels, _CORES=count, _service_workers=0, SPLIT_GATE=0
    )


@st.composite
def products(draw):
    """A random CSR matrix (empty rows, all-zero ones and fewer rows
    than ranges included), a block to multiply and a stale buffer."""
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(1, 12))
    width = draw(st.sampled_from([1, 2, 3, 5]))
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = sp.random(
        rows, cols, density=density, format="csr", random_state=rng,
        data_rvs=lambda size: rng.standard_normal(size),
    )
    mass = rng.standard_normal((cols, width))
    stale = rng.choice([np.nan, np.inf, 7.0, -0.0], size=(rows, width))
    return matrix, mass, stale


class TestBitIdentity:
    @SETTINGS
    @given(product=products(), count=st.integers(1, 4))
    def test_equals_t_dot_on_every_thread_count(self, product, count):
        matrix, mass, stale = product
        expected = matrix.dot(mass)
        out = stale.copy()  # a reused buffer: its old contents must vanish
        with threads(count):
            got = kernels.dense_step(matrix, mass, out)
        assert got is out
        assert np.array_equal(out, expected)

    @SETTINGS
    @given(product=products(), count=st.integers(1, 4))
    def test_fold_equals_the_unsplit_prefix_update(self, product, count):
        matrix, mass, stale = product
        acc = np.arange(stale.size, dtype=np.float64).reshape(stale.shape)
        expected = acc.copy()
        expected += matrix.dot(mass) * 0.3
        with threads(count):
            kernels.dense_step(matrix, mass, stale.copy(), fold=(0.3, acc))
        assert np.array_equal(acc, expected)

    def test_wide_product_splits_into_balanced_ranges(self):
        graph = preferential_attachment(400, 3, np.random.default_rng(5))
        matrix = WalkEngine(graph)._transition
        mass = np.random.default_rng(6).random((400, 7))
        before = kernels._helper_submissions
        with threads(4):
            got = kernels.dense_step(matrix, mass)
        assert kernels._helper_submissions - before == 3
        assert np.array_equal(got, matrix.dot(mass))
        ranges = kernels._row_ranges(matrix.indptr, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 400
        loads = [matrix.indptr[hi] - matrix.indptr[lo] for lo, hi in ranges]
        assert max(loads) - min(loads) <= 2 * np.diff(matrix.indptr).max()

    @pytest.mark.parametrize("kind", ["fortran", "strided", "float32"])
    def test_unowned_inputs_take_the_t_dot_fallback(self, kind):
        rng = np.random.default_rng(3)
        matrix = sp.random(9, 18, density=0.4, format="csr", random_state=rng)
        base = rng.random((36, 4))
        mass = {
            "fortran": np.asfortranarray(base[:18]),
            "strided": base[::2],
            "float32": base[:18].astype(np.float32),
        }[kind]
        with threads(2), mock.patch.object(
            kernels, "_step_rows", side_effect=AssertionError("fast path")
        ):
            got = kernels.dense_step(matrix, mass)
        assert np.array_equal(got, matrix.dot(mass))


class TestHelperAndLedger:
    @pytest.fixture(scope="class")
    def graph(self):
        return preferential_attachment(600, 3, np.random.default_rng(9))

    def test_threads_on_one_engine_match_the_serial_walk(self, graph):
        """The helper is claimed by a non-blocking acquire: a contended
        step runs all of its ranges itself, and nothing changes.  Three
        threads (more than the two cores the ledger is given) step one
        shared engine with a short switch interval."""
        engine = WalkEngine(graph)
        blocks = [list(range(0, 40)), list(range(200, 240)), list(range(400, 433))]
        serial = [
            WalkState(engine, PARAMS, targets).advance_to(8).scores_matrix()
            for targets in blocks
        ]
        results = {}

        def walk(index):
            results[index] = [
                WalkState(engine, PARAMS, blocks[index]).advance_to(8).scores_matrix()
                for _ in range(6)
            ]

        before = kernels._helper_submissions
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with threads(2):
                walkers = [
                    threading.Thread(target=walk, args=(i,)) for i in range(3)
                ]
                for walker in walkers:
                    walker.start()
                for walker in walkers:
                    walker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(walker.is_alive() for walker in walkers)
        assert kernels._helper_submissions > before
        for index in range(3):
            assert len(results[index]) == 6
            for scores in results[index]:
                assert np.array_equal(scores, serial[index])

    def test_service_workers_leave_the_helper_idle(self, graph):
        cores = max(2, len(os.sched_getaffinity(0)))
        left, right = list(range(0, 30)), list(range(300, 340))
        with mock.patch.multiple(
            kernels, _CORES=cores, _service_workers=0, SPLIT_GATE=0
        ):
            before = kernels._helper_submissions
            with QueryService(graph, workers=cores) as service:
                tickets = [
                    service.submit(TwoWayRequest(left, right, k=5))
                    for _ in range(4)
                ]
                served = [ticket.result(timeout=60) for ticket in tickets]
            assert all(response.ok for response in served)
            assert kernels._helper_submissions == before
            assert kernels._service_workers == 0  # close() deregistered
            one_shot = api.two_way_join(
                graph, left, right, 5, algorithm="b-bj"
            )
            assert kernels._helper_submissions > before
        assert [(p, q) for p, q, _ in one_shot] == [
            (p, q) for p, q, _ in served[0].result.results
        ]


class TestOwnedOutput:
    N = 300

    @pytest.fixture
    def graph(self):
        return preferential_attachment(self.N, 3, np.random.default_rng(21))

    def _fail_claim_once(self, width):
        """``np.empty`` that raises ``MemoryError`` on the first claim of
        an ``(n, width)`` step buffer, and allocates normally otherwise."""
        real = np.empty
        fired = []

        def empty(shape, *args, **kwargs):
            if not fired and tuple(np.atleast_1d(shape)) == (self.N, width):
                fired.append(shape)
                raise MemoryError("injected")
            return real(shape, *args, **kwargs)

        return mock.patch.object(np, "empty", side_effect=empty), fired

    def test_failed_claim_leaves_the_block_untouched(self, graph):
        engine = WalkEngine(graph)
        targets = np.arange(5, dtype=np.int64)
        mass = np.random.default_rng(1).random((self.N, 5))
        before = mass.copy()
        patch, fired = self._fail_claim_once(5)
        with patch, pytest.raises(MemoryError):
            engine.backward_block_step(mass, targets, first=False)
        assert fired
        assert np.array_equal(mass, before)
        assert engine.stats.propagation_steps == 0

    def test_retried_rounds_walk_equals_an_unfailed_one(self, graph):
        targets = list(range(40, 56))
        rows = np.arange(0, 30, dtype=np.int64)

        def walk(engine):
            got = {}

            def consume(fed, block):
                for j, q in enumerate(fed):
                    got[q] = block[:, j].copy()

            rounds = DeepeningRounds(engine, PARAMS, None)
            for level in (1, 2, 4, 8):
                rounds.walk_level(targets, level, rows, consume)
            return got

        # Dense from step 2 on, so the first dense step claims a buffer.
        with mock.patch.object(engine_module, "FRONTIER_GATE", 2**40):
            clean = walk(WalkEngine(graph))
            engine = WalkEngine(graph)
            patch, fired = self._fail_claim_once(len(targets))
            with patch:
                retried = walk(engine)
        assert fired and engine.stats.alloc_retries == 1
        assert sorted(retried) == sorted(clean)
        for q in clean:
            assert np.array_equal(retried[q], clean[q]), q
