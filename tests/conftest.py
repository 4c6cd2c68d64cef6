"""Shared fixtures: small hand-checkable graphs and default parameters."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.core.dht import DHTParams
from repro.exec import ExecutionGovernor, QueryBudget
from repro.graph.builders import erdos_renyi, path_graph, random_directed
from repro.graph.digraph import Graph
from repro.walks import kernels


@pytest.fixture
def params():
    """The paper's default DHT configuration (lambda = 0.2)."""
    return DHTParams.dht_lambda(0.2)


@pytest.fixture
def params_e():
    """The DHT_e variant."""
    return DHTParams.dht_e()


@pytest.fixture
def path4():
    """Path 0 - 1 - 2 - 3 with unit weights."""
    return path_graph(4)


@pytest.fixture
def tiny_directed():
    """A 4-node directed weighted graph with asymmetric structure.

    Edges: 0->1 (w2), 0->2 (w1), 1->2 (w1), 2->3 (w1), 3->0 (w1).
    Hand-checkable transition probabilities:
    p(0,1)=2/3, p(0,2)=1/3, p(1,2)=1, p(2,3)=1, p(3,0)=1.
    """
    return Graph(4, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])


@pytest.fixture
def weighted_triangle():
    """Undirected triangle with distinct weights (0-1: 1, 1-2: 2, 0-2: 3)."""
    return Graph.from_undirected_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


@pytest.fixture
def random_graph():
    """A fixed mid-size random weighted undirected graph."""
    return erdos_renyi(40, 0.12, np.random.default_rng(11), weighted=True)


@pytest.fixture
def random_digraph():
    """A fixed random directed weighted graph (asymmetric DHT)."""
    return random_directed(25, 0.12, np.random.default_rng(5))


@pytest.fixture
def rng():
    """Deterministic random generator for tests."""
    return np.random.default_rng(123)


@pytest.fixture
def lock_sanitizer():
    """A fresh lock-order sanitizer (see repro.analysis.lockorder).

    Instrument the objects under test (``instrument``,
    ``instrument_engine``, ``instrument_service``) and finish with
    ``assert_clean()``; the concurrency battery wires it across the
    whole 8-worker service.
    """
    from repro.analysis.lockorder import LockOrderSanitizer

    return LockOrderSanitizer()


def _dense_paths():
    """Yield ``"split"`` then ``"serial"``, each with the dense walk step
    pinned to that path: work gate 0 cuts every product into row ranges
    for the helper threads (the ledger cleared of any service another
    test left open; one usable core still allows no helper), ``2**62``
    never does."""
    for name, gate in (("split", 0), ("serial", 2**62)):
        with mock.patch.multiple(kernels, SPLIT_GATE=gate, _service_workers=0):
            yield name


@pytest.fixture
def dense_paths():
    """``for path in dense_paths(): ...`` runs a check once on each path
    of the dense walk step, which must give bit-identical answers and
    counters (see ``_dense_paths``)."""
    return _dense_paths


@contextmanager
def _byte_ceiling(engine, max_bytes):
    """``engine`` under an installed governor whose only budget is the
    walk-block ceiling ``max_bytes`` (``None``: no governor at all)."""
    if max_bytes is None:
        yield None
        return
    governor = ExecutionGovernor(QueryBudget(max_bytes=max_bytes)).install(engine)
    try:
        yield governor
    finally:
        governor.uninstall()


@pytest.fixture
def byte_ceiling():
    """``with byte_ceiling(engine, max_bytes): ...`` runs joins on
    ``engine`` under the one walk-block ceiling,
    ``QueryBudget(max_bytes=max_bytes)``, which every block operator
    plans its width under when it runs."""
    return _byte_ceiling


_ABSENT = object()


def _moved(old, new) -> str:
    """How one golden value moved: scalars have a direction."""
    if old is _ABSENT or new is _ABSENT:
        return "added" if old is _ABSENT else "removed"
    number = (int, float)
    if isinstance(old, number) and isinstance(new, number):
        return "down" if new < old else "up"
    return "changed"


@pytest.fixture
def golden_audit(capsys):
    """Report what a deliberate golden regeneration moved.

    ``golden_audit(name, old_cells, new_cells)`` takes the cells of the
    file being replaced (empty when there was none) and of its
    replacement, both as ``{cell key: {field: value}}``, and prints — past
    pytest's capture, so a ``REPRO_UPDATE_GOLDENS=1`` run shows it — per
    field how many cells moved and in which direction.  The lines are
    what a PR that regenerates a golden quotes; they are also returned.
    """

    def audit(name, old_cells, new_cells):
        moved = Counter()
        for key in set(old_cells) | set(new_cells):
            old, new = old_cells.get(key, {}), new_cells.get(key, {})
            for field in set(old) | set(new):
                before, after = old.get(field, _ABSENT), new.get(field, _ABSENT)
                if before is _ABSENT or after is _ABSENT or before != after:
                    moved[field, _moved(before, after)] += 1
        lines = [f"golden {name}: {len(new_cells)} cells"]
        for field in sorted({field for field, _ in moved}):
            ways = {way: n for (f, way), n in sorted(moved.items()) if f == field}
            lines.append(
                f"  {field}: moved in {sum(ways.values())} cells ("
                + ", ".join(f"{n} {way}" for way, n in ways.items())
                + ")"
            )
        if not moved:
            lines.append("  nothing moved")
        with capsys.disabled():
            print("\n" + "\n".join(lines))
        return lines

    return audit
