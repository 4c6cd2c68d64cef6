"""Pin of the warm hit path: governor visits, faults and cache counters.

``tests/goldens/warm_hit_path.json`` was generated at the commit *before*
a triage pass over cached targets became one counted governor visit
(``engine.checkpoint("cache", count=len(targets))``) instead of one call
per target; every later edit of the hit path must reproduce it exactly.
A ``b-bj`` cell walks through the deepening rounds: it triages one
block of targets at a time and resumes the columns ``b-idj-y`` donated
(fewer steps, more visits), and the ``pj-i`` cell after it finds those
targets finished at full depth.
Each sequence shares one walk cache and one bound cache across warm
``b-idj-y`` / ``b-bj`` two-way joins and a ``pj-i`` chain, all governed
by a deadline no cell comes near, and records per cell

* ``stats.checkpoints`` — visits, not calls: a counted visit still
  charges ``len(targets)``;
* the walk cache's hit, miss and eviction deltas (LRU order decides
  which targets are hits once the cache is smaller than the working
  set);
* the answers at full float precision, and whether they are exact;
* under a ``FaultInjector`` armed at the ``"cache"`` site only, its
  ``fired`` log and ``checkpoints_seen`` — a counted visit must replay a
  fault schedule one visit at a time.

A separate test asserts the point of the counted visit: the number of
``ExecutionGovernor.checkpoint`` *calls* of a warm ``B-IDJ`` join does
not grow with ``|Q|``.  Regenerate deliberately with

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_warm_hit_path.py
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.bounds_cache import BoundPlanCache
from repro.core.dht import DHTParams
from repro.core.nway.query_graph import QueryGraph
from repro.exec.budget import PartialResult, QueryBudget
from repro.exec.faults import FaultInjector
from repro.exec.governor import ExecutionGovernor
from repro.graph.builders import preferential_attachment
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine

GOLDEN_PATH = Path(__file__).parent / "goldens" / "warm_hit_path.json"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

CELLS = ("b-idj-y", "b-bj", "pj-i")
# 256 holds every target of the sequence (pure hits once warm); 24 is
# smaller than one cell's working set, so eviction order shows.
CACHE_SIZES = (256, 24)
# "evict" clears the shared cache mid-join; "clock" jumps past the
# deadline, so the visit that fires it raises a budget stop.
ARMS = ("plain", "evict", "clock")
PASSES = 3  # one cold pass, then warm ones


def _graph():
    return preferential_attachment(300, 4, np.random.default_rng(11))


def _sets(num_nodes, sizes, seed=5):
    rng = np.random.default_rng(seed)
    drawn = rng.choice(num_nodes, sum(sizes), replace=False)
    out, start = [], 0
    for size in sizes:
        out.append(sorted(int(v) for v in drawn[start : start + size]))
        start += size
    return out


def _answers(result):
    rows = result.results
    if rows and hasattr(rows[0], "nodes"):
        return [[list(a.nodes), a.score, list(a.edge_scores)] for a in rows]
    return [[p.left, p.right, p.score] for p in rows]


def _run(cell, graph, engine, walk_cache, bound_cache, sets, injector=None):
    kwargs = dict(
        engine=engine,
        walk_cache=walk_cache,
        bound_cache=bound_cache,
        budget=QueryBudget(deadline_ms=60_000.0),
        fault_injector=injector,
    )
    if cell == "pj-i":
        return api.multi_way_join(
            graph, QueryGraph(3, ((0, 1), (1, 2))), sets, 5,
            algorithm="pj-i", m=10, plan="fixed", **kwargs,
        )
    return api.two_way_join(graph, sets[0], sets[1], 8, algorithm=cell, **kwargs)


def _sequence(max_targets, arm):
    """Every cell ``PASSES`` times on one engine and one pair of caches;
    the record of each ``(pass, cell)``."""
    graph = _graph()
    engine = WalkEngine(graph)
    params = DHTParams.dht_lambda()
    walk_cache = WalkCache(engine, params, max_targets=max_targets)
    bound_cache = BoundPlanCache(engine, params)
    sets = _sets(graph.num_nodes, (12, 20, 12))
    record = {}
    for rep in range(PASSES):
        for index, cell in enumerate(CELLS):
            injector = None
            if arm != "plain":
                injector = FaultInjector(
                    100 * rep + index, faults=(arm,), rate=0.2,
                    max_fires=None, sites=("cache",),
                )
            before = (
                engine.stats.checkpoints, walk_cache.stats.hits,
                walk_cache.stats.misses, walk_cache.stats.evictions,
            )
            result = _run(cell, graph, engine, walk_cache, bound_cache, sets,
                          injector)
            assert isinstance(result, PartialResult)
            entry = {
                "checkpoints": engine.stats.checkpoints - before[0],
                "hits": walk_cache.stats.hits - before[1],
                "misses": walk_cache.stats.misses - before[2],
                "evictions": walk_cache.stats.evictions - before[3],
                "answers": _answers(result),
                "exact": result.exact,
                "reason": result.reason,
            }
            if injector is not None:
                entry["fired"] = [list(f) for f in injector.fired]
                entry["checkpoints_seen"] = injector.checkpoints_seen
            record[f"{rep}/{cell}"] = entry
    return record


def _key(max_targets, arm):
    return f"{max_targets}/{arm}"


def _records():
    return {
        _key(size, arm): _sequence(size, arm)
        for size in CACHE_SIZES for arm in ARMS
    }


def _load_golden():
    assert GOLDEN_PATH.exists(), (
        f"missing golden {GOLDEN_PATH}; generate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden():
    if UPDATE:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(_records(), indent=1, sort_keys=True) + "\n"
        )
    return _load_golden()


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("max_targets", CACHE_SIZES)
def test_sequence_matches_pin(golden, max_targets, arm):
    got = json.loads(json.dumps(_sequence(max_targets, arm)))
    assert got == golden[_key(max_targets, arm)]


def test_pin_exercises_the_paths_it_guards(golden):
    """The pin is only worth its bytes if it covers warm hits, LRU
    evictions, fired cache-site faults and a budget stop."""
    warm = golden[_key(256, "plain")]
    assert all(
        warm[f"{rep}/{cell}"]["misses"] == 0
        for rep in range(1, PASSES) for cell in CELLS
    )
    assert sum(e["evictions"] for e in golden[_key(24, "plain")].values()) > 0
    for arm in ("evict", "clock"):
        faulted = [
            e for size in CACHE_SIZES for e in golden[_key(size, arm)].values()
        ]
        assert any(e["fired"] for e in faulted)
    assert not any(
        e["exact"] for e in golden[_key(256, "clock")].values() if e["fired"]
    )


def _governor_calls_per_warm_join(monkeypatch, algorithm, size):
    graph = _graph()
    engine = WalkEngine(graph)
    params = DHTParams.dht_lambda()
    walk_cache = WalkCache(engine, params)
    bound_cache = BoundPlanCache(engine, params)
    left, right = _sets(graph.num_nodes, (16, size), seed=size)
    calls = []
    original = ExecutionGovernor.checkpoint

    def counting(self, *args, **kwargs):
        calls.append(args[0] if args else kwargs["site"])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionGovernor, "checkpoint", counting)
    _run(algorithm, graph, engine, walk_cache, bound_cache, (left, right))
    misses = walk_cache.stats.misses
    calls.clear()
    result = _run(algorithm, graph, engine, walk_cache, bound_cache, (left, right))
    assert result.exact
    assert walk_cache.stats.misses == misses  # the warm join was all hits
    assert calls.count("cache") == len(calls) - calls.count("round")
    return len(calls)


def test_warm_idj_governor_calls_do_not_grow_with_targets(monkeypatch):
    small = _governor_calls_per_warm_join(monkeypatch, "b-idj-y", 8)
    large = _governor_calls_per_warm_join(monkeypatch, "b-idj-y", 64)
    assert small == large
