"""Pin of the one execution path: every query runs under a governor.

``tests/goldens/one_path.json`` was generated at the commit *before*
unbudgeted queries ran under an installed
:class:`~repro.exec.governor.ExecutionGovernor` (when an unbudgeted
``two_way_join`` / ``multi_way_join`` still returned a bare list); the
single path must reproduce it exactly.  It covers every 2-way algorithm
(the five DHT ones, plus ``b-bj`` / ``b-idj-y`` under PPR, each without
and with a fresh walk cache) and every n-way algorithm (``nl`` / ``ap``
/ ``pj`` / ``pj-i`` on DHT, the last three under PPR too, with
``fixed`` and ``auto`` plans where planning applies), each unbudgeted
and under ``QueryBudget(deadline_ms=60_000)``, a deadline no cell comes
near.  Each cell records

* the answers at full float precision;
* ``propagation_steps``, ``bound_builds`` and ``budget_stops`` of the
  cell's fresh engine, and the walk cache's hits and misses;
* ``stats.checkpoints`` — on budgeted cells only: an unbudgeted query
  now runs under a governor too, so its checkpoints count where the
  file predates them, and the test checks only that they do;
* for budgeted ``nl``, the rejection message (``nl`` keeps no state a
  budget stop could report).

On top of the pin, every unbudgeted return must be an exact
:class:`~repro.exec.budget.PartialResult` with degenerate bounds, and an
unbudgeted query whose walk allocations fail at the one-column floor
comes back flagged ``reason="bytes"`` like a budgeted one (it used to
raise the ``MemoryError``).  Regenerate deliberately with

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_one_path.py
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.core.dht import DHTParams
from repro.core.nway.query_graph import QueryGraph
from repro.exec.budget import BudgetExhaustedError, PartialResult, QueryBudget
from repro.extensions.measures import TruncatedPPR
from repro.graph.builders import preferential_attachment
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine

GOLDEN_PATH = Path(__file__).parent / "goldens" / "one_path.json"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

GRAPH = preferential_attachment(300, 4, np.random.default_rng(11))
ARMS = ("unbudgeted", "budgeted")

TWO_WAY = [("dht", name) for name in ("f-bj", "f-idj", "b-bj", "b-idj-x", "b-idj-y")]
TWO_WAY += [("ppr", "b-bj"), ("ppr", "b-idj-y")]
CACHES = ("none", "fresh")
N_WAY = [("dht", "nl", "fixed")] + [
    (measure, strategy, plan)
    for measure in ("dht", "ppr")
    for strategy in ("ap", "pj", "pj-i")
    for plan in ("fixed", "auto")
]

CELLS = [
    f"two-way/{measure}/{name}/{cache}/{arm}"
    for measure, name in TWO_WAY for cache in CACHES for arm in ARMS
] + [
    f"n-way/{measure}/{strategy}/{plan}/{arm}"
    for measure, strategy, plan in N_WAY for arm in ARMS
]


def _sets(sizes, seed=5):
    rng = np.random.default_rng(seed)
    drawn = rng.choice(GRAPH.num_nodes, sum(sizes), replace=False)
    out, start = [], 0
    for size in sizes:
        out.append(sorted(int(v) for v in drawn[start : start + size]))
        start += size
    return out


def _config(measure_name):
    """``(params, measure)`` keyword arguments and the cache identity."""
    if measure_name == "dht":
        params = DHTParams.dht_lambda(0.2)
        return {"params": params}, params
    measure = TruncatedPPR(damping=0.85, epsilon=1e-4)
    return {"measure": measure}, measure.kernel()


def _run_cell(key):
    """``(result, record)`` of one cell on a fresh engine and caches."""
    kind, measure_name, name, variant, arm = key.split("/")
    engine = WalkEngine(GRAPH)
    config, identity = _config(measure_name)
    walk_cache = WalkCache(engine, identity)
    kwargs = dict(engine=engine, **config)
    if arm == "budgeted":
        kwargs["budget"] = QueryBudget(deadline_ms=60_000)
    try:
        if kind == "two-way":
            left, right = _sets((12, 20))
            if variant == "fresh":
                kwargs["walk_cache"] = walk_cache
            result = api.two_way_join(
                GRAPH, left, right, 8, algorithm=name, **kwargs
            )
        else:
            result = api.multi_way_join(
                GRAPH, QueryGraph.chain(3), _sets((6, 6, 6)), 6,
                algorithm=name, m=2, plan=variant, walk_cache=walk_cache,
                **kwargs,
            )
    except GraphValidationError as exc:
        return None, {"error": str(exc)}
    rows = list(result)
    if kind == "two-way":
        answers = [[p.left, p.right, p.score] for p in rows]
    else:
        answers = [[list(a.nodes), a.score, list(a.edge_scores)] for a in rows]
    stats = engine.stats
    record = {
        "answers": answers,
        "propagation_steps": int(stats.propagation_steps),
        "bound_builds": int(stats.bound_builds),
        "budget_stops": int(stats.budget_stops),
        "walk_cache_hits": walk_cache.stats.hits,
        "walk_cache_misses": walk_cache.stats.misses,
    }
    if arm == "budgeted":
        record["checkpoints"] = int(stats.checkpoints)
    else:
        assert stats.checkpoints > 0, key  # the governor every query runs under
    return result, record


def _load_golden():
    assert GOLDEN_PATH.exists(), (
        f"missing golden {GOLDEN_PATH}; generate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.skipif(not UPDATE, reason="golden regeneration only")
def test_regenerate_golden(golden_audit):
    replaced = _load_golden() if GOLDEN_PATH.exists() else {}
    payload = {key: _run_cell(key)[1] for key in CELLS}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    golden_audit(GOLDEN_PATH.name, replaced, _load_golden())


@pytest.mark.skipif(UPDATE, reason="goldens being regenerated")
@pytest.mark.parametrize("key", CELLS)
def test_cell_matches_golden(key, dense_paths):
    golden = _load_golden()[key]
    for path in dense_paths():
        result, record = _run_cell(key)
        if result is not None:
            # One return type: exact, with degenerate bounds, whether or
            # not the query had a budget.
            assert isinstance(result, PartialResult), path
            assert result.exact and result.reason is None, path
            assert result.bounds == [(r.score, r.score) for r in result], path
        # json round trip so tuples/lists and ints compare like the file's.
        assert json.loads(json.dumps(record)) == golden, path


def test_golden_covers_the_paths_it_guards():
    """Refills, cache hits, bound builds and the ``nl`` rejection all
    show in the file; no cell stopped on its budget."""
    if UPDATE and not GOLDEN_PATH.exists():
        pytest.skip("goldens being regenerated")
    cells = _load_golden()
    assert sorted(cells) == sorted(CELLS)
    assert "budget" in cells["n-way/dht/nl/fixed/budgeted"]["error"]
    assert "error" not in cells["n-way/dht/nl/fixed/unbudgeted"]
    records = [r for r in cells.values() if "error" not in r]
    assert all(r["budget_stops"] == 0 and r["answers"] for r in records)
    assert any(r["walk_cache_hits"] for r in records)
    assert any(r["bound_builds"] for r in records)
    assert cells["two-way/dht/b-bj/none/unbudgeted"]["walk_cache_misses"] == 0
    assert cells["two-way/dht/b-bj/fresh/unbudgeted"]["walk_cache_misses"] > 0


# -- an unbudgeted allocation failure is a flagged stop ---------------------


@pytest.fixture
def failing_walks(monkeypatch):
    """Every backward walk block fails its first allocation (step 1's
    column gather), so the adaptive backoff reaches its one-column
    floor and gives up."""

    def out_of_memory(self, targets):
        raise MemoryError("no memory for a walk block")

    monkeypatch.setattr(WalkEngine, "backward_onehot_step", out_of_memory)


def _unbudgeted(entry, engine, **kwargs):
    if entry == "two-way":
        left, right = _sets((12, 20))
        return api.two_way_join(GRAPH, left, right, 8, engine=engine, **kwargs)
    # One query edge: each stopped edge counts one stop.
    return api.multi_way_join(
        GRAPH, QueryGraph.chain(2), _sets((6, 6)), 6, engine=engine, **kwargs
    )


@pytest.mark.parametrize("entry", ["two-way", "n-way"])
def test_unbudgeted_memory_error_is_a_flagged_bytes_stop(entry, failing_walks):
    engine = WalkEngine(GRAPH)
    result = _unbudgeted(entry, engine)
    assert isinstance(result, PartialResult)
    assert not result.exact and result.reason == "bytes"
    assert engine.stats.budget_stops == 1


@pytest.mark.parametrize("entry", ["two-way", "n-way"])
def test_unbudgeted_memory_error_raises_under_error_policy(entry, failing_walks):
    engine = WalkEngine(GRAPH)
    with pytest.raises(BudgetExhaustedError) as info:
        _unbudgeted(entry, engine, on_budget="error")
    assert info.value.reason == "bytes"
    assert engine.stats.budget_stops == 1
