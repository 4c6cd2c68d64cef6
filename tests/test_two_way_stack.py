"""Pin of the backward two-way stack: answers and work counters, bit for bit.

``tests/goldens/two_way_stack.json`` was generated at the commit *before*
``Series-B-BJ`` / ``Series-IDJ`` became measure bindings of the one
``B-BJ`` / ``B-IDJ`` implementation in
:mod:`repro.core.two_way.backward`; the merge (and every later edit of
those loops) must reproduce it exactly.  Each cell builds the join the
way :func:`repro.api.two_way_join` does and records

* the answers at full float precision (JSON round-trips Python floats
  exactly; identical answer lists are stored once and referenced by
  index, so the file stays one line per cell);
* ``propagation_steps``, ``sparse_products``, ``bound_builds``,
  ``bound_cache_hits`` and ``peak_block_bytes`` of the cell's fresh
  engine, the join's ``pruning_trace``, and the walk cache's hit / miss /
  extension / steps-saved counters

over {``b-bj``, ``b-idj-x``, ``b-idj-y``} x {DHT params, ``DHTMeasure``,
PPR, SimRank} x {no walk cache, cold cache, a cache warmed by a ``k = 2``
run of the same algorithm} x {no byte budget, a 4-column byte budget} x
``k`` in {1, 10, all pairs} on a preferential-attachment and a weighted
Erdos-Renyi graph.  Regenerate deliberately with

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_two_way_stack.py
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from oracles import assert_top_k, rank_pairs, scores_for
from repro.core.dht import DHTParams
from repro.core.nway.driver import OPERATORS, two_way_operator
from repro.core.two_way.base import make_context
from repro.extensions.measures import DHTMeasure, TruncatedPPR
from repro.extensions.simrank import SimRankMeasure
from repro.graph.builders import erdos_renyi, preferential_attachment
from repro.graph.validation import GraphValidationError
from repro.walks.cache import WalkCache
from repro.walks.engine import WalkEngine

GOLDEN_PATH = Path(__file__).parent / "goldens" / "two_way_stack.json"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

GRAPHS = {
    "pa": preferential_attachment(300, 3, np.random.default_rng(14)),
    "er": erdos_renyi(240, 0.03, np.random.default_rng(41), weighted=True),
}
# One shared node, so every cell exercises the reflexive-pair exclusion;
# 18 targets span two default-width blocks and five 4-column ones.
LEFT = [3, 17, 42, 101, 150]
RIGHT = [150] + list(range(60, 77))
ALL_PAIRS = len(LEFT) * len(RIGHT) - 1

PARAMS = DHTParams.dht_lambda(0.2)
# Measures are value-configured, so cells share the instances (SimRank
# memoises its dense iterates per graph — one instance per graph).
_DHT_MEASURE = DHTMeasure()
_PPR = TruncatedPPR(damping=0.7)
_SIMRANK = {id(g): SimRankMeasure(iterations=4) for g in GRAPHS.values()}
MEASURES = {
    "dht": lambda graph: None,
    "dht-measure": lambda graph: _DHT_MEASURE,
    "ppr": lambda graph: _PPR,
    "simrank": lambda graph: _SIMRANK[id(graph)],
}

ALGORITHMS = ("b-bj", "b-idj-x", "b-idj-y")
CACHES = ("none", "cold", "warm")
CEILINGS = ("free", "4col")
KS = (1, 10, ALL_PAIRS)

CELLS = [
    (graph, algorithm, measure, cache, ceiling, k)
    for graph in GRAPHS
    for algorithm in ALGORITHMS
    for measure in MEASURES
    for cache in CACHES
    for ceiling in CEILINGS
    for k in KS
]


def _cell_key(graph, algorithm, measure, cache, ceiling, k):
    return f"{graph}/{algorithm}/{measure}/{cache}/{ceiling}/k{k}"


def _context(graph, measure, engine, cache):
    return make_context(
        graph, LEFT, RIGHT, params=PARAMS if measure is None else None,
        engine=engine, walk_cache=cache, measure=measure,
    )


def _join(context, algorithm, **knobs):
    """The operator ``api.two_way_join`` would run on ``context``."""
    return OPERATORS[two_way_operator(algorithm, context.measure)](
        context, **knobs
    )


def _run_cell(byte_ceiling, graph_name, algorithm, measure_name, cache_mode,
              ceiling, k):
    graph = GRAPHS[graph_name]
    measure = MEASURES[measure_name](graph)
    engine = WalkEngine(graph)
    cache = None
    if cache_mode != "none":
        cache = WalkCache(
            engine, PARAMS if measure is None else measure.cache_key()
        )
    context = _context(graph, measure, engine, cache)
    # The 4-column ceiling is the query's byte budget on an installed
    # governor, which every block operator plans its width under.
    max_bytes = None if ceiling == "free" else 16 * graph.num_nodes * 4
    with byte_ceiling(engine, max_bytes):
        if cache_mode == "warm":
            # A tighter first run: its pruned targets leave resumable
            # columns behind for the recorded run to extend.
            _join(context, algorithm).top_k(2)
            engine.stats.reset()
            cache.stats.reset()
        join = _join(context, algorithm)
        answers = join.top_k(k)
    stats = engine.stats
    record = {
        "answers": [[p, q, score] for p, q, score in answers],
        "propagation_steps": int(stats.propagation_steps),
        "sparse_products": int(stats.sparse_products),
        "bound_builds": int(stats.bound_builds),
        "bound_cache_hits": int(stats.bound_cache_hits),
        "peak_block_bytes": int(stats.peak_block_bytes),
        "pruning_trace": [
            [r["level"], r["active_before"], r["pruned"], r["threshold"]]
            for r in getattr(join, "pruning_trace", [])
        ],
    }
    if cache is not None:
        record["cache"] = [
            cache.stats.hits, cache.stats.misses,
            cache.stats.extensions, cache.stats.steps_saved,
        ]
    return record


def _load_golden():
    assert GOLDEN_PATH.exists(), (
        f"missing golden {GOLDEN_PATH}; generate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN_PATH.read_text())


def _resolved(golden):
    """Golden cells with their answer lists looked up."""
    return {
        key: {**cell, "answers": golden["answers"][cell["answers"]]}
        for key, cell in golden["cells"].items()
    }


@pytest.mark.skipif(not UPDATE, reason="golden regeneration only")
def test_regenerate_golden(golden_audit, byte_ceiling):
    replaced = _resolved(_load_golden()) if GOLDEN_PATH.exists() else {}
    answers, index, lines = [], {}, []
    for cell in CELLS:
        record = _run_cell(byte_ceiling, *cell)
        text = json.dumps(record.pop("answers"))
        if text not in index:
            index[text] = len(answers)
            answers.append(text)
        record["answers"] = index[text]
        lines.append(f'  "{_cell_key(*cell)}": {json.dumps(record)}')
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        '{\n "answers": [\n  ' + ",\n  ".join(answers) + "\n ],\n"
        ' "cells": {\n' + ",\n".join(lines) + "\n }\n}\n"
    )
    golden_audit(GOLDEN_PATH.name, replaced, _resolved(_load_golden()))


@pytest.mark.skipif(UPDATE, reason="goldens being regenerated")
@pytest.mark.parametrize("graph,algorithm,measure", [
    (g, a, m) for g in GRAPHS for a in ALGORITHMS for m in MEASURES
])
def test_cells_match_golden(graph, algorithm, measure, dense_paths, byte_ceiling):
    golden = _load_golden()
    for path in dense_paths():
        for cache in CACHES:
            for ceiling in CEILINGS:
                for k in KS:
                    cell = (graph, algorithm, measure, cache, ceiling, k)
                    key = _cell_key(*cell)
                    expected = dict(golden["cells"][key])
                    expected["answers"] = golden["answers"][expected["answers"]]
                    got = _run_cell(byte_ceiling, *cell)
                    # json round trip so tuples/lists compare like the file's.
                    assert json.loads(json.dumps(got)) == expected, (key, path)


def test_golden_exercises_the_interesting_paths():
    """The pin is only worth having if its cells prune, chunk, hit and
    resume: otherwise two different loops could both match it."""
    if UPDATE and not GOLDEN_PATH.exists():
        pytest.skip("goldens being regenerated")
    cells = _load_golden()["cells"]
    assert len(cells) == len(CELLS) == 432
    for measure in MEASURES:
        warm = cells[f"pa/b-bj/{measure}/warm/free/k10"]
        assert warm["propagation_steps"] == 0 and warm["cache"][0] == len(RIGHT)
    # SimRank's closed-form tail is too loose to prune at 4 sweeps; its
    # cells pin the matrix rounds' gathers and cache traffic instead.
    assert len(cells["pa/b-idj-y/simrank/none/free/k1"]["pruning_trace"]) == 2
    for measure in ("dht", "dht-measure", "ppr"):  # the walk-space measures
        tight = cells[f"pa/b-idj-y/{measure}/none/free/k1"]
        assert sum(row[2] for row in tight["pruning_trace"]) > 0, measure
        free = cells[f"pa/b-idj-y/{measure}/none/free/k10"]
        capped = cells[f"pa/b-idj-y/{measure}/none/4col/k10"]
        assert capped["peak_block_bytes"] < free["peak_block_bytes"]
        assert capped["pruning_trace"] == free["pruning_trace"]
        resumed = cells[f"pa/b-idj-y/{measure}/warm/free/k{ALL_PAIRS}"]
        assert resumed["cache"][2] > 0, measure  # extensions
    lean = cells[f"pa/b-bj/dht/none/free/k{ALL_PAIRS}"]
    cached = cells[f"pa/b-bj/dht/cold/free/k{ALL_PAIRS}"]
    # The lean scorer's walk finishes on the restricted tail holding
    # only its (|P|, B) prefix; a cached walk keeps full-width blocks.
    assert 0 < lean["peak_block_bytes"] < cached["peak_block_bytes"]


# -- the independent reference -------------------------------------------


@pytest.mark.skipif(UPDATE, reason="goldens being regenerated")
@pytest.mark.parametrize("graph,algorithm,measure", [
    (g, a, m) for g in GRAPHS for a in ALGORITHMS for m in MEASURES
])
def test_cells_equal_their_oracle(graph, algorithm, measure):
    """Every golden cell is the brute-force oracle's top-``k``: scores
    position by position, and each pair's score by lookup (ties may
    order differently across scorers) — both within 1e-12."""
    golden = _resolved(_load_golden())
    g = GRAPHS[graph]
    ctx = _context(g, MEASURES[measure](g), WalkEngine(g), None)
    scores = scores_for(g, ctx.d, params=ctx.params, measure=ctx.measure)
    ranking = rank_pairs(scores, LEFT, RIGHT)
    assert len(ranking) == ALL_PAIRS
    for cache in CACHES:
        for ceiling in CEILINGS:
            for k in KS:
                key = _cell_key(graph, algorithm, measure, cache, ceiling, k)
                answers = [((p, q), s) for p, q, s in golden[key]["answers"]]
                try:
                    assert_top_k(answers, ranking, k)
                except AssertionError as exc:
                    raise AssertionError(f"{key}: {exc}") from exc


# -- one k check, before the work ----------------------------------------


@pytest.mark.parametrize("measure", ["dht", "ppr"])
def test_negative_k_rejected_before_any_walk(measure):
    """``B-BJ`` used to walk every target and only then fail in
    ``top_k_pairs``; under a measure likewise."""
    graph = GRAPHS["pa"]
    resolved = MEASURES[measure](graph)
    engine = WalkEngine(graph)
    cache = WalkCache(
        engine, PARAMS if resolved is None else resolved.cache_key()
    )
    join = _join(_context(graph, resolved, engine, cache), "b-bj")
    with pytest.raises(GraphValidationError, match=r"k must be >= 0, got -1"):
        join.top_k(-1)
    assert engine.stats.propagation_steps == 0
    assert len(cache) == 0
