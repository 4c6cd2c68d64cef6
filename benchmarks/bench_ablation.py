"""Ablation study: the design choices behind the paper's defaults.

Not a paper figure — this isolates the individual contributions the
paper folds into its algorithm names:

* **PJ-i bound flavour** (Y vs X): how much of PJ-i's speed comes from
  the tighter tail bound inside its incremental 2-way joins;
* **PJ's 2-way engine** (B-IDJ-Y vs B-BJ vs F-BJ): how much of PJ
  comes from the backward iterative-deepening join vs the rank-join
  framing alone;
* **AP materialiser** (F-BJ as in the paper vs B-BJ): how much the AP
  baseline itself improves with backward processing — relevant when
  quoting "PJ vs AP" speedups.

Workload: Yeast, chain 3-way join, k = m = 50 (the paper's defaults).
"""

from __future__ import annotations

import pytest

from _harness import (
    SeriesResult,
    print_sweep_table,
    register_reporter,
    yeast_node_sets,
)
from repro.core.nway.aggregates import MIN
from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec

K = 50
SET_SIZE = 50
# m = 10 forces getNextNodePair traffic, where the ablated choices bite.
M_STRESSED = 10

_series = {
    "pji_bound": SeriesResult("PJ-i"),
    "pj_engine": SeriesResult("PJ"),
    "ap_engine": SeriesResult("AP"),
}


def make_spec(data, engine, k=K):
    sets = yeast_node_sets(3, SET_SIZE)
    return NWayJoinSpec(
        graph=data.graph,
        query_graph=QueryGraph.chain(3),
        node_sets=[list(s) for s in sets],
        k=k,
        aggregate=MIN,
        d=8,
        engine=engine,
    )


@pytest.mark.parametrize("bound", ["y", "x"])
def test_ablation_pji_bound(benchmark, yeast_data, yeast_engine, bound):
    spec = make_spec(yeast_data, yeast_engine)
    benchmark.pedantic(
        PartialJoinIncremental(spec, m=M_STRESSED, bound=bound).run,
        rounds=3, iterations=1,
    )
    _series["pji_bound"].add(f"bound={bound}", benchmark.stats.stats.median)


@pytest.mark.parametrize("two_way", ["b-idj-y", "b-idj-x", "b-bj"])
def test_ablation_pj_engine(benchmark, yeast_data, yeast_engine, two_way):
    spec = make_spec(yeast_data, yeast_engine)
    benchmark.pedantic(
        PartialJoin(spec, m=M_STRESSED, two_way=two_way).run,
        rounds=3, iterations=1,
    )
    _series["pj_engine"].add(f"2way={two_way}", benchmark.stats.stats.median)


@pytest.mark.parametrize("two_way", ["f-bj", "b-bj"])
def test_ablation_ap_engine(benchmark, yeast_data, yeast_engine, two_way):
    spec = make_spec(yeast_data, yeast_engine)
    benchmark.pedantic(
        AllPairsJoin(spec, two_way=two_way).run, rounds=1, iterations=1
    )
    _series["ap_engine"].add(f"2way={two_way}", benchmark.stats.stats.median)


@register_reporter
def report():
    print("== Ablation: component contributions "
          f"(Yeast chain 3-way, k={K}, stressed m={M_STRESSED}) ==")
    for label, series in _series.items():
        for run in series.runs:
            print(f"  {series.name:<5} {str(run.x):<16} {run.seconds:8.4f} s")
