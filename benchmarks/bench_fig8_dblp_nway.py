"""Figure 8: n-way join efficiency on DBLP.

The same four sweeps as Fig. 7 on the (much larger) DBLP substitute.
As in the paper, ``AP`` "performs badly in most experiments" at DBLP
scale, so it is measured only at the n = 2 point of sweep (a);
``NL`` is omitted entirely (Fig. 8 does likewise).
"""

from __future__ import annotations

import pytest

from _harness import (
    SeriesResult,
    dblp_node_sets,
    print_sweep_table,
    query_graph_with_edges,
    register_reporter,
)
from repro.core.dht import DHTMeasure
from repro.core.nway.aggregates import MIN
from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec

K_DEFAULT = 50
M_DEFAULT = 50
SET_SIZE = 50

_series = {
    "fig8a": {name: SeriesResult(name) for name in ("AP", "PJ", "PJ-i")},
    "fig8b": {name: SeriesResult(name) for name in ("PJ", "PJ-i")},
    "fig8c": {name: SeriesResult(name) for name in ("PJ", "PJ-i")},
    "fig8d": {name: SeriesResult(name) for name in ("PJ", "PJ-i")},
}

N_SWEEP = [2, 3, 4, 5, 6]
E_SWEEP = [2, 3, 4, 5, 6]
K_SWEEP = [10, 50, 100, 200]
M_SWEEP = [0, 20, 50, 100, 200]


def make_spec(data, engine, query, node_sets, k=K_DEFAULT):
    return NWayJoinSpec(
        graph=data.graph,
        query_graph=query,
        node_sets=[list(s) for s in node_sets],
        k=k,
        aggregate=MIN,
        measure=DHTMeasure(d=8),
        engine=engine,
    )


def record(figure, name, x, benchmark, run):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _series[figure][name].add(x, benchmark.stats.stats.median)
    return result


@pytest.mark.parametrize("n", [2])
def test_fig8a_ap(benchmark, dblp_data, dblp_engine, n):
    sets = dblp_node_sets(n, SET_SIZE)
    spec = make_spec(dblp_data, dblp_engine, QueryGraph.chain(n), sets)
    record("fig8a", "AP", n, benchmark, AllPairsJoin(spec, two_way="b-bj").run)


@pytest.mark.parametrize("n", N_SWEEP)
def test_fig8a_pj(benchmark, dblp_data, dblp_engine, n):
    sets = dblp_node_sets(n, SET_SIZE)
    spec = make_spec(dblp_data, dblp_engine, QueryGraph.chain(n), sets)
    record("fig8a", "PJ", n, benchmark, PartialJoin(spec, m=M_DEFAULT).run)


@pytest.mark.parametrize("n", N_SWEEP)
def test_fig8a_pji(benchmark, dblp_data, dblp_engine, n):
    sets = dblp_node_sets(n, SET_SIZE)
    spec = make_spec(dblp_data, dblp_engine, QueryGraph.chain(n), sets)
    record(
        "fig8a", "PJ-i", n, benchmark,
        PartialJoinIncremental(spec, m=M_DEFAULT).run,
    )


@pytest.mark.parametrize("num_edges", E_SWEEP)
def test_fig8b_pj(benchmark, dblp_data, dblp_engine, num_edges):
    sets = dblp_node_sets(3, SET_SIZE)
    spec = make_spec(dblp_data, dblp_engine, query_graph_with_edges(num_edges), sets)
    record("fig8b", "PJ", num_edges, benchmark, PartialJoin(spec, m=M_DEFAULT).run)


@pytest.mark.parametrize("num_edges", E_SWEEP)
def test_fig8b_pji(benchmark, dblp_data, dblp_engine, num_edges):
    sets = dblp_node_sets(3, SET_SIZE)
    spec = make_spec(dblp_data, dblp_engine, query_graph_with_edges(num_edges), sets)
    record(
        "fig8b", "PJ-i", num_edges, benchmark,
        PartialJoinIncremental(spec, m=M_DEFAULT).run,
    )


@pytest.mark.parametrize("k", K_SWEEP)
def test_fig8c_pj(benchmark, dblp_data, dblp_engine, k):
    sets = dblp_node_sets(3, SET_SIZE)
    spec = make_spec(dblp_data, dblp_engine, QueryGraph.chain(3), sets, k=k)
    record("fig8c", "PJ", k, benchmark, PartialJoin(spec, m=M_DEFAULT).run)


@pytest.mark.parametrize("k", K_SWEEP)
def test_fig8c_pji(benchmark, dblp_data, dblp_engine, k):
    sets = dblp_node_sets(3, SET_SIZE)
    spec = make_spec(dblp_data, dblp_engine, QueryGraph.chain(3), sets, k=k)
    record(
        "fig8c", "PJ-i", k, benchmark,
        PartialJoinIncremental(spec, m=M_DEFAULT).run,
    )


@pytest.mark.parametrize("m", M_SWEEP)
def test_fig8d_pj(benchmark, dblp_data, dblp_engine, m):
    sets = dblp_node_sets(3, SET_SIZE)
    spec = make_spec(dblp_data, dblp_engine, QueryGraph.chain(3), sets)
    record("fig8d", "PJ", m, benchmark, PartialJoin(spec, m=m).run)


@pytest.mark.parametrize("m", M_SWEEP)
def test_fig8d_pji(benchmark, dblp_data, dblp_engine, m):
    sets = dblp_node_sets(3, SET_SIZE)
    spec = make_spec(dblp_data, dblp_engine, QueryGraph.chain(3), sets)
    record(
        "fig8d", "PJ-i", m, benchmark,
        PartialJoinIncremental(spec, m=m).run,
    )


@register_reporter
def report():
    print_sweep_table(
        "Fig 8(a) DBLP: n-way join time vs n (chain, k=m=50)",
        "n",
        N_SWEEP,
        list(_series["fig8a"].values()),
        note="NL omitted (infeasible); AP measured at n=2 only, as in the paper",
    )
    print_sweep_table(
        "Fig 8(b) DBLP: time vs |E_Q| (3 node sets)",
        "|E_Q|",
        E_SWEEP,
        list(_series["fig8b"].values()),
    )
    print_sweep_table(
        "Fig 8(c) DBLP: time vs k (chain 3-way, m=50)",
        "k",
        K_SWEEP,
        list(_series["fig8c"].values()),
    )
    print_sweep_table(
        "Fig 8(d) DBLP: time vs m (chain 3-way, k=50)",
        "m",
        M_SWEEP,
        list(_series["fig8d"].values()),
    )
