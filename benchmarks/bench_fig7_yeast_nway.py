"""Figure 7: n-way join efficiency on Yeast.

Four sweeps (paper Section VII-C.1):

* (a) running time vs ``n``          — NL, AP, PJ, PJ-i (chain queries)
* (b) running time vs ``|E_Q|``      — AP, PJ, PJ-i (3 node sets)
* (c) running time vs ``k``          — AP, PJ, PJ-i (chain 3-way)
* (d) running time vs ``m``          — PJ, PJ-i (chain 3-way)

Paper defaults: k = m = 50, MIN aggregate, node sets of |R| = 50,
DHT_lambda(0.2) at d = 8.  NL is measured at n = 2 and *extrapolated*
beyond (the paper likewise reports it "cannot complete in a reasonable
time" for n >= 3); AP is measured up to n = 3.
"""

from __future__ import annotations

import pytest

from _harness import (
    SeriesResult,
    print_sweep_table,
    query_graph_with_edges,
    register_reporter,
    yeast_node_sets,
)
from repro.core.dht import DHTMeasure
from repro.core.nway.aggregates import MIN
from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.nested_loop import NestedLoopJoin
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec

K_DEFAULT = 50
M_DEFAULT = 50
SET_SIZE = 50

_series = {
    "fig7a": {name: SeriesResult(name) for name in ("NL", "AP", "PJ", "PJ-i")},
    "fig7b": {name: SeriesResult(name) for name in ("AP", "PJ", "PJ-i")},
    "fig7c": {name: SeriesResult(name) for name in ("AP", "PJ", "PJ-i")},
    "fig7d": {name: SeriesResult(name) for name in ("PJ", "PJ-i")},
}
_nl_extrapolation = {}


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


def record(figure, name, x, benchmark, run, rounds=1, **extra):
    result = benchmark.pedantic(run, rounds=rounds, iterations=1)
    _series[figure][name].add(x, benchmark.stats.stats.median, **extra)
    return result


# ----------------------------------------------------------------------
# (a) time vs n, chain query graphs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2])
def test_fig7a_nl(benchmark, yeast_data, yeast_engine, n):
    sets = yeast_node_sets(n, SET_SIZE)
    spec = make_spec(yeast_data, yeast_engine, QueryGraph.chain(n), sets)
    join = NestedLoopJoin(spec)
    record("fig7a", "NL", n, benchmark, join.run)
    # Extrapolate the infeasible points from the measured per-tuple cost.
    per_tuple = _series["fig7a"]["NL"].seconds_at(2) / max(join.tuples_scored, 1)
    for bigger_n in range(3, 8):
        tuples = SET_SIZE ** bigger_n
        edges = bigger_n - 1
        _nl_extrapolation[bigger_n] = per_tuple * tuples * edges / 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_fig7a_ap(benchmark, yeast_data, yeast_engine, n):
    sets = yeast_node_sets(n, SET_SIZE)
    spec = make_spec(yeast_data, yeast_engine, QueryGraph.chain(n), sets)
    record("fig7a", "AP", n, benchmark, AllPairsJoin(spec).run)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_fig7a_pj(benchmark, yeast_data, yeast_engine, n):
    sets = yeast_node_sets(n, SET_SIZE)
    spec = make_spec(yeast_data, yeast_engine, QueryGraph.chain(n), sets)
    record("fig7a", "PJ", n, benchmark, PartialJoin(spec, m=M_DEFAULT).run, rounds=3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_fig7a_pji(benchmark, yeast_data, yeast_engine, n):
    sets = yeast_node_sets(n, SET_SIZE)
    spec = make_spec(yeast_data, yeast_engine, QueryGraph.chain(n), sets)
    record(
        "fig7a", "PJ-i", n, benchmark,
        PartialJoinIncremental(spec, m=M_DEFAULT).run, rounds=3,
    )


# ----------------------------------------------------------------------
# (b) time vs |E_Q|, 3 node sets
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_edges", [2, 3, 4])
def test_fig7b_ap(benchmark, yeast_data, yeast_engine, num_edges):
    sets = yeast_node_sets(3, SET_SIZE)
    query = query_graph_with_edges(num_edges)
    spec = make_spec(yeast_data, yeast_engine, query, sets)
    record("fig7b", "AP", num_edges, benchmark, AllPairsJoin(spec).run)


@pytest.mark.parametrize("num_edges", [2, 3, 4, 5, 6])
def test_fig7b_pj(benchmark, yeast_data, yeast_engine, num_edges):
    sets = yeast_node_sets(3, SET_SIZE)
    query = query_graph_with_edges(num_edges)
    spec = make_spec(yeast_data, yeast_engine, query, sets)
    record("fig7b", "PJ", num_edges, benchmark, PartialJoin(spec, m=M_DEFAULT).run, rounds=3)


@pytest.mark.parametrize("num_edges", [2, 3, 4, 5, 6])
def test_fig7b_pji(benchmark, yeast_data, yeast_engine, num_edges):
    sets = yeast_node_sets(3, SET_SIZE)
    query = query_graph_with_edges(num_edges)
    spec = make_spec(yeast_data, yeast_engine, query, sets)
    record(
        "fig7b", "PJ-i", num_edges, benchmark,
        PartialJoinIncremental(spec, m=M_DEFAULT).run, rounds=3,
    )


# ----------------------------------------------------------------------
# (c) time vs k, chain 3-way
# ----------------------------------------------------------------------

K_SWEEP = [10, 50, 100, 200]


@pytest.mark.parametrize("k", [10, 50])
def test_fig7c_ap(benchmark, yeast_data, yeast_engine, k):
    sets = yeast_node_sets(3, SET_SIZE)
    spec = make_spec(yeast_data, yeast_engine, QueryGraph.chain(3), sets, k=k)
    record("fig7c", "AP", k, benchmark, AllPairsJoin(spec).run)


@pytest.mark.parametrize("k", K_SWEEP)
def test_fig7c_pj(benchmark, yeast_data, yeast_engine, k):
    sets = yeast_node_sets(3, SET_SIZE)
    spec = make_spec(yeast_data, yeast_engine, QueryGraph.chain(3), sets, k=k)
    record("fig7c", "PJ", k, benchmark, PartialJoin(spec, m=M_DEFAULT).run, rounds=3)


@pytest.mark.parametrize("k", K_SWEEP)
def test_fig7c_pji(benchmark, yeast_data, yeast_engine, k):
    sets = yeast_node_sets(3, SET_SIZE)
    spec = make_spec(yeast_data, yeast_engine, QueryGraph.chain(3), sets, k=k)
    record(
        "fig7c", "PJ-i", k, benchmark,
        PartialJoinIncremental(spec, m=M_DEFAULT).run, rounds=3,
    )


# ----------------------------------------------------------------------
# (d) time vs m, chain 3-way
# ----------------------------------------------------------------------

M_SWEEP = [10, 20, 50, 100, 200, 500]


@pytest.mark.parametrize("m", M_SWEEP)
def test_fig7d_pj(benchmark, yeast_data, yeast_engine, m):
    sets = yeast_node_sets(3, SET_SIZE)
    spec = make_spec(yeast_data, yeast_engine, QueryGraph.chain(3), sets)
    record("fig7d", "PJ", m, benchmark, PartialJoin(spec, m=m).run, rounds=3)


@pytest.mark.parametrize("m", M_SWEEP)
def test_fig7d_pji(benchmark, yeast_data, yeast_engine, m):
    sets = yeast_node_sets(3, SET_SIZE)
    spec = make_spec(yeast_data, yeast_engine, QueryGraph.chain(3), sets)
    record(
        "fig7d", "PJ-i", m, benchmark,
        PartialJoinIncremental(spec, m=m).run, rounds=3,
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


@register_reporter
def report():
    nl = _series["fig7a"]["NL"]
    for n, estimate in sorted(_nl_extrapolation.items()):
        if nl.seconds_at(n) is None:
            nl.add(n, float("inf"), estimated_seconds=estimate)
    extrapolated = ", ".join(
        f"n={n}: ~{est:.0f}s" for n, est in sorted(_nl_extrapolation.items())
    )
    print_sweep_table(
        "Fig 7(a) Yeast: n-way join time vs n (chain, k=m=50)",
        "n",
        [2, 3, 4, 5, 6, 7],
        list(_series["fig7a"].values()),
        note=f"NL infeasible beyond n=2 (extrapolated: {extrapolated})",
    )
    print_sweep_table(
        "Fig 7(b) Yeast: time vs |E_Q| (3 node sets)",
        "|E_Q|",
        [2, 3, 4, 5, 6],
        list(_series["fig7b"].values()),
        note="AP measured up to |E_Q|=4",
    )
    print_sweep_table(
        "Fig 7(c) Yeast: time vs k (chain 3-way, m=50)",
        "k",
        K_SWEEP,
        list(_series["fig7c"].values()),
    )
    print_sweep_table(
        "Fig 7(d) Yeast: time vs m (chain 3-way, k=50)",
        "m",
        M_SWEEP,
        list(_series["fig7d"].values()),
    )
