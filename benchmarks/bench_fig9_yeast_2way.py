"""Figure 9: 2-way join efficiency on Yeast.

* (a) running time of all five algorithms (F-BJ, F-IDJ, B-BJ,
  B-IDJ-X, B-IDJ-Y) at the default configuration;
* (b) backward algorithms vs ``epsilon`` (``d`` from Lemma 1);
* (c) backward algorithms vs ``lambda``;
* (d) backward algorithms vs ``k``.

Node sets follow the link-prediction experiment (partitions 3-U and
8-D), truncated to 100 nodes each so the forward baselines finish.
"""

from __future__ import annotations

import pytest

from _harness import SeriesResult, print_sweep_table, register_reporter
from repro.core.dht import DHTMeasure, DHTParams
from repro.core.two_way.backward import (
    BackwardBasicJoin,
    BackwardIDJX,
    BackwardIDJY,
)
from repro.core.two_way.base import TwoWayContext
from repro.core.two_way.forward import ForwardBasicJoin, ForwardIDJ

K_DEFAULT = 50
SET_SIZE = 100

ALGORITHMS = {
    "F-BJ": ForwardBasicJoin,
    "F-IDJ": ForwardIDJ,
    "B-BJ": BackwardBasicJoin,
    "B-IDJ-X": BackwardIDJX,
    "B-IDJ-Y": BackwardIDJY,
}
BACKWARD = ("B-BJ", "B-IDJ-X", "B-IDJ-Y")

_series = {
    "fig9a": {name: SeriesResult(name) for name in ALGORITHMS},
    "fig9b": {name: SeriesResult(name) for name in BACKWARD},
    "fig9c": {name: SeriesResult(name) for name in BACKWARD},
    "fig9d": {name: SeriesResult(name) for name in BACKWARD},
}

EPS_SWEEP = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
LAMBDA_SWEEP = [0.2, 0.4, 0.6, 0.8]
K_SWEEP = [10, 20, 50, 75, 100]


def node_sets(data):
    left, right = data.largest_pair
    return left[:SET_SIZE], right[:SET_SIZE]


def make_context(data, engine, params=None, d=None):
    params = params if params is not None else DHTParams.dht_lambda(0.2)
    left, right = node_sets(data)
    return TwoWayContext(
        graph=data.graph,
        left=list(left),
        right=list(right),
        engine=engine,
        measure=DHTMeasure(params, d=d),
    )


def record(figure, name, x, benchmark, run, rounds=1):
    result = benchmark.pedantic(run, rounds=rounds, iterations=1)
    _series[figure][name].add(x, benchmark.stats.stats.median)
    return result


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_fig9a_all_algorithms(benchmark, yeast_data, yeast_engine, name):
    context = make_context(yeast_data, yeast_engine)
    algorithm = ALGORITHMS[name](context)
    record("fig9a", name, "default", benchmark, lambda: algorithm.top_k(K_DEFAULT))


@pytest.mark.parametrize("name", BACKWARD)
@pytest.mark.parametrize("epsilon", EPS_SWEEP)
def test_fig9b_epsilon(benchmark, yeast_data, yeast_engine, name, epsilon):
    params = DHTParams.dht_lambda(0.2)
    context = make_context(
        yeast_data, yeast_engine, params, d=params.steps_for_epsilon(epsilon)
    )
    algorithm = ALGORITHMS[name](context)
    record("fig9b", name, epsilon, benchmark, lambda: algorithm.top_k(K_DEFAULT), rounds=3)


@pytest.mark.parametrize("name", BACKWARD)
@pytest.mark.parametrize("decay", LAMBDA_SWEEP)
def test_fig9c_lambda(benchmark, yeast_data, yeast_engine, name, decay):
    params = DHTParams.dht_lambda(decay)
    context = make_context(yeast_data, yeast_engine, params)
    algorithm = ALGORITHMS[name](context)
    record("fig9c", name, decay, benchmark, lambda: algorithm.top_k(K_DEFAULT), rounds=3)


@pytest.mark.parametrize("name", BACKWARD)
@pytest.mark.parametrize("k", K_SWEEP)
def test_fig9d_k(benchmark, yeast_data, yeast_engine, name, k):
    context = make_context(yeast_data, yeast_engine)
    algorithm = ALGORITHMS[name](context)
    record("fig9d", name, k, benchmark, lambda: algorithm.top_k(k), rounds=3)


@register_reporter
def report():
    print_sweep_table(
        "Fig 9(a) Yeast: 2-way join, all five algorithms "
        f"(|P|=|Q|={SET_SIZE}, k={K_DEFAULT})",
        "config",
        ["default"],
        list(_series["fig9a"].values()),
    )
    print_sweep_table(
        "Fig 9(b) Yeast: backward algorithms vs epsilon",
        "epsilon",
        EPS_SWEEP,
        list(_series["fig9b"].values()),
    )
    print_sweep_table(
        "Fig 9(c) Yeast: backward algorithms vs lambda",
        "lambda",
        LAMBDA_SWEEP,
        list(_series["fig9c"].values()),
    )
    print_sweep_table(
        "Fig 9(d) Yeast: backward algorithms vs k",
        "k",
        K_SWEEP,
        list(_series["fig9d"].values()),
    )
