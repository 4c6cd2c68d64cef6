"""Figure 10: 2-way join on DBLP.

* (a) backward algorithms vs ``lambda`` — the B-IDJ-Y advantage grows
  with the decay factor;
* (b) fraction of Q pruned per B-IDJ iteration at ``lambda = 0.7`` —
  the X bound prunes nothing early, the Y bound prunes >90% in the
  first rounds.

Node sets: the link-prediction configuration (top authors of DB and
AI), 100 nodes each, on the *large* DBLP instance — pruning power
scales with how much walk mass dilutes across the graph, so the bigger
graph is the fairer stand-in for the paper's 188k-node DBLP (the
remaining scale gap is recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from _harness import (
    SeriesResult,
    dblp_large,
    print_sweep_table,
    register_reporter,
)
from repro.core.dht import DHTParams
from repro.core.two_way.backward import (
    BackwardBasicJoin,
    BackwardIDJX,
    BackwardIDJY,
)
from repro.core.two_way.base import TwoWayContext

K_DEFAULT = 50
SET_SIZE = 100
LAMBDA_SWEEP = [0.2, 0.4, 0.6, 0.8]

BACKWARD = {
    "B-BJ": BackwardBasicJoin,
    "B-IDJ-X": BackwardIDJX,
    "B-IDJ-Y": BackwardIDJY,
}

_series = {
    "fig10a": {name: SeriesResult(name) for name in BACKWARD},
}
_pruning_traces = {}


def make_context(data, engine, decay):
    params = DHTParams.dht_lambda(decay)
    db = data.top_authors("DB", SET_SIZE)
    ai = data.top_authors("AI", SET_SIZE)
    return TwoWayContext(
        graph=data.graph,
        params=params,
        left=db,
        right=ai,
        d=params.steps_for_epsilon(1e-6),
        engine=engine,
    )


@pytest.fixture(scope="module")
def large_data():
    return dblp_large()


@pytest.fixture(scope="module")
def large_engine(large_data):
    from repro.walks.engine import WalkEngine

    return WalkEngine(large_data.graph)


@pytest.mark.parametrize("name", list(BACKWARD))
@pytest.mark.parametrize("decay", LAMBDA_SWEEP)
def test_fig10a_lambda(benchmark, large_data, large_engine, name, decay):
    context = make_context(large_data, large_engine, decay)
    algorithm = BACKWARD[name](context)
    benchmark.pedantic(lambda: algorithm.top_k(K_DEFAULT), rounds=1, iterations=1)
    _series["fig10a"][name].add(decay, benchmark.stats.stats.median)


@pytest.mark.parametrize("name", ["B-IDJ-X", "B-IDJ-Y"])
def test_fig10b_pruning_fractions(benchmark, large_data, large_engine, name):
    # lambda = 0.7 as in the paper's analysis.
    context = make_context(large_data, large_engine, 0.7)
    algorithm = BACKWARD[name](context)
    benchmark.pedantic(lambda: algorithm.top_k(K_DEFAULT), rounds=1, iterations=1)
    total = SET_SIZE
    cumulative = 0
    fractions = []
    for trace in algorithm.pruning_trace[:4]:
        cumulative += trace["pruned"]
        fractions.append(100.0 * cumulative / total)
    _pruning_traces[name] = fractions


@register_reporter
def report():
    print_sweep_table(
        "Fig 10(a) DBLP: backward 2-way join vs lambda "
        f"(|P|=|Q|={SET_SIZE}, k={K_DEFAULT})",
        "lambda",
        LAMBDA_SWEEP,
        list(_series["fig10a"].values()),
    )
    print("== Fig 10(b) DBLP: cumulative % of Q pruned per iteration "
          "(lambda=0.7) ==")
    print(f"{'iteration':>10} | {'B-IDJ-X':>10} | {'B-IDJ-Y':>10}")
    print("-" * 38)
    x = _pruning_traces.get("B-IDJ-X", [])
    y = _pruning_traces.get("B-IDJ-Y", [])
    for i in range(max(len(x), len(y))):
        xs = f"{x[i]:10.1f}" if i < len(x) else "        --"
        ys = f"{y[i]:10.1f}" if i < len(y) else "        --"
        print(f"{i + 1:>10} | {xs} | {ys}")
