"""Pin of the n-way execution paths: answers and work counters, bit for bit.

``tests/goldens/nway_driver.json`` was generated at the commit *before*
the seven per-strategy PBRJ loops were merged into the single driver of
:mod:`repro.core.nway.driver`; the refactor (and every later edit of the
driver) must reproduce it exactly.  Each cell runs
``repro.api.multi_way_join`` on a small planner-fixture spec (or the
triangle) and records

* the answers — node tuples, aggregate and per-edge scores at full
  float precision (JSON round-trips Python floats exactly);
* ``propagation_steps`` and ``bound_builds`` of the cell's fresh engine;
* the rank join's ``pulls``, ``pulls_per_edge`` and refill calls, read
  off the one :class:`~repro.rankjoin.pbrj.PBRJ` the run constructs.

over {star, chain, uniform-ER, triangle} x {``ap``, ``pj``, ``pj-i``} x
{DHT, PPR} x {``fixed``, ``auto``} x {ungoverned, governed with a 60 s
deadline no cell comes near}.  Regenerate deliberately with

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_nway_driver.py
"""

import functools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from oracles import ATOL, assert_top_k, rank_answers, scores_for
from repro import api
from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.exec.budget import PartialResult, QueryBudget
from repro.extensions.measures import TruncatedPPR
from repro.extensions.series_join import SeriesPartialJoin
from repro.graph.validation import GraphValidationError
from repro.planner import PlannerFixture
from repro.rankjoin.pbrj import PBRJ
from repro.walks.engine import WalkEngine

GOLDEN_PATH = Path(__file__).parent / "goldens" / "nway_driver.json"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

FIXTURE = PlannerFixture()
GRAPH = FIXTURE.power_law_graph(300)
ER_GRAPH = FIXTURE.uniform_graph(300)

STRATEGIES = ("ap", "pj", "pj-i")
MEASURES = ("dht", "ppr")
PLANS = ("fixed", "auto")
ARMS = ("ungoverned", "governed")


def _measure(name):
    return None if name == "dht" else TruncatedPPR(damping=0.85, epsilon=1e-4)


def _triangle_spec(**spec_kwargs):
    hubs, leaves = FIXTURE.hub_and_leaf_sets(GRAPH, 5, 6, 2)
    return NWayJoinSpec(
        graph=GRAPH,
        query_graph=QueryGraph.triangle(),
        node_sets=[hubs] + leaves,
        k=6,
        d=FIXTURE._spec_depth(5, spec_kwargs),
        **spec_kwargs,
    )


# name -> (spec builder, m).  The star and chain cells keep the
# fixture's byte-bounded walk cache, so build order moves
# ``propagation_steps`` and the pin covers the plan's order, not only
# its answers.  ``m`` is small against ``k`` where refills should
# happen and 50 where they should not; the triangle runs the ``m = 0``
# corner of Algorithm 1.
SPECS = {
    "star": (
        lambda **kw: FIXTURE.skewed_star_spec(
            graph=GRAPH, hub_size=6, leaf_size=8, k=5, **kw
        ),
        3,
    ),
    "chain": (
        lambda **kw: FIXTURE.chain_spec(
            graph=GRAPH, hub_size=6, leaf_size=8, k=8, **kw
        ),
        2,
    ),
    "uniform_er": (
        lambda **kw: FIXTURE.uniform_er_spec(
            graph=ER_GRAPH, set_size=8, k=4, **kw
        ),
        50,
    ),
    "triangle": (_triangle_spec, 0),
}

CELLS = [
    (spec, strategy, measure, plan, arm)
    for spec in SPECS
    for strategy in STRATEGIES
    for measure in MEASURES
    for plan in PLANS
    for arm in ARMS
]


def _cell_key(spec, strategy, measure, plan, arm):
    return f"{spec}/{strategy}/{measure}/{plan}/{arm}"


@pytest.fixture
def rank_joins(monkeypatch):
    """Every ``PBRJ`` that runs during the test, in order."""
    ran = []
    original = PBRJ.run

    def recording_run(self):
        ran.append(self)
        return original(self)

    monkeypatch.setattr(PBRJ, "run", recording_run)
    return ran


def _run_cell(spec_name, strategy, measure_name, plan, arm, rank_joins):
    """One ``api.multi_way_join`` call on fresh caches; its record."""
    builder, m = SPECS[spec_name]
    template = builder(measure=_measure(measure_name))
    engine = template.engine
    kwargs = dict(
        algorithm=strategy,
        m=m,
        engine=engine,
        walk_cache=template.walk_cache,
        measure=template.measure,
        plan=plan,
    )
    if template.measure is None:
        kwargs["d"] = template.d
    if arm == "governed":
        kwargs["budget"] = QueryBudget(deadline_ms=60000)
    result = api.multi_way_join(
        template.graph, template.query_graph, template.node_sets,
        template.k, **kwargs,
    )
    if arm == "governed":
        assert isinstance(result, PartialResult) and result.exact
        assert result.bounds == [(a.score, a.score) for a in result.results]
        answers = result.results
    else:
        answers = result
    assert len(rank_joins) == 1, "exactly one rank join per n-way query"
    stats = rank_joins[0].stats
    return {
        "answers": [
            [list(a.nodes), a.score, list(a.edge_scores)] for a in answers
        ],
        "propagation_steps": int(engine.stats.propagation_steps),
        "bound_builds": int(engine.stats.bound_builds),
        "pulls": stats.pulls,
        "pulls_per_edge": list(stats.pulls_per_edge),
        "refill_calls": stats.refills,
    }


def _load_golden():
    assert GOLDEN_PATH.exists(), (
        f"missing golden {GOLDEN_PATH}; generate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN_PATH.read_text())


def _audited(payload):
    """Every record of a golden payload under one key space."""
    cells = dict(payload["cells"])
    for name, record in payload["executor_stats"].items():
        cells[f"executor_stats/{name}"] = record
    return cells


@pytest.mark.skipif(not UPDATE, reason="golden regeneration only")
def test_regenerate_golden(rank_joins, golden_audit):
    replaced = _audited(_load_golden()) if GOLDEN_PATH.exists() else {}
    payload = {"cells": {}, "executor_stats": {}}
    for cell in CELLS:
        del rank_joins[:]
        payload["cells"][_cell_key(*cell)] = _run_cell(*cell, rank_joins)
    for name in EXECUTORS:
        payload["executor_stats"][name] = _executor_stats(name)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    golden_audit(GOLDEN_PATH.name, replaced, _audited(_load_golden()))


@pytest.mark.skipif(UPDATE, reason="goldens being regenerated")
@pytest.mark.parametrize("spec,strategy,measure,plan,arm", CELLS)
def test_cell_matches_golden(spec, strategy, measure, plan, arm, rank_joins):
    golden = _load_golden()["cells"][_cell_key(spec, strategy, measure, plan, arm)]
    got = _run_cell(spec, strategy, measure, plan, arm, rank_joins)
    # json round trip so tuples/lists and ints compare like the file's.
    assert json.loads(json.dumps(got)) == golden


def test_golden_exercises_refills_and_plans():
    """The pin is only worth having if its cells do the interesting
    things: lazy strategies refill, ``m = 50`` never does, and ``auto``
    moves the build order's cost on the byte-budgeted star."""
    if UPDATE and not GOLDEN_PATH.exists():
        pytest.skip("goldens being regenerated")
    cells = _load_golden()["cells"]
    assert len(cells) == len(CELLS) == 96
    for strategy in ("pj", "pj-i"):
        assert cells[f"star/{strategy}/dht/fixed/ungoverned"]["refill_calls"] > 0
        assert cells[f"triangle/{strategy}/ppr/fixed/governed"]["refill_calls"] > 0
        assert cells[f"uniform_er/{strategy}/dht/fixed/ungoverned"]["refill_calls"] == 0
    assert cells["star/ap/dht/fixed/ungoverned"]["refill_calls"] == 0
    assert (
        cells["star/pj/dht/auto/ungoverned"]["propagation_steps"]
        != cells["star/pj/dht/fixed/ungoverned"]["propagation_steps"]
    )


# -- the executor classes' own stats records -----------------------------

EXECUTORS = {
    "PJ": lambda spec: PartialJoin(spec, m=2),
    "PJ-x": lambda spec: PartialJoin(spec, m=2, two_way="b-idj-x"),
    "PJ-i": lambda spec: PartialJoinIncremental(spec, m=2),
    "PJ-i-x": lambda spec: PartialJoinIncremental(spec, m=2, bound="x"),
    "AP": lambda spec: AllPairsJoin(spec),
    "AP-b": lambda spec: AllPairsJoin(spec, two_way="b-bj"),
    "Series-PJ": lambda spec: SeriesPartialJoin(spec, m=2),
    "Series-AP": lambda spec: AllPairsJoin(spec, two_way="b-bj"),
}


def _executor_stats(name):
    measure = _measure("ppr") if name.startswith("Series") else None
    spec = SPECS["chain"][0](measure=measure)
    join = EXECUTORS[name](spec)
    answers = join.run()
    stats = join.stats
    record = {
        "answers": [[list(a.nodes), a.score] for a in answers],
        "propagation_steps": int(spec.engine.stats.propagation_steps),
        "build_order": list(join.plan.build_order),
        "operators": [ep.operator for ep in join.plan.edges],
    }
    if hasattr(stats, "next_pair_calls"):
        record["next_pair_calls"] = stats.next_pair_calls
        record["rank_join_pulls"] = stats.rank_join_pulls
        record["pulls_per_edge"] = list(stats.pulls_per_edge)
    else:  # AP-style executors expose the rank join's own stats
        record["rank_join_pulls"] = stats.pulls
        record["pulls_per_edge"] = list(stats.pulls_per_edge)
    return record


@pytest.mark.skipif(UPDATE, reason="goldens being regenerated")
@pytest.mark.parametrize("name", sorted(EXECUTORS))
def test_executor_stats_match_golden(name):
    golden = _load_golden()["executor_stats"][name]
    assert json.loads(json.dumps(_executor_stats(name))) == golden


# -- the independent reference -------------------------------------------


@functools.lru_cache(maxsize=None)
def _oracle_ranking(spec_name, measure_name):
    """Every answer of the spec, ranked by the brute-force oracle."""
    spec = SPECS[spec_name][0](measure=_measure(measure_name))
    scores = scores_for(spec.graph, spec.d, params=spec.params, measure=spec.measure)
    return rank_answers(
        [scores] * spec.query_graph.num_edges, spec.node_sets,
        spec.query_graph.edges, spec.aggregate,
    )


def _assert_oracle_answers(answers, spec_name, measure_name, k):
    """``answers`` — ``(nodes, score[, edge scores])`` rows — are the
    oracle's top-``k``, edge scores included."""
    ranking = _oracle_ranking(spec_name, measure_name)
    assert_top_k([(tuple(a[0]), a[1]) for a in answers],
                 [(nodes, score) for nodes, score, _ in ranking], k)
    per_edge = {nodes: edges for nodes, _, edges in ranking}
    for answer in answers:
        if len(answer) > 2:
            assert np.allclose(
                answer[2], per_edge[tuple(answer[0])], rtol=0, atol=ATOL
            )


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("measure_name", MEASURES)
def test_ungoverned_equals_reference(spec_name, strategy, measure_name):
    """A fresh run of every strategy is the oracle's top-``k``."""
    builder, m = SPECS[spec_name]
    spec = builder(measure=_measure(measure_name))
    kwargs = {} if spec.measure is not None else {"d": spec.d}
    got = api.multi_way_join(
        spec.graph, spec.query_graph, spec.node_sets, spec.k,
        algorithm=strategy, m=m, measure=spec.measure, engine=spec.engine,
        walk_cache=spec.walk_cache, **kwargs,
    )
    assert len(got) == spec.k
    _assert_oracle_answers(
        [(a.nodes, a.score, a.edge_scores) for a in got],
        spec_name, measure_name, spec.k,
    )


@pytest.mark.skipif(UPDATE, reason="goldens being regenerated")
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("measure_name", MEASURES)
def test_golden_cells_equal_the_oracle(spec_name, measure_name):
    """Every golden cell of the spec (strategy x plan x arm) is the
    oracle's complete top-``k`` — ``k`` answers, aggregate and per-edge
    scores alike; a governed cell was recorded only if its result came
    back exact (``_run_cell``)."""
    cells = _load_golden()["cells"]
    k = SPECS[spec_name][0](measure=_measure(measure_name)).k
    checked = 0
    for strategy in STRATEGIES:
        for plan in PLANS:
            for arm in ARMS:
                key = _cell_key(spec_name, strategy, measure_name, plan, arm)
                try:
                    _assert_oracle_answers(
                        cells[key]["answers"], spec_name, measure_name, k
                    )
                except AssertionError as exc:
                    raise AssertionError(f"{key}: {exc}") from exc
                checked += 1
    assert checked == len(STRATEGIES) * len(PLANS) * len(ARMS)


@pytest.mark.skipif(UPDATE, reason="goldens being regenerated")
def test_golden_executor_records_equal_the_oracle():
    records = _load_golden()["executor_stats"]
    assert sorted(records) == sorted(EXECUTORS)
    for name, record in records.items():
        measure_name = "ppr" if name.startswith("Series") else "dht"
        k = SPECS["chain"][0](measure=_measure(measure_name)).k
        _assert_oracle_answers(record["answers"], "chain", measure_name, k)


# -- one m check, with the right message ---------------------------------


@pytest.mark.parametrize("algorithm", ["pj", "pj-i"])
@pytest.mark.parametrize("measure_name", MEASURES)
@pytest.mark.parametrize("arm", ARMS)
def test_negative_m_rejected_before_any_work(algorithm, measure_name, arm):
    spec = SPECS["chain"][0](measure=_measure(measure_name))
    engine = WalkEngine(spec.graph)
    kwargs = {}
    if arm == "governed":
        kwargs["budget"] = QueryBudget(deadline_ms=60000)
    with pytest.raises(GraphValidationError, match=r"m must be >= 0, got -1"):
        api.multi_way_join(
            spec.graph, spec.query_graph, spec.node_sets, spec.k,
            algorithm=algorithm, m=-1, measure=spec.measure, engine=engine,
            **kwargs,
        )
    assert engine.stats.propagation_steps == 0
