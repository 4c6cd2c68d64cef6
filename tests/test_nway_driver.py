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

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.nested_loop import NestedLoopJoin
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.exec.budget import PartialResult, QueryBudget
from repro.extensions.measures import TruncatedPPR
from repro.extensions.series_join import SeriesAllPairsJoin, SeriesPartialJoin
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


# name -> (spec builder, m).  The fixture's walk-cache byte budget is
# kept ("auto"), so build order moves ``propagation_steps`` and the
# pin covers the plan's order, not only its answers.  ``m`` is small
# against ``k`` where refills should happen and 50 where they should
# not; the triangle runs the ``m = 0`` corner of Algorithm 1.
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
    engine = WalkEngine(template.graph)
    kwargs = dict(
        algorithm=strategy,
        m=m,
        engine=engine,
        walk_cache_bytes=template.walk_cache_bytes,
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
    "Series-AP": lambda spec: SeriesAllPairsJoin(spec),
    "Series-AP-1": lambda spec: SeriesAllPairsJoin(spec, block_size=1),
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


def _assert_same_answers(got, reference):
    """Scores agree to float noise; every returned tuple carries the
    reference's score for that tuple (ties may order differently across
    forward and backward scorers, so tuples are checked by lookup)."""
    assert len(got) == len(reference[: len(got)])
    assert np.allclose(
        [a.score for a in got], [a.score for a in reference[: len(got)]]
    )
    by_nodes = {a.nodes: a.score for a in reference}
    for answer in got:
        assert answer.score == pytest.approx(by_nodes[answer.nodes])


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("measure_name", MEASURES)
def test_ungoverned_equals_reference(spec_name, strategy, measure_name):
    """DHT against ``NestedLoopJoin``, PPR against the per-target
    ``SeriesAllPairsJoin(block_size=1)`` oracle path."""
    builder, m = SPECS[spec_name]
    measure = _measure(measure_name)
    full = builder(measure=measure)
    full.k = 10 ** 9  # the whole ranking, for the by-tuple lookup
    if measure is None:
        reference = NestedLoopJoin(full, memoize_pairs=True).run()
    else:
        reference = SeriesAllPairsJoin(full, block_size=1).run()
    spec = builder(measure=measure)
    kwargs = {} if measure is not None else {"d": spec.d}
    got = api.multi_way_join(
        spec.graph, spec.query_graph, spec.node_sets, spec.k,
        algorithm=strategy, m=m, measure=measure,
        walk_cache_bytes=spec.walk_cache_bytes, **kwargs,
    )
    assert len(got) == spec.k
    _assert_same_answers(got, reference)


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
