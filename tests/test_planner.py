"""Planner-decision test harness.

Two invariant families (the tentpole's contract):

* **Plan equivalence** — the auto plan is *bit-identical* to every
  fixed-order plan's top-k.  Plans move cost (which walks are cached
  when), never answers, so any divergence is a planner bug, not a
  tuning regression.
* **Plan sanity** — on a skewed star the auto plan schedules the
  low-fanout in-edges (shared hub right set) first and contiguously;
  the cost model's pruning power is monotone under increasing skew.

Plus the seams: stats/cost units, replay validation, the planner's
inputs (a plan is a function of its query, not of what ran before it),
the governed-execution interaction (mid-plan budget exhaustion stays
sound under every build order), and the CLI ``--explain`` path.
"""

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import explain_multi_way_plan, multi_way_join
from repro.core.bounds import YBound
from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.exec.budget import PartialResult, QueryBudget
from repro.extensions.measures import TruncatedPPR
from repro.graph.builders import star_graph
from repro.graph.digraph import Graph
from repro.graph.io import write_edge_list
from repro.graph.validation import GraphValidationError
from repro.planner import (
    COST_MODEL_VERSION,
    CostModel,
    ExplainedPlan,
    GraphStats,
    PlannerFixture,
    choose_plan,
    plan_with_order,
)
from repro import cli
from repro.planner import plan as plan_module
from repro.service import ExplainRequest, MultiWayRequest, QueryService
from repro.walks.cache import WalkCache

FIXTURE = PlannerFixture()


def _answer_key(answers):
    """Bit-identity fingerprint of a top-k answer list."""
    return [(a.nodes, a.score) for a in answers]


# A small, fast star: 4 edges -> 24 permutations is exhaustively
# checkable; node sets from a 400-node power-law graph.
def small_star_spec(**kwargs):
    return FIXTURE.skewed_star_spec(
        n=400, spokes=2, hub_size=16, leaf_size=32, k=8, **kwargs
    )


class TestGraphStats:
    def test_degree_moments_on_known_graph(self):
        graph = Graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
                          (1, 2, 1.0)])
        stats = GraphStats(graph)
        assert stats.out_degrees.tolist() == [3, 1, 0, 0]
        assert stats.mean_out_degree == pytest.approx(1.0)
        assert stats.cv_out_degree > 1.0  # skewed
        assert stats.skewness_out > 0.0

    def test_heavy_hitters_on_star(self):
        stats = GraphStats(star_graph(20))
        # Undirected star: the centre's degree is 20, leaves 1.
        assert stats.heavy_count == 1
        assert stats.heavy_mask[0]
        sets = stats.node_set([0, 1, 2])
        assert sets.heavy_count == 1
        assert sets.hub_fraction == pytest.approx(1 / 3)
        assert sets.max_out_degree == 20

    def test_empty_node_set(self):
        stats = GraphStats(star_graph(5))
        empty = stats.node_set([])
        assert empty.size == 0 and empty.hub_fraction == 0.0

    def test_summary_is_json_safe(self):
        summary = GraphStats(FIXTURE.power_law_graph(200)).summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["heavy_count"] > 0  # power law has hubs


class TestGraphStatsMemo:
    def test_built_once_per_graph(self, monkeypatch):
        """Planning pays for the degree scan once per graph, not once
        per query."""
        builds = []
        original = GraphStats.__init__

        def counting(self, graph):
            builds.append(graph)
            original(self, graph)

        monkeypatch.setattr(GraphStats, "__init__", counting)
        graph = FIXTURE.power_law_graph(400)
        first = choose_plan(small_star_spec(graph=graph), "pj")
        second = choose_plan(small_star_spec(graph=graph), "pj")
        assert builds == [graph]
        assert first.to_json() == second.to_json()
        assert GraphStats.of(graph) is GraphStats.of(graph)
        # Another graph object gets its own.
        choose_plan(small_star_spec(), "pj")
        assert len(builds) == 2


class TestCostModel:
    def setup_method(self):
        self.stats = GraphStats(FIXTURE.power_law_graph(400))
        self.model = CostModel(self.stats, d=6)

    def test_basic_is_depth_times_targets(self):
        left = self.stats.node_set(range(10))
        right = self.stats.node_set(range(10, 30))
        est = self.model.estimate("basic", left, right)
        assert est.steps == pytest.approx(6 * 20)

    def test_forward_pays_per_pair(self):
        left = self.stats.node_set(range(10))
        right = self.stats.node_set(range(10, 30))
        f_bj = self.model.estimate("f-bj", left, right)
        b_bj = self.model.estimate("basic", left, right)
        assert f_bj.steps == pytest.approx(6 * 10 * 20)
        assert f_bj.steps > b_bj.steps

    def test_idj_cheaper_than_basic_for_skewed_left(self):
        hubs = FIXTURE.degree_order(self.stats.graph)[:16]
        left = self.stats.node_set(hubs)
        right = self.stats.node_set(range(100, 164))
        idj = self.model.estimate("idj-y", left, right)
        basic = self.model.estimate("basic", left, right)
        assert idj.steps < basic.steps
        assert 0.0 < idj.survivor_fraction < 1.0

    def test_pruning_power_monotone_in_skew(self):
        """Cost monotonicity under increasing skew: more hubs in the
        left set -> more pruning -> cheaper deepening."""
        order = FIXTURE.degree_order(self.stats.graph)
        right = self.stats.node_set(range(100, 164))
        rhos, costs = [], []
        for hub_count in (0, 4, 8, 16):
            members = order[:hub_count] + order[200:200 + (16 - hub_count)]
            left = self.stats.node_set(members)
            rhos.append(self.model.pruning_power(left))
            costs.append(self.model.estimate("idj-y", left, right).steps)
        assert rhos == sorted(rhos)
        assert costs == sorted(costs, reverse=True)
        assert rhos[-1] > rhos[0]

    def test_cached_y_bound_drops_build_cost(self):
        left = self.stats.node_set(range(16))
        right = self.stats.node_set(range(20, 40))
        cold = self.model.estimate("idj-y", left, right)
        warm = self.model.estimate("idj-y", left, right, y_bound_cached=True)
        assert cold.bound_steps == 6 and warm.bound_steps == 0
        assert warm.steps == pytest.approx(cold.steps - 6)

    def test_resident_overlap_earns_credit(self):
        left = self.stats.node_set(range(16))
        right = self.stats.node_set(range(20, 40))
        none = self.model.estimate("basic", left, right)
        some = self.model.estimate("basic", left, right, resident_overlap=10)
        assert some.credit > 0 and some.steps < none.steps
        assert some.credit <= some.walk_steps  # never negative steps

    def test_unknown_kind_rejected(self):
        left = self.stats.node_set(range(4))
        with pytest.raises(ValueError, match="unknown operator kind"):
            self.model.estimate("nope", left, left)


class TestPlanSanity:
    def test_skewed_star_schedules_low_fanout_edges_first(self):
        spec = FIXTURE.skewed_star_spec()
        plan = choose_plan(spec, "pj")
        # Star edges alternate out/in: (0,1),(1,0),(0,2),(2,0),...
        # In-edges (odd indices) have the low-fanout leaf left sets and
        # the shared hub right set — they must all build first.
        in_edges = {1, 3, 5}
        assert set(plan.build_order[:3]) == in_edges
        assert plan.mode == "auto" and plan.strategy == "pj"

    def test_shared_right_set_edges_are_contiguous(self):
        spec = FIXTURE.skewed_star_spec()
        plan = choose_plan(spec, "pj")
        positions = {e: i for i, e in enumerate(plan.build_order)}
        in_positions = sorted(positions[e] for e in (1, 3, 5))
        assert in_positions == list(
            range(in_positions[0], in_positions[0] + 3)
        )

    def test_auto_differs_from_fixed_on_skewed_star(self):
        spec = FIXTURE.skewed_star_spec()
        auto = choose_plan(spec, "pj")
        fixed = choose_plan(spec, "pj", mode="fixed")
        assert fixed.build_order == tuple(range(6))
        assert auto.build_order != fixed.build_order

    def test_auto_estimate_never_worse_than_fixed(self):
        for build in (FIXTURE.skewed_star_spec, FIXTURE.chain_spec,
                      FIXTURE.uniform_er_spec):
            spec = build()
            auto = choose_plan(spec, "pj")
            fixed = choose_plan(
                spec, "pj", mode="fixed", default_operator="b-idj-y"
            )
            assert auto.total_estimated_steps <= fixed.total_estimated_steps

    def test_pji_plans_order_only(self):
        spec = FIXTURE.skewed_star_spec()
        plan = choose_plan(spec, "pj-i")
        assert set(plan.operators) == {"b-idj-y"}
        assert set(plan.build_order[:3]) == {1, 3, 5}

    def test_explain_format_mentions_decisions(self):
        plan = choose_plan(FIXTURE.skewed_star_spec(), "pj")
        text = plan.format()
        assert "plan[auto]" in text
        assert f"cost-model=v{COST_MODEL_VERSION}" in text
        for e in range(6):
            assert f"edge {e} " in text


class TestPlanSerialization:
    def test_replayed_plan_validates_edge_count(self):
        star = FIXTURE.skewed_star_spec()
        chain = FIXTURE.chain_spec()
        plan = choose_plan(star, "pj")
        with pytest.raises(GraphValidationError, match="edges"):
            PartialJoin(chain, plan=plan).run()

    def test_replayed_plan_validates_strategy(self):
        spec = FIXTURE.skewed_star_spec()
        ap_plan = choose_plan(spec, "ap")
        with pytest.raises(GraphValidationError, match="strategy"):
            PartialJoin(FIXTURE.skewed_star_spec(), plan=ap_plan).run()

    def test_replayed_plan_validates_operators_under_the_measure(self):
        """A replayed plan's operators must run under the query's
        measure: a DHT ``AP`` plan's forward rows are a usage error
        under PPR, before any walk, and so is an unknown name."""
        spec = small_star_spec()
        args = (spec.graph, QueryGraph.chain(3), spec.node_sets[:3], 3)
        plan = explain_multi_way_plan(*args, algorithm="ap", plan="fixed")
        assert plan.operators == ("f-bj", "f-bj")
        with pytest.raises(GraphValidationError, match="DHT-only"):
            multi_way_join(*args, algorithm="ap", plan=plan, measure="ppr")
        unknown = dataclasses.replace(plan, edges=tuple(
            dataclasses.replace(ep, operator="b-nope") for ep in plan.edges
        ))
        with pytest.raises(GraphValidationError, match="b-nope"):
            multi_way_join(*args, algorithm="ap", plan=unknown)

    def test_pj_and_pji_plans_interchange(self):
        spec = FIXTURE.skewed_star_spec()
        pj_plan = choose_plan(spec, "pj", default_operator="b-idj-y")
        # PJ-i accepts a PJ plan (same per-edge stream structure).
        answers = PartialJoinIncremental(
            FIXTURE.skewed_star_spec(), m=40, plan=pj_plan
        ).run()
        assert answers

    def test_bad_plan_values_rejected(self):
        with pytest.raises(GraphValidationError, match="plan"):
            small_star_spec(plan="fastest")
        with pytest.raises(GraphValidationError, match="plan"):
            small_star_spec(plan=42)
        spec = small_star_spec()
        with pytest.raises(GraphValidationError, match="not a permutation"):
            plan_with_order(spec, "pj", [0, 0, 1, 2])

    def test_nl_has_nothing_to_plan(self):
        spec = small_star_spec()
        with pytest.raises(GraphValidationError, match="NL"):
            choose_plan(spec, "nl")
        with pytest.raises(GraphValidationError, match="NL"):
            multi_way_join(
                spec.graph, spec.query_graph, spec.node_sets, 4,
                algorithm="nl", plan="auto", d=spec.d,
            )

    def test_every_operator_has_a_cost_kind(self):
        """The planner prices exactly the driver's operators."""
        from repro.core.nway.driver import OPERATORS
        from repro.planner.plan import _OPERATOR_KINDS

        assert set(_OPERATOR_KINDS) == set(OPERATORS)


class TestPlanEquivalence:
    """Auto must be bit-identical to every fixed-order plan's top-k."""

    def test_auto_matches_all_24_fixed_orders(self):
        auto_spec = small_star_spec()
        auto = _answer_key(PartialJoin(auto_spec, m=100, plan="auto").run())
        assert auto  # non-degenerate fixture
        for order in FIXTURE.all_build_orders(auto_spec, limit=24):
            spec = small_star_spec()
            plan = plan_with_order(
                spec, "pj", order, default_operator="b-idj-y"
            )
            got = _answer_key(PartialJoin(spec, m=100, plan=plan).run())
            assert got == auto, f"order {order} diverged"

    def test_auto_matches_fixed_across_strategies(self):
        for cls, kwargs in (
            (AllPairsJoin, {}),
            (PartialJoin, {"m": 100}),
            (PartialJoinIncremental, {"m": 100}),
        ):
            auto = _answer_key(
                cls(small_star_spec(), plan="auto", **kwargs).run()
            )
            fixed = _answer_key(
                cls(small_star_spec(), plan="fixed", **kwargs).run()
            )
            assert auto == fixed, cls.__name__

    def test_spec_level_plan_flows_through_api(self):
        spec = small_star_spec()
        kwargs = dict(algorithm="pj", m=100, d=spec.d)
        auto = multi_way_join(
            spec.graph, spec.query_graph, spec.node_sets, spec.k,
            plan="auto", **kwargs,
        )
        fixed = multi_way_join(
            spec.graph, spec.query_graph, spec.node_sets, spec.k,
            plan="fixed", **kwargs,
        )
        assert _answer_key(auto) == _answer_key(fixed)

    def test_auto_wins_steps_on_pressured_star(self):
        """The acceptance bar: auto >= 1.2x cheaper than the worst
        fixed order in propagation steps, identical answers."""
        def run(plan_value):
            spec = FIXTURE.skewed_star_spec()
            spec.engine.stats.reset()
            answers = PartialJoin(spec, m=200, plan=plan_value).run()
            return spec.engine.stats.propagation_steps, _answer_key(answers)

        worst_plan = plan_with_order(
            FIXTURE.skewed_star_spec(), "pj",
            FIXTURE.worst_interleaved_order(FIXTURE.skewed_star_spec()),
            default_operator="b-idj-y",
        )
        auto_steps, auto_answers = run("auto")
        worst_steps, worst_answers = run(worst_plan)
        assert auto_answers == worst_answers
        assert worst_steps / auto_steps >= 1.2

    @pytest.mark.parametrize(
        "build", [FIXTURE.skewed_star_spec, FIXTURE.chain_spec],
        ids=["skewed-star", "chain"],
    )
    def test_auto_never_walks_more_than_fixed_or_worst(self, build):
        """Measured, not estimated: on both pressured fixtures ``auto``
        spends at most the propagation steps of the natural and of the
        worst interleaved order, with identical answers."""
        def run(plan_value):
            spec = build()
            spec.engine.stats.reset()
            answers = PartialJoin(spec, m=200, plan=plan_value).run()
            return spec.engine.stats.propagation_steps, _answer_key(answers)

        worst_plan = plan_with_order(
            build(), "pj", FIXTURE.worst_interleaved_order(build()),
            default_operator="b-idj-y",
        )
        auto_steps, auto_answers = run("auto")
        for arm in ("fixed", worst_plan):
            steps, answers = run(arm)
            assert answers == auto_answers
            assert auto_steps <= steps


class TestPlanInputs:
    """A plan is a function of its query: what earlier queries left in
    the spec's engine and caches moves cost, never the plan."""

    @pytest.mark.parametrize("mode", ["fixed", "auto"])
    @pytest.mark.parametrize("strategy", ["pj", "pj-i"])
    def test_warm_engine_and_bound_cache_leave_the_plan(self, strategy, mode):
        graph = FIXTURE.power_law_graph(400)
        fresh = choose_plan(small_star_spec(graph=graph), strategy, mode=mode)
        warm = small_star_spec(graph=graph)
        PartialJoin(warm, m=100).run()
        for e in range(warm.query_graph.num_edges):
            left, _ = warm.edge_node_sets(e)
            warm.bound_cache.y_bound(
                left, warm.d,
                lambda left=left: YBound(
                    warm.engine, warm.measure.tail_weights(warm.d), left, warm.d
                ),
            )
        assert warm.engine.stats.propagation_steps > 0
        assert warm.bound_cache.stats.y_builds > 0
        replanned = choose_plan(warm, strategy, mode=mode)
        assert replanned.to_json() == fresh.to_json()

    def test_service_explains_one_plan_whatever_ran_before(self):
        graph = FIXTURE.power_law_graph(2000)
        order = FIXTURE.degree_order(graph)
        sets = (order[:24], order[24:48], order[1000:1024])
        query = dict(
            query_edges=QueryGraph.triangle().edges, node_sets=sets, k=5,
            algorithm="pj",
        )
        with QueryService(graph, workers=1, queue_depth=4) as service:
            before = service.query(ExplainRequest(**query))
            for _ in range(3):
                assert service.query(MultiWayRequest(**query)).ok
            after = service.query(ExplainRequest(**query))
        assert before.ok and after.ok
        assert service.engine.stats.propagation_steps > 0
        assert after.result.to_json() == before.result.to_json()

    @pytest.mark.parametrize("mode", ["fixed", "auto"])
    @pytest.mark.parametrize("strategy", ["pj", "pj-i", "ap"])
    @pytest.mark.parametrize(
        "build", ["skewed_star_spec", "chain_spec", "uniform_er_spec"]
    )
    def test_walk_cache_bounds_leave_the_plan(self, build, strategy, mode):
        """No cache bound reaches the plan: a one-target cache, a
        16-bytes-per-node one and an unbounded one plan alike, so a
        service tier and a one-shot call plan the same query alike."""
        spec = getattr(FIXTURE, build)()
        n = spec.graph.num_nodes
        key = spec.walk_cache.params
        plans = []
        for bounds in ({"max_targets": 1}, {"max_bytes": 16 * n}, {}):
            spec.walk_cache = WalkCache(spec.engine, key, **bounds)
            plans.append(choose_plan(spec, strategy, mode=mode).to_json())
        assert plans[0] == plans[1] == plans[2]

    def test_plan_module_never_names_the_walk_cache(self):
        source = Path(plan_module.__file__).read_text()
        assert "walk_cache" not in source


class TestGovernedInteraction:
    """Planner x QueryBudget: partials stay flagged and sound under
    every build order."""

    def _truth(self):
        spec = small_star_spec()
        return {
            a.nodes: a.score
            for a in PartialJoin(spec, m=100, plan="fixed").run()
        }

    @pytest.mark.parametrize("plan_value", ["auto", "fixed", "worst"])
    def test_midplan_exhaustion_sound_intervals(self, plan_value):
        if plan_value == "worst":
            plan_value = plan_with_order(
                small_star_spec(), "pj",
                FIXTURE.worst_interleaved_order(small_star_spec()),
                default_operator="b-idj-y",
            )
        truth = self._truth()
        spec = small_star_spec()
        # Tight enough to stop mid-plan (after some edges built),
        # loose enough to materialise at least one edge prefix.
        partial = multi_way_join(
            spec.graph, spec.query_graph, spec.node_sets, spec.k,
            algorithm="pj", m=100, d=spec.d, plan=plan_value,
            engine=spec.engine, walk_cache=spec.walk_cache,
            budget=QueryBudget(step_budget=260),
        )
        assert isinstance(partial, PartialResult)
        assert not partial.exact and partial.reason is not None
        assert spec.query_graph.num_edges == 4
        for answer, (lower, upper) in zip(partial.results, partial.bounds):
            assert lower <= upper + 1e-12
            if answer.nodes in truth:
                assert lower - 1e-9 <= truth[answer.nodes] <= upper + 1e-9

    def test_generous_budget_exact_with_auto_plan(self):
        truth = self._truth()
        spec = small_star_spec()
        result = multi_way_join(
            spec.graph, spec.query_graph, spec.node_sets, spec.k,
            algorithm="pj", m=100, d=spec.d, plan="auto",
            budget=QueryBudget(step_budget=10**9),
        )
        assert result.exact
        assert {a.nodes: a.score for a in result.results} == truth


class TestExplainAPI:
    def test_explained_plan_replays_identically(self):
        spec = small_star_spec()
        kwargs = dict(algorithm="pj", m=100, d=spec.d)
        plan = explain_multi_way_plan(
            spec.graph, spec.query_graph, spec.node_sets, spec.k, **kwargs
        )
        assert isinstance(plan, ExplainedPlan) and plan.mode == "auto"
        replayed = multi_way_join(
            spec.graph, spec.query_graph, spec.node_sets, spec.k,
            plan=plan, **kwargs,
        )
        auto = multi_way_join(
            spec.graph, spec.query_graph, spec.node_sets, spec.k,
            plan="auto", **kwargs,
        )
        assert _answer_key(replayed) == _answer_key(auto)

    def test_explain_measure_path(self):
        spec = small_star_spec()
        plan = explain_multi_way_plan(
            spec.graph, spec.query_graph, spec.node_sets, spec.k,
            algorithm="pj", measure=TruncatedPPR(damping=0.85, epsilon=1e-3),
        )
        assert plan.strategy == "pj"
        # The paper's names under every measure, the forward ones out.
        assert set(plan.operators) <= {"b-idj-y", "b-idj-x", "b-bj"}
        assert plan.signals["measure"].startswith("PPR")
        for strategy, operator in (("ap", "b-bj"), ("pj-i", "b-idj-y")):
            plan = explain_multi_way_plan(
                spec.graph, spec.query_graph, spec.node_sets, spec.k,
                algorithm=strategy, measure="ppr", plan="fixed",
            )
            assert plan.strategy == strategy
            assert set(plan.operators) == {operator}

    def test_explain_rejects_nl(self):
        spec = small_star_spec()
        with pytest.raises(GraphValidationError, match="NL"):
            explain_multi_way_plan(
                spec.graph, spec.query_graph, spec.node_sets, spec.k,
                algorithm="nl",
            )


class TestCLIExplain:
    @pytest.fixture()
    def cli_files(self, tmp_path):
        graph = FIXTURE.power_law_graph(400)
        hubs, leaves = FIXTURE.hub_and_leaf_sets(graph, 16, 32, 2)
        graph_path = tmp_path / "graph.tsv"
        sets_path = tmp_path / "sets.json"
        write_edge_list(graph, str(graph_path))
        sets_path.write_text(
            json.dumps({"C": hubs, "A": leaves[0], "B": leaves[1]})
        )
        return str(graph_path), str(sets_path)

    def _common(self, graph_path, sets_path):
        return [
            "multi-way", graph_path, "--sets", sets_path,
            "--shape", "star", "--bidirectional",
            "--node-sets", "C", "A", "B",
            "-k", "5", "--algorithm", "pj", "-m", "50",
        ]

    def test_explain_text_output(self, cli_files, capsys):
        code = cli.main(
            self._common(*cli_files) + ["--plan", "auto", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        plan_lines = [l for l in out.splitlines() if l.startswith("# ")]
        assert any("plan[auto]" in l for l in plan_lines)
        assert any("op=" in l for l in plan_lines)

    def test_explain_json_matches_fixed(self, cli_files, capsys):
        code = cli.main(
            self._common(*cli_files)
            + ["--plan", "auto", "--explain", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["mode"] == "auto"
        assert sorted(payload["plan"]["build_order"]) == [0, 1, 2, 3]
        code = cli.main(self._common(*cli_files) + ["--json"])
        assert code == 0
        fixed_rows = json.loads(capsys.readouterr().out)["results"]
        assert payload["results"] == fixed_rows
