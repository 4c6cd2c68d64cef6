"""One query through every front door.

A query is one frozen :mod:`repro.query` request, and
:func:`repro.api.run` is its only executor: the keyword entry points,
``api.run`` itself, :class:`~repro.service.QueryService`, the CLI
one-shot ``--json`` and ``serve --json`` must return identical rows for
the same query, under DHT and under a series measure.
"""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from repro import api
from repro.cli import main as cli_main
from repro.core.dht import DHTParams
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.base import TwoWayContext
from repro.exec.budget import QueryBudget
from repro.graph.builders import erdos_renyi
from repro.graph.io import read_edge_list, write_edge_list, write_node_sets
from repro.graph.validation import GraphValidationError
from repro.query import (
    ExplainRequest,
    MultiWayRequest,
    QueryOptions,
    TwoWayRequest,
)
from repro.service import STATUS_ERROR, QueryService

SETS = {"A": list(range(12)), "B": list(range(40, 80)), "C": list(range(90, 110))}
CHAIN = QueryGraph.chain(3, names=["A", "B", "C"])
#: The measure name the requests carry, and the CLI flags that build the
#: same measure.
MEASURES = {
    None: ["--measure", "dht-lambda"],
    "dht-e": ["--measure", "dht-e"],
    "ppr": ["--measure", "ppr"],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("front_doors")
    graph_path, sets_path = root / "graph.tsv", root / "sets.json"
    write_edge_list(
        erdos_renyi(150, 0.05, np.random.default_rng(4), weighted=True),
        graph_path,
    )
    write_node_sets(SETS, sets_path)
    # Every door reads the graph the CLI reads.
    return read_edge_list(graph_path), graph_path, sets_path, root


ROW_KEYS = ("left", "right", "nodes", "score", "edge_scores")


def _rows(items):
    """Exact-comparable tuples for result rows or their ``--json`` dicts."""
    out = []
    for item in items:
        if not isinstance(item, dict):
            item = {key: getattr(item, key) for key in ROW_KEYS if hasattr(item, key)}
        out.append(tuple(
            tuple(item[key]) if isinstance(item[key], (list, tuple)) else item[key]
            for key in ROW_KEYS if key in item
        ))
    return out


def _cli(capsys, argv):
    capsys.readouterr()
    assert cli_main([str(arg) for arg in argv]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("measure", list(MEASURES))
@pytest.mark.parametrize("query", ["two-way", "chain"])
def test_five_doors_return_identical_rows(workspace, capsys, query, measure):
    graph, graph_path, sets_path, root = workspace
    k = 5 if query == "two-way" else 3
    if query == "two-way":
        keyword = api.two_way_join(
            graph, SETS["A"], SETS["B"], k, measure=measure
        )
        request = TwoWayRequest(SETS["A"], SETS["B"], k, measure=measure)
        one_shot = ["two-way", "--left", "A", "--right", "B"]
        entry = {"type": "two-way", "left": "A", "right": "B"}
    else:
        keyword = api.multi_way_join(
            graph, CHAIN, [SETS[name] for name in "ABC"], k, measure=measure
        )
        request = MultiWayRequest(
            CHAIN.edges, [SETS[name] for name in "ABC"], k, measure=measure
        )
        one_shot = ["multi-way", "--node-sets", "A", "B", "C"]
        entry = {"type": "multi-way", "shape": "chain",
                 "node_sets": ["A", "B", "C"]}
    expected = _rows(keyword)
    assert keyword.exact and len(expected) == k

    assert _rows(api.run(graph, request)) == expected

    with QueryService(graph, workers=1) as service:
        response = service.query(request)
    assert response.ok and response.result.exact
    assert _rows(response.result.results) == expected

    printed = _cli(capsys, [
        one_shot[0], graph_path, "--sets", sets_path, *one_shot[1:],
        "-k", k, *MEASURES[measure], "--json",
    ])
    assert printed["exact"] and _rows(printed["results"]) == expected

    requests_path = root / f"{query}-{measure}.json"
    requests_path.write_text(json.dumps([{**entry, "k": k, "measure": measure}]))
    served = _cli(capsys, [
        "serve", graph_path, "--sets", sets_path, "--requests", requests_path,
        "--workers", 1, "--json",
    ])
    (row,) = served["responses"]
    assert row["status"] == "ok" and row["exact"]
    assert _rows(row["results"]) == expected


@pytest.mark.parametrize(
    "field,value",
    [("params", DHTParams.dht_lambda(0.3)), ("d", 5), ("epsilon", 1e-3)],
)
@pytest.mark.parametrize("kind", ["two-way", "multi-way", "explain"])
def test_service_rejects_a_dht_configuration_without_walking(
    workspace, kind, field, value
):
    """The service's DHT configuration is fixed (one cache tier per
    measure identity), so a request carrying its own is an error
    response, answered before any walk."""
    graph = workspace[0]
    if kind == "two-way":
        request = TwoWayRequest(SETS["A"], SETS["B"], 3, **{field: value})
    else:
        request_type = ExplainRequest if kind == "explain" else MultiWayRequest
        request = request_type(
            CHAIN.edges, [SETS[name] for name in "ABC"], 3, **{field: value}
        )
    with QueryService(graph, workers=1) as service:
        response = service.query(request)
        assert response.status == STATUS_ERROR
        assert "configuration is fixed" in response.error
        assert service.engine.stats.propagation_steps == 0
        assert service.query(dataclasses.replace(request, **{field: None})).ok


#: A non-default value for every QueryOptions field.
OPTION_VALUES = {
    "measure": "ppr",
    "params": DHTParams.dht_lambda(0.3),
    "d": 5,
    "epsilon": 1e-3,
    "budget": QueryBudget(step_budget=10**9),
    "on_budget": "error",
}


def test_option_values_cover_the_query_options_fields():
    assert set(OPTION_VALUES) == {
        field.name for field in dataclasses.fields(QueryOptions)
    }


@pytest.mark.parametrize("field", sorted(OPTION_VALUES))
def test_keyword_entry_points_take_every_query_option(workspace, field):
    """Each keyword entry point forwards a ``QueryOptions`` field to its
    request unchanged (and declares none of them itself)."""
    graph = workspace[0]
    option = {field: OPTION_VALUES[field]}
    sets = [SETS[name] for name in "ABC"]
    for entry_point in (
        api.two_way_join, api.multi_way_join, api.explain_multi_way_plan
    ):
        assert field not in inspect.signature(entry_point).parameters
    # Below the api a query's options are one measure value.
    if field != "measure":
        for below in (TwoWayContext, NWayJoinSpec):
            assert field not in {f.name for f in dataclasses.fields(below)}
    assert _rows(api.two_way_join(graph, SETS["A"], SETS["B"], 3, **option)) \
        == _rows(api.run(graph, TwoWayRequest(SETS["A"], SETS["B"], 3, **option)))
    assert _rows(api.multi_way_join(graph, CHAIN, sets, 3, **option)) == _rows(
        api.run(graph, MultiWayRequest(CHAIN.edges, sets, 3, **option))
    )
    plan = api.explain_multi_way_plan(graph, CHAIN, sets, 3, **option)
    again = api.run(
        graph, ExplainRequest(CHAIN.edges, sets, 3, names=("A", "B", "C"), **option)
    )
    assert plan.to_json() == again.to_json()


def test_requests_are_values_not_validators():
    """Construction only normalises node ids; a malformed request is
    rejected when it runs."""
    request = TwoWayRequest([np.int64(3), 1.0], (2,), k=-1, algorithm="nope")
    assert request.left == (3, 1) and request.right == (2,)
    assert all(type(u) is int for u in request.left)
    multi = MultiWayRequest([[0, 1]], [[1, 2], np.arange(3)], 2, plan="odd")
    assert multi.query_edges == ((0, 1),)
    assert multi.node_sets == ((1, 2), (0, 1, 2))
    assert ExplainRequest([(0, 1)], [[1], [2]], 1).plan == "auto"
    with pytest.raises(TypeError):
        TwoWayRequest((1,), (2,), 1, "b-bj", "ppr")  # options are keyword-only


def test_dht_names_are_their_variant_at_every_door(workspace):
    """``"dht-e"`` is DHT_e wherever it is named; ``None`` alone is the
    configured DHT (the paper's ``DHT_lambda(0.2)`` by default)."""
    graph = workspace[0]
    named = _rows(api.two_way_join(graph, SETS["A"], SETS["B"], 3, measure="dht-e"))
    configured = _rows(api.two_way_join(
        graph, SETS["A"], SETS["B"], 3, params=DHTParams.dht_e()
    ))
    assert named == configured
    assert named != _rows(api.two_way_join(graph, SETS["A"], SETS["B"], 3))


HOSTILE_IDS = [[1.5, 2.7], [True, 3], ["3"], [float("nan")], [np.bool_(True)]]


@pytest.mark.parametrize("ids", HOSTILE_IDS, ids=repr)
def test_requests_reject_non_integral_ids(workspace, ids):
    graph = workspace[0]
    with pytest.raises(GraphValidationError, match="node ids must be integers"):
        TwoWayRequest(ids, SETS["B"], 3)
    with pytest.raises(GraphValidationError, match="node ids must be integers"):
        MultiWayRequest(CHAIN.edges, [SETS["A"], ids, SETS["C"]], 3)
    with pytest.raises(GraphValidationError, match="node ids must be integers"):
        api.two_way_join(graph, SETS["A"], ids, 3)
    # Integral values of any integer type are ids.
    assert TwoWayRequest(np.array([1, 2]), (np.int32(3), 4.0), 1).left == (1, 2)


@pytest.mark.parametrize("ids", [[1.5, 2.9], [True, 3]], ids=repr)
def test_request_file_rejects_non_integral_ids(workspace, capsys, ids):
    graph, graph_path, sets_path, root = workspace
    requests_path = root / "hostile-ids.json"
    requests_path.write_text(json.dumps(
        [{"type": "two-way", "left": ids, "right": "B", "k": 3}]
    ))
    code = cli_main([
        "serve", str(graph_path), "--sets", str(sets_path), "--requests",
        str(requests_path), "--workers", "1", "--json",
    ])
    assert code == 2
    assert "request #0" in capsys.readouterr().err


HOSTILE_CONFIG = [
    ("d", 2.5), ("d", True), ("d", "3"), ("d", 0),
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", -1e-3),
]


@pytest.mark.parametrize("field,value", HOSTILE_CONFIG, ids=repr)
def test_hostile_dht_configuration_is_a_validation_error(workspace, field, value):
    """A bad ``d`` or ``epsilon`` is refused when the options resolve,
    before any walk — never a ``TypeError`` from the walk layer."""
    graph = workspace[0]
    from repro.walks.engine import WalkEngine

    engine = WalkEngine(graph)
    with pytest.raises(GraphValidationError):
        api.run(
            graph, TwoWayRequest(SETS["A"], SETS["B"], 3, **{field: value}),
            engine=engine,
        )
    assert engine.stats.propagation_steps == 0
    with pytest.raises(GraphValidationError):
        QueryService(graph, workers=1, **{field: value})
    with QueryService(graph, workers=1) as service:
        response = service.query(
            MultiWayRequest(
                CHAIN.edges, [SETS[name] for name in "ABC"], 3,
                **{field: value},
            )
        )
        assert response.status == STATUS_ERROR
        assert service.engine.stats.propagation_steps == 0
