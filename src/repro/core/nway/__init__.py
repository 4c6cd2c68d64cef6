"""n-way joins over DHT: NL, AP, PJ, and PJ-i."""

from repro.core.nway.aggregates import AVG, MAX, MIN, SUM, aggregate_by_name
from repro.core.nway.all_pairs import AllPairsJoin
from repro.core.nway.candidates import CandidateAnswer
from repro.core.nway.nested_loop import NestedLoopJoin
from repro.core.nway.partial_join import PartialJoin
from repro.core.nway.partial_join_inc import PartialJoinIncremental
from repro.core.nway.query_graph import QueryGraph
from repro.core.nway.spec import NWayJoinSpec

#: Every n-way strategy name -> its executor, built as ``cls(spec, m=m,
#: plan=plan)``; the api, the governed runner, the planner and the CLI
#: read the names here.
EXECUTORS = {"nl": NestedLoopJoin, "ap": AllPairsJoin, "pj": PartialJoin,
             "pj-i": PartialJoinIncremental}

__all__ = [
    "AVG",
    "MAX",
    "MIN",
    "SUM",
    "AllPairsJoin",
    "CandidateAnswer",
    "EXECUTORS",
    "NWayJoinSpec",
    "NestedLoopJoin",
    "PartialJoin",
    "PartialJoinIncremental",
    "QueryGraph",
    "aggregate_by_name",
]
