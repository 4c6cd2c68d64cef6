"""The All Pairs baseline ``AP`` (Section III-B, solution 2).

``AP`` decomposes the n-way join into one *complete* 2-way join per query
edge — every ``|R_i| x |R_j|`` pair is scored — and rank-joins the fully
materialised, sorted lists with PBRJ.  It avoids ``NL``'s per-tuple
re-computation but still pays for all-pair DHT scores, of which (the
paper observes) under 1% are ever used.

The paper implements ``AP``'s ``twoWayJoin`` with ``F-BJ``: since all
pairs are needed anyway, pruning buys nothing and forward walks are the
simplest complete scorer.  ``B-BJ`` is offered as a faster alternative
materialiser (it changes nothing about which results are produced); it
propagates its targets in batched blocks and, through the spec's shared
walk cache, reuses full-depth walks across edges whose right sets
overlap (star / clique query graphs).  The loop itself is the shared
:class:`~repro.core.nway.driver.NWayDriver` with the *materialised*
edge source.  On a measure spec the materialiser is ``B-BJ`` (under its
measure name ``basic``): forward processing is DHT-only.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.nway.candidates import CandidateAnswer
from repro.core.nway.driver import NWayDriver, two_way_operator
from repro.core.nway.spec import NWayJoinSpec
from repro.graph.validation import GraphValidationError

_MATERIALISERS = ("b-bj", "f-bj")


class AllPairsJoin(NWayDriver):
    """``AP``: full per-edge materialisation + PBRJ rank join.

    ``two_way`` is the default materialiser (``f-bj``/``b-bj``; omitted,
    the strategy table's: ``f-bj``, ``basic`` under a measure); ``plan``
    (or ``spec.plan``) chooses per-edge materialiser and build order.
    The materialised lists are complete either way, so plans only move
    cost, never answers.  ``stats`` is the rank join's own record.
    """

    name = "AP"

    def __init__(
        self, spec: NWayJoinSpec, two_way: Optional[str] = None, plan=None
    ) -> None:
        operator = None
        if two_way is not None:
            if two_way.lower() not in _MATERIALISERS:
                raise GraphValidationError(
                    f"unknown AP materializer {two_way!r}; "
                    f"choose from {list(_MATERIALISERS)}"
                )
            operator = two_way_operator(two_way, spec.measure)
        super().__init__(spec, "ap", operator, plan=plan)
        self.stats = None

    def run(self) -> List[CandidateAnswer]:
        """Materialise every edge's full join, then rank-join."""
        answers = super().run()
        self.stats = self.rank_join
        return answers
