"""The Partial Join algorithm ``PJ`` (Section IV, Algorithm 1).

``PJ`` evaluates a *top-m* 2-way join per query edge (``m`` tunable,
default 50 = the paper's setting) and rank-joins the short sorted lists.
When the rank join needs a pair beyond the top-``m`` prefix of some edge
(``getNextNodePair``, step 10), plain ``PJ`` re-runs a full top-``(m+1)``
2-way join from scratch and takes its last element — correct but
expensive, which is precisely the weakness ``PJ-i`` fixes.  The restart
joins do at least run against the spec's shared walk cache, so a re-run
re-scores cached walks instead of re-propagating them; the *algorithmic*
waste (re-ranking from scratch) remains, keeping the PJ/PJ-i comparison
honest.

The per-edge 2-way joins default to ``B-IDJ-Y``, the paper's best
algorithm for this role (Section VII-A).  The loop itself is the shared
:class:`~repro.core.nway.driver.NWayDriver` with the *restart* edge
source.
"""

from __future__ import annotations

from typing import List

from repro.core.nway.candidates import CandidateAnswer
from repro.core.nway.driver import (  # noqa: F401 - re-exported names
    NWayDriver,
    PartialJoinStats,
    two_way_algorithm_by_name,
)
from repro.core.nway.spec import NWayJoinSpec


class PartialJoin(NWayDriver):
    """``PJ`` (Algorithm 1): top-``m`` prefixes + PBRJ + restart refills.

    Parameters
    ----------
    spec:
        The validated join inputs.
    m:
        Per-edge prefix length; ``0 <= m``.  The paper's default is 50.
    two_way:
        Name of the default 2-way join algorithm used for both the
        initial prefixes and the restart refills (``"b-idj-y"``).
        Under ``plan="auto"`` the planner may pick a different operator
        per edge; the default seeds its candidate preference.
    plan:
        Optional override of ``spec.plan`` — ``"fixed"``, ``"auto"``,
        or a replayed :class:`~repro.planner.plan.ExplainedPlan`.
    """

    name = "PJ"

    def __init__(
        self,
        spec: NWayJoinSpec,
        m: int = 50,
        two_way: str = "b-idj-y",
        plan=None,
    ) -> None:
        two_way_algorithm_by_name(two_way)  # validate the default eagerly
        super().__init__(spec, "pj", two_way.lower(), m=m, plan=plan)

    def run(self) -> List[CandidateAnswer]:
        """Execute ``PJ`` and return the top-``k`` answers."""
        return super().run()


def partial_join(
    spec: NWayJoinSpec, m: int = 50, two_way: str = "b-idj-y", plan=None
):
    """Convenience: run ``PJ`` on a spec and return its answers."""
    return PartialJoin(spec, m=m, two_way=two_way, plan=plan).run()
