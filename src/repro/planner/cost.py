"""The planner's cost model, denominated in propagation steps.

Every estimate is expressed in the repo's one perf currency —
batching-invariant *column-steps* (``WalkEngineStats.propagation_steps``)
— so planner predictions and engine measurements live on the same
axis and the bench section can score them against each other.

Per-operator formulas for one query edge ``(P, Q)`` at depth ``d``
(``p = |P|``, ``q = |Q|``):

==============  =====================================================
operator kind   estimated column-steps
==============  =====================================================
``basic``       ``d * q`` — every right target walks the full depth
``idj-y``       ``q * (1 + sigma * (d - 1)) + (d if Y unbuilt)`` —
                level 1 always walks; survivors (fraction ``sigma``)
                pay the remaining depth; the reach-mass ``Y`` table
                costs one ``d``-step aggregated propagation unless an
                earlier edge of the plan built it
``idj-x``       like ``idj-y`` with a weaker (closed-form) tail:
                pruning power is discounted, the bound is free
``f-bj``        ``d * p * q`` — one absorbing walk per *pair*
``f-idj``       ``p * q * (1 + sigma_x * (d - 1))``
==============  =====================================================

``sigma = 1 - rho`` is the survivor fraction after the first pruning
round; the pruning power ``rho`` is driven by the degree-skew signals
(hub fraction of the left set, the graph's out-degree coefficient of
variation) — skewed reach mass concentrates score on few pairs, so the
``Y`` threshold bites early (the Section VII observation that ``B-IDJ``
wins big exactly on hub-heavy graphs).

Backward operators additionally earn a *cache credit*: targets of
``Q`` that an earlier edge of the same plan already walks into the
shared walk cache are walks this edge will not pay again (``d`` steps
each), discounted by the fixed ``_CREDIT_SCALE``.  Every input is a
degree statistic or the plan's own schedule so far, so one query
always gets one plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.planner.stats import GraphStats, NodeSetStats

# Bump whenever a formula or coefficient below changes: the golden
# decision tests pin this version, so a cost-model edit that flips a
# plan choice fails CI until the goldens are regenerated deliberately.
COST_MODEL_VERSION = 2

# Pruning power never reaches 1: some survivors always walk full depth.
RHO_MAX = 0.9
# Skew-signal weights in rho = 1 - exp(-(HUB_W * hub_frac + CV_W * cv')).
_HUB_WEIGHT = 1.25
_CV_WEIGHT = 1.5
# The closed-form X tail is data-independent and prunes roughly half as
# well as the reach-mass Y table on the bench topologies.
_X_DISCOUNT = 0.5
# Share of a resident target's ``d`` steps the cache credit counts as
# saved: a resident walk resumes, but not always from full depth.
_CREDIT_SCALE = 0.75

# The kinds that walk their right set backward into the shared cache.
BACKWARD_KINDS = ("basic", "idj-y", "idj-x")
_KINDS = BACKWARD_KINDS + ("f-bj", "f-idj")


@dataclass(frozen=True)
class EdgeCostEstimate:
    """One operator's predicted cost for one query edge."""

    kind: str
    steps: float
    walk_steps: float
    bound_steps: float
    credit: float
    survivor_fraction: float
    reasons: Tuple[str, ...]


class CostModel:
    """Degree/skew-aware per-edge cost estimates.

    Parameters
    ----------
    stats:
        The graph's degree statistics.
    d:
        The spec's truncation depth.
    """

    def __init__(self, stats: GraphStats, d: int) -> None:
        self._stats = stats
        self._d = int(d)

    @property
    def d(self) -> int:
        return self._d

    def pruning_power(self, left: NodeSetStats) -> float:
        """``rho`` in ``[0, RHO_MAX]``: predicted fraction pruned early.

        Monotone increasing in the left set's hub fraction and in the
        graph's out-degree coefficient of variation — more skew, more
        early pruning.
        """
        cv = self._stats.cv_out_degree
        cv_norm = cv / (1.0 + cv)
        rho = 1.0 - math.exp(
            -(_HUB_WEIGHT * left.hub_fraction + _CV_WEIGHT * cv_norm)
        )
        return min(RHO_MAX, max(0.0, rho))

    def estimate(
        self,
        kind: str,
        left: NodeSetStats,
        right: NodeSetStats,
        resident_overlap: int = 0,
        y_bound_cached: bool = False,
    ) -> EdgeCostEstimate:
        """Predicted column-steps of one operator on edge ``(P, Q)``.

        ``resident_overlap`` is the number of right-set targets an
        earlier edge of this very plan already walks (a backward kind
        resumes them instead of paying ``d`` steps each; a forward kind
        ignores it); ``y_bound_cached`` says the ``(P, d)`` reach-mass
        table is already built by an earlier edge of the plan.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown operator kind {kind!r}; choose from {_KINDS}")
        d, p, q = float(self._d), float(left.size), float(right.size)
        reasons = []
        rho = self.pruning_power(left)
        bound_steps = 0.0
        credit = 0.0
        if kind == "basic":
            walk_steps = d * q
            survivor = 1.0
        elif kind == "f-bj":
            walk_steps = d * p * q
            survivor = 1.0
            reasons.append("per-pair forward walks")
        elif kind == "f-idj":
            survivor = 1.0 - rho * _X_DISCOUNT
            walk_steps = p * q * (1.0 + survivor * (d - 1.0))
            reasons.append(f"closed-form tail, rho={rho:.2f}")
        elif kind == "idj-x":
            survivor = 1.0 - rho * _X_DISCOUNT
            walk_steps = q * (1.0 + survivor * (d - 1.0))
            reasons.append(f"closed-form tail, rho={rho:.2f}")
        else:  # idj-y
            survivor = 1.0 - rho
            walk_steps = q * (1.0 + survivor * (d - 1.0))
            if y_bound_cached:
                reasons.append(f"rho={rho:.2f}, Y cached")
            else:
                bound_steps = d
                reasons.append(f"rho={rho:.2f}, Y build {d:.0f}")
        if kind in BACKWARD_KINDS and resident_overlap > 0:
            # Resident targets resume from the cache instead of
            # re-walking full depth.
            credit = min(
                walk_steps, _CREDIT_SCALE * d * float(resident_overlap)
            )
            reasons.append(f"{resident_overlap} targets resident")
        return EdgeCostEstimate(
            kind=kind,
            steps=walk_steps + bound_steps - credit,
            walk_steps=walk_steps,
            bound_steps=bound_steps,
            credit=credit,
            survivor_fraction=survivor,
            reasons=tuple(reasons),
        )
