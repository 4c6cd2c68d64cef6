"""One query description: the paper's two query types as frozen values.

:class:`QueryOptions` declares the options every query takes, once:
the measure and its configuration (``lambda``, ``epsilon -> d``) and
the budget (Definition 4, Section VII-A).  :class:`TwoWayRequest`,
:class:`MultiWayRequest` and :class:`ExplainRequest` add what each query
type names.  :func:`repro.api.run` executes a request; the api's keyword
entry points, the query service and the CLI all build one and call it.

:func:`resolve_measure` turns the measure options into the one measure
value every join below the api reads — DHT included: a
:class:`~repro.core.dht.DHTMeasure` is a measure like PPR.

Requests are unvalidated values: construction only normalises node ids
to tuples of ints (rejecting a non-integral or bool id), so any other
malformed request fails when it runs (an error response from the
service, not a constructor exception).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.dht import DHTMeasure, DHTParams
from repro.core.nway.aggregates import MIN, Aggregate
from repro.exec.budget import QueryBudget
from repro.extensions.measures import TruncatedPPR
from repro.graph.validation import GraphValidationError, node_ids

#: Every measure name, each its measure's default configuration.
_NAMED = {
    "dht": DHTMeasure,
    "dht-lambda": DHTMeasure,
    "dht-e": lambda: DHTMeasure(DHTParams.dht_e()),
    "ppr": TruncatedPPR,
}
MEASURE_NAMES = tuple(sorted(_NAMED))

#: What an object needs to be a measure (the ``SeriesMeasure`` contract
#: the joins, bounds and caches read).
_MEASURE_CONTRACT = ("d", "floor", "kernel", "tail_weights", "x_bound")


def resolve_measure(
    measure: Optional[object] = None,
    *,
    params: Optional[DHTParams] = None,
    d: Optional[int] = None,
    epsilon: Optional[float] = None,
):
    """The one measure the :class:`QueryOptions` ``measure`` / ``params``
    / ``d`` / ``epsilon`` describe.

    ``measure=None`` is DHT configured by the other three (defaults:
    ``DHT_lambda(0.2)``, ``epsilon = 1e-6``, so ``d = 8`` — Section
    VII-A).  A name is that measure's default configuration and an
    instance is returned as it is; either fixes its own depth and
    coefficients, so ``params`` / ``d`` / ``epsilon`` alongside one are
    an error (silently dropping them would change results).
    """
    if measure is None:
        return DHTMeasure(params, d=d, epsilon=epsilon)
    passed = [
        name for name, value in
        (("params", params), ("d", d), ("epsilon", epsilon))
        if value is not None
    ]
    if passed:
        raise GraphValidationError(
            "a measure fixes its own depth and coefficients, so params, "
            "d and epsilon are DHT-only options (pass them with "
            "measure=None); configure the measure instance instead "
            f"(got {', '.join(passed)})"
        )
    if isinstance(measure, str):
        if measure.lower() not in _NAMED:
            raise GraphValidationError(
                f"unknown measure {measure!r}; choose from "
                f"{', '.join(MEASURE_NAMES)}"
            )
        return _NAMED[measure.lower()]()
    if all(hasattr(measure, a) for a in _MEASURE_CONTRACT):
        return measure
    raise GraphValidationError(
        f"measure must be None, a name ({', '.join(MEASURE_NAMES)}) or an "
        f"object with {', '.join(_MEASURE_CONTRACT)}; got {measure!r}"
    )


@dataclass(frozen=True, kw_only=True)
class QueryOptions:
    """The options every query takes, each declared once.

    ``measure``
        ``None`` (DHT configured by ``params`` / ``d`` / ``epsilon``, or
        the service's configured DHT), a name (``"dht"``,
        ``"dht-lambda"``, ``"dht-e"``, ``"ppr"``), or a
        measure instance (:class:`~repro.core.dht.DHTMeasure` or any
        :class:`~repro.extensions.measures.SeriesMeasure`): the same
        operators run, with the measure's scorer and bound read off the
        join's context.  Names use the measure's default parameters and
        resolve to a fresh instance per execution; pass an instance to
        configure.
    ``params`` / ``d`` / ``epsilon``
        DHT configuration (:class:`~repro.core.dht.DHTParams`, the
        truncation depth, or the error target that sets it — Lemma 1)
        under :func:`resolve_measure`; the default is the paper's
        ``DHT_lambda(0.2)`` with ``epsilon = 1e-6`` (``d = 8``).
        Rejected alongside a name or an instance, which fixes its own
        coefficients and depth.
    ``budget``
        A :class:`~repro.exec.budget.QueryBudget` (deadline, step
        budget, byte ceiling) for the query's governor; ``None`` sets no
        axis.  ``budget.max_bytes`` is the one walk-block ceiling: every
        block operator plans its width under it before walking, and a
        ceiling below one column (``16 * num_nodes`` bytes) stops with
        ``reason="bytes"``.  Explains are never budget-governed.
    ``on_budget``
        What exhaustion does: ``"partial"`` (default) returns
        best-effort results with score intervals, ``"error"`` raises
        :class:`~repro.exec.budget.BudgetExhaustedError`.
    """

    measure: Optional[object] = None
    params: Optional[DHTParams] = None
    d: Optional[int] = None
    epsilon: Optional[float] = None
    budget: Optional[QueryBudget] = None
    on_budget: str = "partial"


@dataclass(frozen=True)
class TwoWayRequest(QueryOptions):
    """Top-``k`` pairs between node sets ``left`` and ``right``.

    ``algorithm`` is one of ``"f-bj"``, ``"f-idj"``, ``"b-bj"``,
    ``"b-idj-x"``, ``"b-idj-y"`` (default — the paper's fastest).  Each
    name runs the same join under every measure, with the measure's
    scorer and bound; the forward algorithms are DHT-only.
    """

    left: Tuple[int, ...]
    right: Tuple[int, ...]
    k: int
    algorithm: str = "b-idj-y"

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", node_ids(self.left))
        object.__setattr__(self, "right", node_ids(self.right))


@dataclass(frozen=True)
class MultiWayRequest(QueryOptions):
    """Top-``k`` n-tuples over the query graph ``query_edges`` (Definition 4).

    ``query_edges`` are directed edges over the vertices of
    ``node_sets``, one node set per vertex; ``names`` are the vertices'
    optional display names (edges print as ``DB->AI``).

    ``algorithm``
        ``"nl"``, ``"ap"``, ``"pj"``, or ``"pj-i"`` (default — the
        paper's best), each with the source and default operator of the
        driver's :data:`~repro.core.nway.driver.STRATEGIES` table under
        every measure; ``"nl"``, and ``"ap"``'s default ``F-BJ``, walk
        forward, so under a non-DHT measure ``"nl"`` is rejected and
        ``"ap"`` materialises with ``B-BJ``.  Under a budget or a fault
        injector ``"pj-i"`` runs ``PJ``'s restart source, ``"ap"``
        materialises with ``B-BJ``, and ``"nl"`` is rejected.
    ``m``
        Prefix length for ``PJ``/``PJ-i`` (ignored by ``NL``/``AP``).
    ``aggregate``
        Monotone ``f`` over per-edge scores (default ``MIN``).
    ``plan``
        ``"fixed"`` (index edge order, the executor's default operator),
        ``"auto"`` (the cost-based planner of :mod:`repro.planner`
        chooses edge order and per-edge operators from degree/skew
        statistics), or an :class:`~repro.planner.plan.ExplainedPlan`,
        replayed verbatim.  Plans never change answers, only cost;
        ``"nl"`` has no per-edge structure and rejects ``"auto"``.
    """

    query_edges: Tuple[Tuple[int, int], ...]
    node_sets: Tuple[Tuple[int, ...], ...]
    k: int
    algorithm: str = "pj-i"
    m: int = 50
    aggregate: Aggregate = MIN
    plan: object = "fixed"
    names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "query_edges",
            tuple([(int(i), int(j)) for i, j in self.query_edges]),
        )
        object.__setattr__(
            self, "node_sets",
            tuple([node_ids(nodes) for nodes in self.node_sets]),
        )


@dataclass(frozen=True)
class ExplainRequest(MultiWayRequest):
    """The :class:`~repro.planner.plan.ExplainedPlan` the matching
    :class:`MultiWayRequest` would execute, planned without walking
    (degree statistics and cache probes only); ``plan`` defaults to
    ``"auto"``."""

    plan: object = "auto"
