"""The one n-way driver: an edge source per query edge under one PBRJ.

The paper's n-way strategies differ in exactly one thing — how a query
edge's descending pair stream is produced — and share the rest (a
rank join over those streams).  :class:`NWayDriver` is that shared
rest, written once: resolve the plan, walk its build order, open one
*edge source* per edge, hand the streams to one
:class:`~repro.rankjoin.pbrj.PBRJ`, fill one stats record.  The
sources (``ap``: materialised, ``pj``: restart, ``pj-i``: incremental)
and the per-edge 2-way operators each come from one table below, and
one more, :data:`STRATEGIES`, says which default operator and source a
strategy runs under DHT or another measure (:func:`is_dht`, the one DHT
check); ``docs/ALGORITHMS.md`` has the tables with the paper's cost
models.

Governance is a guard at the same seam, read from the thread-local
``spec.engine.governor`` (every api query installs one): without a
governor it is the identity; with one, a budget stop — or a genuine
``MemoryError`` — in an edge's build leaves that edge its snapshot
prefix (with score intervals) and no refills, a stop in a refill ends
that stream, and the reasons are collected for
:func:`repro.exec.governed.run_governed_multi_way` to flag the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.dht import DHTMeasure
from repro.core.nway.candidates import CandidateAnswer
from repro.core.nway.spec import NWayJoinSpec
from repro.core.two_way.backward import (
    BackwardBasicJoin,
    BackwardIDJX,
    BackwardIDJY,
    BoundFactory,
    y_bound_factory,
)
from repro.core.two_way.base import ScoredPair, sort_pairs
from repro.core.two_way.forward import ForwardBasicJoin, ForwardIDJ
from repro.core.two_way.incremental import IncrementalTwoWayJoin
from repro.exec.budget import BudgetExhaustedError, PartialResult
from repro.graph.validation import GraphValidationError
from repro.rankjoin.inputs import RankJoinInput
from repro.rankjoin.pbrj import PBRJ, RankJoinStats

Interval = Tuple[float, float]


_DHT_OPERATORS = {
    "f-bj": ForwardBasicJoin,
    "f-idj": ForwardIDJ,
    "b-bj": BackwardBasicJoin,
    "b-idj-x": BackwardIDJX,
    "b-idj-y": BackwardIDJY,
}

#: The 2-way names a non-DHT measure context runs, and the operator
#: each one runs as there.  Forward processing relies on per-pair
#: absorbing walks, a DHT-specific kernel, so it has no entry; both
#: deepening names keep the reach-mass bound under such a measure.
MEASURE_OPERATORS = {
    "b-bj": "basic",
    "basic": "basic",
    "b-idj-x": "idj",
    "b-idj-y": "idj",
    "idj": "idj",
}

#: Plan operator name -> ``context -> join`` factory.
#: ``basic`` / ``idj`` are the names plans record under a non-DHT measure.
OPERATORS = {
    **_DHT_OPERATORS,
    "idj": BackwardIDJY,
    "basic": BackwardBasicJoin,
}

#: ``(strategy, is_dht(measure)) -> (default operator, edge source)``.
#: A non-DHT measure has no incremental ``F`` structure, so its ``pj-i``
#: runs ``PJ``'s restart source.
STRATEGIES = {
    ("ap", True): ("f-bj", "ap"),
    ("ap", False): ("basic", "ap"),
    ("pj", True): ("b-idj-y", "pj"),
    ("pj", False): ("idj", "pj"),
    ("pj-i", True): ("b-idj-y", "pj-i"),
    ("pj-i", False): ("idj", "pj"),
}


def is_dht(measure) -> bool:
    """Whether ``measure`` is DHT — the one check behind the DHT-only
    choices: the forward operators, ``NL``, ``PJ-i``'s incremental
    source and ``B-IDJ-X`` under its own name."""
    return isinstance(measure, DHTMeasure)


def _by_name(table: dict, name: str, what: str) -> Callable:
    try:
        return table[name.lower()]
    except KeyError:
        raise GraphValidationError(
            f"unknown {what} {name!r}; choose from {sorted(table)}"
        ) from None


def two_way_operator(name: str, measure) -> str:
    """The :data:`OPERATORS` key a 2-way algorithm ``name`` runs as: the
    name itself under DHT, its :data:`MEASURE_OPERATORS` entry under
    another measure."""
    if is_dht(measure):
        _by_name(_DHT_OPERATORS, name, "2-way algorithm")
        return name.lower()
    try:
        return MEASURE_OPERATORS[name.lower()]
    except KeyError:
        raise GraphValidationError(
            f"algorithm {name!r} is DHT-only; under a measure choose from "
            f"{sorted(MEASURE_OPERATORS)}"
        ) from None


def snapshot_partial(join, k: Optional[int], reason: str) -> PartialResult:
    """Best-effort top-``k`` (``None``: all) from a stopped join's
    threshold state: the last completed deepening round's
    ``[h_l, h_l + tail_l]`` intervals (``budget_snapshot``), else the
    exactly-scored ``partial_pairs`` — see :mod:`repro.exec.governed`
    for why both are sound."""
    snapshot = getattr(join, "budget_snapshot", None)
    tail_of: Dict[int, float] = {}
    if snapshot is not None:
        blocks = [(snapshot["targets"], snapshot["left_scores"])]
        tail_of = dict(zip(snapshot["targets"], snapshot["tails"].tolist()))
    else:
        blocks = getattr(join, "partial_blocks", None) or []
    # A join that keeps neither (F-*, PJ-i) has nothing sound to report.
    results = join.context.top_pairs(blocks, k) if blocks else []
    return PartialResult(
        results=results,
        bounds=[
            (pair.score, pair.score + tail_of.get(pair.right, 0.0))
            for pair in results
        ],
        exact=False,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# Edge sources: ``initial()`` is the stream's sorted prefix, ``next_pair``
# extends it by one pair (``None``: the prefix is the whole stream),
# ``join`` / ``limit`` are what a budget stop in ``initial()`` snapshots,
# and ``refills`` counts a lazy source's ``getNextNodePair`` work.


class _Materialised:
    """``AP``: the edge's whole 2-way join, sorted; nothing to refill.

    The one place a run whose governor can stop it swaps ``F-BJ`` for
    ``B-BJ``, whatever the plan (a fixed plan's default or an ``auto``
    pick) says.
    """

    next_pair = None
    limit = None

    def __init__(self, context, factory, m, bound_factory) -> None:
        governor = context.engine.governor
        if (
            factory is ForwardBasicJoin
            and governor is not None
            and governor.can_stop
        ):
            # F-BJ keeps no ``partial_pairs`` for a budget stop to
            # report; a stoppable materialisation scores backward.
            factory = BackwardBasicJoin
        self.join = factory(context)

    def initial(self) -> List[ScoredPair]:
        return sort_pairs(self.join.all_pairs())


class _RestartProvider:
    """``PJ``: ``getNextNodePair`` the slow way — rerun top-``(m+1)``.

    "From scratch" algorithmically: the reruns share the context's
    walk/bound caches, so they re-score cached walks instead of
    re-propagating them.
    """

    def __init__(self, context, factory, m, bound_factory) -> None:
        self._context = context
        self._factory = factory
        self.limit = m
        self.refills = 0
        self.join = None

    def initial(self) -> List[ScoredPair]:
        self.join = self._factory(self._context)
        return self.join.top_k(self.limit)

    def next_pair(self) -> Optional[ScoredPair]:
        if self.limit >= self._context.num_pairs:
            return None
        self.limit += 1
        self.refills += 1
        result = self._factory(self._context).top_k(self.limit)
        if len(result) < self.limit:
            return None
        return result[-1]


class _Incremental:
    """``PJ-i``: one :class:`IncrementalTwoWayJoin` per edge.

    The ``F``-structure is its own operator, so the plan's operator
    name is not consulted — only the caller's bound flavour.
    """

    def __init__(self, context, factory, m, bound_factory) -> None:
        self.join = IncrementalTwoWayJoin(context, bound_factory=bound_factory)
        self.limit = m
        self.refills = 0

    def initial(self) -> List[ScoredPair]:
        return self.join.top(self.limit)

    def next_pair(self) -> Optional[ScoredPair]:
        self.refills += 1
        return self.join.next_pair()


_SOURCES = {"ap": _Materialised, "pj": _RestartProvider, "pj-i": _Incremental}


# ---------------------------------------------------------------------------
# The governance guard


class _Unguarded:
    """No governor installed: every call passes straight through."""

    def initial(self, e, open_source):
        source = open_source()
        return source.initial(), source

    def refill(self, pull):
        return pull

    def attempt(self, call, empty):
        return call()


class _Governed:
    """Budget stops become shorter streams plus a reason, never errors.

    A stopped edge never aborts the join: it contributes what its join
    can soundly report, and the driver's ``reasons`` / ``intervals``
    (shared with this guard) let the caller flag the answers partial.
    """

    def __init__(self, governor, reasons, intervals) -> None:
        self._governor = governor
        self._reasons = reasons
        self._intervals = intervals  # (edge, left, right) -> (lower, upper)

    def _flag_partial(self, reason: str) -> None:
        self._governor.count_budget_stop()
        self._reasons.append(reason)

    def _partial_prefix(self, e, source, reason: str):
        # A snapshot prefix is ranked by lower bounds; a refill could
        # emit a pair the prefix already contains, violating PBRJ's
        # sorted-stream contract — so the stopped edge's stream ends at
        # its prefix.
        self._flag_partial(reason)
        partial = snapshot_partial(source.join, source.limit, reason)
        for pair, interval in zip(partial.results, partial.bounds):
            self._intervals[(e, pair.left, pair.right)] = interval
        return partial.results, None

    def initial(self, e, open_source):
        try:
            source = open_source()
        except BudgetExhaustedError as exc:
            # The budget died before this edge even started: it
            # contributes an empty stream (sound — no fabricated pairs).
            self._flag_partial(exc.reason)
            return [], None
        try:
            return source.initial(), source
        except BudgetExhaustedError as exc:
            return self._partial_prefix(e, source, exc.reason)
        except MemoryError:
            return self._partial_prefix(e, source, "bytes")

    def refill(self, pull):
        def guarded() -> Optional[ScoredPair]:
            # A refill that hits the budget exhausts this input instead
            # of erroring the whole rank join.
            try:
                return pull()
            except BudgetExhaustedError as exc:
                self._flag_partial(exc.reason)
            except MemoryError:
                self._flag_partial("bytes")
            return None

        return guarded

    def attempt(self, call, empty):
        try:
            return call()
        except BudgetExhaustedError as exc:
            # During candidate expansion, checkpoints inside cached-walk
            # lookups can still fire.  No answer is fabricated.
            self._flag_partial(exc.reason)
            return empty


@dataclass
class PartialJoinStats:
    """Instrumentation of one lazy (``PJ`` / ``PJ-i``) n-way run."""

    next_pair_calls: int = 0
    rank_join_pulls: int = 0
    pulls_per_edge: List[int] = field(default_factory=list)


class NWayDriver:
    """One n-way join: ``strategy``'s edge sources under one PBRJ.

    ``strategy`` (``"ap"``/``"pj"``/``"pj-i"``) picks — through
    :data:`STRATEGIES` and the spec's measure — the edge source and the
    planner's candidates; ``default_operator`` is what a ``"fixed"``
    plan gives every edge (default: the strategy's row); ``m`` is the
    lazy sources' prefix length (``AP`` ignores it); ``plan`` overrides
    ``spec.plan`` (its rows carry the materialised source's block
    width); ``bound_factory`` is the incremental source's bound flavour.
    The public per-strategy classes (``PartialJoin`` ...) document them
    in full.

    After :meth:`run`: ``plan`` is the resolved plan, ``stats`` the
    lazy-strategy record, ``rank_join`` the PBRJ's own stats, and — under
    a governor — ``reasons`` / ``intervals`` what the guard collected.
    """

    name = "n-way"

    def __init__(
        self,
        spec: NWayJoinSpec,
        strategy: str,
        default_operator: Optional[str] = None,
        m: int = 50,
        plan=None,
        bound_factory: BoundFactory = y_bound_factory,
    ) -> None:
        if strategy != "ap" and m < 0:
            raise GraphValidationError(f"m must be >= 0, got {m}")
        operator, source = STRATEGIES[(strategy, is_dht(spec.measure))]
        self._spec = spec
        self._strategy = source
        self._default_operator = default_operator or operator
        self._m = m
        self._plan = plan
        self._bound_factory = bound_factory
        self.plan = None
        self.stats = PartialJoinStats()
        self.rank_join: Optional[RankJoinStats] = None
        self.reasons: List[str] = []
        self.intervals: Dict[tuple, Interval] = {}

    def _open(self, e: int, ep):
        """The edge source of query edge ``e`` under its plan row."""
        return _SOURCES[self._strategy](
            self._spec.edge_context(e),
            _by_name(OPERATORS, ep.operator, "plan operator"),
            self._m,
            self._bound_factory,
        )

    def run(self) -> List[CandidateAnswer]:
        """Build every edge's stream, rank-join them, return the top-``k``."""
        spec = self._spec
        if spec.k == 0:
            return []
        governor = spec.engine.governor
        guard = (
            _Unguarded() if governor is None
            else _Governed(governor, self.reasons, self.intervals)
        )
        # Planning walks nothing and reads no budget: each edge's join
        # plans its block widths under the governor when it runs.
        plan = self.plan = spec.resolve_plan(
            self._strategy,
            plan=self._plan,
            default_operator=self._default_operator,
        )
        inputs: List[Optional[RankJoinInput]] = [None] * spec.query_graph.num_edges
        lazy = []  # the sources that can refill
        # The plan orders the *builds*; PBRJ still consumes ``inputs``
        # positionally (``inputs[e]`` streams query edge ``e``), so build
        # order affects walk-cache residency — never which pairs an edge
        # yields.
        for e in plan.build_order:
            ep = plan.edges[e]
            operator = ep.operator
            with spec.trace_edge_span(e, operator):
                initial, source = guard.initial(e, lambda: self._open(e, ep))
            refill = None
            if source is not None and source.next_pair is not None:
                lazy.append(source)

                def pull(next_pair=source.next_pair, e=e, operator=operator):
                    # Refills trace as ``refill`` spans so explain-analyze
                    # attributes their walks to the edge's plan row.
                    with spec.trace_edge_span(e, operator, kind="refill"):
                        return next_pair()

                refill = guard.refill(pull)
            inputs[e] = RankJoinInput(
                initial, refill=refill, name=spec.query_graph.edge_name(e)
            )
        pbrj = PBRJ(spec.query_graph, spec.aggregate, inputs, spec.k)

        def rank_join() -> List[CandidateAnswer]:
            with spec.engine.trace_span("rankjoin", self.name):
                return pbrj.run()

        answers = guard.attempt(rank_join, [])
        self.rank_join = pbrj.stats
        self.stats = PartialJoinStats(
            next_pair_calls=sum(source.refills for source in lazy),
            rank_join_pulls=pbrj.stats.pulls,
            pulls_per_edge=pbrj.stats.pulls_per_edge,
        )
        return answers
