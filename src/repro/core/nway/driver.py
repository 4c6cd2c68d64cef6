"""The one n-way driver: an edge source per query edge under one PBRJ.

The paper's n-way strategies differ in exactly one thing — how a query
edge's descending pair stream is produced — and share the rest (a
rank join over those streams).  :class:`NWayDriver` is that shared
rest, written once: resolve the plan, walk its build order, open one
*edge source* per edge, hand the streams to one
:class:`~repro.rankjoin.pbrj.PBRJ`, fill one stats record.  The
per-edge 2-way operators come from one table below (:data:`OPERATORS`)
and each strategy's default operator and edge source from one more
(:data:`STRATEGIES`: ``ap`` materialised, ``pj`` restart, ``pj-i``
incremental).  A name means one thing under every measure; the one DHT
check (:func:`runs_under`) only decides whether forward walks may run.
``docs/ALGORITHMS.md`` has the tables with the paper's cost models.

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


#: Plan operator name -> ``context -> join`` factory.  Every name means
#: one join under every measure; :func:`runs_under` only says whether
#: the forward ones may run.
OPERATORS = {
    "f-bj": ForwardBasicJoin,
    "f-idj": ForwardIDJ,
    "b-bj": BackwardBasicJoin,
    "b-idj-x": BackwardIDJX,
    "b-idj-y": BackwardIDJY,
}

#: The names that walk forward — one absorbing walk per pair (``F-*``)
#: or per answer tuple (``NL``), a DHT-specific kernel.
FORWARD = ("f-bj", "f-idj", "nl")


def runs_under(name: str, measure) -> bool:
    """Whether operator or strategy ``name`` may run under ``measure`` —
    the one DHT check, and the one thing it decides: forward walks
    (:data:`FORWARD`, and so ``AP``'s default materialiser) need DHT."""
    return name not in FORWARD or isinstance(measure, DHTMeasure)


def _by_name(table: dict, name: str, what: str) -> Callable:
    try:
        return table[name.lower()]
    except KeyError:
        raise GraphValidationError(
            f"unknown {what} {name!r}; choose from {sorted(table)}"
        ) from None


def two_way_operator(name: str, measure) -> str:
    """The :data:`OPERATORS` key of 2-way algorithm ``name`` — the name
    itself, once it is known and may run under ``measure``."""
    _by_name(OPERATORS, name, "2-way algorithm")
    name = name.lower()
    if not runs_under(name, measure):
        raise GraphValidationError(
            f"algorithm {name!r} walks forward and is DHT-only; under a "
            f"measure choose from "
            f"{sorted(op for op in OPERATORS if runs_under(op, measure))}"
        )
    return name


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

    def __init__(self, context, factory, m) -> None:
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

    def __init__(self, context, factory, m) -> None:
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
    """``PJ-i``: one :class:`IncrementalTwoWayJoin` per edge, under the
    bound of the plan row's operator (``b-idj-x``: ``X``, ``b-idj-y``:
    ``Y``); a row whose operator has no bound (a replayed ``PJ`` plan's
    ``b-bj``) refines under ``Y``, the paper's choice.
    """

    def __init__(self, context, factory, m) -> None:
        self.join = IncrementalTwoWayJoin(
            context,
            bound_factory=getattr(factory, "bound_factory", y_bound_factory),
        )
        self.limit = m
        self.refills = 0

    def initial(self) -> List[ScoredPair]:
        return self.join.top(self.limit)

    def next_pair(self) -> Optional[ScoredPair]:
        self.refills += 1
        return self.join.next_pair()


#: strategy -> (default operator, edge source), one row per strategy
#: under every measure; where forward walks may not run, ``AP``
#: materialises with ``b-bj`` instead (:func:`strategy_operator`).
STRATEGIES = {
    "ap": ("f-bj", _Materialised),
    "pj": ("b-idj-y", _RestartProvider),
    "pj-i": ("b-idj-y", _Incremental),
}


def strategy_operator(strategy: str, measure) -> str:
    """The operator a ``fixed`` plan of ``strategy`` gives every edge
    under ``measure``."""
    operator = STRATEGIES[strategy][0]
    return operator if runs_under(operator, measure) else "b-bj"


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
    :data:`STRATEGIES` — the edge source and the planner's candidates;
    ``default_operator`` is what a ``"fixed"`` plan gives every edge
    (default: :func:`strategy_operator`); ``m`` is the lazy sources'
    prefix length (``AP`` ignores it); ``plan`` overrides ``spec.plan``.
    Every source reads its join — and ``PJ-i`` its bound — off the plan
    row's operator.  The public per-strategy classes (``PartialJoin``
    ...) document them in full.

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
    ) -> None:
        if strategy != "ap" and m < 0:
            raise GraphValidationError(f"m must be >= 0, got {m}")
        self._spec = spec
        self._strategy = strategy
        self._default_operator = default_operator or strategy_operator(
            strategy, spec.measure
        )
        self._m = m
        self._plan = plan
        self.plan = None
        self.stats = PartialJoinStats()
        self.rank_join: Optional[RankJoinStats] = None
        self.reasons: List[str] = []
        self.intervals: Dict[tuple, Interval] = {}

    def _open(self, e: int, ep):
        """The edge source of query edge ``e`` under its plan row."""
        return STRATEGIES[self._strategy][1](
            self._spec.edge_context(e),
            _by_name(OPERATORS, ep.operator, "plan operator"),
            self._m,
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
