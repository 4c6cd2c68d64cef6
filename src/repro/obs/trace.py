"""Structured query tracing: spans + event counters, near-zero when off.

One :class:`QueryTracer` instance is shared by every layer of a traced
query (engine, rounds, joins, executors, service workers).  The design
follows the governor's cooperative-checkpoint shape:

* **Spans** nest per thread (``query -> plan -> edge -> level ->
  walk_level`` …).  A span is opened through
  :meth:`~repro.walks.engine.WalkEngine.trace_span` (or
  :meth:`QueryTracer.span` directly) as a context manager; when an
  engine-stats object is attached, the span records this *thread's*
  delta of the propagation/cache counters between open and close — the
  same :meth:`~repro.walks.engine.WalkEngineStats.local` mechanism the
  governor's step metering uses, so a span's counters are never
  polluted by concurrent queries on a shared engine.
* **Events** are cheap per-site counters on the innermost open span:
  every ``engine.checkpoint(site)`` forwards one event when a tracer is
  installed, so the governor's checkpoint taxonomy (``step`` / ``block``
  / ``alloc`` / ``round`` / ``edge`` / ``cache``) doubles as the trace
  vocabulary.  ``alloc`` events carry the predicted block size, giving
  each span a per-span ``peak_block_bytes`` high-water mark.
* **Disabled cost**: without a tracer installed the only added work per
  hook is one thread-local attribute read (``engine.tracer is None``)
  plus, for span sites, returning the shared :data:`NULL_SPAN`
  singleton.  The bench ``observability`` section bounds this under 2%
  of the pressured-star runtime.
* **Isolation**: exporters never raise into query code —
  :meth:`QueryTracer.write_jsonl` catches everything and counts the
  failure in :attr:`QueryTracer.export_errors`.

Completed root spans accumulate in a bounded ring (newest kept), each
serialisable via :meth:`TraceSpan.to_dict` under
:data:`TRACE_SCHEMA` so the CI smoke step can validate traces
structurally.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional

from repro.walks.engine import NULL_SPAN

#: Schema tag stamped on every exported trace line.
TRACE_SCHEMA = "repro-trace-v1"

#: Engine-stat fields captured as per-span thread-local deltas.
TRACE_COUNTERS = (
    "propagation_steps",
    "frontier_steps",
    "sparse_products",
    "bound_cache_hits",
    "plan_cache_hits",
    "extensions",
    "steps_saved",
    "checkpoints",
    "budget_stops",
)

#: The span vocabulary, outermost to innermost.  ``service`` wraps one
#: worker-executed request (queue wait recorded as an attribute),
#: ``query`` one api-level join call, ``plan`` the plan resolution,
#: ``edge`` one query edge's initial build, ``refill`` one rank-join
#: refill against an edge, ``join`` one two-way algorithm run, ``level``
#: one iterative-deepening round, ``walk_level`` one rounds-layer pass,
#: ``rankjoin`` the PBRJ drive.
SPAN_KINDS = (
    "service", "query", "plan", "edge", "refill", "join", "level",
    "walk_level", "rankjoin",
)


# NULL_SPAN (the shared no-op span) is defined on the engine side —
# see repro.walks.engine — and re-exported here as the canonical name.


class TraceSpan:
    """One timed, counted unit of query work.

    Use as a context manager (via :meth:`QueryTracer.span`); nesting is
    per thread and enforced — closing a span that is not the innermost
    open one raises, and the tracer can assert every span was closed.
    """

    __slots__ = (
        "kind", "name", "attrs", "t_start", "elapsed_s", "events",
        "counters", "peak_block_bytes", "children",
        "_tracer", "_stats", "_base", "_extra", "_extra_base",
    )

    def __init__(self, tracer: "QueryTracer", kind: str, name: str,
                 attrs: dict, stats=None, extra=None) -> None:
        self.kind = kind
        self.name = name
        self.attrs = attrs
        self.t_start = 0.0
        self.elapsed_s = 0.0
        self.events: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.peak_block_bytes = 0
        self.children: List["TraceSpan"] = []
        self._tracer = tracer
        self._stats = stats
        self._base = None
        # ``extra`` is a callable returning a dict of additional counter
        # values to delta across the span (e.g. a walk cache's global
        # hit count; exact when the query is single-threaded, advisory
        # under concurrent sharing).
        self._extra = extra
        self._extra_base = None

    def __enter__(self) -> "TraceSpan":
        self._tracer._push(self)
        if self._stats is not None:
            local = self._stats.local
            self._base = tuple(local(c) for c in TRACE_COUNTERS)
        if self._extra is not None:
            self._extra_base = dict(self._extra())
        self.t_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed_s = time.perf_counter() - self.t_start
        if self._base is not None:
            local = self._stats.local
            self.counters = {
                c: local(c) - base
                for c, base in zip(TRACE_COUNTERS, self._base)
            }
        if self._extra_base is not None:
            for name, value in self._extra().items():
                self.counters[name] = value - self._extra_base.get(name, 0)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)
        return False  # never swallow the query's exception

    def set(self, **attrs) -> None:
        """Attach attributes to an open (or just-closed) span."""
        self.attrs.update(attrs)

    # -- aggregation over the subtree ----------------------------------

    def walk(self):
        """Yield this span and every descendant (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def subtree_peak_bytes(self) -> int:
        """Max per-span allocation high-water mark in the subtree."""
        return max(span.peak_block_bytes for span in self.walk())

    def find(self, kind: str, **attrs) -> List["TraceSpan"]:
        """All spans in the subtree with ``kind`` and matching attrs."""
        return [
            span for span in self.walk()
            if span.kind == kind
            and all(span.attrs.get(k) == v for k, v in attrs.items())
        ]

    def to_dict(self) -> dict:
        """JSON-serialisable form (the exported trace schema)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "attrs": dict(self.attrs),
            "t_start": self.t_start,
            "elapsed_s": self.elapsed_s,
            "events": dict(self.events),
            "counters": dict(self.counters),
            "peak_block_bytes": self.peak_block_bytes,
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceSpan({self.kind!r}, {self.name!r}, "
            f"{self.elapsed_s * 1e3:.2f} ms, {len(self.children)} children)"
        )


class QueryTracer:
    """Collects spans and events for traced queries; thread-safe.

    One tracer may serve many threads concurrently (the service installs
    one per worker request): span stacks are per-thread, completed root
    spans land in a bounded shared ring, and the span-less counters
    (admissions, rejections) are lock-protected.
    """

    def __init__(self, max_traces: int = 256) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        self._max_traces = max_traces
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stacks: Dict[int, list] = {}
        self._traces: List[TraceSpan] = []
        self.dropped_traces = 0
        self.export_errors = 0
        self.counts: Dict[str, int] = {}

    # -- span lifecycle -------------------------------------------------

    def span(self, kind: str, name: str = "", stats=None, extra=None,
             **attrs) -> TraceSpan:
        """A new (not yet entered) span; use as a context manager."""
        return TraceSpan(self, kind, name, attrs, stats=stats, extra=extra)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def _push(self, span: TraceSpan) -> None:
        self._stack().append(span)

    def _pop(self, span: TraceSpan) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"trace span {span.kind}/{span.name} closed out of order"
            )
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._traces.append(span)
                if len(self._traces) > self._max_traces:
                    del self._traces[0]
                    self.dropped_traces += 1

    # -- hot-path hooks -------------------------------------------------

    def event(
        self, site: str, nbytes: Optional[int] = None, count: int = 1
    ) -> None:
        """``count`` checkpoint-site events on the innermost open span."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return
        span = stack[-1]
        span.events[site] = span.events.get(site, 0) + count
        if nbytes is not None and nbytes > span.peak_block_bytes:
            span.peak_block_bytes = nbytes

    def count(self, name: str, amount: int = 1) -> None:
        """Span-less tracer counter (admission outcomes etc.)."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- inspection -----------------------------------------------------

    @property
    def traces(self) -> List[TraceSpan]:
        """Completed root spans, oldest first (bounded ring)."""
        with self._lock:
            return list(self._traces)

    def pop_traces(self) -> List[TraceSpan]:
        """Drain and return the completed root spans."""
        with self._lock:
            drained = list(self._traces)
            self._traces.clear()
        return drained

    def open_spans(self) -> int:
        """Spans currently open across every thread."""
        with self._lock:
            return sum(len(stack) for stack in self._stacks.values())

    def assert_all_closed(self) -> None:
        """Raise if any thread still has an open span."""
        open_count = self.open_spans()
        if open_count:
            raise AssertionError(f"{open_count} trace spans left open")

    # -- export (must never raise into query code) ----------------------

    def write_jsonl(self, path: str, drain: bool = True) -> int:
        """Append completed traces to ``path``, one JSON line each.

        Returns the number of traces written; on any export failure the
        queries are unaffected — the error is swallowed and counted in
        :attr:`export_errors`.
        """
        spans = self.pop_traces() if drain else self.traces
        written = write_trace_jsonl(path, spans)
        if written != len(spans):
            with self._lock:
                self.export_errors += 1
        return written


def write_trace_jsonl(path: str, spans) -> int:
    """Append root spans to ``path``, one schema-tagged JSON line each.

    Never raises (an unwritable trace file must not affect queries);
    returns the number of spans written — 0 on failure.
    """
    try:
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(
                    {"schema": TRACE_SCHEMA, "span": span.to_dict()},
                    sort_keys=True,
                ))
                fh.write("\n")
    except Exception:
        return 0
    return len(spans)


def validate_trace_dict(payload: dict) -> List[str]:
    """Structural schema check for one exported trace line.

    Returns a list of problems (empty when valid) — the CI traced-query
    smoke step runs this over every ``--trace-out`` line.
    """
    problems: List[str] = []
    if payload.get("schema") != TRACE_SCHEMA:
        problems.append(f"schema != {TRACE_SCHEMA!r}")
        return problems

    def check(span: dict, path: str) -> None:
        for key in ("kind", "name", "attrs", "t_start", "elapsed_s",
                    "events", "counters", "peak_block_bytes", "children"):
            if key not in span:
                problems.append(f"{path}: missing {key!r}")
                return
        if span["kind"] not in SPAN_KINDS:
            problems.append(f"{path}: unknown kind {span['kind']!r}")
        if span["elapsed_s"] < 0:
            problems.append(f"{path}: negative elapsed_s")
        for name, value in span["events"].items():
            if not isinstance(value, int) or value < 0:
                problems.append(f"{path}: bad event count {name}={value!r}")
        for child in span["children"]:
            check(child, f"{path}/{child.get('kind', '?')}")

    span = payload.get("span")
    if not isinstance(span, dict):
        problems.append("span is not an object")
    else:
        check(span, span.get("kind", "?"))
    return problems
