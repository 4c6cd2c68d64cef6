"""Benchmark-side span tracer: runtime wrappers around layer boundaries.

A traced run installs one timing wrapper per path in
:data:`bench.layers.BOUNDARIES` (class or module attributes are swapped
at runtime; ``src/`` is never edited) and removes them again when the
traced phase ends.  Each call through a wrapper records one span --
layer, name, op id, start, end, parent -- into a per-thread in-memory
list; a thread-local stack supplies the parent and accumulates child
time, so a span's self time is its duration minus the part its child
spans cover.  Nothing is written until the workload has finished
(:meth:`SpanTracer.write_jsonl`).

The query service executes a request on a worker thread while the client
thread waits inside ``QueryService.query``.  The worker-side spans have
no parent on their own thread; they carry the op id the client
registered for the request object, and :meth:`SpanTracer.summary`
charges their duration against the waiting ``query`` span, so the
service layer's self time is queueing, dispatch and the reply hand-off
only.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import types
import warnings
from collections import Counter
from typing import Dict, List, Tuple

from bench import layers

# One recorded span: (span id, parent id or -1, op id, layer, name,
# start, end, seconds covered by child spans).
Span = Tuple[int, int, int, str, str, float, float, float]


class _ThreadLog:
    """Spans, open-span stack and harvested counters of one thread."""

    __slots__ = ("index", "stack", "spans", "op", "is_client", "counts", "next_id")

    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: List[list] = []  # open spans: [span id, child seconds]
        self.spans: List[Span] = []
        self.op = -1
        self.is_client = False
        self.counts: Counter = Counter()
        self.next_id = 0


def resolve(path: str):
    """``(owner, attribute name)`` of a dotted path, importing as needed.

    The longest importable prefix is the module; the rest is an
    attribute chain ending in the attribute to wrap.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1]
    raise ImportError(f"no importable module prefix in {path!r}")


#: The service hands a request from the client thread to a worker thread;
#: the worker-side span learns its op id from ``_dispatch``'s request
#: argument (the object the client registered in :meth:`SpanTracer.begin_op`).
DISPATCH = "repro.service.service.QueryService._dispatch"
#: The one span whose ``self`` carries a public stats object worth reading
#: when the call returns (``RankJoinStats``).
RANK_JOIN_RUN = "repro.rankjoin.pbrj.PBRJ.run"


def harvest_rank_join(pbrj, counts: Counter) -> None:
    """Fold one finished ``PBRJ.run``'s ``RankJoinStats`` into ``counts``."""
    stats = pbrj.stats
    counts["rankjoin.pulls"] += stats.pulls
    counts["rankjoin.candidates"] += stats.candidates_generated
    counts["rankjoin.refills"] += stats.refills


class SpanTracer:
    """Installs the wrappers, collects spans, folds them into layer times.

    Use as a context manager around the traced phase: wrappers exist only
    inside the ``with`` block and the original attributes are restored on
    exit, exception or not.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: List[_ThreadLog] = []
        self._op_of_request: Dict[int, int] = {}
        self._created = time.perf_counter()
        self._installed = False
        #: layer -> paths that did not resolve (their self time is unknown).
        self.unresolved: Dict[str, List[str]] = {}
        # (owner, attribute, original, wrapper) per resolvable boundary.
        self._targets: List[Tuple[object, str, object, object]] = []
        for layer, paths in layers.BOUNDARIES.items():
            for path in paths:
                try:
                    owner, attr = resolve(path)
                    original = (
                        vars(owner)[attr] if isinstance(owner, type)
                        else getattr(owner, attr)
                    )
                    if not isinstance(original, types.FunctionType):
                        raise TypeError(f"{path} is not a plain function")
                except (ImportError, AttributeError, KeyError, TypeError) as exc:
                    warnings.warn(
                        f"boundary {path} of layer {layer} does not resolve "
                        f"({type(exc).__name__}: {exc}); {layer} self time "
                        "will be null",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self.unresolved.setdefault(layer, []).append(path)
                    continue
                wrapper = self._wrap(
                    original,
                    layer,
                    ".".join(path.split(".")[-2:]),
                    op_arg=1 if path == DISPATCH else None,
                    harvest=harvest_rank_join if path == RANK_JOIN_RUN else None,
                )
                self._targets.append((owner, attr, original, wrapper))

    # ------------------------------------------------------------------
    # Wrapper installation
    # ------------------------------------------------------------------

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        """Swap every resolved boundary for its timing wrapper."""
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        """Put every original attribute back (idempotent)."""
        if self._installed:
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)
            self._installed = False

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _wrap(self, original, layer: str, name: str, op_arg, harvest):
        local = self._local
        new_log = self._log
        op_of_request = self._op_of_request
        perf = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            log = getattr(local, "log", None) or new_log()
            if op_arg is not None:
                log.op = op_of_request.get(id(args[op_arg]), -1)
            stack = log.stack
            frame = [log.next_id, 0.0]
            log.next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                log.spans.append(
                    (frame[0], parent, log.op, layer, name, start, end, frame[1])
                )
                if harvest is not None:
                    harvest(args[0], log.counts)

        return wrapper

    # ------------------------------------------------------------------
    # Load-generator side
    # ------------------------------------------------------------------

    def begin_op(self, op: int, request: object = None) -> None:
        """Tag the calling (client) thread's next spans with ``op``.

        ``request`` is registered too when the op is handed to another
        thread by object (the service's worker learns its op from it).
        """
        log = self._log()
        log.op = op
        log.is_client = True
        if request is not None:
            self._op_of_request[id(request)] = op

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(log.spans) for log in self._logs)

    def counts(self) -> Counter:
        """Harvested counters, merged over threads."""
        merged: Counter = Counter()
        for log in self._logs:
            merged.update(log.counts)
        return merged

    def summary(self) -> dict:
        """Self seconds per layer plus the client-side root span total.

        ``self_s[layer]`` is ``None`` for a layer with an unresolved
        path: time spent behind a missing wrapper is silently folded
        into its caller, so neither number can be trusted.
        """
        self_s = {layer: 0.0 for layer in layers.BOUNDARIES}
        client_root_s = 0.0
        remote_root_s = 0.0
        for log in self._logs:
            for _, parent, _, layer, _, start, end, child_s in log.spans:
                duration = end - start
                self_s[layer] += duration - child_s
                if parent == -1:
                    if log.is_client:
                        client_root_s += duration
                    else:
                        remote_root_s += duration
        if remote_root_s and "service" in self_s:
            # Worker-thread trees ran while a client sat in
            # QueryService.query: they are that span's children.
            self_s["service"] -= remote_root_s
        for layer in self.unresolved:
            self_s[layer] = None
        return {
            "self_s": self_s,
            "client_root_s": client_root_s,
            "spans": self.span_count(),
        }

    def write_jsonl(self, path, max_spans: int) -> int:
        """Write the spans of the earliest ops, one JSON object per line.

        Whole ops are kept, in op order, while they fit in ``max_spans``
        (at least one op is always written).  Times are seconds since the
        tracer was created.  A span with ``parent: null`` on a thread
        other than its op's client thread is a worker-side tree: it ran
        while the op's ``QueryService.query`` span was waiting for it.
        """
        per_op = Counter(span[2] for log in self._logs for span in log.spans)
        keep = set()
        budget = max_spans
        for op in sorted(per_op):
            if keep and per_op[op] > budget:
                break
            keep.add(op)
            budget -= per_op[op]
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for log in self._logs:
                for span_id, parent, op, layer, name, start, end, child_s in log.spans:
                    if op not in keep:
                        continue
                    fh.write(json.dumps({
                        "thread": log.index,
                        "id": span_id,
                        "parent": parent if parent >= 0 else None,
                        "op": op,
                        "layer": layer,
                        "name": name,
                        "start_s": round(start - self._created, 9),
                        "end_s": round(end - self._created, 9),
                        "self_s": round(end - start - child_s, 9),
                    }))
                    fh.write("\n")
                    written += 1
        return written
