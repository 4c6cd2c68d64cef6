"""Runtime lock-order sanitizer: the dynamic half of ``repro.analysis``.

The linter proves methods hold *a* lock; it cannot prove the process
never holds two locks in conflicting orders.  This module can, for any
schedule a test actually runs: it wraps the ``threading.Lock``/``RLock``
objects owned by repro instances with tracing proxies, keeps a
per-thread stack of held locks, and records a directed edge
``A -> B`` every time a thread acquires ``B`` while holding ``A``.

Lock *identity* is the owning attribute's name (``"WalkCache._lock"``),
not the object — every instance of a class shares one node, so two
threads crossing two *different* ``WalkCache`` instances in opposite
orders still shows up, as a self-loop on ``WalkCache._lock``.
Re-entrant re-acquisition of the *same object* (the documented
``RLock`` pattern, e.g. an evict fault calling ``clear()`` from inside
``scores()``) records no edge.

A cycle in the name graph is a potential deadlock; a lock held while
calling into engine propagation outside the documented cold-path set is
a latency/deadlock hazard.  ``assert_clean()`` checks both.  The
``lock_sanitizer`` pytest fixture (``tests/conftest.py``) hands tests a
fresh instance; ``tests/test_service_concurrency.py`` asserts the
8-worker battery clean.  The fixture is unconditional — no environment
switch turns the sanitizer on or off, so tier-1 and CI always run it.

This is intentionally *instance* instrumentation — globally patching
``threading.Lock`` would also trace the interpreter's own machinery
(queues, conditions) and drown the graph in stdlib noise.
"""

import threading

_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))

#: Locks that are *documented* to be held across engine propagation:
#: both caches deliberately build a missing artifact under their lock so
#: each key is walked at most once per process (the cold-miss tradeoff
#: described in their class docstrings).
DEFAULT_PROPAGATION_ALLOWED = frozenset({
    "WalkCache._lock", "BoundPlanCache._lock",
})

#: Engine methods that constitute "propagation" for the held-across
#: check — the block/series kernels the governor meters.
PROPAGATION_METHODS = (
    "backward_block_step", "backward_onehot_step",
    "backward_first_hit_block", "backward_first_hit_series",
    "forward_first_hit_series", "reach_mass_series",
)


class LockOrderError(AssertionError):
    """The recorded schedule admits a deadlock or a disallowed hold."""


class _TracedLock:
    """Drop-in proxy for Lock/RLock that reports to the sanitizer."""

    __slots__ = ("inner", "name", "_sanitizer")

    def __init__(self, inner, name, sanitizer):
        self.inner = inner
        self.name = name
        self._sanitizer = sanitizer

    def acquire(self, blocking=True, timeout=-1):
        acquired = self.inner.acquire(blocking, timeout)
        if acquired:
            self._sanitizer._note_acquire(self)
        return acquired

    def release(self):
        self._sanitizer._note_release(self)
        self.inner.release()

    def locked(self):
        return self.inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    def __repr__(self):
        return f"_TracedLock({self.name!r})"


class LockOrderSanitizer:
    """Records the lock-acquisition-order graph and judges it."""

    def __init__(self):
        self._held = threading.local()  # per-thread stack of _TracedLock
        self._graph_lock = threading.Lock()
        self._edges = {}  # (held_name, acquired_name) -> count
        self._propagation_holds = {}  # (lock_name, method) -> count

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def _note_acquire(self, traced):
        stack = self._stack()
        new_edges = [
            (held.name, traced.name)
            for held in stack if held.inner is not traced.inner
        ]
        stack.append(traced)
        if new_edges:
            with self._graph_lock:
                for edge in new_edges:
                    self._edges[edge] = self._edges.get(edge, 0) + 1

    def _note_release(self, traced):
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].inner is traced.inner:
                del stack[index]
                return

    def _note_propagation(self, method):
        names = self.held_names()
        if not names:
            return
        with self._graph_lock:
            for name in names:
                key = (name, method)
                self._propagation_holds[key] = (
                    self._propagation_holds.get(key, 0) + 1
                )

    # -- instrumentation ---------------------------------------------------

    def wrap(self, lock, name):
        """Wrap one lock object under the given identity."""
        if isinstance(lock, _TracedLock):
            return lock
        return _TracedLock(lock, name, self)

    def instrument(self, obj, name=None):
        """Replace every Lock/RLock attribute of ``obj`` (``__dict__``
        and ``__slots__`` alike) with a traced proxy; return the list of
        identities instrumented."""
        prefix = name or type(obj).__name__
        attrs = set(getattr(obj, "__dict__", ()) or ())
        for klass in type(obj).__mro__:
            attrs.update(getattr(klass, "__slots__", ()) or ())
        wrapped = []
        for attr in sorted(attrs):
            try:
                value = getattr(obj, attr)
            except AttributeError:
                continue
            if isinstance(value, _LOCK_TYPES):
                identity = f"{prefix}.{attr}"
                object.__setattr__(
                    obj, attr, self.wrap(value, identity)
                )
                wrapped.append(identity)
        return wrapped

    def instrument_engine(self, engine):
        """Instrument an engine's locks (and its stats object), and hook
        its propagation entry points so held-lock sets are recorded."""
        wrapped = self.instrument(engine)
        wrapped += self.instrument(engine.stats)
        for method_name in PROPAGATION_METHODS:
            original = getattr(engine, method_name, None)
            if original is None:
                continue

            def probe(*args, _original=original,
                      _method=method_name, **kwargs):
                self._note_propagation(_method)
                return _original(*args, **kwargs)

            setattr(engine, method_name, probe)
        return wrapped

    def instrument_service(self, service, measures=(None,)):
        """Instrument a QueryService: the service's own locks, its
        engine, and the cache tier of each given measure (tiers are
        created on first use, so naming them here pre-creates and
        instruments them before any worker runs)."""
        wrapped = self.instrument(service)
        wrapped += self.instrument_engine(service.engine)
        for measure in measures:
            walk_cache, bound_cache = service.cache_tier(measure)
            wrapped += self.instrument(walk_cache)
            wrapped += self.instrument(bound_cache)
        return wrapped

    # -- inspection --------------------------------------------------------

    def held_names(self):
        """Names of locks the *current thread* holds, outermost first."""
        return tuple(traced.name for traced in self._stack())

    def edges(self):
        with self._graph_lock:
            return dict(self._edges)

    def propagation_holds(self):
        with self._graph_lock:
            return dict(self._propagation_holds)

    def find_cycle(self):
        """A list of names forming a cycle in the order graph, or None.
        Self-loops (same identity, different objects) count."""
        with self._graph_lock:
            graph = {}
            for source, target in self._edges:
                graph.setdefault(source, set()).add(target)
        state = {}  # 0 visiting, 1 done
        path = []

        def visit(node):
            state[node] = 0
            path.append(node)
            for successor in sorted(graph.get(node, ())):
                if successor in state:
                    if state[successor] == 0:
                        return path[path.index(successor):] + [successor]
                    continue
                cycle = visit(successor)
                if cycle:
                    return cycle
            path.pop()
            state[node] = 1
            return None

        for node in sorted(graph):
            if node not in state:
                cycle = visit(node)
                if cycle:
                    return cycle
        return None

    def report(self):
        return {
            "edges": self.edges(),
            "cycle": self.find_cycle(),
            "propagation_holds": self.propagation_holds(),
        }

    def assert_clean(self, allowed=DEFAULT_PROPAGATION_ALLOWED):
        """Fail on any order cycle, or on a lock outside ``allowed``
        held across an engine propagation call."""
        cycle = self.find_cycle()
        if cycle:
            raise LockOrderError(
                "lock-order cycle (potential deadlock): "
                + " -> ".join(cycle)
            )
        offenders = sorted(
            f"{name} held across engine.{method} ({count}x)"
            for (name, method), count in self.propagation_holds().items()
            if name not in allowed
        )
        if offenders:
            raise LockOrderError(
                "locks held across engine propagation beyond the "
                "documented cold-path set: " + "; ".join(offenders)
            )
        return self.report()
