"""The invariant-rule registry and the AST checkers behind it.

Each rule mechanises one contract the concurrent substrate (PR 6–8)
relies on.  Rules are registered in :data:`RULES` keyed by their ID;
``docs/INVARIANTS.md`` documents the same IDs and
``tests/test_docs_consistency.py`` pins the two together.

The checkers reason *locally* and *syntactically* on purpose: a loop
must either call a self-checkpointing primitive directly or carry its
own ``engine.checkpoint(...)``; a method must hold the lock in its own
body, not via a helper.  That keeps every report explainable from the
flagged lines alone, at the cost of requiring the occasional explicit
``# repro-lint: disable=`` where an invariant is discharged
non-locally (each such site is a documented decision, which is the
point).
"""

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, List

from repro.analysis.findings import Finding
from repro.walks.engine import STAT_COUNTERS, STAT_PEAKS


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file handed to every rule checker."""

    path: str  # repo-relative posix path
    tree: ast.Module


@dataclass(frozen=True)
class Rule:
    rule_id: str
    name: str
    summary: str
    checker: Callable[[ModuleInfo], Iterable[Finding]] = field(compare=False)


RULES = {}


def _register(rule_id, name, summary):
    def decorate(checker):
        RULES[rule_id] = Rule(rule_id, name, summary, checker)
        return checker

    return decorate


# --------------------------------------------------------------------------
# shared AST helpers
# --------------------------------------------------------------------------

def _dotted(node):
    """Render ``a.b.c`` chains; None for anything non-dotted."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


_LOCK_CTORS = {"Lock", "RLock"}


def _ctor_name(node):
    """Name of a zero-or-more-arg constructor call, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _self_attr_targets(node):
    """Yield ``(attr_name, value)`` for ``self.X = ...`` style bindings,
    including the slots-safe ``object.__setattr__(self, "X", ...)``."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                yield target.attr, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        target = node.target
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            yield target.attr, node.value
    elif isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
                and len(node.args) == 3
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            yield node.args[1].value, node.args[2]


def _self_root_attr(node):
    """For an access rooted at ``self`` (``self.X``, ``self.X.Y[i]``,
    ``self.X.append``), return ``X``; else None."""
    prev = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        prev = node
        node = node.value
    if (isinstance(node, ast.Name) and node.id == "self"
            and isinstance(prev, ast.Attribute)):
        return prev.attr
    return None


def _methods(class_node):
    for item in class_node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item


def _has_self(method):
    args = method.args.posonlyargs + method.args.args
    return bool(args) and args[0].arg == "self"


def _iter_scoped(tree, node_types):
    """Yield ``(scope_name, node)`` for every node of the given types,
    where scope is the innermost enclosing function's qualified name
    (``Class.method``, ``Class.method.inner``) — each node exactly once."""
    results = []

    def walk(node, class_name, func_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name, func_name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if func_name:
                    qualified = f"{func_name}.{child.name}"
                elif class_name:
                    qualified = f"{class_name}.{child.name}"
                else:
                    qualified = child.name
                walk(child, class_name, qualified)
            else:
                if isinstance(child, node_types):
                    results.append((func_name or "<module>", child))
                walk(child, class_name, func_name)

    walk(tree, None, None)
    return results


# --------------------------------------------------------------------------
# RL001 unguarded-shared-state
# --------------------------------------------------------------------------

_MUTATORS = {
    "add", "append", "clear", "discard", "extend", "insert", "move_to_end",
    "pop", "popitem", "remove", "reverse", "setdefault", "sort", "update",
}
_RL001_SKIP_METHODS = {"__init__", "__post_init__", "__repr__", "__del__"}
_RL001_DUNDER_OK = {
    "__call__", "__contains__", "__enter__", "__exit__", "__getitem__",
    "__iter__", "__len__", "__next__",
}


def _rl001_class_profile(class_node):
    """Classify a class's attributes: locks, thread-locals, and the
    attributes any method mutates after ``__init__``."""
    lock_attrs, local_attrs, mutated = set(), set(), set()
    for method in _methods(class_node):
        in_init = method.name in ("__init__", "__post_init__")
        for node in ast.walk(method):
            for attr, value in _self_attr_targets(node):
                ctor = _ctor_name(value)
                if ctor in _LOCK_CTORS:
                    lock_attrs.add(attr)
                elif ctor == "local":
                    local_attrs.add(attr)
                elif not in_init:
                    mutated.add(attr)
            if in_init:
                continue
            if isinstance(node, ast.AugAssign):
                root = _self_root_attr(node.target)
                if root:
                    mutated.add(root)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    root = _self_root_attr(target)
                    if root:
                        mutated.add(root)
            elif isinstance(node, (ast.Delete,)):
                for target in node.targets:
                    root = _self_root_attr(target)
                    if root:
                        mutated.add(root)
            elif isinstance(node, ast.Call):
                # Only direct `self.X.<mutator>()` counts as mutating X:
                # deeper chains (`self._engine.stats.add(...)`) are calls
                # *through* X, and `self.stats.add(...)` is the sharded
                # counter API (thread-safe by design, policed by RL004),
                # not a container mutation.
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATORS
                        and isinstance(func.value, ast.Attribute)
                        and isinstance(func.value.value, ast.Name)
                        and func.value.value.id == "self"
                        and not (func.value.attr == "stats"
                                 and func.attr == "add")):
                    mutated.add(func.value.attr)
    return lock_attrs, local_attrs, mutated


class _GuardVisitor(ast.NodeVisitor):
    """Find unguarded accesses to shared attrs within one method."""

    def __init__(self, lock_attrs, shared_attrs):
        self.lock_attrs = lock_attrs
        self.shared_attrs = shared_attrs
        self.guard_depth = 0
        self.hits = {}  # attr -> first line

    def _is_lock_expr(self, expr):
        return (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in self.lock_attrs)

    def visit_With(self, node):
        guarded = any(self._is_lock_expr(item.context_expr)
                      for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
        if guarded:
            self.guard_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if guarded:
            self.guard_depth -= 1

    visit_AsyncWith = visit_With

    def visit_Attribute(self, node):
        if (self.guard_depth == 0
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.shared_attrs):
            self.hits.setdefault(node.attr, node.lineno)
        self.generic_visit(node)


@_register(
    "RL001",
    "unguarded-shared-state",
    "public methods of lock-bearing classes must touch mutable "
    "attributes only inside `with self.<lock>:`",
)
def _check_rl001(module):
    findings = []
    for class_node in ast.walk(module.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        lock_attrs, local_attrs, mutated = _rl001_class_profile(class_node)
        if not lock_attrs:
            continue
        shared = mutated - lock_attrs - local_attrs
        if not shared:
            continue
        for method in _methods(class_node):
            if not _has_self(method):
                continue
            name = method.name
            if name in _RL001_SKIP_METHODS:
                continue
            if name.startswith("_") and name not in _RL001_DUNDER_OK:
                continue
            visitor = _GuardVisitor(lock_attrs, shared)
            for stmt in method.body:
                visitor.visit(stmt)
            for attr, line in sorted(visitor.hits.items()):
                findings.append(Finding(
                    module.path, line, "RL001",
                    f"{class_node.name}.{name}", attr,
                    f"'{class_node.name}.{name}' touches mutable attribute "
                    f"'self.{attr}' outside `with self."
                    f"{sorted(lock_attrs)[0]}:` (class declares lock(s) "
                    f"{sorted(lock_attrs)})",
                ))
    return findings


# --------------------------------------------------------------------------
# RL002 ungoverned-loop
# --------------------------------------------------------------------------

# Primitives that advance or consult block propagation / deepening.
# A loop calling any of these must visit the governor each iteration.
_RL002_REQUIRING = {
    "advance_by", "advance_to", "backward_block_step",
    "backward_first_hit_block", "backward_first_hit_series",
    "backward_onehot_step", "backward_scores_block",
    "forward_first_hit_series", "peek", "peek_block", "reach_mass_series",
    "scores", "walk_level",
}
# Primitives whose own body visits the governor; `peek` / `peek_block`
# are the pure probes that never checkpoint, so they cannot discharge
# the obligation.
_RL002_SATISFYING = (_RL002_REQUIRING - {"peek", "peek_block"}) | {
    "checkpoint", "edge_context",
}
_RL002_DIRS = {"walks", "core", "extensions", "lint_fixtures"}


def _rl002_applies(path):
    return bool(_RL002_DIRS.intersection(path.split("/")))


def _call_names(nodes):
    """Call names in the given statements, not descending into nested
    function/class definitions (they may never run per iteration)."""
    names = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                names.add(func.attr)
            elif isinstance(func, ast.Name):
                names.add(func.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


@_register(
    "RL002",
    "ungoverned-loop",
    "loops over propagation/deepening primitives must reach "
    "`engine.checkpoint(...)` every iteration",
)
def _check_rl002(module):
    if not _rl002_applies(module.path):
        return []
    findings = []
    for scope, node in _iter_scoped(
        module.tree, (ast.For, ast.AsyncFor, ast.While)
    ):
        names = _call_names(list(node.body))
        requiring = sorted(names & _RL002_REQUIRING)
        if not requiring or names & _RL002_SATISFYING:
            continue
        findings.append(Finding(
            module.path, node.lineno, "RL002", scope, requiring[0],
            f"loop calls {requiring} but no `engine.checkpoint(...)` "
            "or self-checkpointing primitive is reachable in its "
            "body — budgets and fault injection cannot interrupt it",
        ))
    return findings


# --------------------------------------------------------------------------
# RL003 cache-identity-hygiene
# --------------------------------------------------------------------------

_MUTABLE_TYPE_NAMES = {
    "DefaultDict", "Dict", "List", "MutableMapping", "MutableSequence",
    "MutableSet", "OrderedDict", "Set", "array", "bytearray", "defaultdict",
    "deque", "dict", "list", "ndarray", "set",
}


def _decorator_info(class_node):
    """Return (is_dataclass, frozen) from the decorator list."""
    for deco in class_node.decorator_list:
        call = deco if isinstance(deco, ast.Call) else None
        target = call.func if call else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None)
        if name == "dataclass":
            frozen = False
            if call:
                for kw in call.keywords:
                    if (kw.arg == "frozen"
                            and isinstance(kw.value, ast.Constant)):
                        frozen = bool(kw.value.value)
            return True, frozen
    return False, False


def _annotation_names(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _identity_class_names(tree):
    """Names returned by any ``kernel`` method — a measure's kernel is
    its cache identity, even if not named ``*Kernel``/``*Params``/``*Key``."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "kernel"):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Return) and sub.value is not None:
                    values = (sub.value.elts
                              if isinstance(sub.value, ast.Tuple)
                              else [sub.value])
                    for value in values:
                        ctor = _ctor_name(value)
                        if ctor:
                            names.add(ctor)
    return names


@_register(
    "RL003",
    "cache-identity-hygiene",
    "cache-key dataclasses must be frozen and carry only "
    "hashable/immutable fields",
)
def _check_rl003(module):
    findings = []
    returned = _identity_class_names(module.tree)
    for class_node in ast.walk(module.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        is_dc, frozen = _decorator_info(class_node)
        if not is_dc:
            continue
        is_identity = (
            class_node.name.endswith(("Kernel", "Params", "Key"))
            or class_node.name in returned
        )
        if not is_identity:
            continue
        if not frozen:
            findings.append(Finding(
                module.path, class_node.lineno, "RL003",
                class_node.name, class_node.name,
                f"cache-identity dataclass '{class_node.name}' is not "
                "frozen=True — mutable identities break cache-key "
                "equality and cross-measure rejection",
            ))
        for item in class_node.body:
            if not isinstance(item, ast.AnnAssign):
                continue
            ann_names = _annotation_names(item.annotation)
            if "ClassVar" in ann_names:
                continue
            bad = sorted(ann_names & _MUTABLE_TYPE_NAMES)
            if (not bad and isinstance(item.value, ast.Call)
                    and _ctor_name(item.value) == "field"):
                for kw in item.value.keywords:
                    if kw.arg == "default_factory":
                        factory = _ctor_name(kw.value) or (
                            kw.value.id
                            if isinstance(kw.value, ast.Name) else None)
                        if factory in _MUTABLE_TYPE_NAMES:
                            bad = [factory]
            if bad:
                attr = (item.target.id
                        if isinstance(item.target, ast.Name) else "<field>")
                findings.append(Finding(
                    module.path, item.lineno, "RL003",
                    class_node.name, attr,
                    f"cache-identity field '{class_node.name}.{attr}' has "
                    f"mutable/unhashable type {bad} — identities must "
                    "hash stably",
                ))
    return findings


# --------------------------------------------------------------------------
# RL004 stats-discipline
# --------------------------------------------------------------------------

_ENGINE_COUNTERS = frozenset(STAT_COUNTERS) | frozenset(STAT_PEAKS)


def _rl004_exempt_classes(tree):
    """Classes whose ``self.stats`` is a *non-engine* stats object (e.g.
    ``WalkCacheStats``) — their field names may collide with engine
    counters but their object has ordinary attribute semantics."""
    exempt = set()
    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        for method in _methods(class_node):
            if method.name != "__init__":
                continue
            for node in ast.walk(method):
                for attr, value in _self_attr_targets(node):
                    if attr != "stats":
                        continue
                    ctor = _ctor_name(value)
                    if ctor and ctor != "WalkEngineStats":
                        exempt.add(class_node.name)
    return exempt


@_register(
    "RL004",
    "stats-discipline",
    "engine counters go through the sharded WalkEngineStats "
    "`add`/`local` API, never `+=` or direct assignment",
)
def _check_rl004(module):
    findings = []
    exempt_classes = _rl004_exempt_classes(module.tree)

    class_stack = []

    def walk(node):
        if isinstance(node, ast.ClassDef):
            class_stack.append(node.name)
            for child in ast.iter_child_nodes(node):
                walk(child)
            class_stack.pop()
            return
        targets = []
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        for target in targets:
            if not (isinstance(target, ast.Attribute)
                    and target.attr in _ENGINE_COUNTERS):
                continue
            receiver = target.value
            dotted = _dotted(receiver)
            is_stats = (
                dotted == "stats"
                or (dotted is not None and dotted.endswith(".stats"))
                or (isinstance(receiver, ast.Attribute)
                    and receiver.attr == "stats")
            )
            if not is_stats:
                continue
            if (dotted == "self.stats" and class_stack
                    and class_stack[-1] in exempt_classes):
                continue
            findings.append(Finding(
                module.path, node.lineno, "RL004",
                class_stack[-1] if class_stack else "<module>",
                target.attr,
                f"direct write to engine counter "
                f"'{dotted or '<expr>'}.{target.attr}' bypasses the "
                "sharded add()/local() API and loses updates under "
                "threads",
            ))
        for child in ast.iter_child_nodes(node):
            walk(child)

    walk(module.tree)
    return findings


# --------------------------------------------------------------------------
# RL005 swallowed-budget
# --------------------------------------------------------------------------

# The governor's stop exceptions: the classes ``repro.exec.budget``
# defines (a drift test keeps this set and docs/INVARIANTS.md in step).
_BUDGET_EXC_NAMES = {"BudgetExhaustedError"}


def _handler_exc_names(handler):
    node = handler.type
    if node is None:
        return set()
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    names = set()
    for elt in elts:
        if isinstance(elt, ast.Attribute):
            names.add(elt.attr)
        elif isinstance(elt, ast.Name):
            names.add(elt.id)
    return names


def _handler_converts(handler):
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise):
            return True
        ident = None
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        if ident is None:
            continue
        if ident in ("PartialResult", "SystemExit", "count_budget_stop",
                     "exit"):
            return True
        if "partial" in ident.lower():
            return True
    return False


@_register(
    "RL005",
    "swallowed-budget",
    "except clauses catching governor/budget exceptions must convert "
    "to a flagged PartialResult (or re-raise), never drop them",
)
def _check_rl005(module):
    findings = []
    for scope, node in _iter_scoped(module.tree, (ast.ExceptHandler,)):
        caught = sorted(_handler_exc_names(node) & _BUDGET_EXC_NAMES)
        if not caught or _handler_converts(node):
            continue
        findings.append(Finding(
            module.path, node.lineno, "RL005", scope, caught[0],
            f"handler catches {caught} but neither re-raises nor "
            "converts to a flagged PartialResult — the budget stop "
            "is silently swallowed",
        ))
    return findings


# --------------------------------------------------------------------------
# RL006 untraced-hook
# --------------------------------------------------------------------------

# Join-driving primitives: each call moves real query work (a two-way
# build, a deepening pass, or one lazy refill step).  A loop driving
# them must be observable — either through a cooperative hook in its own
# body or because the primitive hooks internally.
_RL006_REQUIRING = {"top_k", "all_pairs", "next_pair", "walk_level"}
# `top_k`, `all_pairs`, and `walk_level` open their own trace spans (and
# checkpoint) internally; `next_pair` is the one pure lazy probe that
# carries no internal hook, so a loop over it needs its own.
_RL006_SATISFYING = (_RL006_REQUIRING - {"next_pair"}) | {
    "checkpoint", "edge_context", "event", "trace_edge_span", "trace_span",
}
_RL006_DIRS = {"walks", "core", "extensions", "exec", "lint_fixtures"}


def _rl006_applies(path):
    return bool(_RL006_DIRS.intersection(path.split("/")))


@_register(
    "RL006",
    "untraced-hook",
    "loops driving join primitives must reach a governor checkpoint "
    "or trace hook every iteration, so their work shows up in traces",
)
def _check_rl006(module):
    if not _rl006_applies(module.path):
        return []
    findings = []
    for scope, node in _iter_scoped(
        module.tree, (ast.For, ast.AsyncFor, ast.While)
    ):
        names = _call_names(list(node.body))
        requiring = sorted(names & _RL006_REQUIRING)
        if not requiring or names & _RL006_SATISFYING:
            continue
        findings.append(Finding(
            module.path, node.lineno, "RL006", scope, requiring[0],
            f"loop drives {requiring} but no trace hook "
            "(`engine.trace_span`/`spec.trace_edge_span`) or governor "
            "checkpoint is reachable in its body — the work it does is "
            "invisible to traces and explain-analyze",
        ))
    return findings


def check_module(module):
    """Run every registered rule over one module."""
    findings: List[Finding] = []
    for rule in RULES.values():
        findings.extend(rule.checker(module))
    return findings
