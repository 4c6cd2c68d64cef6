"""Correctness tooling: the invariant linter and the lock-order sanitizer.

PR 8 made the walk/bound substrate concurrent, and its safety rests on
conventions that no type checker sees: cache public methods hold their
re-entrant lock, engine counters go through the sharded
:class:`~repro.walks.engine.WalkEngineStats` API, every propagation loop
visits a governor checkpoint, cache identities are frozen hashable
dataclasses, and budget exceptions are converted — never swallowed.
This package turns those conventions into machine-checked contracts,
the same way the planner's cost model is pinned by decision goldens:

* :mod:`repro.analysis.lint` — an AST linter with one rule per
  contract (RL001–RL005, registry in :mod:`repro.analysis.rules`),
  ``# repro-lint: disable=RULE`` suppressions, and a committed baseline
  (:mod:`repro.analysis.baseline`) for deliberate, justified exceptions.
  Run it as ``python -m repro.analysis.lint src tests --strict`` (or the
  ``repro-lint`` console script); CI fails on any non-baselined finding.
* :mod:`repro.analysis.lockorder` — a runtime sanitizer that wraps the
  repro classes' locks, records the per-thread acquisition-order graph
  while the concurrency battery runs, and fails on cycles (potential
  deadlocks) or on locks held across engine propagation beyond the
  documented cold-path exceptions.

``docs/INVARIANTS.md`` states each contract, why it exists, and how to
suppress; ``tests/test_docs_consistency.py`` pins the doc to the
registry so they cannot drift.
"""

__all__ = [
    "Finding",
    "LintRunner",
    "LockOrderError",
    "LockOrderSanitizer",
    "RULES",
    "Rule",
    "main",
]

_EXPORTS = {
    "Finding": ("repro.analysis.findings", "Finding"),
    "LintRunner": ("repro.analysis.lint", "LintRunner"),
    "LockOrderError": ("repro.analysis.lockorder", "LockOrderError"),
    "LockOrderSanitizer": ("repro.analysis.lockorder", "LockOrderSanitizer"),
    "RULES": ("repro.analysis.rules", "RULES"),
    "Rule": ("repro.analysis.rules", "Rule"),
    "main": ("repro.analysis.lint", "main"),
}


def __getattr__(name):
    # Lazy so `python -m repro.analysis.lint` does not import lint twice
    # (once as a package attribute, once as __main__ via runpy).
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
