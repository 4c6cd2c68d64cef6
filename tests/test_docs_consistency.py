"""Docs/consistency guard: the README quickstart and the
``docs/ALGORITHMS.md`` handbook snippets must run, the names the docs
catalogue (metrics, span kinds, lint rules, CLI subcommands) must be the
ones the code defines, and every relative link must resolve.

Run by the tier-1 suite and by the CI ``docs`` job, so a PR cannot land
a front-door snippet that no longer executes or a link to a file it
deleted.
"""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.graph.builders import path_graph
from repro.graph.io import write_edge_list, write_node_sets

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
ALGORITHMS = REPO_ROOT / "docs" / "ALGORITHMS.md"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_snippets(path=README):
    return _FENCE.findall(path.read_text(encoding="utf-8"))


def test_readme_exists_with_python_quickstart():
    snippets = _python_snippets()
    assert snippets, "README.md must contain at least one ```python fence"


def test_readme_python_snippets_execute():
    """Every ``python`` fence in the README runs, in order, in one
    namespace — the quickstart is a contract, not an illustration."""
    namespace = {}
    for snippet in _python_snippets():
        exec(compile(snippet, str(README), "exec"), namespace)


def test_algorithms_handbook_snippets_execute():
    """The handbook's ``python`` fences run, in order, in one namespace
    — its worked examples are executable documentation."""
    snippets = _python_snippets(ALGORITHMS)
    assert snippets, "docs/ALGORITHMS.md must contain ```python fences"
    namespace = {}
    for snippet in snippets:
        exec(compile(snippet, str(ALGORITHMS), "exec"), namespace)


def test_algorithms_handbook_covers_every_paper_name():
    """The handbook is the name-to-module map; every paper algorithm
    name and every measure entry point must appear."""
    text = ALGORITHMS.read_text(encoding="utf-8")
    for name in ("F-BJ", "F-IDJ", "B-BJ", "B-IDJ", "AP", "PJ", "PJ-i", "NL",
                 "SeriesMeasure", "backward_scores", "tail_bound", "floor",
                 "TruncatedPPR", "SimRank"):
        assert name in text, f"docs/ALGORITHMS.md must document {name}"


OBSERVABILITY = REPO_ROOT / "docs" / "OBSERVABILITY.md"


def test_observability_doc_snippets_execute():
    """The observability handbook's ``python`` fences run, in order, in
    one namespace — including the explain-analyze example that asserts
    traced answers equal untraced ones."""
    snippets = _python_snippets(OBSERVABILITY)
    assert snippets, "docs/OBSERVABILITY.md must contain ```python fences"
    namespace = {}
    for snippet in snippets:
        exec(compile(snippet, str(OBSERVABILITY), "exec"), namespace)


def test_observability_doc_metric_names_match_registry():
    """Every backticked ``repro_*`` name in docs/OBSERVABILITY.md is
    exactly ``repro.obs.metrics.METRIC_NAMES`` — a metric cannot be
    added, renamed, or dropped without its documentation moving in the
    same diff."""
    from repro.obs.metrics import METRIC_NAMES

    text = OBSERVABILITY.read_text(encoding="utf-8")
    documented = set(re.findall(r"`(repro_[a-z0-9_]+)`", text))
    assert documented == set(METRIC_NAMES), (
        "docs/OBSERVABILITY.md metric catalogue has drifted: "
        f"missing {sorted(set(METRIC_NAMES) - documented)}, "
        f"stale {sorted(documented - set(METRIC_NAMES))}"
    )


def test_observability_doc_covers_span_kinds_and_flags():
    from repro.obs.trace import SPAN_KINDS, TRACE_SCHEMA

    text = OBSERVABILITY.read_text(encoding="utf-8")
    for kind in SPAN_KINDS:
        assert f"`{kind}`" in text, f"span kind {kind} must be documented"
    assert TRACE_SCHEMA in text
    for flag in ("--trace-out", "--metrics-out", "--metrics-interval",
                 "--explain analyze"):
        assert flag in text, f"{flag} must be documented"


def test_readme_cli_commands_exist():
    """Each documented `python -m repro <subcommand>` is a real one."""
    text = README.read_text(encoding="utf-8")
    documented = set(re.findall(r"python -m repro (\S+)", text))
    assert documented, "README must document CLI usage"
    assert documented <= {
        "two-way", "multi-way", "stats", "serve", "bench-service"
    }


def test_cli_quickstart_flow(tmp_path, capsys):
    """The README's on-disk workflow (TSV graph + JSON sets) round-trips
    through every documented subcommand."""
    graph_path = tmp_path / "graph.tsv"
    sets_path = tmp_path / "sets.json"
    write_edge_list(path_graph(6), graph_path)
    write_node_sets({"DB": [0, 1], "AI": [4, 5], "CENTER": [2, 3]}, sets_path)
    assert cli_main(["stats", str(graph_path), "--json"]) == 0
    assert (
        cli_main(
            [
                "two-way", str(graph_path), "--sets", str(sets_path),
                "--left", "DB", "--right", "AI", "-k", "2", "--json",
            ]
        )
        == 0
    )
    assert (
        cli_main(
            [
                "multi-way", str(graph_path), "--sets", str(sets_path),
                "--shape", "star", "--node-sets", "CENTER", "DB", "AI",
                "-k", "2", "--max-block-bytes", "4096", "--json",
            ]
        )
        == 0
    )
    for line in capsys.readouterr().out.strip().splitlines():
        json.loads(line)  # every --json output line is machine-readable


@pytest.mark.parametrize(
    "path",
    ["README.md", "docs/BENCHMARKS.md", "docs/ALGORITHMS.md",
     "docs/INVARIANTS.md", "docs/OBSERVABILITY.md", "ROADMAP.md"],
)
def test_doc_files_present(path):
    assert (REPO_ROOT / path).is_file(), f"{path} is part of the front door"


_LINK = re.compile(r"\]\(([^)\s]+)\)")


@pytest.mark.parametrize(
    "doc",
    [README, *sorted((REPO_ROOT / "docs").glob("*.md"))],
    ids=lambda doc: doc.relative_to(REPO_ROOT).as_posix(),
)
def test_relative_links_resolve(doc):
    """Every relative markdown link in the README and ``docs/`` points
    at a file in the checkout — deleting or renaming a linked file
    without fixing the link fails here."""
    targets = [
        target.split("#")[0]
        for target in _LINK.findall(doc.read_text(encoding="utf-8"))
        if "://" not in target and not target.startswith(("#", "mailto:"))
    ]
    missing = [t for t in targets if t and not (doc.parent / t).exists()]
    assert not missing, f"{doc.name} links to missing files: {missing}"


INVARIANTS = REPO_ROOT / "docs" / "INVARIANTS.md"


def test_invariants_doc_rules_match_linter_registry():
    """The rule IDs documented in docs/INVARIANTS.md are exactly the
    linter's registry — a rule cannot be added, renamed, or dropped
    without its contract documentation moving in the same diff."""
    from repro.analysis.rules import RULES

    text = INVARIANTS.read_text(encoding="utf-8")
    documented = set(re.findall(r"^## (RL\d{3}) `([a-z-]+)`", text,
                                re.MULTILINE))
    assert documented == {
        (rule.rule_id, rule.name) for rule in RULES.values()
    }, "docs/INVARIANTS.md sections must mirror repro.analysis.rules.RULES"


def test_invariants_doc_documents_suppression_and_run_commands():
    text = INVARIANTS.read_text(encoding="utf-8")
    assert "repro-lint: disable=" in text
    assert ".repro-lint-baseline" in text
    assert "python -m repro.analysis.lint src tests --strict" in text


def test_readme_mentions_the_linter():
    text = README.read_text(encoding="utf-8")
    assert "repro-lint" in text
    assert "docs/INVARIANTS.md" in text
