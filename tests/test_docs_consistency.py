"""Docs/consistency guard: the README quickstart and the
``docs/ALGORITHMS.md`` handbook snippets must run, the names the docs
catalogue (metrics, span kinds, lint rules, CLI subcommands and flags)
must be the ones the code defines, and every relative link must resolve.

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
                 "SeriesMeasure", "kernel", "tail_weights", "x_bound", "floor",
                 "TruncatedPPR"):
        assert name in text, f"docs/ALGORITHMS.md must document {name}"


def test_readme_measure_flag_names_exactly_the_measures():
    """README's ``--measure a|b|...`` list is ``repro.query.MEASURE_NAMES``,
    the one list the CLI's choices and the resolver read."""
    from repro.query import MEASURE_NAMES

    listed = re.findall(
        r"`--measure ([\w-]+(?:\|[\w-]+)+)`",
        README.read_text(encoding="utf-8"),
    )
    assert listed, "README must list the choices as `--measure a|b|...`"
    for choices in listed:
        assert tuple(sorted(choices.split("|"))) == MEASURE_NAMES, choices


def test_algorithms_handbook_strategy_table_matches_driver():
    """The handbook's strategy table is the driver's ``STRATEGIES``,
    row for row: one default operator and one edge source each."""
    from repro.core.nway.driver import STRATEGIES

    text = ALGORITHMS.read_text(encoding="utf-8")
    header = "| Strategy | Operator | Source |"
    assert header in text, "docs/ALGORITHMS.md lost the strategy table"
    documented = {}
    for line in text.split(header, 1)[1].splitlines()[2:]:
        if not line.startswith("|"):
            break
        strategy, *cells = [
            cell.strip().strip("`") for cell in line.strip("|").split("|")
        ]
        documented[strategy] = tuple(cells)
    assert documented == {
        strategy: (operator, source.__name__)
        for strategy, (operator, source) in STRATEGIES.items()
    }


@pytest.mark.parametrize("module,name", [
    ("repro.walks.engine", "FRONTIER_GATE"),
    ("repro.walks.kernels", "SPLIT_GATE"),
])
def test_algorithms_handbook_states_the_walk_gates(module, name):
    """The handbook quotes each walk-layer gate constant as
    ``NAME`` (value, ...); the value must be the code's."""
    import importlib

    text = ALGORITHMS.read_text(encoding="utf-8")
    stated = re.findall(rf"`{name}` \((\d[\d_]*)", text)
    assert stated, f"docs/ALGORITHMS.md must state {name}'s value"
    value = getattr(importlib.import_module(module), name)
    assert {int(v.replace("_", "")) for v in stated} == {value}


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
    assert documented <= {"two-way", "multi-way", "stats", "serve"}


def _cli_flags():
    """Every ``--flag`` any subcommand of ``build_parser()`` accepts."""
    import argparse

    from repro.cli import build_parser

    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        option
        for parser in subparsers.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def test_readme_documents_every_cli_flag():
    """The README's CLI section names every ``--flag`` the parser
    accepts, and no flag the parser does not: adding, renaming or
    deleting a flag moves the README in the same diff."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### CLI"):text.index("## Architecture")]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    flags = _cli_flags()
    assert documented == flags, (
        f"README CLI section has drifted: undocumented "
        f"{sorted(flags - documented)}, stale {sorted(documented - flags)}"
    )


def test_cli_budget_flags_are_the_query_budget_fields():
    """One flag per ``QueryBudget`` field on ``two-way``, ``multi-way``
    and ``serve``, each landing on its field, and README's governor
    table lists exactly those rows: a new budget axis (or a renamed
    flag) moves the CLI and the README in the same diff."""
    import argparse
    import dataclasses

    from repro.cli import _budget, build_parser
    from repro.exec import QueryBudget

    fields = {
        f"--{field.name.replace('_', '-')}": field.name
        for field in dataclasses.fields(QueryBudget)
    }
    assert set(fields) == {"--deadline-ms", "--step-budget", "--max-bytes"}
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    extra = {
        "two-way": ["--left", "A", "--right", "B"],
        "multi-way": ["--node-sets", "A", "B"],
        "serve": ["--requests", "requests.json"],
    }
    for command, flags in extra.items():
        parser = subparsers.choices[command]
        required = ["graph.tsv", "--sets", "sets.json"] + flags
        assert _budget(parser.parse_args(required)) == QueryBudget()
        for flag, name in fields.items():
            budget = _budget(parser.parse_args(required + [flag, "7"]))
            assert getattr(budget, name) == 7, (command, flag)
            assert dataclasses.replace(budget, **{name: None}).unlimited

    text = README.read_text(encoding="utf-8")
    table = text[text.index("Every join also accepts the execution-governor"):]
    table = table[:table.index("\n\n", table.index("| Flag"))]
    rows = re.findall(r"^\| `(--[a-z-]+)", table, flags=re.MULTILINE)
    assert sorted(rows) == sorted(fields)


def test_readme_lists_the_request_file_keys():
    """README's ``--requests`` key table is the parser's key table:
    the same keys, each for the same entry types, and the budget keys
    are the ``QueryBudget`` fields."""
    import dataclasses

    from repro.cli import REQUEST_KEYS
    from repro.exec import QueryBudget

    every = ("two-way", "multi-way", "explain")
    budget_keys = {field.name for field in dataclasses.fields(QueryBudget)}
    assert budget_keys <= set(REQUEST_KEYS)
    assert all(REQUEST_KEYS[key][1] == every for key in budget_keys)
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| Key | Entry types | Value |"):]
    table = table[:table.index("\n\n")]
    documented = {}
    for keys, kinds in re.findall(
        r"^\| (`[a-z_]+`(?: / `[a-z_]+`)*) \| ([a-z, -]+) \|", table,
        flags=re.MULTILINE,
    ):
        kinds = every if kinds == "all" else tuple(kinds.split(", "))
        for key in re.findall(r"`([a-z_]+)`", keys):
            documented[key] = kinds
    assert documented == {key: kinds for key, (_, kinds, _) in REQUEST_KEYS.items()}


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
                "-k", "2", "--max-bytes", "4096", "--json",
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


def test_rl005_budget_exceptions_exist_and_match_invariants():
    """RL005 watches only exception classes ``repro.exec.budget``
    defines, and docs/INVARIANTS.md's RL005 contract names exactly
    those (``PartialResult`` is what a handler converts to)."""
    from repro.analysis.rules import _BUDGET_EXC_NAMES
    from repro.exec import budget

    for name in _BUDGET_EXC_NAMES:
        cls = getattr(budget, name, None)
        assert isinstance(cls, type) and issubclass(cls, Exception), name
        assert cls.__module__ == budget.__name__, name
    text = INVARIANTS.read_text(encoding="utf-8")
    section = text[text.index("## RL005"):]
    contract = section[section.index("**Contract.**"):section.index("**Why.**")]
    named = set(re.findall(r"`([A-Z][A-Za-z]+)`", contract)) - {"PartialResult"}
    assert named == _BUDGET_EXC_NAMES


def test_invariants_doc_documents_suppression_and_run_commands():
    text = INVARIANTS.read_text(encoding="utf-8")
    assert "repro-lint: disable=" in text
    assert ".repro-lint-baseline" in text
    assert "python -m repro.analysis.lint src tests --strict" in text


def test_readme_mentions_the_linter():
    text = README.read_text(encoding="utf-8")
    assert "repro-lint" in text
    assert "docs/INVARIANTS.md" in text
