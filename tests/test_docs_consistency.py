"""Docs/consistency guard: the README quickstart and the
``docs/ALGORITHMS.md`` handbook snippets must run, and the committed
benchmark report must match the benchmark script's schema.

Run by the tier-1 suite and by the CI ``docs`` job, so a PR cannot land
a front-door snippet that no longer executes or change the
``BENCH_walks.json`` payload without regenerating the committed report
(see docs/BENCHMARKS.md).
"""

import json
import re
from pathlib import Path

import pytest

from repro.bench.harness import WALK_BENCH_SCHEMA_VERSION
from repro.cli import main as cli_main
from repro.graph.builders import path_graph
from repro.graph.io import write_edge_list, write_node_sets

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
ALGORITHMS = REPO_ROOT / "docs" / "ALGORITHMS.md"
BENCH_REPORT = REPO_ROOT / "BENCH_walks.json"

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


def test_benchmarks_doc_states_current_schema_version():
    """docs/BENCHMARKS.md names the schema version the harness emits
    (it said 7 for a whole PR after the constant moved to 8)."""
    text = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text(encoding="utf-8")
    assert f"## Report schema (version {WALK_BENCH_SCHEMA_VERSION})" in text
    assert f'"schema_version": {WALK_BENCH_SCHEMA_VERSION},' in text


def test_bench_report_not_stale():
    """BENCH_walks.json must be regenerated when the schema changes."""
    payload = json.loads(BENCH_REPORT.read_text(encoding="utf-8"))
    assert payload.get("schema_version") == WALK_BENCH_SCHEMA_VERSION, (
        "BENCH_walks.json is stale: regenerate it with "
        "`PYTHONPATH=src python benchmarks/bench_walk_engine.py` "
        "(see docs/BENCHMARKS.md)"
    )
    assert payload.get("benchmark") == "walk_engine"
    assert payload.get("workloads"), "report must carry walk rows"
    assert payload.get("bound_cache"), "schema 2 reports carry bound rows"
    assert payload.get("measures"), "schema 3 reports carry measure rows"
    assert payload.get("bounded_series"), (
        "schema 4 reports carry bounded-series rows"
    )
    assert payload.get("budget_quality"), (
        "schema 5 reports carry budget-quality rows"
    )
    assert payload.get("planner"), "schema 6 reports carry planner rows"
    assert payload.get("service"), "schema 7 reports carry service rows"
    assert payload.get("observability"), (
        "schema 8 reports carry observability rows"
    )
    assert payload.get("elapsed_s"), (
        "schema 8 reports carry the per-section elapsed_s map"
    )


def test_bench_report_claims_hold():
    """The committed numbers satisfy the documented acceptance bars."""
    payload = json.loads(BENCH_REPORT.read_text(encoding="utf-8"))
    for row in payload["workloads"]:
        assert row["bbj_outputs_match"] and row["bidj_outputs_match"]
        assert row["bidj_resumable_steps"] < row["bidj_seed_steps"]
    for row in payload["bound_cache"]:
        assert row["pj_answers_match"] and row["bidj_chunked_outputs_match"]
        assert row["pj_bound_builds_unshared"] >= 2 * row["pj_bound_builds_shared"]
        assert row["bidj_ceiling_honored"]
        assert row["bidj_peak_block_bytes"] <= row["bidj_max_block_bytes"]
        assert row["bidj_spill_outputs_match"] and row["bidj_spill_ceiling_honored"]
        assert row["bidj_spill_extensions"] > 0
        assert row["bidj_spill_steps"] < row["bidj_chunked_steps"]
    bounded_measures = set()
    for row in payload["bounded_series"]:
        bounded_measures.add(row["measure"])
        assert row["outputs_match"] and row["ceiling_honored"]
        assert row["bounded_peak_block_bytes"] < row["unbounded_peak_block_bytes"]
        assert row["spill_extensions"] > 0 and row["spill_steps_saved"] > 0
    assert {"ppr", "dht"} <= bounded_measures
    for row in payload["budget_quality"]:
        assert row["bounds_contain_reference"]
        assert row["exact"] == (row["reason"] is None)
        if row["step_budget_fraction"] == 1.0:
            assert row["exact"] and row["recall_at_k"] == 1.0
    assert any(not row["exact"] for row in payload["budget_quality"])
    measures_seen = set()
    for row in payload["measures"]:
        measures_seen.add(row["measure"])
        assert row["nway_answers_match"]
        assert row["nway_walk_cache_hits"] > 0
        if row["measure"] == "ppr":
            assert row["bbj_outputs_match"] and row["idj_outputs_match"]
            assert row["bbj_speedup"] > 1.0
            assert row["idj_resumable_steps"] < row["idj_seed_steps"]
            assert row["nway_bound_cache_hits"] > 0
    assert {"ppr", "simrank"} <= measures_seen
    planner_scenarios = set()
    for row in payload["planner"]:
        planner_scenarios.add(row["scenario"])
        assert row["answers_match_fixed"] and row["answers_match_worst"]
        assert row["auto_steps"] <= row["fixed_steps"]
        assert row["auto_steps"] <= row["worst_steps"]
        if row["scenario"] == "skewed-star":
            assert row["step_reduction_vs_worst"] >= 1.2
            assert row["auto_order"] != row["fixed_order"]
    assert {"skewed-star", "chain"} <= planner_scenarios
    service_clients = set()
    for row in payload["service"]:
        service_clients.add(row["clients"])
        assert row["answers_match"]
        assert row["rejected"] == 0 and row["errors"] == 0
        assert row["warm_walk_hit_rate"] > row["cold_walk_hit_rate"]
        assert row["warm_p99_ms"] >= row["warm_p50_ms"] >= 0.0
    assert {1, 4, 8} <= service_clients
    obs_scenarios = set()
    for row in payload["observability"]:
        obs_scenarios.add(row["scenario"])
        assert row["answers_match"], "tracing must not change answers"
        assert row["est_disabled_overhead_fraction"] < 0.02
        assert row["traced_spans"] > 0 and row["hooks_fired"] >= row["traced_spans"]
    assert {"skewed-star", "chain"} <= obs_scenarios
    assert set(payload["elapsed_s"]) >= {
        "workloads", "bound_cache", "measures", "planner", "service",
        "observability",
    }
    assert all(v >= 0.0 for v in payload["elapsed_s"].values())


@pytest.mark.parametrize(
    "path",
    ["README.md", "docs/BENCHMARKS.md", "docs/ALGORITHMS.md",
     "docs/INVARIANTS.md", "docs/OBSERVABILITY.md", "ROADMAP.md"],
)
def test_doc_files_present(path):
    assert (REPO_ROOT / path).is_file(), f"{path} is part of the front door"


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
