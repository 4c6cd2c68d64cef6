"""The invariant linter, tested against its own fixture corpus.

Three layers: each rule demonstrably fires on its minimal bad snippet
and stays quiet on the good twin (``tests/lint_fixtures/``); the
suppression/baseline machinery behaves (inline ``# repro-lint:
disable=``, file-wide disables, justified baseline entries, stale-entry
detection); and — the acceptance pin — the repo's own ``src`` and
``tests`` trees lint clean under ``--strict``, so every concurrency and
cache-identity contract the rules encode is actually honoured by the
code that ships.
"""

from pathlib import Path

import pytest

from repro.analysis.baseline import BaselineError, load_baseline
from repro.analysis.lint import LintRunner, discover, main
from repro.analysis.rules import RULES

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
RULE_IDS = ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006")
NO_BASELINE = FIXTURES / "does-not-exist.baseline"


def lint_paths(*paths, baseline_path=NO_BASELINE, root=REPO_ROOT):
    runner = LintRunner(root=root, baseline_path=baseline_path)
    return runner.lint([str(path) for path in paths])


class TestRegistry:
    def test_registry_is_exactly_the_documented_rules(self):
        assert tuple(sorted(RULES)) == RULE_IDS

    def test_every_rule_carries_name_and_summary(self):
        for rule_id, rule in RULES.items():
            assert rule.rule_id == rule_id
            assert rule.name and rule.summary
            assert callable(rule.checker)

    def test_rule_names_are_the_issue_contract_names(self):
        assert RULES["RL001"].name == "unguarded-shared-state"
        assert RULES["RL002"].name == "ungoverned-loop"
        assert RULES["RL003"].name == "cache-identity-hygiene"
        assert RULES["RL004"].name == "stats-discipline"
        assert RULES["RL005"].name == "swallowed-budget"
        assert RULES["RL006"].name == "untraced-hook"


class TestFixtureCorpus:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_fires_its_rule_and_only_its_rule(self, rule_id):
        findings = lint_paths(FIXTURES / f"{rule_id.lower()}_bad.py")
        assert findings, f"{rule_id} must fire on its bad fixture"
        assert {finding.rule for finding in findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixture_is_clean(self, rule_id):
        assert lint_paths(FIXTURES / f"{rule_id.lower()}_good.py") == []

    def test_rl003_flags_both_thaw_and_mutable_field(self):
        findings = lint_paths(FIXTURES / "rl003_bad.py")
        symbols = {finding.symbol for finding in findings}
        assert symbols == {"WobblyBlockKernel", "weights"}

    def test_rl002_block_peek_loop_needs_a_checkpoint(self):
        """``peek_block`` is a pure probe like ``peek``: a loop over
        block peeks must reach a (counted) checkpoint itself."""
        findings = lint_paths(FIXTURES / "rl002_block_bad.py")
        assert [(f.rule, f.symbol) for f in findings] == [("RL002", "peek_block")]
        assert lint_paths(FIXTURES / "rl002_block_good.py") == []

    def test_rl006_internally_hooked_primitives_discharge(self, tmp_path):
        """``top_k``/``all_pairs``/``walk_level`` open their own spans,
        so a bare loop over them is already observable; only the pure
        lazy ``next_pair`` probe needs an explicit hook."""
        path = tmp_path / "lint_fixtures" / "self_hooked.py"
        path.parent.mkdir()
        path.write_text(
            "def rebuild(joins, k):\n"
            "    return [join.top_k(k) for join in joins]\n"
            "\n"
            "def sweep(joins, k):\n"
            "    out = []\n"
            "    for join in joins:\n"
            "        out.append(join.top_k(k))\n"
            "    return out\n",
            encoding="utf-8",
        )
        assert lint_paths(path, root=tmp_path) == []

    def test_finding_keys_are_line_free_and_renders_carry_lines(self):
        finding = lint_paths(FIXTURES / "rl001_bad.py")[0]
        assert finding.key == (
            "RL001:tests/lint_fixtures/rl001_bad.py:"
            "BadCounterBox.put:_items"
        )
        assert f":{finding.line}: RL001" in finding.render()


class TestDiscovery:
    def test_directory_scan_skips_the_fixture_corpus(self):
        found = {path.name for path in discover([str(REPO_ROOT / "tests")])}
        assert "rl001_bad.py" not in found
        assert "test_analysis_lint.py" in found

    def test_explicit_file_paths_are_always_linted(self):
        assert lint_paths(FIXTURES / "rl002_bad.py")

    def test_missing_path_is_a_usage_error(self):
        assert main([str(FIXTURES / "nope.py"), "--no-baseline"]) == 2


class TestSuppressions:
    def test_inline_disable_silences_one_line(self, tmp_path):
        source = (FIXTURES / "rl004_bad.py").read_text(encoding="utf-8")
        patched = source.replace(
            "engine.stats.propagation_steps += 1",
            "engine.stats.propagation_steps += 1"
            "  # repro-lint: disable=RL004",
        )
        path = tmp_path / "suppressed.py"
        path.write_text(patched, encoding="utf-8")
        findings = lint_paths(path, root=tmp_path)
        assert [finding.symbol for finding in findings] == [
            "sparse_products"
        ], "only the undisabled line may still fire"

    def test_file_wide_disable_silences_the_rule(self, tmp_path):
        source = (FIXTURES / "rl004_bad.py").read_text(encoding="utf-8")
        path = tmp_path / "suppressed.py"
        path.write_text(
            "# repro-lint: disable-file=RL004\n" + source, encoding="utf-8"
        )
        assert lint_paths(path, root=tmp_path) == []


class TestBaseline:
    def test_baselined_finding_is_silenced(self, tmp_path):
        key = lint_paths(FIXTURES / "rl002_bad.py")[0].key
        baseline = tmp_path / "baseline"
        baseline.write_text(f"{key}  # deliberate: fixture\n",
                            encoding="utf-8")
        assert lint_paths(
            FIXTURES / "rl002_bad.py", baseline_path=baseline
        ) == []

    def test_stale_entries_are_reported(self, tmp_path):
        baseline = tmp_path / "baseline"
        baseline.write_text(
            "RL001:src/gone.py:Ghost.method:attr  # obsolete\n",
            encoding="utf-8",
        )
        runner = LintRunner(root=REPO_ROOT, baseline_path=baseline)
        runner.lint([str(FIXTURES / "rl001_good.py")])
        assert runner.stale_baseline_keys() == [
            "RL001:src/gone.py:Ghost.method:attr"
        ]

    def test_entry_without_justification_is_rejected(self, tmp_path):
        baseline = tmp_path / "baseline"
        baseline.write_text("RL001:src/a.py:C.m:attr\n", encoding="utf-8")
        with pytest.raises(BaselineError, match="justification"):
            load_baseline(baseline)

    def test_malformed_key_is_rejected(self, tmp_path):
        baseline = tmp_path / "baseline"
        baseline.write_text("not-a-key  # reason\n", encoding="utf-8")
        with pytest.raises(BaselineError, match="malformed"):
            load_baseline(baseline)

    def test_committed_baseline_parses_and_every_entry_is_justified(self):
        entries = load_baseline(REPO_ROOT / ".repro-lint-baseline")
        for key, justification in entries.items():
            assert key.startswith("RL")
            assert justification


class TestCli:
    def test_bad_fixture_exits_1_good_exits_0(self, capsys):
        assert main(
            [str(FIXTURES / "rl005_bad.py"), "--no-baseline"]
        ) == 1
        assert "RL005" in capsys.readouterr().out
        assert main(
            [str(FIXTURES / "rl005_good.py"), "--no-baseline"]
        ) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out


class TestRepoIsClean:
    def test_src_and_tests_lint_clean_with_no_stale_baseline(self):
        """The acceptance pin: the shipped tree honours every contract
        (modulo the justified baseline), and the baseline has no dead
        weight."""
        runner = LintRunner(root=REPO_ROOT)
        findings = runner.lint(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
        )
        assert findings == [], "\n".join(f.render() for f in findings)
        assert runner.stale_baseline_keys() == []
