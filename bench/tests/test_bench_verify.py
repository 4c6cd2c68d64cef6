"""The checker checks the checker: corrupted answers must fail the run."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import run as bench_run  # noqa: E402
from bench import verify  # noqa: E402
from repro import api  # noqa: E402
from repro.core.two_way.base import ScoredPair  # noqa: E402

WANT = [((1, 2), 0.9), ((3, 4), 0.5), ((5, 6), 0.5), ((7, 8), 0.2), ((9, 10), 0.1)]


def test_identical_answers_agree():
    assert verify.mismatch(list(WANT), WANT, k=10) is None


def test_a_dropped_pair_is_a_mismatch():
    assert verify.mismatch(WANT[:1] + WANT[2:], WANT, k=10) is not None


def test_a_score_off_by_1e_6_is_a_mismatch():
    got = list(WANT)
    got[3] = (got[3][0], got[3][1] + 1e-6)
    assert verify.mismatch(got, WANT, k=10) is not None


def test_a_wrong_node_at_an_untied_rank_is_a_mismatch():
    got = list(WANT)
    got[0] = ((1, 99), got[0][1])
    assert verify.mismatch(got, WANT, k=10) is not None


def test_tied_scores_in_another_order_agree():
    got = [WANT[0], WANT[2], WANT[1], WANT[3], WANT[4]]
    assert verify.mismatch(got, WANT, k=10) is None


def test_the_cut_off_rank_of_a_full_list_may_hold_another_tied_node():
    got = WANT[:4] + [((11, 12), 0.1)]
    assert verify.mismatch(got, WANT, k=5) is None
    assert verify.mismatch(got, WANT, k=10) is not None


def drop_a_pair(rows):
    return rows[1:]


def nudge_a_score(rows):
    first = rows[0]
    return [ScoredPair(first.left, first.right, first.score + 1e-6)] + rows[1:]


@pytest.mark.parametrize("corrupt", [drop_a_pair, nudge_a_score])
def test_a_corrupted_answer_fails_the_run(monkeypatch, capsys, corrupt):
    genuine = api.two_way_join

    def corrupted(graph, left, right, k, algorithm="b-idj-y", **options):
        rows = genuine(graph, left, right, k, algorithm=algorithm, **options)
        return corrupt(rows) if algorithm == "b-idj-y" else rows

    monkeypatch.setattr(api, "two_way_join", corrupted)
    status = bench_run.main([
        "--workload", "twoway_cold", "--scale", "smoke", "--seconds", "0.2",
    ])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
