"""Figure 6: link-prediction effectiveness.

* (a) ROC curves (summarised as AUC + TPR@FPR=0.1) for 2-way joins on
  Yeast, DBLP, and YouTube;
* (b) AUC vs ``lambda`` for ``DHT_lambda``, and the ``DHT_e`` AUC, on
  Yeast.

Protocols per Section VII-B: DBLP predicts post-2010 co-authorships
from the pre-2010 snapshot; Yeast and YouTube hide a random half of the
cross edges between the two query node sets.
"""

from __future__ import annotations

import pytest

from _harness import (
    dblp,
    print_kv_table,
    register_reporter,
    yeast,
    youtube_small,
)
from repro.core.dht import DHTParams
from repro.datasets.splits import remove_random_cross_edges
from repro.eval.link_prediction import evaluate_link_prediction
from repro.eval.roc import true_positive_rate_at

_results = {}
_lambda_auc = {}

LAMBDA_SWEEP = [0.1, 0.2, 0.4, 0.6, 0.8]


def _yeast_setup():
    data = yeast()
    left, right = data.largest_pair
    split = remove_random_cross_edges(data.graph, left, right, 0.5, seed=42)
    return data.graph, split.test_graph, left, right


def test_fig6a_yeast(benchmark):
    true_graph, test_graph, left, right = _yeast_setup()
    result = benchmark.pedantic(
        lambda: evaluate_link_prediction(true_graph, test_graph, left, right),
        rounds=1, iterations=1,
    )
    _results["Yeast"] = result


def test_fig6a_dblp(benchmark):
    data = dblp()
    test_graph = data.snapshot_before(2010)
    left = data.areas["DB"]
    right = data.areas["AI"]
    result = benchmark.pedantic(
        lambda: evaluate_link_prediction(data.graph, test_graph, left, right),
        rounds=1, iterations=1,
    )
    _results["DBLP"] = result


def test_fig6a_youtube(benchmark):
    data = youtube_small()
    left, right = data.group(1), data.group(5)
    split = remove_random_cross_edges(data.graph, left, right, 0.5, seed=42)
    result = benchmark.pedantic(
        lambda: evaluate_link_prediction(data.graph, split.test_graph, left, right),
        rounds=1, iterations=1,
    )
    _results["YouTube"] = result


@pytest.mark.parametrize("decay", LAMBDA_SWEEP)
def test_fig6b_lambda_sweep(benchmark, decay):
    true_graph, test_graph, left, right = _yeast_setup()
    params = DHTParams.dht_lambda(decay)
    result = benchmark.pedantic(
        lambda: evaluate_link_prediction(
            true_graph, test_graph, left, right, params=params
        ),
        rounds=1, iterations=1,
    )
    _lambda_auc[f"DHT_lambda({decay})"] = result.auc


def test_fig6b_dht_e(benchmark):
    true_graph, test_graph, left, right = _yeast_setup()
    params = DHTParams.dht_e()
    result = benchmark.pedantic(
        lambda: evaluate_link_prediction(
            true_graph, test_graph, left, right, params=params
        ),
        rounds=1, iterations=1,
    )
    _lambda_auc["DHT_e"] = result.auc


@register_reporter
def report():
    rows = {}
    for name, result in _results.items():
        tpr = true_positive_rate_at(result.roc, 0.1)
        rows[name] = (
            f"AUC={result.auc:.4f}  TPR@FPR0.1={tpr:.3f}  "
            f"candidates={result.num_candidates}"
        )
    print_kv_table(
        "Fig 6(a) link prediction (paper AUCs: Yeast 0.9453, DBLP 0.9222, "
        "YouTube 0.9544)",
        rows,
    )
    print()
    print_kv_table(
        "Fig 6(b) Yeast AUC vs lambda (paper: consistently > 0.92, "
        "peak near lambda=0.6)",
        dict(sorted(_lambda_auc.items())),
    )
