"""Golden planner decisions: cost-model edits must be deliberate.

Each golden file pins the planner's *decisions* — build order, per-edge
operators and the cost-model version — for one fixture
(skewed star / chain / uniform ER).  A cost-model change that flips any
decision fails here until the goldens are regenerated on purpose:

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_planner_goldens.py

which prints, per decision key, how many ``<fixture>/<mode>`` cells
moved (the ``golden_audit`` fixture).  Bump
:data:`repro.planner.cost.COST_MODEL_VERSION` in the same change — the
version is part of every golden, so a formula edit that happens to
leave these three fixtures' decisions intact still shows up in review.
"""

import json
import os
from pathlib import Path

import pytest

from repro.extensions.measures import TruncatedPPR
from repro.planner import PlannerFixture, choose_plan

GOLDEN_DIR = Path(__file__).parent / "goldens" / "planner"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

FIXTURE = PlannerFixture()

# (golden name, spec builder, strategy) — chain runs under PPR so the
# goldens cover the measure-generic operator table too.
CASES = [
    ("skewed_star", lambda: FIXTURE.skewed_star_spec(), "pj"),
    (
        "chain",
        lambda: FIXTURE.chain_spec(
            measure=TruncatedPPR(damping=0.85, epsilon=1e-4)
        ),
        "pj",
    ),
    ("uniform_er", lambda: FIXTURE.uniform_er_spec(), "pj"),
]


MODES = ("fixed", "auto")


def _decisions(name, builder, strategy):
    spec = builder()
    payload = {"fixture": name, "strategy": strategy}
    for mode in MODES:
        payload[mode] = choose_plan(spec, strategy, mode=mode).decisions()
    return payload


def _golden_path(name):
    return GOLDEN_DIR / f"{name}.json"


def _load_golden(name):
    golden_path = _golden_path(name)
    assert golden_path.exists(), (
        f"missing golden {golden_path}; generate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(golden_path.read_text())


def _cells(payloads):
    """``{"<fixture>/<mode>": decisions}`` over every golden file."""
    return {
        f"{payload['fixture']}/{mode}": payload[mode]
        for payload in payloads for mode in MODES
    }


@pytest.mark.skipif(not UPDATE, reason="golden regeneration only")
def test_regenerate_goldens(golden_audit):
    replaced = [
        json.loads(_golden_path(name).read_text())
        for name, _, _ in CASES if _golden_path(name).exists()
    ]
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, builder, strategy in CASES:
        _golden_path(name).write_text(
            json.dumps(_decisions(name, builder, strategy), indent=2) + "\n"
        )
    golden_audit(
        f"{GOLDEN_DIR.name}/",
        _cells(replaced),
        _cells(_load_golden(name) for name, _, _ in CASES),
    )


@pytest.mark.skipif(UPDATE, reason="goldens being regenerated")
@pytest.mark.parametrize("name,builder,strategy", CASES)
def test_planner_decisions_match_golden(name, builder, strategy):
    assert _decisions(name, builder, strategy) == _load_golden(name), (
        f"planner decisions for {name!r} diverged from the golden. If the "
        "cost-model change is intentional, bump COST_MODEL_VERSION and rerun "
        "with REPRO_UPDATE_GOLDENS=1."
    )


def test_goldens_pin_current_cost_model_version():
    from repro.planner import COST_MODEL_VERSION

    for name, _, _ in CASES:
        golden = _load_golden(name)
        for mode in MODES:
            assert golden[mode]["cost_model_version"] == COST_MODEL_VERSION


def test_skewed_star_golden_groups_in_edges():
    """The golden itself documents the headline decision: the star's
    low-fanout in-edges build first under auto."""
    golden = json.loads((GOLDEN_DIR / "skewed_star.json").read_text())
    assert set(golden["auto"]["build_order"][:3]) == {1, 3, 5}
    assert golden["fixed"]["build_order"] == [0, 1, 2, 3, 4, 5]
