"""One suite walk: the estimate is the execution plan, whatever ``jobs``.

``SuiteRunner`` classifies every scenario once — manifest resume,
relabelled duplicate, persistent-cache hit, compute, cut off — and both
``estimate_cost`` and ``run`` consume that classification. These tests
build a suite holding every class, truncate it two ways, and check that
the run's sources, manifest and stores do not depend on ``jobs`` and
that every admitted estimate row agrees with what the run did.
"""

import os
import time

import pytest

from repro.scenarios import (
    ScenarioSpec,
    SuiteRunner,
    SuiteSpec,
    estimate_scenario_injections,
)
from repro.scenarios import runner as runner_module


def _spec(algorithm: str, width: int, label: str) -> ScenarioSpec:
    return ScenarioSpec(
        algorithm=algorithm,
        width=width,
        noise="none",
        grid_step_deg=90.0,
        executor="serial",
        label=label,
    )


#: Resumed from the manifest (computed by a truncated earlier run).
RESUMED = _spec("bv", 3, "resumed")
#: Found in a cache warmed by a different suite.
WARM = _spec("ghz", 3, "warm")
FIRST = _spec("qft", 3, "first-compute")
SECOND = _spec("bv", 4, "second-compute")

SUITE = SuiteSpec.build(
    "walk-suite",
    [
        RESUMED,
        WARM,
        _spec("bv", 3, "resumed-bis"),
        FIRST,
        _spec("qft", 3, "first-compute-bis"),
        SECOND,
    ],
)

#: Suite-order sources up to the cut-off at ``second-compute``.
EXPECTED_SOURCES = ["manifest", "store", "cache", "computed", "cache"]

TRUNCATIONS = {
    "max-campaigns": {"max_campaigns": 1},
    "budget": {
        "budget_injections": estimate_scenario_injections(FIRST),
        "budget_action": "truncate",
    },
}


def manifest_bytes(manifest_dir):
    """The manifest plus every store's bytes, keyed by file name."""
    return {
        name: open(os.path.join(manifest_dir, name), "rb").read()
        for name in sorted(os.listdir(manifest_dir))
        if name == "manifest.json" or name.endswith(".qfs")
    }


def run_truncated(root, jobs, truncation):
    """Prepare the manifest and warm cache, then run the suite once."""
    manifest_dir = str(root / "manifest")
    cache_dir = str(root / "cache")
    # Leaves RESUMED done in the manifest, and nothing in the cache.
    SuiteRunner(
        SUITE, manifest_dir=manifest_dir, max_campaigns=1, use_cache=False
    ).run()
    SuiteRunner(SuiteSpec.build("warm", [WARM]), cache_dir=cache_dir).run()

    runner = SuiteRunner(
        SUITE,
        manifest_dir=manifest_dir,
        cache_dir=cache_dir,
        jobs=jobs,
        **TRUNCATIONS[truncation],
    )
    estimate = runner.estimate_cost()
    ticks = []
    outcome = runner.run(progress=lambda done, total, sid: ticks.append(sid))
    return estimate, outcome, ticks, manifest_bytes(manifest_dir)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The ``jobs=1`` run per truncation, computed once."""
    return {
        truncation: run_truncated(
            tmp_path_factory.mktemp(f"reference-{truncation}"), 1, truncation
        )
        for truncation in TRUNCATIONS
    }


@pytest.mark.parametrize("truncation", sorted(TRUNCATIONS))
@pytest.mark.parametrize("jobs", [1, 2])
def test_estimate_is_the_execution_plan(
    tmp_path, reference, jobs, truncation
):
    estimate, outcome, ticks, stores = run_truncated(
        tmp_path, jobs, truncation
    )
    _, ref_outcome, _, ref_stores = reference[truncation]

    assert not outcome.complete
    sources = [run.source for run in outcome]
    assert sources == EXPECTED_SOURCES
    assert sources == [run.source for run in ref_outcome]
    assert stores == ref_stores
    assert len(stores) == len(EXPECTED_SOURCES) + 1  # + manifest.json

    rows = estimate["scenarios"]
    for row, run in zip(rows, outcome):
        assert row["id"] == run.scenario_id
        assert row["within_budget"]
        assert row["reused"] == (run.source != "computed")
    if truncation == "budget":
        assert estimate["excluded"] == [SECOND.scenario_id]

    assert sorted(ticks) == sorted(run.scenario_id for run in outcome)
    if jobs == 1:
        assert ticks == [run.scenario_id for run in outcome]


def test_runtime_seconds_gate_stops_jobs1_at_a_campaign_boundary(
    tmp_path, monkeypatch
):
    """Without timing history nothing is cut pre-run; the elapsed-time
    check at each dispatch stops the run after the first campaign."""
    real = runner_module.run_scenario

    def slow(spec, **kwargs):
        time.sleep(0.2)
        return real(spec, **kwargs)

    monkeypatch.setattr(runner_module, "run_scenario", slow)
    runner = SuiteRunner(
        SUITE,
        manifest_dir=str(tmp_path / "m"),
        use_cache=False,
        budget_seconds=0.1,
        budget_action="truncate",
    )
    assert runner.estimate_cost()["excluded"] == []
    outcome = runner.run()
    assert not outcome.complete
    assert [run.source for run in outcome] == ["computed"]
