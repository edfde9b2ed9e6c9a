"""``run_scenario(checkpoint_path=...)``: the one checkpointed entry point.

The CLI's ``--checkpoint`` calls straight into the scenario layer, so
these tests pin the routing there:

* a checkpointed run of a single-fault spec (plain grid, qec, k=1
  strike transpiled + mitigated) or an adaptive spec produces the
  records of the plain run, with metadata equal apart from the
  ``checkpointed`` marker;
* re-running on the completed store computes nothing and returns
  byte-identical records;
* double-fault and correlated (k>=2) strike specs refuse a checkpoint
  (the resume key cannot tell their tasks apart) before writing a store;
* the budget gate runs before any checkpoint is opened.
"""

import os

import pytest

from repro.faults.executor import ParallelExecutor, SerialExecutor
from repro.scenarios import ScenarioSpec, run_scenario

SINGLE_FAULT_SPECS = {
    "plain": dict(algorithm="bv", width=3, noise="light", grid_step_deg=90.0),
    "qec": dict(
        algorithm="qec",
        noise="none",
        grid_step_deg=90.0,
        seed=7,
        qec={"code": "bit_flip", "distance": 3},
    ),
    "strike-transpiled-mitigated": dict(
        algorithm="bv",
        width=3,
        noise="light",
        seed=11,
        strike={"count": 8},
        machine="jakarta",
        transpile={},
        mitigation=True,
    ),
    "adaptive": dict(
        algorithm="ghz",
        width=3,
        noise="none",
        grid_step_deg=30.0,
        executor="serial",
        adaptive={"coarse_points": 3, "gradient_threshold": 0.2},
    ),
}


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("a completed checkpoint must not run injections")


@pytest.mark.parametrize("name", sorted(SINGLE_FAULT_SPECS))
def test_checkpointed_run_matches_plain_run(name, tmp_path, monkeypatch):
    spec = ScenarioSpec(**SINGLE_FAULT_SPECS[name])
    path = str(tmp_path / f"{name}.ckpt")
    plain = run_scenario(spec)
    checkpointed = run_scenario(spec, checkpoint_path=path)

    assert checkpointed.num_injections == plain.num_injections > 0
    assert checkpointed.table.data.tobytes() == plain.table.data.tobytes()
    assert checkpointed.table.gate_names == plain.table.gate_names
    assert checkpointed.fault_free_qvf == plain.fault_free_qvf
    stripped = {
        key: value
        for key, value in checkpointed.metadata.items()
        if key != "checkpointed"
    }
    assert stripped == plain.metadata

    # The store is complete: a second call replays it without running a
    # single injection and hands back the same bytes.
    monkeypatch.setattr(SerialExecutor, "run", _refuse_to_run)
    monkeypatch.setattr(ParallelExecutor, "run", _refuse_to_run)
    resumed = run_scenario(spec, checkpoint_path=path)
    assert resumed.table.data.tobytes() == checkpointed.table.data.tobytes()
    assert resumed.metadata == checkpointed.metadata


@pytest.mark.parametrize(
    "overrides",
    [
        dict(mode="double", grid_step_deg=90.0),
        dict(seed=11, strike={"count": 2, "k": 2}),
    ],
    ids=["double", "strike-k2"],
)
def test_multi_fault_specs_refuse_a_checkpoint(overrides, tmp_path):
    spec = ScenarioSpec(algorithm="bv", width=3, noise="none", **overrides)
    path = str(tmp_path / "multi.ckpt")
    with pytest.raises(ValueError, match="correlated") as excinfo:
        run_scenario(spec, checkpoint_path=path)
    assert "double" in str(excinfo.value)
    assert "suite manifest" in str(excinfo.value)
    assert not os.path.exists(path)


def test_budget_gate_runs_before_the_checkpoint(tmp_path):
    spec = ScenarioSpec(
        algorithm="bv",
        width=3,
        noise="none",
        grid_step_deg=90.0,
        budget={"max_injections": 10},
    )
    path = str(tmp_path / "budget.ckpt")
    with pytest.raises(ValueError, match="budget allows 10"):
        run_scenario(spec, checkpoint_path=path)
    assert not os.path.exists(path)
