"""Peak-memory regression: wide campaigns stay inside their budget.

ROADMAP item 2's failure mode: the batched executor materialises the
whole ``(B, 2**n, 2**n)`` density batch, which runs out of memory past
~8-10 qubits. With a ``memory_budget`` the batch is tiled down, so a
10-qubit density-matrix campaign — previously OOM territory — completes
with a tracemalloc-measured peak under the configured budget. Marked
``memory`` (registered in ``pytest.ini``); the tier-1 run includes it,
and ``-m memory`` selects it alone.
"""

import tracemalloc

import pytest

from repro.algorithms import ghz
from repro.faults import (
    BatchedExecutor,
    QuFI,
    enumerate_injection_points,
    fault_grid,
)
from repro.faults.executor import TILE_WORKING_SET, _tile_limit
from repro.scenarios.factory import light_noise_model
from repro.simulators import DensityMatrixSimulator, StatevectorSimulator

BUDGET = 128 * 2**20  # 128 MiB: one 16 MiB branch state per tile


def traced_peak(executor):
    """Peak tracemalloc bytes over a 10-qubit density-matrix campaign."""
    spec = ghz(10)
    backend = DensityMatrixSimulator(light_noise_model(10))
    qufi = QuFI(backend, executor=executor)
    points = enumerate_injection_points(spec.circuit)[:2]
    faults = fault_grid(step_deg=180.0)
    tracemalloc.start()
    try:
        result = qufi.run_campaign(spec, faults=faults, points=points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.num_injections == len(points) * len(faults)
    return peak, result


@pytest.mark.memory
class TestMemoryBudget:
    def test_ten_qubit_density_campaign_fits_budget(self):
        peak, result = traced_peak(
            BatchedExecutor(memory_budget=BUDGET)
        )
        assert peak < BUDGET
        assert result.num_injections == 8

    def test_budget_actually_bites(self):
        """The same campaign without a budget allocates well past it —
        the regression this module guards against going unnoticed."""
        peak, _ = traced_peak(BatchedExecutor())
        assert peak > BUDGET

    def test_budgeted_records_match_unbudgeted(self):
        _, budgeted = traced_peak(
            BatchedExecutor(memory_budget=BUDGET)
        )
        _, free = traced_peak(BatchedExecutor())
        assert (
            budgeted.table.data.tobytes() == free.table.data.tobytes()
        )


class TestTileLimit:
    """The budget-to-tile arithmetic (cheap, so not ``memory``-marked)."""

    def test_tile_formula(self):
        backend = DensityMatrixSimulator()
        nbytes = backend.branch_state_nbytes(10)
        assert nbytes == 16 * 4**10
        assert _tile_limit(backend, 10, 64, BUDGET) == BUDGET // (
            TILE_WORKING_SET * nbytes
        )

    def test_tile_floor_is_one_branch(self):
        backend = DensityMatrixSimulator()
        assert _tile_limit(backend, 10, 64, 1024) == 1

    def test_no_budget_keeps_max_branches(self):
        backend = StatevectorSimulator()
        assert _tile_limit(backend, 4, 64, None) == 64

    def test_budget_never_raises_max_branches(self):
        backend = StatevectorSimulator()
        assert _tile_limit(backend, 2, 8, 2**30) == 8

    def test_budgetless_backends_ignore_budget(self):
        assert _tile_limit(object(), 4, 64, 1024) == 64

    def test_executor_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="memory_budget"):
            BatchedExecutor(memory_budget=0)
