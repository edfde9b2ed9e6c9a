"""The float32 fast path: golden tolerance and waiver enforcement.

The fast path compiles tail plans in ``complex64`` and runs the standard
kernels on the narrow dtype, in exchange for the bit-identity guarantee.
These tests pin both sides of that trade: QVF values stay within an
explicit tolerance of the exact path on all six benchmark algorithms,
executors really compile narrow plans, and the spec refuses the fast
path until bit-identity is explicitly waived.
"""

import numpy as np
import pytest

from repro.algorithms import (
    bernstein_vazirani,
    deutsch_jozsa,
    ghz,
    grover,
    qft,
    qpe,
)
from repro.faults import BatchedExecutor, QuFI, SerialExecutor, fault_grid
from repro.scenarios import ScenarioSpec
from repro.scenarios.factory import light_noise_model
from repro.simulators import DensityMatrixSimulator, StatevectorSimulator

ALGORITHM_BUILDERS = [
    bernstein_vazirani,
    deutsch_jozsa,
    qft,
    ghz,
    grover,
    qpe,
]

FAULTS = fault_grid(step_deg=90)

# Single precision carries ~7 significant digits; a full tail of 3-qubit
# contractions loses a few. 1e-4 on a [0, 1] metric is comfortably above
# the observed error (~1e-6) and far below any QVF effect the paper
# interprets (Sec. V works in steps of ~0.1).
QVF_TOLERANCE = 1e-4


class TestGoldenTolerance:
    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_float32_within_tolerance_statevector(self, builder):
        spec = builder(3)
        exact = QuFI(
            StatevectorSimulator(), executor=SerialExecutor()
        ).run_campaign(spec, faults=FAULTS)
        fast = QuFI(
            StatevectorSimulator(),
            executor=BatchedExecutor(precision="float32"),
        ).run_campaign(spec, faults=FAULTS)
        np.testing.assert_allclose(
            fast.qvf_values(), exact.qvf_values(), atol=QVF_TOLERANCE
        )

    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_float32_within_tolerance_noisy_density(self, builder):
        spec = builder(3)
        backend = DensityMatrixSimulator(light_noise_model(3))
        exact = QuFI(backend, executor=SerialExecutor()).run_campaign(
            spec, faults=FAULTS
        )
        fast = QuFI(
            DensityMatrixSimulator(light_noise_model(3)),
            executor=BatchedExecutor(precision="float32"),
        ).run_campaign(spec, faults=FAULTS)
        np.testing.assert_allclose(
            fast.qvf_values(), exact.qvf_values(), atol=QVF_TOLERANCE
        )

    def test_float32_plans_actually_compile_narrow(self):
        """The fast path must really run complex64 segments (a silent
        fall-back to complex128 would make the tolerance test vacuous)."""
        backend = StatevectorSimulator()
        compiler = backend.tail_compiler(
            qft(3).circuit, dtype=np.complex64, pack=True
        )
        plan = compiler.tail_plan(0)
        assert plan.dtype == np.dtype(np.complex64)
        assert all(s.matrix.dtype == np.complex64 for s in plan.segments)


class TestWaiverEnforcement:
    """float32 is rejected anywhere bit-identity is still claimed."""

    def test_spec_rejects_float32_with_bit_identity(self):
        with pytest.raises(ValueError, match="waives the bit-identity"):
            ScenarioSpec(
                algorithm="ghz", precision="float32"
            )

    def test_spec_accepts_waived_float32(self):
        spec = ScenarioSpec(
            algorithm="ghz",
            precision="float32",
            bit_identical=False,
        )
        assert spec.precision == "float32"

    def test_spec_rejects_unknown_precision(self):
        with pytest.raises(ValueError, match="unknown precision"):
            ScenarioSpec(algorithm="ghz", precision="float16")

    @pytest.mark.parametrize(
        "make_executor",
        [
            lambda: SerialExecutor(precision="float32"),
            lambda: BatchedExecutor(precision="float32"),
        ],
        ids=["serial", "batched"],
    )
    def test_executors_compile_float32_plans(self, make_executor):
        """float32 executors run packed complex64 plans."""
        compiler = make_executor()._segment_compiler(
            StatevectorSimulator(), qft(3).circuit
        )
        assert compiler.dtype == np.dtype(np.complex64)
        assert compiler.pack

    def test_executors_reject_unknown_precision(self):
        with pytest.raises(ValueError, match="precision must be one of"):
            SerialExecutor(precision="double")
