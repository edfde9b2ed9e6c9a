"""Batched branch evaluation: equivalence, protocol, and fallbacks.

The engine's standing invariant is a chain: the batched path must be
bit-identical to :class:`SerialExecutor`, which must itself be
bit-identical to the naive per-injection loop. These tests pin the whole
chain on every benchmark algorithm, for single- and double-fault
campaigns, on both batch-capable backends.
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
from repro.faults import (
    BatchedExecutor,
    QuFI,
    SerialExecutor,
    enumerate_injection_points,
    fault_grid,
)
from repro.faults.executor import score_branch_batch
from repro.simulators import (
    BranchBatch,
    DensityMatrixSimulator,
    NoiseModel,
    ReadoutError,
    StatevectorSimulator,
    depolarizing_channel,
    supports_batched_branches,
    supports_snapshots,
)

ALGORITHM_BUILDERS = [
    bernstein_vazirani,
    deutsch_jozsa,
    qft,
    ghz,
    grover,
    qpe,
]


def build_noise_model(num_qubits: int) -> NoiseModel:
    model = NoiseModel("batched-test")
    model.add_all_qubit_error(
        depolarizing_channel(0.002),
        ["h", "x", "y", "z", "s", "t", "u", "p", "rx", "ry", "rz", "sx", "id"],
    )
    model.add_all_qubit_error(
        depolarizing_channel(0.01, num_qubits=2), ["cx", "cz", "cp", "swap"]
    )
    for qubit in range(num_qubits):
        model.add_readout_error(ReadoutError(0.015, 0.03), qubit)
    return model


def legacy_sweep(qufi, spec, faults):
    """The naive per-injection loop the engine replaced."""
    return [
        qufi.run_injection(spec.circuit, spec.correct_states, point, fault)
        for point in enumerate_injection_points(spec.circuit)
        for fault in faults
    ]


def assert_records_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.point == b.point
        assert a.fault == b.fault
        assert a.second_fault == b.second_fault
        assert a.second_qubit == b.second_qubit
        assert a.qvf == b.qvf


class TestSingleFaultEquivalence:
    """Batched == serial == naive, exact mode, every benchmark algorithm."""

    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_statevector_all_algorithms(self, builder):
        spec = builder(3)
        faults = fault_grid(step_deg=90)
        naive = legacy_sweep(QuFI(StatevectorSimulator()), spec, faults)
        serial = QuFI(
            StatevectorSimulator(), executor=SerialExecutor()
        ).run_campaign(spec, faults=faults)
        batched = QuFI(
            StatevectorSimulator(), executor=BatchedExecutor()
        ).run_campaign(spec, faults=faults)
        assert_records_identical(naive, serial.records)
        assert_records_identical(serial.records, batched.records)

    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_noisy_density_matrix_all_algorithms(self, builder):
        spec = builder(3)
        backend = DensityMatrixSimulator(build_noise_model(3))
        faults = fault_grid(step_deg=90)
        naive = legacy_sweep(QuFI(backend), spec, faults)
        serial = QuFI(backend, executor=SerialExecutor()).run_campaign(
            spec, faults=faults
        )
        batched = QuFI(backend, executor=BatchedExecutor()).run_campaign(
            spec, faults=faults
        )
        assert_records_identical(naive, serial.records)
        assert_records_identical(serial.records, batched.records)


class TestDoubleFaultEquivalence:
    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_statevector_all_algorithms(self, builder):
        spec = builder(3)
        faults = fault_grid(step_deg=90)
        couples = [(0, 1), (1, 2)]
        serial = QuFI(
            StatevectorSimulator(), executor=SerialExecutor()
        ).run_double_campaign(spec, couples, faults=faults)
        batched = QuFI(
            StatevectorSimulator(), executor=BatchedExecutor()
        ).run_double_campaign(spec, couples, faults=faults)
        assert serial.num_injections > 0
        assert_records_identical(serial.records, batched.records)

    def test_reset_in_tail_stays_bit_identical(self):
        """Reset is the one tail operation with its own (channel) path;
        batched and serial must agree bit for bit across it too."""
        from repro.quantum import QuantumCircuit

        qc = QuantumCircuit(3, 3, name="reset-tail")
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        qc.reset(1)
        qc.h(1)
        qc.cx(1, 2)
        qc.measure_all()
        faults = fault_grid(step_deg=90)
        backend = DensityMatrixSimulator(build_noise_model(3))
        serial = QuFI(backend, executor=SerialExecutor()).run_campaign(
            qc, correct_states=["000"], faults=faults
        )
        batched = QuFI(backend, executor=BatchedExecutor()).run_campaign(
            qc, correct_states=["000"], faults=faults
        )
        assert serial.num_injections > 0
        assert_records_identical(serial.records, batched.records)

    def test_noisy_density_matrix_double(self):
        spec = bernstein_vazirani(3)
        backend = DensityMatrixSimulator(build_noise_model(3))
        faults = fault_grid(step_deg=90)
        couples = [(0, 1)]
        serial = QuFI(backend, executor=SerialExecutor()).run_double_campaign(
            spec, couples, faults=faults
        )
        batched = QuFI(
            backend, executor=BatchedExecutor()
        ).run_double_campaign(spec, couples, faults=faults)
        assert_records_identical(serial.records, batched.records)


class TestSampledMode:
    def test_sampled_batched_matches_serial_stream(self):
        """A finite shot budget scores branch by branch in task order, so
        the batched path consumes the injector rng exactly as serial."""
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        serial = QuFI(
            StatevectorSimulator(), shots=256, seed=11,
            executor=SerialExecutor(),
        ).run_campaign(spec, faults=faults)
        batched = QuFI(
            StatevectorSimulator(), shots=256, seed=11,
            executor=BatchedExecutor(),
        ).run_campaign(spec, faults=faults)
        assert_records_identical(serial.records, batched.records)


class TestProtocol:
    def test_batch_capable_backends(self):
        assert supports_batched_branches(StatevectorSimulator())
        assert supports_batched_branches(DensityMatrixSimulator())

    def test_branch_batch_rows_match_serial_results(self):
        """Each BranchBatch row reproduces run_from_snapshot's dictionary —
        same keys (presence) and bit-identical values."""
        from repro.faults.executor import _branch_head
        from repro.faults import InjectionTask

        spec = qft(3)
        backend = StatevectorSimulator()
        faults = fault_grid(step_deg=45)
        points = enumerate_injection_points(spec.circuit)
        point = points[len(points) // 2]
        tasks = [
            InjectionTask(index=i, point=point, fault=fault)
            for i, fault in enumerate(faults)
        ]
        snapshot = backend.prefix_snapshot(
            spec.circuit, stop=point.position + 1
        )
        batch = backend.run_branches_from_snapshot(
            snapshot, spec.circuit, [_branch_head(t) for t in tasks]
        )
        assert batch.size == len(tasks)
        for index, task in enumerate(tasks):
            # The whole faulty continuation, advanced gate by gate.
            tail = _branch_head(task) + list(
                spec.circuit.instructions[point.position + 1 :]
            )
            serial = backend.run_from_snapshot(snapshot, spec.circuit, tail)
            assert batch.result(index).probabilities == serial.probabilities

    def test_max_branches_chunks_do_not_change_records(self):
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=45)
        whole = QuFI(
            StatevectorSimulator(), executor=BatchedExecutor(max_branches=512)
        ).run_campaign(spec, faults=faults)
        chopped = QuFI(
            StatevectorSimulator(), executor=BatchedExecutor(max_branches=5)
        ).run_campaign(spec, faults=faults)
        assert_records_identical(whole.records, chopped.records)

    def test_fallback_to_serial_without_batch_support(self):
        """Snapshot-less backends still run correct campaigns under the
        batched executor (degrading to the serial loop)."""

        class OpaqueBackend:
            name = "opaque"

            def __init__(self):
                self._inner = StatevectorSimulator()

            def run(self, circuit, shots=None, seed=None):
                return self._inner.run(circuit, shots=shots, seed=seed)

        backend = OpaqueBackend()
        assert not supports_snapshots(backend)
        assert not supports_batched_branches(backend)
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        campaign = QuFI(
            backend, executor=BatchedExecutor()
        ).run_campaign(spec, faults=faults)
        reference = QuFI(StatevectorSimulator()).run_campaign(
            spec, faults=faults
        )
        assert_records_identical(campaign.records, reference.records)

    def test_prefix_reuse_false_degrades_to_naive(self):
        spec = bernstein_vazirani(3)
        faults = fault_grid(step_deg=90)
        degraded = QuFI(
            StatevectorSimulator(),
            executor=BatchedExecutor(prefix_reuse=False),
        ).run_campaign(spec, faults=faults)
        reference = QuFI(StatevectorSimulator()).run_campaign(
            spec, faults=faults
        )
        assert_records_identical(degraded.records, reference.records)

    def test_bounded_preserves_strategy(self):
        bounded = BatchedExecutor(max_branches=32, batch_size=64).bounded(5)
        assert isinstance(bounded, BatchedExecutor)
        assert bounded.max_branches == 32
        assert bounded.batch_size == 5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BatchedExecutor(max_branches=0)
        with pytest.raises(ValueError):
            BatchedExecutor(batch_size=0)

    def test_non_unitary_heads_rejected(self):
        from repro.quantum.circuit import Instruction
        from repro.quantum.gates import Measure

        spec = bernstein_vazirani(3)
        backend = StatevectorSimulator()
        snapshot = backend.prefix_snapshot(spec.circuit, stop=1)
        with pytest.raises(ValueError, match="unitary"):
            backend.run_branches_from_snapshot(
                snapshot,
                spec.circuit,
                [[Instruction(Measure(), (0,), (0,))]],
            )


class TestVectorizedScoring:
    def test_score_branch_batch_matches_scalar_qvf(self):
        """score_branch_batch on a hand-built batch equals per-row
        qvf_from_probabilities."""
        from repro.faults import qvf_from_probabilities

        probabilities = np.array(
            [
                [0.5, 0.0, 0.25, 0.25],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        present = probabilities > 0
        batch = BranchBatch(
            probabilities=probabilities,
            present=present,
            key_width=2,
            num_clbits=2,
            shots=None,
            metadata={},
        )
        scored = score_branch_batch(
            batch, ("00",), None, np.random.default_rng(0)
        )
        for row, value in zip(probabilities, scored):
            mapping = {
                format(k, "02b"): p for k, p in enumerate(row) if p > 0
            }
            assert value == qvf_from_probabilities(mapping, ("00",))
