"""Double-fault injection: neighbour discovery and magnitude constraints."""

import math

import pytest

from repro.algorithms import bernstein_vazirani, qft
from repro.faults import (
    PhaseShiftFault,
    QuFI,
    fault_grid,
    find_neighbor_couples,
)
from repro.faults.fault_model import constrained_pairs
from repro.faults.injection_points import cluster_sites
from repro.quantum.circuit import QuantumCircuit
from repro.simulators import DensityMatrixSimulator
from repro.transpiler import jakarta_topology, linear_topology


@pytest.fixture
def report(bv4):
    return find_neighbor_couples(bv4, jakarta_topology())


class TestNeighborDiscovery:
    def test_couples_found(self, report):
        assert len(report.couples) >= 1
        for a, b in report.couples:
            assert a < b

    def test_couples_are_logical_qubits(self, report, bv4):
        for a, b in report.couples:
            assert 0 <= a < bv4.num_qubits
            assert 0 <= b < bv4.num_qubits

    def test_couples_physically_adjacent(self, report):
        layout = report.transpiled.final_layout
        coupling = report.transpiled.coupling
        for log_a, log_b in report.couples:
            assert coupling.are_connected(
                layout.physical(log_a), layout.physical(log_b)
            )

    def test_describe_mentions_layout(self, report):
        text = report.describe()
        assert "jakarta" in text
        assert "neighbour couples" in text
        assert "logical q0" in text

    def test_linear_topology_couples(self, bv4):
        report = find_neighbor_couples(bv4, linear_topology(7))
        # On a chain every placed qubit has at most 2 neighbours.
        for a, b in report.couples:
            assert a != b

    def test_accepts_bare_circuit(self, bv4):
        report = find_neighbor_couples(bv4.circuit, jakarta_topology())
        assert report.couples


class TestDoubleCampaign:
    def _run(self, backend, spec, couples, step=90):
        qufi = QuFI(backend)
        faults = fault_grid(
            step_deg=step, phi_max_deg=180, include_phi_endpoint=True
        )
        return qufi.run_double_campaign(spec, couples, faults=faults)

    def test_constraint_theta1_le_theta0(self, exact_backend, bv4, report):
        result = self._run(exact_backend, bv4, report.couples[:1])
        assert result.num_injections > 0
        for record in result.records:
            assert record.second_fault.theta <= record.fault.theta + 1e-9
            assert record.second_fault.phi <= record.fault.phi + 1e-9

    def test_second_qubit_is_couple_partner(self, exact_backend, bv4, report):
        couple = report.couples[0]
        result = self._run(exact_backend, bv4, [couple])
        for record in result.records:
            assert record.point.qubit == couple[0]
            assert record.second_qubit == couple[1]

    def test_double_worse_than_single_on_average(
        self, noisy_backend, bv4, report
    ):
        """The paper's headline multi-fault result (Fig. 10)."""
        qufi = QuFI(noisy_backend)
        faults = fault_grid(
            step_deg=45, phi_max_deg=180, include_phi_endpoint=True
        )
        single = qufi.run_campaign(bv4, faults=faults)
        double = qufi.run_double_campaign(
            bv4, report.couples[:1], faults=faults
        )
        assert double.mean_qvf() > single.mean_qvf()

    def test_requires_couples(self, exact_backend, bv4):
        qufi = QuFI(exact_backend)
        with pytest.raises(ValueError, match="couple"):
            qufi.run_double_campaign(bv4, [])

    def test_null_second_fault_matches_single(self, exact_backend, bv4, report):
        """theta1 = phi1 = 0 degenerates to the single-fault case."""
        qufi = QuFI(exact_backend)
        couple = report.couples[0]
        first = PhaseShiftFault(math.pi / 2, math.pi / 2)
        double = qufi.run_double_campaign(
            bv4,
            [couple],
            faults=[first],
            second_faults=[PhaseShiftFault(0.0, 0.0)],
        )
        from repro.faults import enumerate_injection_points

        points = [
            p
            for p in enumerate_injection_points(bv4.circuit)
            if p.qubit == couple[0]
        ]
        singles = [
            qufi.run_injection(bv4.circuit, bv4.correct_states, p, first).qvf
            for p in points
        ]
        doubles = sorted(r.qvf for r in double.records)
        assert doubles == pytest.approx(sorted(singles), abs=1e-9)

    def test_metadata_mode(self, exact_backend, bv4, report):
        result = self._run(exact_backend, bv4, report.couples[:1])
        assert result.metadata["mode"] == "double"
        assert result.is_double()


class TestSharedClusterSweep:
    """Double-fault sweeps are correlated sweeps over two-qubit clusters."""

    def test_double_equals_pair_cluster_sweep(self, noisy_backend, bv4, report):
        faults = fault_grid(
            step_deg=90, phi_max_deg=180, include_phi_endpoint=True
        )
        double = QuFI(noisy_backend).run_double_campaign(
            bv4, report.couples, faults=faults
        )
        pairs = constrained_pairs(faults)
        correlated = QuFI(noisy_backend).run_correlated_campaign(
            bv4, [((a, b), pairs) for a, b in report.couples]
        )
        assert double.num_injections > 0
        assert double.table.data.tobytes() == correlated.table.data.tobytes()
        assert double.fault_free_qvf == correlated.fault_free_qvf
        assert "cluster_size" not in double.metadata
        assert double.metadata["num_faults"] == len(faults)


class TestClusterSites:
    def test_measured_out_qubits_are_pruned(self):
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)  # 0: every slot live
        circuit.measure(2, 2)  # 1
        circuit.x(0)  # 2: the outer slot q2 is measured out
        circuit.measure(1, 1)  # 3
        circuit.x(0)  # 4: the neighbour q1 is measured out
        sites = cluster_sites(circuit, [(0, 1, 2)])
        assert [(i, point.position, outer) for i, point, outer in sites] == [
            (0, 0, (2,)),
            (0, 2, ()),
        ]
