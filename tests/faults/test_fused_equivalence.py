"""The tail-plan equivalence harness.

The single-path contract, locked down in one place: campaigns run on
compiled tail plans (the default, unpacked compile) are
**bit-identical** to the naive oracle ``SerialExecutor(prefix_reuse=
False)``, which re-simulates every faulty circuit gate by gate without
any plan — on both exact backends, for single and double faults, exact
and sampled, at any tile size, and through the transpiled path. Packed
composition (the ``bit_identical=False`` waiver) keeps a weaker but
still exact guarantee: bitwise-stable across executors and tile sizes,
numerically close to the per-gate oracle.

The property-based section sweeps random circuits so the guarantee is
established for arbitrary workloads, not just the six benchmarks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    ParallelExecutor,
    QuFI,
    SerialExecutor,
    fault_grid,
)
from repro.faults.executor import TILE_WORKING_SET
from repro.quantum import random_circuit
from repro.scenarios import ScenarioSpec, run_scenario
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


def table_bytes(result):
    """A campaign's records as raw bytes — the bit-identity comparator."""
    return result.table.data.tobytes()


def naive():
    """The reference: full re-simulation per injection, no tail plans."""
    return SerialExecutor(prefix_reuse=False)


def sv():
    return StatevectorSimulator()


def dm(num_qubits=3):
    return DensityMatrixSimulator(light_noise_model(num_qubits))


def run_single(backend, executor, spec, **kwargs):
    return QuFI(backend, executor=executor, **kwargs).run_campaign(
        spec, faults=FAULTS
    )


def tiled_executor(backend, num_qubits=3, tile=3):
    """A BatchedExecutor whose memory budget forces ``tile`` branches."""
    budget = TILE_WORKING_SET * tile * backend.branch_state_nbytes(num_qubits)
    return BatchedExecutor(memory_budget=budget)


class TestFusedSingleFault:
    """Default fused mode == unfused, bit for bit, six algorithms."""

    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    @pytest.mark.parametrize("make_backend", [sv, dm], ids=["sv", "dm"])
    def test_fused_matches_unfused(self, builder, make_backend):
        spec = builder(3)
        reference = table_bytes(
            run_single(make_backend(), naive(), spec)
        )
        assert reference == table_bytes(
            run_single(make_backend(), SerialExecutor(), spec)
        )
        assert reference == table_bytes(
            run_single(make_backend(), BatchedExecutor(), spec)
        )
        assert reference == table_bytes(
            run_single(make_backend(), tiled_executor(make_backend()), spec)
        )

    def test_tile_size_one_still_matches(self):
        spec = qft(3)
        backend = dm()
        reference = table_bytes(run_single(backend, naive(), spec))
        assert reference == table_bytes(
            run_single(dm(), tiled_executor(dm(), tile=1), spec)
        )


class TestFusedDoubleFault:
    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_statevector_double(self, builder):
        spec = builder(3)
        couples = [(0, 1), (1, 2)]
        reference = table_bytes(
            QuFI(sv(), executor=naive()).run_double_campaign(
                spec, couples, faults=FAULTS
            )
        )
        for executor in (
            SerialExecutor(),
            BatchedExecutor(),
            tiled_executor(sv()),
        ):
            assert reference == table_bytes(
                QuFI(sv(), executor=executor).run_double_campaign(
                    spec, couples, faults=FAULTS
                )
            )

    def test_noisy_density_matrix_double(self):
        spec = grover(3)
        couples = [(0, 1), (1, 2)]
        reference = table_bytes(
            QuFI(dm(), executor=naive()).run_double_campaign(
                spec, couples, faults=FAULTS
            )
        )
        assert reference == table_bytes(
            QuFI(
                dm(), executor=BatchedExecutor()
            ).run_double_campaign(spec, couples, faults=FAULTS)
        )


class TestFusedSampled:
    @pytest.mark.parametrize(
        "builder", ALGORITHM_BUILDERS, ids=lambda b: b.__name__
    )
    def test_sampled_fused_matches_unfused(self, builder):
        spec = builder(3)
        reference = table_bytes(
            run_single(sv(), naive(), spec, shots=128, seed=11)
        )
        assert reference == table_bytes(
            run_single(
                sv(), BatchedExecutor(), spec, shots=128, seed=11
            )
        )


class TestFusedParallel:
    def test_parallel_fused_matches_unfused_serial(self):
        executor = ParallelExecutor(workers=2).start()
        try:
            for builder in ALGORITHM_BUILDERS:
                spec = builder(3)
                reference = table_bytes(
                    run_single(sv(), naive(), spec)
                )
                assert reference == table_bytes(
                    run_single(sv(), executor, spec)
                )
        finally:
            executor.shutdown()

    def test_parallel_fused_noisy_density_matrix(self):
        executor = ParallelExecutor(workers=2).start()
        try:
            spec = qft(3)
            reference = table_bytes(run_single(dm(), naive(), spec))
            assert reference == table_bytes(run_single(dm(), executor, spec))
        finally:
            executor.shutdown()


class TestPackedWaiver:
    """bit_identical=False packs composition: cross-executor stable."""

    PACKED = {"pack": True}

    def test_packed_stable_across_executors_and_tiles(self):
        spec = qft(3)
        backend = dm()
        packed_serial = table_bytes(
            run_single(
                dm(),
                SerialExecutor(segment_options=self.PACKED),
                spec,
            )
        )
        packed_batched = table_bytes(
            run_single(
                dm(),
                BatchedExecutor(segment_options=self.PACKED),
                spec,
            )
        )
        budget = TILE_WORKING_SET * 3 * backend.branch_state_nbytes(3)
        packed_tiled = table_bytes(
            run_single(
                dm(),
                BatchedExecutor(
                    segment_options=self.PACKED,
                    memory_budget=budget,
                ),
                spec,
            )
        )
        assert packed_serial == packed_batched == packed_tiled

    def test_packed_close_to_unfused(self):
        spec = qft(3)
        exact = run_single(dm(), naive(), spec)
        packed = run_single(
            dm(),
            BatchedExecutor(segment_options=self.PACKED),
            spec,
        )
        np.testing.assert_allclose(
            packed.qvf_values(), exact.qvf_values(), atol=1e-9
        )


class TestFusedTranspiled:
    """The transpiled path runs plans too — same records as the oracle."""

    def test_transpiled_fused_matches_unfused(self):
        spec = ScenarioSpec(
            algorithm="ghz",
            width=3,
            noise="light",
            grid_step_deg=90.0,
            executor="batched",
            transpile={"optimization_level": 1, "seed": 7},
        )
        assert table_bytes(run_scenario(spec)) == table_bytes(
            run_scenario(spec, executor=naive())
        )


def _correct_states(circuit):
    """Fault-free most-probable state(s), as a user would define QVF."""
    probs = StatevectorSimulator().run(circuit).get_probabilities()
    best = max(probs.values())
    return tuple(s for s, p in probs.items() if p > best - 1e-9)


class TestRandomCircuits:
    """Property-based: the guarantee holds for arbitrary workloads."""

    @given(
        num_qubits=st.integers(min_value=2, max_value=3),
        depth=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_fused_bit_identical_on_random_circuits(
        self, num_qubits, depth, seed
    ):
        circuit = random_circuit(num_qubits, depth, seed=seed, measure=True)
        correct = _correct_states(circuit)
        for make_backend in (sv, lambda: dm(num_qubits)):
            reference = table_bytes(
                QuFI(make_backend(), executor=naive()).run_campaign(
                    circuit, correct_states=correct, faults=FAULTS
                )
            )
            for executor in (
                SerialExecutor(),
                BatchedExecutor(),
                tiled_executor(make_backend(), num_qubits),
            ):
                assert reference == table_bytes(
                    QuFI(make_backend(), executor=executor).run_campaign(
                        circuit, correct_states=correct, faults=FAULTS
                    )
                )

    @given(
        depth=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_fused_double_faults_on_random_circuits(self, depth, seed):
        circuit = random_circuit(3, depth, seed=seed, measure=True)
        correct = _correct_states(circuit)
        couples = [(0, 1), (1, 2)]
        reference = table_bytes(
            QuFI(sv(), executor=naive()).run_double_campaign(
                circuit, couples, correct_states=correct, faults=FAULTS
            )
        )
        assert reference == table_bytes(
            QuFI(
                sv(), executor=BatchedExecutor()
            ).run_double_campaign(
                circuit, couples, correct_states=correct, faults=FAULTS
            )
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_packed_stable_on_random_circuits(self, seed):
        circuit = random_circuit(3, 4, seed=seed, measure=True)
        correct = _correct_states(circuit)
        packed = {"pack": True}
        runs = [
            table_bytes(
                QuFI(sv(), executor=executor).run_campaign(
                    circuit, correct_states=correct, faults=FAULTS
                )
            )
            for executor in (
                SerialExecutor(segment_options=packed),
                BatchedExecutor(segment_options=packed),
            )
        ]
        assert runs[0] == runs[1]


class TestCompilerCache:
    """Executors cache compilers by what they fold in, not by circuit
    alone: a noiseless unitary plan must never serve a noisy run."""

    @pytest.mark.parametrize(
        "make_executor", [SerialExecutor, BatchedExecutor],
        ids=["serial", "batched"],
    )
    def test_statevector_then_density_matrix_on_one_executor(
        self, make_executor
    ):
        spec = qft(3)
        shared = make_executor()
        run_single(sv(), shared, spec)
        reused = table_bytes(run_single(dm(), shared, spec))
        assert reused == table_bytes(run_single(dm(), make_executor(), spec))
        assert reused == table_bytes(run_single(dm(), naive(), spec))

    def test_suite_priming_still_hits(self):
        from repro.scenarios.factory import (
            FactoryCache,
            make_executor,
            make_segment_compiler,
        )

        spec = ScenarioSpec(
            algorithm="qft", width=3, noise="light", grid_step_deg=90.0
        )
        cache = FactoryCache()
        primed = make_segment_compiler(spec, cache)
        assert primed.compiled_positions == ()
        run_scenario(spec, cache, executor=make_executor(spec, cache))
        assert primed.compiled_positions != ()
