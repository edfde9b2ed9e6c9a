"""Output checks that run outside the timed region.

Campaign records are checked against the naive execution path: a
seeded sample of each campaign's rows is recomputed with
``SerialExecutor(prefix_reuse=False)``, which rebuilds and re-simulates
the full faulty circuit for every injection and shares no code with the
snapshot, batch or segment paths the suite runs. Every uniform campaign
must hold exactly as many records as ``estimate_scenario_injections``
promises (an adaptive one at least one and at most its worst case).
Where the campaign is a grid sweep, logical or transpiled, single or
double fault, the expected task for each sampled row is derived
independently from the injection points and the fault grid, so the
integer and angle columns are checked too; the other campaigns (QEC,
strike, adaptive) take their task from the row and only the QVF is
checked. Campaigns that sample shots draw from one stream in task
order, so a sample cannot be replayed alone: those are re-run whole on
the naive path and compared byte for byte, and the frame and angle
columns of a grid sweep among them are checked against the grid.

Results-layer aggregates are checked against plain numpy over the
columns the store was generated from.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.faults.executor import CampaignPlan, InjectionTask, SerialExecutor
from repro.faults.fault_model import PhaseShiftFault
from repro.faults.injection_points import (
    InjectionPoint,
    enumerate_injection_points,
)
from repro.faults.qvf import MASKED_THRESHOLD, SILENT_THRESHOLD
from repro.faults.records import RecordTable
from repro.scenarios.factory import (
    FactoryCache,
    estimate_scenario_injections,
    make_algorithm,
    make_backend,
    make_couples,
    make_faults,
    make_transpiled,
    make_transpiled_campaign_inputs,
    run_scenario,
)
from repro.scenarios.spec import ScenarioSpec

#: Largest |QVF| difference accepted between a campaign record and its
#: naive recomputation. The repository promises bit identity between
#: executors in exact mode; the tolerance only absorbs a future kernel
#: that reorders floating-point sums.
QVF_TOL = 1e-9

#: Relative tolerance for results-layer aggregates against numpy.
AGG_RTOL = 1e-12

#: Rows recomputed per campaign.
SAMPLE_ROWS = 6

_INT_COLUMNS = (
    "position", "qubit", "second_qubit", "physical_qubit", "logical_qubit",
)
_ANGLE_COLUMNS = (
    "theta", "phi", "lam", "second_theta", "second_phi", "second_lam",
)


def table_digest(table: RecordTable) -> str:
    """Content hash of a record table (rows and gate-name pool)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(table.data).tobytes())
    digest.update("\0".join(table.gate_names).encode())
    return digest.hexdigest()


def replays_whole(spec: ScenarioSpec) -> bool:
    """Whether the campaign samples shots (only a whole re-run replays)."""
    return spec.shots is not None or spec.backend == "machine-emulator"


def sample_rows(
    table: RecordTable, seed: int
) -> Tuple[np.ndarray, RecordTable]:
    """A seeded sample of row indices and those rows as their own table."""
    rng = np.random.default_rng(seed)
    count = min(SAMPLE_ROWS, len(table))
    indices = np.sort(rng.choice(len(table), size=count, replace=False))
    rows = RecordTable(np.array(table.data[indices]), table.gate_names)
    return indices, rows


def _campaign_circuit(spec: ScenarioSpec, cache: FactoryCache):
    if spec.transpile is not None:
        return make_transpiled(spec, cache).circuit
    return make_algorithm(spec, cache).circuit


def _is_grid_sweep(spec: ScenarioSpec) -> bool:
    return spec.adaptive is None and spec.strike is None and spec.qec is None


def count_problem(spec: ScenarioSpec, num_rows: int) -> str:
    """Why ``num_rows`` is the wrong record count for ``spec`` ('' if right)."""
    promised = estimate_scenario_injections(spec, FactoryCache())
    if spec.adaptive is not None:
        if 0 < num_rows <= promised:
            return ""
        return f"{num_rows} records, outside 1..{promised} (worst case)"
    if num_rows != promised:
        return f"{num_rows} records, the scenario promises {promised}"
    return ""


def _grid_tasks(
    spec: ScenarioSpec, circuit, cache: FactoryCache
) -> List[InjectionTask]:
    """Every task of a grid sweep, in the campaign's canonical order.

    The points are the circuit's injection points (for a transpiled
    sweep, the frame-stamped points over the transpiled circuit).
    Single mode: every fault at every point, point outer. Double mode:
    per neighbour couple ``(a, b)``, every point on ``a`` before ``b``
    is measured, every (first, weaker second) fault pair.
    """
    faults = make_faults(spec, cache)
    if spec.transpile is not None:
        points = make_transpiled_campaign_inputs(spec, cache)[1]
    else:
        points = enumerate_injection_points(circuit)
    if spec.mode == "single":
        pairs = [(point, fault) for point in points for fault in faults]
        return [
            InjectionTask(index=k, point=point, fault=fault)
            for k, (point, fault) in enumerate(pairs)
        ]
    combos = [
        (first, second)
        for first in faults
        for second in faults
        if second.theta <= first.theta + 1e-9
        and second.phi <= first.phi + 1e-9
    ]
    first_measure: Dict[int, int] = {}
    for position, inst in enumerate(circuit):
        if inst.name == "measure":
            first_measure.setdefault(inst.qubits[0], position)
    tasks: List[InjectionTask] = []
    for qubit_a, qubit_b in make_couples(spec, cache):
        for point in points:
            if point.qubit != qubit_a:
                continue
            if point.position >= first_measure.get(qubit_b, math.inf):
                continue
            for first, second in combos:
                tasks.append(
                    InjectionTask(
                        index=len(tasks),
                        point=point,
                        fault=first,
                        second_fault=second,
                        second_qubit=qubit_b,
                    )
                )
    return tasks


def _row_task(rows: RecordTable, k: int, index: int) -> InjectionTask:
    """The task a stored row records (its frame columns included)."""
    row = rows.data[k]
    second = None
    if not math.isnan(row["second_theta"]):
        second = PhaseShiftFault(
            float(row["second_theta"]),
            float(row["second_phi"]),
            float(row["second_lam"]),
        )
    second_qubit = int(row["second_qubit"])
    return InjectionTask(
        index=index,
        point=InjectionPoint(
            position=int(row["position"]),
            qubit=int(row["qubit"]),
            gate_name=rows.gate_name(k),
            physical_qubit=int(row["physical_qubit"]),
            logical_qubit=int(row["logical_qubit"]),
        ),
        fault=PhaseShiftFault(
            float(row["theta"]), float(row["phi"]), float(row["lam"])
        ),
        second_fault=second,
        second_qubit=second_qubit if second_qubit >= 0 else None,
    )


def _first_mismatch(got: RecordTable, want: RecordTable):
    """The first non-QVF column that differs between two tables, if any."""
    for name in _INT_COLUMNS:
        if not np.array_equal(got.column(name), want.column(name)):
            return name
    for name in _ANGLE_COLUMNS:
        if not np.array_equal(
            got.column(name), want.column(name), equal_nan=True
        ):
            return name
    gates = [got.gate_name(k) for k in range(len(got))]
    if gates != [want.gate_name(k) for k in range(len(want))]:
        return "gate"
    return None


def check_sample(
    spec: ScenarioSpec,
    num_rows: int,
    indices: np.ndarray,
    rows: RecordTable,
) -> Tuple[bool, float, str]:
    """Recompute ``rows`` (at ``indices``) naively and compare.

    Returns ``(ok, max |dQVF|, reason)``.
    """
    reason = count_problem(spec, num_rows)
    if reason:
        return False, math.inf, reason
    cache = FactoryCache()
    circuit = _campaign_circuit(spec, cache)
    if _is_grid_sweep(spec):
        expected = _grid_tasks(spec, circuit, cache)
        if len(expected) != num_rows:
            reason = f"{num_rows} records, the grid has {len(expected)}"
            return False, math.inf, reason
        tasks = tuple(expected[int(i)] for i in indices)
    else:
        tasks = tuple(
            _row_task(rows, k, int(i)) for k, i in enumerate(indices)
        )
    plan = CampaignPlan(
        circuit=circuit,
        correct_states=tuple(make_algorithm(spec, cache).correct_states),
        tasks=tasks,
        shots=spec.shots,
        seed=spec.seed,
    )
    naive = SerialExecutor(prefix_reuse=False).run(
        make_backend(spec, cache), plan, rng=np.random.default_rng(spec.seed)
    )
    column = _first_mismatch(naive, rows)
    if column is not None:
        return False, math.inf, f"column {column!r} differs from naive"
    diff = float(
        np.max(np.abs(naive.column("qvf") - rows.column("qvf")), initial=0.0)
    )
    if not diff <= QVF_TOL:
        return False, diff, f"qvf differs by {diff:.3g} from naive"
    return True, diff, ""


def check_whole(
    spec: ScenarioSpec, num_rows: int, digest: str
) -> Tuple[bool, str]:
    """Re-run a shot-sampling campaign on the naive path; compare bytes."""
    reason = count_problem(spec, num_rows)
    if reason:
        return False, reason
    cache = FactoryCache()
    result = run_scenario(
        spec, cache=cache, executor=SerialExecutor(prefix_reuse=False)
    )
    if table_digest(result.table) != digest:
        return False, "records differ from a naive whole re-run"
    if _is_grid_sweep(spec):
        tasks = _grid_tasks(spec, _campaign_circuit(spec, cache), cache)
        column = _task_mismatch(tasks, result.table)
        if column is not None:
            return False, f"column {column!r} differs from the grid"
    return True, ""


def _task_mismatch(tasks: Sequence[InjectionTask], table: RecordTable):
    """The first frame or angle column of ``table`` that ``tasks`` contradict."""
    expected = {
        "position": [task.point.position for task in tasks],
        "qubit": [task.point.qubit for task in tasks],
        "physical_qubit": [task.point.physical_qubit for task in tasks],
        "logical_qubit": [task.point.logical_qubit for task in tasks],
        "theta": [task.fault.theta for task in tasks],
        "phi": [task.fault.phi for task in tasks],
        "lam": [task.fault.lam for task in tasks],
    }
    for name, values in expected.items():
        if not np.array_equal(table.column(name), np.asarray(values)):
            return name
    return None


# ----------------------------------------------------------------------
# Results-layer aggregates
# ----------------------------------------------------------------------
def expected_aggregates(
    theta: np.ndarray, phi: np.ndarray, qubit: np.ndarray, qvf: np.ndarray
) -> Dict[str, object]:
    """The five CampaignResult aggregations, computed with plain numpy."""
    thetas, theta_cell = np.unique(theta, return_inverse=True)
    phis, phi_cell = np.unique(phi, return_inverse=True)
    cells = phi_cell * thetas.size + theta_cell
    size = thetas.size * phis.size
    total = np.bincount(cells, weights=qvf, minlength=size)
    count = np.bincount(cells, minlength=size)
    with np.errstate(invalid="ignore"):
        grid = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    qubit_total = np.bincount(qubit, weights=qvf)
    qubit_count = np.bincount(qubit)
    masked = int((qvf < MASKED_THRESHOLD).sum())
    silent = int((qvf > SILENT_THRESHOLD).sum())
    return {
        "heatmap": (thetas, phis, grid.reshape(phis.size, thetas.size)),
        "per_qubit_qvf": {
            int(q): float(qubit_total[q] / qubit_count[q])
            for q in np.nonzero(qubit_count)[0]
        },
        "histogram": np.histogram(
            qvf, bins=20, range=(0.0, 1.0), density=True
        ),
        "classification_counts": (masked, qvf.size - masked - silent, silent),
        "mean_qvf": float(qvf.mean()),
    }


def _close(got, want) -> bool:
    return np.allclose(
        np.asarray(got, dtype=float),
        np.asarray(want, dtype=float),
        rtol=AGG_RTOL,
        atol=0.0,
        equal_nan=True,
    )


def _close_dicts(got: Dict[int, float], want: Dict[int, float]) -> bool:
    keys = sorted(want)
    return sorted(got) == keys and _close(
        [got[k] for k in keys], [want[k] for k in keys]
    )


def aggregate_matches(name: str, got, want) -> bool:
    """Whether one CampaignResult aggregation equals its numpy value."""
    if name == "heatmap":
        return all(_close(g, w) for g, w in zip(got, want))
    if name == "per_qubit_qvf":
        return _close_dicts(got, want)
    if name == "histogram":
        return _close(got[0], want[0]) and _close(got[1], want[1])
    if name == "classification_counts":
        return tuple(got.values()) == want
    return _close(got, want)


def per_group_means(
    groups: Sequence[Tuple[str, RecordTable]]
) -> Dict[str, Dict[int, float]]:
    """Mean QVF per wire qubit over all records of each group label."""
    values: Dict[str, Dict[int, List[float]]] = {}
    for label, table in groups:
        bucket = values.setdefault(label, {})
        pairs = zip(table.column("qubit").tolist(), table.column("qvf"))
        for qubit, qvf in pairs:
            bucket.setdefault(qubit, []).append(float(qvf))
    return {
        label: {qubit: float(np.mean(qvfs)) for qubit, qvfs in bucket.items()}
        for label, bucket in values.items()
    }


def comparison_matches(got: Dict[str, Dict[int, float]], want) -> bool:
    """Whether a per_qubit_comparison result equals the numpy means."""
    return sorted(got) == sorted(want) and all(
        _close_dicts(got[label], want[label]) for label in want
    )
