"""The benchmark's workloads: inputs, one timed repetition, and checks.

Every workload follows the same protocol, driven by ``run.py``:

* ``setup()`` builds the inputs from the workload seed (repeatable; the
  benchmark times several set-ups and reports the median);
* ``run_once()`` is one timed repetition and returns its :class:`Rep`;
* ``collect(rep)`` runs untimed right after: it keeps what the checks
  need and deletes the repetition's files;
* ``verify()`` runs the output checks after the timed loop and returns
  ``(attempted, failed, notes)``.

The program receives only generated specs and files: the workload seed
goes into every scenario's ``seed`` field and into the synthetic store.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import query
from repro.faults.campaign import CampaignResult
from repro.faults.fault_model import phi_values, theta_values
from repro.faults.records import RecordTable
from repro.faults.store import compact
from repro.scenarios.cache import result_store_meta
from repro.scenarios.runner import MANIFEST_NAME, SuiteRunner
from repro.scenarios.spec import ScenarioSpec, SuiteSpec

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Rep:
    """What one timed repetition did."""

    injections: int
    records: int
    payload: object = None
    error: Optional[str] = None


@dataclass
class _Campaign:
    """What the checks keep of one campaign of the first repetition."""

    spec: ScenarioSpec
    digest: str
    num_rows: int
    indices: Optional[np.ndarray] = None
    rows: Optional[RecordTable] = None


def _seeded_suite(name: str, scenarios: List[dict], seed: int) -> SuiteSpec:
    return SuiteSpec.from_dict(
        {
            "name": name,
            "scenarios": [dict(scenario, seed=seed) for scenario in scenarios],
        }
    )


def _describe(error: Exception) -> str:
    return f"{type(error).__name__}: {error}"


# ----------------------------------------------------------------------
# Suite workloads: dm-grid, suite-mix, sharded
# ----------------------------------------------------------------------
class SuiteWorkload:
    """A suite run, checked campaign by campaign.

    ``persist`` gives every repetition a fresh manifest directory and a
    cold result cache (the store, cache and manifest layers run);
    without it the suite runs in memory with the cache off. ``jobs=1``
    runs every campaign in this process; more jobs shard the campaigns
    over a pool of that many worker processes.
    """

    def __init__(
        self,
        scenarios: List[dict],
        persist: bool,
        seed: int,
        scratch: str,
        jobs: int = 1,
    ) -> None:
        self.scenarios = scenarios
        self.persist = persist
        self.jobs = jobs
        self.seed = seed
        self.scratch = scratch
        self.suite: Optional[SuiteSpec] = None
        self._reference: Optional[List[_Campaign]] = None
        self._digests: List[Optional[List[str]]] = []
        self._errors: List[str] = []

    def setup(self) -> None:
        self.suite = _seeded_suite("perfbench", self.scenarios, self.seed)

    def run_once(self) -> Rep:
        kwargs: Dict[str, object] = {"use_cache": False}
        if self.persist:
            root = tempfile.mkdtemp(prefix="rep-", dir=self.scratch)
            kwargs = {
                "manifest_dir": os.path.join(root, "manifest"),
                "cache_dir": os.path.join(root, "cache"),
            }
        try:
            outcome = SuiteRunner(self.suite, jobs=self.jobs, **kwargs).run()
        except Exception as error:  # counted as failed operations
            return Rep(0, 0, (kwargs, None), _describe(error))
        # Only simulated campaigns count: relabelled duplicates the
        # runner adopts by spec hash cost no injections.
        computed = sum(
            run.result.num_injections
            for run in outcome
            if run.source == "computed"
        )
        return Rep(computed, computed, (kwargs, outcome))

    def collect(self, rep: Rep) -> None:
        kwargs, outcome = rep.payload
        rep.payload = None
        if "manifest_dir" in kwargs:
            root = os.path.dirname(kwargs["manifest_dir"])
            shutil.rmtree(root, ignore_errors=True)
        if outcome is None:
            self._digests.append(None)
            self._errors.append(rep.error)
            return
        runs = list(outcome)
        digests = [oracle.table_digest(run.result.table) for run in runs]
        self._digests.append(digests)
        if self._reference is not None:
            return
        self._reference = []
        for run, digest in zip(runs, digests):
            campaign = _Campaign(run.spec, digest, run.result.num_injections)
            if not oracle.replays_whole(run.spec):
                campaign.indices, campaign.rows = oracle.sample_rows(
                    run.result.table, self.seed
                )
            self._reference.append(campaign)

    def _check_reference(self) -> Tuple[List[bool], List[str], float]:
        """Naive-path check of every campaign of the first repetition."""
        good, notes, worst = [], [], 0.0
        for campaign in self._reference:
            try:
                if campaign.rows is None:
                    ok, reason = oracle.check_whole(
                        campaign.spec, campaign.num_rows, campaign.digest
                    )
                else:
                    ok, diff, reason = oracle.check_sample(
                        campaign.spec,
                        campaign.num_rows,
                        campaign.indices,
                        campaign.rows,
                    )
                    worst = max(worst, diff)
            except Exception as error:  # a check that cannot run fails
                ok, reason = False, _describe(error)
            if not ok:
                notes.append(f"{campaign.spec.scenario_id}: {reason}")
            good.append(ok)
        return good, notes, worst

    def verify(self) -> Tuple[int, int, List[str]]:
        per_rep = len(self.suite)
        attempted = per_rep * len(self._digests)
        notes = list(dict.fromkeys(self._errors))
        if self._reference is None:
            return attempted, attempted, notes
        good, failures, worst = self._check_reference()
        notes += failures
        reference = [campaign.digest for campaign in self._reference]
        failed = 0
        for digests in self._digests:
            if digests is None:
                failed += per_rep
                continue
            failed += sum(
                1
                for ok, digest, want in zip(good, digests, reference)
                if not ok or digest != want
            )
            if digests != reference:
                notes.append("records differ between repetitions")
        notes.append(
            f"max |dQVF| vs naive path: {worst:.3g} "
            f"(tolerance {oracle.QVF_TOL:g})"
        )
        return attempted, failed, notes


def dm_grid_scenarios() -> List[dict]:
    """Exact density-matrix single-fault grids plus one double-fault grid."""
    base = {
        "noise": "light",
        "grid_step_deg": 90.0,
        "phi_max_deg": 180.0,
        "include_phi_endpoint": True,
    }
    singles = [
        {**base, "algorithm": algorithm, "width": width}
        for algorithm, width in (("qft", 5), ("qft", 6), ("dj", 6), ("bv", 6))
    ]
    double = {
        **base,
        "algorithm": "bv",
        "width": 4,
        "mode": "double",
        "machine": "jakarta",
    }
    return singles + [double]


def sharded_scenarios() -> List[dict]:
    """Four QEC campaigns of unequal size for a two-job shard pool.

    Noise-free QEC circuits run on the statevector simulator, whose
    small matrix products stay single-threaded in BLAS.
    """
    return [
        {
            "algorithm": "qec",
            "noise": "none",
            "grid_step_deg": 20.0,
            "qec": {"code": code, "distance": distance},
        }
        for code, distance in (
            ("bit_flip", 7),
            ("phase_flip", 7),
            ("bit_flip", 5),
            ("phase_flip", 5),
        )
    ]


def suite_mix_scenarios() -> List[dict]:
    """The paper suite's scenario kinds at a 90-degree grid (see README)."""
    with open(os.path.join(HERE, "suite_mix.json")) as handle:
        return json.load(handle)["scenarios"]


# ----------------------------------------------------------------------
# results-read
# ----------------------------------------------------------------------
#: Records in the synthetic store: 2**20 rows, ~100 MiB on disk.
BIG_STORE_ROWS = 1 << 20

_AGGREGATIONS = (
    "heatmap",
    "per_qubit_qvf",
    "histogram",
    "classification_counts",
    "mean_qvf",
)


def small_suite_scenarios() -> List[dict]:
    """The suite whose results fill the cache the warm re-run reads."""
    return [
        {
            "algorithm": algorithm,
            "width": 4,
            "noise": "light",
            "grid_step_deg": 45.0,
        }
        for algorithm in ("bv", "dj", "qft", "ghz")
    ]


def write_big_store(path: str, seed: int) -> Dict[str, object]:
    """Write a seeded format-2 store of grid-shaped records.

    Angles come from the 15-degree paper grid (312 configurations),
    qubits from five wires and positions from a 40-instruction circuit;
    QVF follows a skewed beta distribution. Returns the numpy values of
    every aggregation the timed run computes over the store.
    """
    rng = np.random.default_rng(seed)
    thetas = np.asarray(theta_values(15.0))
    phis = np.asarray(phi_values(15.0, 360.0))
    config = rng.integers(0, thetas.size * phis.size, BIG_STORE_ROWS)
    theta = thetas[config // phis.size]
    phi = phis[config % phis.size]
    qubit = rng.integers(0, 5, BIG_STORE_ROWS)
    qvf = rng.beta(0.6, 1.4, BIG_STORE_ROWS)
    table = RecordTable.from_columns(
        theta=theta,
        phi=phi,
        qvf=qvf,
        position=rng.integers(0, 40, BIG_STORE_ROWS),
        qubit=qubit,
        gate_ids=rng.integers(0, 4, BIG_STORE_ROWS),
        gate_names=["h", "cx", "rz", "sx"],
    )
    result = CampaignResult(
        circuit_name="synthetic",
        correct_states=["0000"],
        records=table,
        fault_free_qvf=0.0,
        backend_name="synthetic",
    )
    compact(path, result_store_meta(result), table)
    return oracle.expected_aggregates(theta, phi, qubit, qvf)


class ResultsReadWorkload:
    """Store and cache reads only: no simulation in the timed run."""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.suite = _seeded_suite(
            "perfbench-results", small_suite_scenarios(), seed
        )
        self._inputs: Optional[str] = None
        self._attempted = 0
        self._failures: Dict[str, int] = {}
        self._errors: List[str] = []

    def setup(self) -> None:
        """Fill a cache from a cold run of the small suite; write the store."""
        if self._inputs is not None:
            shutil.rmtree(self._inputs, ignore_errors=True)
        self._inputs = tempfile.mkdtemp(prefix="inputs-", dir=self.scratch)
        self.cache_dir = os.path.join(self._inputs, "cache")
        cold_dir = os.path.join(self._inputs, "cold")
        cold = SuiteRunner(
            self.suite, manifest_dir=cold_dir, cache_dir=self.cache_dir
        ).run()
        with open(os.path.join(cold_dir, MANIFEST_NAME), "rb") as handle:
            self.cold_manifest = handle.read()
        tables = [(run.spec, run.result.table) for run in cold]
        self.small_rows = sum(len(table) for _, table in tables)
        self.expected_comparison = oracle.per_group_means(
            [
                (f"{spec.algorithm}{spec.width}", table)
                for spec, table in tables
            ]
        )
        self.expected_export = {
            name: np.concatenate([table.column(name) for _, table in tables])
            for name in ("qvf", "qubit")
        }
        self.expected_export["scenario_id"] = np.concatenate(
            [np.full(len(table), spec.scenario_id) for spec, table in tables]
        )
        self.big_store = os.path.join(self._inputs, "big.qfs")
        self.expected = write_big_store(self.big_store, self.seed)

    def run_once(self) -> Rep:
        root = tempfile.mkdtemp(prefix="rep-", dir=self.scratch)
        manifest_dir = os.path.join(root, "manifest")
        outputs: Dict[str, object] = {}
        try:
            outputs["rerun"] = SuiteRunner(
                self.suite, manifest_dir=manifest_dir, cache_dir=self.cache_dir
            ).run()
            handles = list(query.iter_scenarios([manifest_dir]))
            outputs["comparison"] = query.per_qubit_comparison(
                handles, group_by="algorithm"
            )
            export_path = os.path.join(root, "records.npz")
            query.export_records(handles, export_path, fmt="npz")
            outputs["export"] = export_path
            big = CampaignResult.open(self.big_store)
            for name in _AGGREGATIONS:
                outputs[name] = getattr(big, name)()
        except Exception as error:  # counted as failed operations
            return Rep(0, 0, (root, outputs), _describe(error))
        # Records read: every big-store row per aggregation, plus every
        # small-suite row for the cache load, the query and the export.
        records = len(_AGGREGATIONS) * BIG_STORE_ROWS + 3 * self.small_rows
        return Rep(self.small_rows, records, (root, outputs))

    def collect(self, rep: Rep) -> None:
        root, outputs = rep.payload
        rep.payload = None
        if rep.error is not None:
            self._errors.append(rep.error)
        try:
            self._check(root, outputs)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _attempt(self, name: str, ok: bool) -> None:
        self._attempted += 1
        if not ok:
            self._failures[name] = self._failures.get(name, 0) + 1

    def _check(self, root: str, outputs: Dict[str, object]) -> None:
        """One attempted operation per query; missing outputs fail."""
        rerun = outputs.get("rerun")
        manifest = os.path.join(root, "manifest", MANIFEST_NAME)
        same = False
        if rerun is not None and os.path.exists(manifest):
            with open(manifest, "rb") as handle:
                same = handle.read() == self.cold_manifest
            same = same and rerun.from_store == len(self.suite)
        self._attempt("warm re-run: cache hits, manifest identical", same)
        comparison = outputs.get("comparison")
        self._attempt(
            "per_qubit_comparison",
            comparison is not None
            and oracle.comparison_matches(
                comparison, self.expected_comparison
            ),
        )
        ok = False
        if "export" in outputs:
            with np.load(outputs["export"]) as exported:
                ok = all(
                    np.array_equal(exported[name], values)
                    for name, values in self.expected_export.items()
                )
        self._attempt("export_records npz", ok)
        for name in _AGGREGATIONS:
            self._attempt(
                name,
                name in outputs
                and oracle.aggregate_matches(
                    name, outputs[name], self.expected[name]
                ),
            )

    def verify(self) -> Tuple[int, int, List[str]]:
        notes = list(dict.fromkeys(self._errors))
        notes += [
            f"{name}: {count} failed" for name, count in self._failures.items()
        ]
        notes.append(
            "store reads come from the page cache; "
            "disk behaviour is not measured"
        )
        return self._attempted, sum(self._failures.values()), notes


def make_workload(name: str, seed: int, scratch: str):
    """The named workload, seeded, writing only under ``scratch``."""
    if name == "dm-grid":
        return SuiteWorkload(dm_grid_scenarios(), False, seed, scratch)
    if name == "suite-mix":
        return SuiteWorkload(suite_mix_scenarios(), True, seed, scratch)
    if name == "sharded":
        return SuiteWorkload(sharded_scenarios(), True, seed, scratch, jobs=2)
    if name == "results-read":
        return ResultsReadWorkload(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")
