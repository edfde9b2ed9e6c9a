"""Cross-suite analytics over manifest directories, out-of-core.

A suite run leaves a manifest directory behind (``manifest.json`` plus
one segment store per scenario); a research campaign leaves many — one
per machine, topology, optimization level, noise model. This module is
the layer that reads *across* them without loading any store whole:

* :func:`iter_scenarios` walks manifest directories into lightweight
  :class:`ScenarioHandle` rows (spec + digest + store path; nothing is
  opened);
* :func:`per_qubit_comparison` streams every selected store in
  memory-mapped windows and tabulates mean QVF per qubit, grouped by any
  spec axis (machine, optimization level, noise, ...);
* :func:`delta_comparison` computes Fig. 9-style delta heatmaps between
  two scenarios picked out of (possibly different) manifests, on lazy
  results;
* :func:`export_records` writes the selected scenarios' records as one
  flat analytics table, an npz bundle (Parquet and Arrow requests fall
  back to npz, explicitly in the return value).

Everything here is also reachable as ``repro query ...`` from the CLI.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.campaign import CampaignResult, delta_heatmap
from ..faults.records import RECORD_DTYPE
from ..faults.store import DEFAULT_WINDOW_ROWS
from ..scenarios.runner import MANIFEST_NAME
from ..scenarios.spec import ScenarioSpec

__all__ = [
    "GROUP_KEYS",
    "ScenarioHandle",
    "iter_scenarios",
    "find_scenario",
    "per_qubit_comparison",
    "delta_comparison",
    "comparison_table",
    "export_records",
]

_MANIFEST_FORMAT = "qufi-suite-manifest-v1"

#: Spec axes a comparison can group scenarios by.
GROUP_KEYS = (
    "machine",
    "optimization",
    "noise",
    "algorithm",
    "backend",
    "executor",
    "mitigation",
    "qec",
    "strike",
    "suite",
    "scenario",
)


@dataclass(frozen=True)
class ScenarioHandle:
    """One completed scenario inside a manifest directory.

    Holds the parsed spec and the manifest digest only — opening the
    record store is an explicit, separate step (:meth:`open`), so a
    query can enumerate and filter thousands of scenarios for free.
    """

    suite: str
    manifest_dir: str
    scenario_id: str
    spec: ScenarioSpec
    spec_hash: str
    store_path: str
    digest: Dict[str, object]

    def open(
        self, window_rows: int = DEFAULT_WINDOW_ROWS
    ) -> CampaignResult:
        """The scenario's campaign as a lazy, out-of-core result."""
        return CampaignResult.open(self.store_path, window_rows=window_rows)

    def group(self, key: str) -> str:
        """The scenario's label on a :data:`GROUP_KEYS` axis."""
        if key == "machine":
            return (
                self.spec.effective_machine
                if self.spec.transpile is not None
                else "logical"
            )
        if key == "optimization":
            if self.spec.transpile is None:
                return "untranspiled"
            return f"O{self.spec.transpile.optimization_level}"
        if key == "noise":
            return self.spec.noise
        if key == "algorithm":
            return f"{self.spec.algorithm}{self.spec.width}"
        if key == "backend":
            return self.spec.backend
        if key == "executor":
            return self.spec.executor
        if key == "mitigation":
            return "mitigated" if self.spec.mitigation else "raw"
        if key == "qec":
            if self.spec.qec is None:
                return "none"
            block = self.spec.qec
            label = f"{block.code}-d{block.distance}"
            return label if block.decode else f"{label}-nodecode"
        if key == "strike":
            if self.spec.strike is None:
                return "grid"
            return f"strike-k{self.spec.strike.k}"
        if key == "suite":
            return self.suite
        if key == "scenario":
            return self.scenario_id
        raise ValueError(
            f"unknown group key {key!r} (choose from {GROUP_KEYS})"
        )


def _load_manifest(manifest_dir: str) -> Dict[str, object]:
    path = os.path.join(manifest_dir, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise ValueError(f"{path!r} is not a suite manifest")
    return manifest


def iter_scenarios(
    manifest_dirs: Sequence[str],
    algorithm: Optional[str] = None,
    status: str = "done",
) -> Iterator[ScenarioHandle]:
    """Walk manifest directories into :class:`ScenarioHandle` rows.

    Yields in manifest order, directory by directory. ``status="done"``
    (the default) skips pending entries — a halted suite is still
    queryable for what it finished. ``algorithm`` filters on the spec's
    algorithm name. Nothing heavier than ``manifest.json`` is read.
    """
    for manifest_dir in manifest_dirs:
        manifest = _load_manifest(manifest_dir)
        suite = manifest.get("suite", {}).get("name", "?")
        for entry in manifest.get("scenarios", []):
            if status and entry.get("status") != status:
                continue
            spec = ScenarioSpec.from_dict(entry["spec"])
            if algorithm is not None and spec.algorithm != algorithm:
                continue
            yield ScenarioHandle(
                suite=suite,
                manifest_dir=manifest_dir,
                scenario_id=entry["id"],
                spec=spec,
                spec_hash=entry.get("spec_hash", ""),
                store_path=os.path.join(
                    manifest_dir, entry["result_file"]
                ),
                digest=dict(entry.get("digest", {})),
            )


def find_scenario(
    manifest_dirs: Sequence[str], scenario_id: str
) -> ScenarioHandle:
    """The handle for ``scenario_id`` across the given manifests.

    IDs are unique within a manifest; across manifests the first match
    wins (directories are searched in the order given).
    """
    for handle in iter_scenarios(manifest_dirs):
        if handle.scenario_id == scenario_id:
            return handle
    raise KeyError(
        f"no completed scenario {scenario_id!r} in "
        f"{list(manifest_dirs)}"
    )


def per_qubit_comparison(
    handles: Sequence[ScenarioHandle],
    frame: str = "wire",
    group_by: str = "machine",
    window_rows: int = DEFAULT_WINDOW_ROWS,
) -> Dict[str, Dict[int, float]]:
    """Mean QVF per qubit, grouped by a spec axis, streamed.

    Returns ``{group_label: {qubit: mean_qvf}}`` where the mean is over
    *all records* of the group's scenarios (scenarios with more
    injections weigh proportionally, exactly as if their records were
    one campaign). Stores stream in memory-mapped windows; peak memory
    is one window per store, never a table.

    ``frame`` follows :meth:`CampaignResult.per_qubit_qvf`; scenarios
    without frame attribution are an error for non-wire frames — filter
    the handles first if mixing is intended.
    """
    frame_columns = {
        "wire": "qubit",
        "physical": "physical_qubit",
        "logical": "logical_qubit",
    }
    if frame not in frame_columns:
        raise ValueError(f"unknown frame {frame!r}")
    column = frame_columns[frame]
    totals: Dict[str, np.ndarray] = {}
    counts: Dict[str, np.ndarray] = {}
    for handle in handles:
        label = handle.group(group_by)
        result = handle.open(window_rows=window_rows)
        if frame != "wire" and not result.has_frames():
            raise ValueError(
                f"scenario {handle.scenario_id!r} has no {frame}-frame "
                f"attribution; restrict the query to transpiled "
                f"scenarios"
            )
        group_total = totals.setdefault(label, np.zeros(0))
        group_count = counts.setdefault(label, np.zeros(0, dtype=np.int64))
        for chunk in result.iter_chunk_tables():
            values = np.asarray(chunk.column(column))
            keep = values >= 0
            values = values[keep]
            if not values.size:
                continue
            width = max(group_total.size, int(values.max()) + 1)
            if width > group_total.size:
                group_total = np.pad(
                    group_total, (0, width - group_total.size)
                )
                group_count = np.pad(
                    group_count, (0, width - group_count.size)
                )
            qvf = np.asarray(chunk.column("qvf"))[keep]
            group_total += np.bincount(
                values, weights=qvf, minlength=width
            )
            group_count += np.bincount(values, minlength=width).astype(
                np.int64
            )
        totals[label] = group_total
        counts[label] = group_count
    return {
        label: {
            int(qubit): float(totals[label][qubit] / counts[label][qubit])
            for qubit in np.nonzero(counts[label])[0]
        }
        for label in totals
    }


def delta_comparison(
    manifest_dirs: Sequence[str],
    double_id: str,
    single_id: str,
    qubit: Optional[int] = None,
    frame: str = "wire",
    window_rows: int = DEFAULT_WINDOW_ROWS,
) -> Tuple[List[float], List[float], np.ndarray]:
    """Fig. 9 delta heatmap between two scenarios, by id, out-of-core.

    The two scenarios may live in different manifest directories (a
    double-fault suite vs a single-fault suite, two machines, two
    optimization levels); both stores stream lazily.
    """
    double = find_scenario(manifest_dirs, double_id).open(window_rows)
    single = find_scenario(manifest_dirs, single_id).open(window_rows)
    return delta_heatmap(double, single, qubit=qubit, frame=frame)


def comparison_table(comparison: Dict[str, Dict[int, float]]) -> str:
    """Render a per-qubit comparison as a fixed-width text table."""
    labels = sorted(comparison)
    qubits = sorted({q for values in comparison.values() for q in values})
    if not labels or not qubits:
        return "(no records)"
    width = max(8, *(len(label) for label in labels))
    lines = [
        "qubit  " + "  ".join(label.rjust(width) for label in labels)
    ]
    for qubit in qubits:
        cells = []
        for label in labels:
            value = comparison[label].get(qubit)
            cells.append(
                ("-" if value is None else f"{value:.4f}").rjust(width)
            )
        lines.append(f"{qubit:5d}  " + "  ".join(cells))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Flat-table export (npz)
# ----------------------------------------------------------------------

#: Scenario identity columns appended to every exported record row.
_ID_COLUMNS = ("suite", "scenario_id", "machine", "optimization", "noise")


def _write_npz_member(
    archive: zipfile.ZipFile,
    name: str,
    dtype: np.dtype,
    rows: int,
    chunks: Iterable[np.ndarray],
) -> None:
    """Stream one column into the archive as a ``.npy`` member.

    An npz file is a plain zip of ``.npy`` members, and the npy v1
    format is a fixed header followed by raw array bytes — so a column
    whose length and dtype are known up front can be written window by
    window through an open zip entry, never materialising the column.
    """
    with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
        np.lib.format.write_array_header_1_0(
            member,
            {
                "descr": np.lib.format.dtype_to_descr(dtype),
                "fortran_order": False,
                "shape": (rows,),
            },
        )
        for values in chunks:
            member.write(
                np.ascontiguousarray(values, dtype=dtype).tobytes()
            )


def export_records(
    handles: Sequence[ScenarioHandle],
    path: str,
    fmt: str = "auto",
    window_rows: int = DEFAULT_WINDOW_ROWS,
) -> str:
    """Export the scenarios' records as one flat analytics table.

    Columns are the record schema (``gate`` resolved to ``gate_name``)
    plus scenario identity (suite, scenario id, machine, optimization,
    noise), so the table is self-describing across suites. The table is
    an npz archive written one column pass at a time: numeric columns
    stream directly (the first pass doubles as the gate-name width
    scan); ``gate_name`` resolves each window's gate ids through its
    own pool; the identity columns are constant per scenario and are
    synthesised without touching the stores at all. Peak memory is a
    single window regardless of how many records the export holds, and
    the member set and dtypes match what the historical concatenate-
    then-``savez`` writer produced, so ``np.load`` consumers see no
    difference.

    ``fmt`` accepts ``auto``, ``parquet``, ``arrow`` and ``npz``; every
    format writes npz (there is no Parquet or Arrow writer), and the
    return value names the format actually written so the CLI can say
    it fell back.
    """
    if fmt not in ("auto", "parquet", "arrow", "npz"):
        raise ValueError(f"unknown export format {fmt!r}")
    results = [(handle, handle.open(window_rows)) for handle in handles]
    rows = sum(result.num_injections for _, result in results)
    if rows == 0:
        raise ValueError("no records to export")

    gate_width = 1
    numeric = [name for name in RECORD_DTYPE.names if name != "gate"]
    tmp_path = f"{path}.tmp"
    with zipfile.ZipFile(
        tmp_path, "w", zipfile.ZIP_STORED, allowZip64=True
    ) as archive:
        measure_gates = True
        for name in numeric:

            def column_chunks(name=name, measure=measure_gates):
                nonlocal gate_width
                for _, result in results:
                    for chunk in result.iter_chunk_tables():
                        if measure:
                            for gate in chunk.gate_names:
                                gate_width = max(gate_width, len(gate))
                        yield np.asarray(chunk.column(name))

            _write_npz_member(
                archive, name, RECORD_DTYPE[name], rows, column_chunks()
            )
            measure_gates = False

        gate_dtype = np.dtype(f"<U{gate_width}")

        def gate_chunks():
            for _, result in results:
                for chunk in result.iter_chunk_tables():
                    pool = np.asarray(chunk.gate_names, dtype=gate_dtype)
                    yield pool[np.asarray(chunk.column("gate"))]

        _write_npz_member(archive, "gate_name", gate_dtype, rows, gate_chunks())

        for key in _ID_COLUMNS:
            labels = [
                (
                    handle.scenario_id
                    if key == "scenario_id"
                    else handle.group(key),
                    result.num_injections,
                )
                for handle, result in results
            ]
            id_dtype = np.dtype(
                f"<U{max(1, max(len(label) for label, _ in labels))}"
            )

            def id_chunks(labels=labels, id_dtype=id_dtype):
                for label, count in labels:
                    remaining = count
                    while remaining > 0:
                        step = min(remaining, window_rows)
                        yield np.full(step, label, dtype=id_dtype)
                        remaining -= step

            _write_npz_member(archive, key, id_dtype, rows, id_chunks())
    os.replace(tmp_path, path)
    return "npz"
