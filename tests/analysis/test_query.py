"""Cross-suite query layer: handles, comparisons, exports, CLI.

The fixtures run one small persisted suite (an untranspiled bv3 plus a
transpiled bv3@jakarta) and every test reads it back *through the
manifest* — the same path the ``repro query`` CLI takes — so the tests
pin the whole chain: manifest walk, lazy store opening, streamed
aggregation, and the npz export fallback.
"""

import json
import os

import numpy as np
import pytest

from repro.analysis.query import (
    GROUP_KEYS,
    comparison_table,
    delta_comparison,
    export_records,
    find_scenario,
    iter_scenarios,
    per_qubit_comparison,
)
from repro.cli import main
from repro.faults.campaign import delta_heatmap
from repro.scenarios import ScenarioSpec, SuiteRunner, SuiteSpec, TranspileSpec


def _suite() -> SuiteSpec:
    return SuiteSpec.build(
        "query-acceptance",
        [
            ScenarioSpec(
                algorithm="bv",
                width=3,
                noise="none",
                grid_step_deg=90.0,
                executor="serial",
            ),
            ScenarioSpec(
                algorithm="bv",
                width=3,
                noise="none",
                grid_step_deg=90.0,
                executor="serial",
                machine="jakarta",
                transpile=TranspileSpec(optimization_level=1),
            ),
            ScenarioSpec(
                algorithm="bv",
                width=3,
                noise="none",
                mode="double",
                grid_step_deg=90.0,
                phi_max_deg=180.0,
                executor="serial",
            ),
        ],
    )


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("suite"))
    SuiteRunner(_suite(), manifest_dir=directory).run()
    return directory


@pytest.fixture(scope="module")
def handles(manifest_dir):
    return list(iter_scenarios([manifest_dir]))


def _by_kind(handles):
    """(untranspiled single, transpiled single, untranspiled double)."""
    plain = transpiled = double = None
    for handle in handles:
        if handle.spec.mode == "double":
            double = handle
        elif handle.spec.transpile is not None:
            transpiled = handle
        else:
            plain = handle
    return plain, transpiled, double


class TestIterScenarios:
    def test_walk_yields_all_done_scenarios(self, manifest_dir, handles):
        assert len(handles) == 3
        for handle in handles:
            assert handle.suite == "query-acceptance"
            assert handle.manifest_dir == manifest_dir
            assert os.path.exists(handle.store_path)
            assert handle.spec_hash
            assert handle.digest["num_injections"] > 0

    def test_algorithm_filter(self, manifest_dir):
        assert list(iter_scenarios([manifest_dir], algorithm="ghz")) == []
        assert len(list(iter_scenarios([manifest_dir], algorithm="bv"))) == 3

    def test_pending_scenarios_skipped(self, manifest_dir, tmp_path):
        halted = str(tmp_path / "halted")
        SuiteRunner(_suite(), manifest_dir=halted, max_campaigns=1).run()
        done = list(iter_scenarios([halted]))
        everything = list(iter_scenarios([halted], status=""))
        assert len(done) < len(everything) == 3

    def test_non_manifest_dir_rejected(self, tmp_path):
        path = str(tmp_path / "not-a-manifest")
        os.mkdir(path)
        with open(os.path.join(path, "manifest.json"), "w") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(ValueError, match="not a suite manifest"):
            list(iter_scenarios([path]))

    def test_find_scenario(self, manifest_dir, handles):
        target = handles[0]
        found = find_scenario([manifest_dir], target.scenario_id)
        assert found == target
        with pytest.raises(KeyError, match="no completed scenario"):
            find_scenario([manifest_dir], "nope")

    def test_group_labels(self, handles):
        plain, transpiled, _ = _by_kind(handles)
        assert plain.group("machine") == "logical"
        assert plain.group("optimization") == "untranspiled"
        assert transpiled.group("machine") == "jakarta"
        assert transpiled.group("optimization") == "O1"
        assert plain.group("algorithm") == "bv3"
        assert plain.group("suite") == "query-acceptance"
        assert plain.group("scenario") == plain.scenario_id
        with pytest.raises(ValueError, match="unknown group key"):
            plain.group("colour")
        assert "machine" in GROUP_KEYS

    def test_physics_group_labels(self, handles):
        """The physics axes are query group keys with stable labels."""
        from dataclasses import replace

        plain, _, _ = _by_kind(handles)
        assert {"mitigation", "qec", "strike"} <= set(GROUP_KEYS)
        assert plain.group("mitigation") == "raw"
        assert plain.group("qec") == "none"
        assert plain.group("strike") == "grid"

        mitigated = replace(
            plain, spec=replace(plain.spec, mitigation=True)
        )
        assert mitigated.group("mitigation") == "mitigated"

        struck = replace(
            plain,
            spec=replace(plain.spec, seed=7, strike={"count": 4, "k": 2}),
        )
        assert struck.group("strike") == "strike-k2"

        coded_spec = ScenarioSpec(
            algorithm="qec",
            noise="none",
            grid_step_deg=90.0,
            qec={"code": "bit_flip", "distance": 3},
            label="qec-grouped",
        )
        coded = replace(plain, spec=coded_spec)
        assert coded.group("qec") == "bit_flip-d3"
        undecoded = replace(
            plain,
            spec=ScenarioSpec(
                algorithm="qec",
                noise="none",
                grid_step_deg=90.0,
                qec={"code": "bit_flip", "distance": 3, "decode": False},
                label="qec-grouped-nodecode",
            ),
        )
        assert undecoded.group("qec") == "bit_flip-d3-nodecode"


class TestPerQubitComparison:
    def test_matches_campaign_per_qubit(self, handles):
        """A one-scenario group reproduces per_qubit_qvf exactly."""
        plain, transpiled, _ = _by_kind(handles)
        comparison = per_qubit_comparison(
            [plain, transpiled], group_by="machine", window_rows=13
        )
        assert set(comparison) == {"logical", "jakarta"}
        for handle, label in ((plain, "logical"), (transpiled, "jakarta")):
            expected = handle.open().per_qubit_qvf("wire")
            assert comparison[label] == expected

    def test_group_pooled_mean_weighs_by_records(self, handles):
        """Two scenarios in one group average as one pooled campaign."""
        plain, transpiled, _ = _by_kind(handles)
        pooled = per_qubit_comparison(
            [plain, transpiled], group_by="algorithm", window_rows=13
        )
        assert set(pooled) == {"bv3"}
        tables = [plain.open().table, transpiled.open().table]
        qubits = np.concatenate([t.column("qubit") for t in tables])
        qvf = np.concatenate([t.column("qvf") for t in tables])
        for qubit, mean in pooled["bv3"].items():
            assert mean == pytest.approx(
                float(qvf[qubits == qubit].mean()), abs=0, rel=1e-12
            )

    def test_physical_frame_requires_attribution(self, handles):
        plain, transpiled, _ = _by_kind(handles)
        physical = per_qubit_comparison([transpiled], frame="physical")
        assert physical == {
            "jakarta": transpiled.open().per_qubit_qvf("physical")
        }
        with pytest.raises(ValueError, match="no physical-frame"):
            per_qubit_comparison([plain], frame="physical")
        with pytest.raises(ValueError, match="unknown frame"):
            per_qubit_comparison([plain], frame="astral")

    def test_comparison_table_renders(self, handles):
        plain, transpiled, _ = _by_kind(handles)
        comparison = per_qubit_comparison([plain, transpiled])
        text = comparison_table(comparison)
        lines = text.splitlines()
        assert "jakarta" in lines[0] and "logical" in lines[0]
        assert len(lines) == 1 + len(
            {q for values in comparison.values() for q in values}
        )
        assert comparison_table({}) == "(no records)"


class TestDeltaComparison:
    def test_matches_direct_delta_heatmap(self, manifest_dir, handles):
        plain, _, double = _by_kind(handles)
        thetas, phis, delta = delta_comparison(
            [manifest_dir],
            double.scenario_id,
            plain.scenario_id,
            window_rows=13,
        )
        reference = delta_heatmap(
            double.open().doubles(), plain.open()
        )
        assert thetas == reference[0]
        assert delta.tobytes() == np.asarray(reference[2]).tobytes()


class TestExportRecords:
    def test_npz_fallback_without_pyarrow(self, handles, tmp_path):
        # There is no Parquet/Arrow writer, so "auto" on a .parquet
        # path must degrade to npz and say so.
        plain, transpiled, _ = _by_kind(handles)
        path = str(tmp_path / "records.parquet")
        written = export_records([plain, transpiled], path, fmt="auto")
        assert written == "npz"
        archive = np.load(path)
        rows = len(plain.open().table) + len(transpiled.open().table)
        assert archive["qvf"].shape == (rows,)
        assert set(archive["scenario_id"]) == {
            plain.scenario_id, transpiled.scenario_id
        }
        assert set(archive["machine"]) == {"logical", "jakarta"}
        assert set(archive["optimization"]) == {"untranspiled", "O1"}
        assert "gate_name" in archive and "gate" not in archive
        # Record columns survive the flattening byte-for-byte.
        stacked = np.concatenate(
            [plain.open().table.column("qvf"),
             transpiled.open().table.column("qvf")]
        )
        assert archive["qvf"].tobytes() == stacked.tobytes()

    def test_explicit_parquet_degrades(self, handles, tmp_path):
        path = str(tmp_path / "records.bin")
        written = export_records(handles[:1], path, fmt="parquet")
        assert written == "npz"
        assert np.load(path)["theta"].size > 0

    def test_unknown_format_rejected(self, handles, tmp_path):
        with pytest.raises(ValueError, match="unknown export format"):
            export_records(handles, str(tmp_path / "x"), fmt="xlsx")

    def test_empty_selection_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records to export"):
            export_records([], str(tmp_path / "x.npz"), fmt="npz")

    def test_window_size_never_changes_the_bytes(self, handles, tmp_path):
        """The chunked writer streams column windows straight into the
        archive; the window size is an execution detail and must leave
        no trace in the file — including the NaN second_* payloads of
        single campaigns."""
        blobs = {}
        for window in (7, 100_000):
            path = str(tmp_path / f"w{window}.npz")
            export_records(handles, path, fmt="npz", window_rows=window)
            with open(path, "rb") as handle:
                blobs[window] = handle.read()
        assert blobs[7] == blobs[100_000]

    def test_chunked_npz_matches_eager_concatenate(self, handles, tmp_path):
        """Every column equals what the historical load-everything
        writer produced: per-column concatenation over handles in
        order, with id columns synthesized from the handle labels."""
        path = str(tmp_path / "records.npz")
        export_records(handles, path, fmt="npz", window_rows=13)
        archive = np.load(path)
        tables = [handle.open().table for handle in handles]
        for column in ("theta", "phi", "qvf", "second_theta"):
            expected = np.concatenate(
                [np.asarray(t.column(column)) for t in tables]
            )
            assert archive[column].tobytes() == expected.tobytes()
        expected_ids = np.concatenate(
            [
                np.full(len(t), h.scenario_id)
                for h, t in zip(handles, tables)
            ]
        )
        assert np.array_equal(archive["scenario_id"], expected_ids)

    def test_export_memory_stays_bounded(self, handles, tmp_path):
        """The writer must never hold a full column in memory: peak
        traced allocations stay far below the archive size."""
        import tracemalloc

        path = str(tmp_path / "records.npz")
        tracemalloc.start()
        export_records(handles, path, fmt="npz", window_rows=8)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert os.path.getsize(path) > 0
        # 8-row windows over ~100-byte records: the streaming state is
        # a few KiB; allow slack for interpreter noise.
        assert peak < os.path.getsize(path)


class TestQueryCli:
    def test_list(self, manifest_dir, capsys):
        assert main(["query", "list", manifest_dir]) == 0
        out = capsys.readouterr().out
        assert "query-acceptance" in out
        assert "jakarta" in out

    def test_per_qubit(self, manifest_dir, capsys):
        assert main(
            ["query", "per-qubit", manifest_dir, "--group-by", "machine"]
        ) == 0
        out = capsys.readouterr().out
        assert "jakarta" in out and "logical" in out
        assert "qubit" in out

    def test_delta(self, manifest_dir, handles, tmp_path, capsys):
        plain, _, double = _by_kind(handles)
        out_path = str(tmp_path / "delta.npz")
        assert main(
            [
                "query", "delta", manifest_dir,
                "--double", double.scenario_id,
                "--single", plain.scenario_id,
                "--out", out_path,
            ]
        ) == 0
        archive = np.load(out_path)
        assert {"thetas", "phis", "delta"} <= set(archive)
        assert archive["delta"].shape == (
            archive["phis"].size, archive["thetas"].size
        )

    def test_export_reports_fallback(self, manifest_dir, tmp_path, capsys):
        out_path = str(tmp_path / "records.parquet")
        assert main(
            [
                "query", "export", manifest_dir,
                "--out", out_path, "--format", "parquet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fell back to npz" in out
        assert os.path.exists(out_path)
