"""Resumable fault-injection campaigns.

The paper's campaigns run to hundreds of millions of injections; at that
scale interruption is the norm, not the exception. :class:`CheckpointedRunner`
wraps :class:`~repro.faults.injector.QuFI` with a streaming checkpoint:
re-running the same campaign skips every injection already recorded, so a
killed job resumes where it stopped.

Checkpoints are append-only binary segment files
(:mod:`repro.faults.store`): every record block the executor delivers is
appended as one self-contained segment — O(batch) per flush, where the
historical JSON checkpoint re-serialised the whole campaign every time
(O(n) per flush, O(n^2) over a sweep). On completion the file is
compacted to a single metadata + record segment, atomically. Legacy JSON
checkpoints still load (and are migrated to the segment format the first
time a campaign resumes from one); JSON remains the *export* format —
``CampaignResult.to_json`` / ``from_json`` are unchanged and
``CampaignResult.load`` sniffs either format.

Pending work keeps its original campaign rank (``InjectionTask.index``),
and checkpointed plans enable per-task seeding: with a finite shot
budget each task draws from a generator derived from ``(seed, index)``,
so a resumed campaign reproduces the uninterrupted run bit for bit — on
the serial, batched and parallel strategies alike.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Set, Tuple, Union

from ..algorithms.spec import AlgorithmSpec
from ..quantum.circuit import QuantumCircuit
from .campaign import CampaignResult, RecordTable
from .executor import BaseExecutor, CampaignPlan, InjectionTask
from .fault_model import PhaseShiftFault, fault_grid
from .injection_points import InjectionPoint, enumerate_injection_points
from .injector import QuFI, resolve_target
from .store import (
    append_record_segment,
    compact,
    is_segment_file,
    read_segments,
)

__all__ = ["CheckpointedRunner", "load_completed_store"]


def load_completed_store(path: str) -> Optional[CampaignResult]:
    """A completed campaign's store as a result, or ``None`` if unusable.

    The tolerant load shared by every consumer that has recompute
    machinery behind it — the suite runner's manifest resume and the
    persistent result cache: a missing file, non-store bytes, interior
    corruption, or a store with no metadata segment all come back as
    ``None``, and the caller recomputes-and-overwrites, repairing the
    artefact in place. Contrast :class:`CheckpointedRunner`'s own resume
    path, which must *not* swallow interior corruption (silently
    restarting a hundred-million-injection campaign would be worse than
    failing loudly).
    """
    try:
        meta, table = read_segments(path)
    except (OSError, ValueError):
        return None
    if meta is None:
        return None
    return CampaignResult.from_table_meta(meta, table)

_Key = Tuple[float, float, int, int]


def _key(fault: PhaseShiftFault, point: InjectionPoint) -> _Key:
    return (
        round(fault.theta, 9),
        round(fault.phi, 9),
        point.position,
        point.qubit,
    )


def _table_keys(table: RecordTable) -> Set[_Key]:
    """Completed-injection keys straight off the columns."""
    return {
        (round(theta, 9), round(phi, 9), position, qubit)
        for theta, phi, position, qubit in zip(
            table.column("theta").tolist(),
            table.column("phi").tolist(),
            table.column("position").tolist(),
            table.column("qubit").tolist(),
        )
    }


class CheckpointedRunner:
    """Runs a single-fault campaign with resume-on-restart semantics."""

    def __init__(
        self,
        qufi: QuFI,
        checkpoint_path: str,
        save_every: int = 200,
        executor: Optional[BaseExecutor] = None,
    ) -> None:
        if save_every < 1:
            raise ValueError("save_every must be positive")
        self.qufi = qufi
        self.checkpoint_path = checkpoint_path
        self.save_every = int(save_every)
        self.executor = executor

    # ------------------------------------------------------------------
    def _load_existing(self) -> Optional[CampaignResult]:
        """The checkpointed campaign so far — segment or legacy JSON."""
        path = self.checkpoint_path
        if not os.path.exists(path):
            return None
        if not is_segment_file(path):
            return CampaignResult.from_json(path)
        meta, table = read_segments(path)
        if meta is None:
            return None
        return CampaignResult.from_table_meta(meta, table)

    def completed_keys(self) -> Set[_Key]:
        """``(theta, phi, position, qubit)`` keys already in the store.

        Keys round the angles to 9 decimals, the same rounding
        :meth:`run` matches pending work against; an absent or
        metadata-less store has none.
        """
        existing = self._load_existing()
        if existing is None:
            return set()
        return _table_keys(existing.table)

    def run(
        self,
        target: Union[AlgorithmSpec, QuantumCircuit],
        correct_states: Optional[Sequence[str]] = None,
        faults: Optional[Sequence[PhaseShiftFault]] = None,
        points: Optional[Sequence[InjectionPoint]] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> CampaignResult:
        """Run (or resume) the campaign, appending a checkpoint segment
        every ``save_every`` completed injections (a kill loses fewer
        than ``2 x save_every``: the unflushed buffer plus one in-flight
        delivery batch). Returns the complete result.

        ``metadata`` entries are merged into the campaign metadata and
        persisted in the checkpoint store's metadata segment — transpiled
        campaigns pass their layout map here, so the ``.ckpt`` artefact
        itself stays frame-convertible (including after a kill, when it
        is the only artefact)."""
        circuit, states, name = resolve_target(target, correct_states)

        faults = list(faults) if faults is not None else fault_grid()
        points = (
            list(points)
            if points is not None
            else enumerate_injection_points(circuit)
        )

        existing = self._load_existing()
        if existing is not None and existing.circuit_name != name:
            raise ValueError(
                f"checkpoint holds campaign {existing.circuit_name!r}, "
                f"refusing to mix with {name!r}"
            )
        if existing is not None:
            # The circuit name alone cannot distinguish two routings of
            # the same circuit onto the same machine (e.g. different
            # optimization levels) — but their positions and frame
            # attribution differ, so mixing records would corrupt the
            # campaign silently. The transpile block recorded in the
            # store settles it.
            stored_block = existing.metadata.get("transpile")
            incoming_block = (metadata or {}).get("transpile")
            if stored_block != incoming_block:
                raise ValueError(
                    "checkpoint was recorded for a different "
                    "transpilation of this circuit (machine, "
                    "optimization level, basis or seed differ); "
                    "refusing to mix routings — use a fresh checkpoint "
                    "path"
                )
        done_table = (
            existing.table if existing is not None else RecordTable.empty()
        )
        done = _table_keys(done_table)
        fault_free = (
            existing.fault_free_qvf
            if existing is not None
            else self.qufi.fault_free_qvf(circuit, states)
        )

        # The executor's delivery batches are capped at save_every, so a
        # kill loses at most save_every unflushed injections.
        executor = (
            self.executor if self.executor is not None else self.qufi.executor
        ).bounded(self.save_every)

        meta = {
            "circuit_name": name,
            "correct_states": list(states),
            "fault_free_qvf": fault_free,
            "backend_name": getattr(self.qufi.backend, "name", "backend"),
            # Same metadata schema as QuFI.run_campaign plus the
            # checkpoint marker, so consumers need no special-casing.
            "metadata": {
                "mode": "single",
                "checkpointed": True,
                "num_faults": len(faults),
                "num_points": len(points),
                "shots": self.qufi.shots,
                "executor": executor.name,
                **(metadata or {}),
            },
        }

        # The store is compacted (atomically rewritten as meta + one
        # record segment) before any appending: a fresh path or a legacy
        # JSON checkpoint becomes a segment store, and — critically — a
        # torn tail segment left by a kill mid-append is truncated away.
        # Appending after torn bytes would corrupt every later segment.
        compact(self.checkpoint_path, meta, done_table)

        # Pending tasks keep their original campaign rank, which (with
        # per-task seeding) makes sampled draws independent of where the
        # previous run was killed.
        pending = tuple(
            InjectionTask(index=index, point=point, fault=fault)
            for index, (point, fault) in enumerate(
                (point, fault) for point in points for fault in faults
            )
            if _key(fault, point) not in done
        )
        new_table = RecordTable.empty()
        if pending:
            plan = CampaignPlan(
                circuit=circuit,
                correct_states=states,
                tasks=pending,
                shots=self.qufi.shots,
                seed=self.qufi.seed,
                per_task_seeding=True,
            )
            # Delivery batches accumulate until save_every records are
            # pending, then flush as one segment — save_every is the
            # flush cadence, not just a batch-size cap.
            buffered: list = []
            since_save = 0

            def flush() -> None:
                nonlocal since_save
                append_record_segment(
                    self.checkpoint_path, RecordTable.concatenate(buffered)
                )
                buffered.clear()
                since_save = 0

            def on_batch(batch: RecordTable) -> None:
                nonlocal since_save
                buffered.append(batch)
                since_save += len(batch)
                if since_save >= self.save_every:
                    flush()

            new_table = executor.run(
                self.qufi.backend, plan, on_batch=on_batch, rng=self.qufi._rng
            )
            if buffered:
                flush()

        result = CampaignResult(
            circuit_name=name,
            correct_states=states,
            records=RecordTable.concatenate([done_table, new_table]),
            fault_free_qvf=fault_free,
            backend_name=meta["backend_name"],
            metadata=dict(meta["metadata"]),
        )
        compact(self.checkpoint_path, meta, result.table)
        return result
