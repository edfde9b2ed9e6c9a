"""Enumeration of fault-injection points.

The paper injects "after each gate of the original circuit, simulating
faults in each one of the circuit operations" (Sec. IV-B and Fig. 4). An
injection point is therefore a (instruction position, qubit) pair: the
injector U gate is spliced in immediately after that instruction, on one of
the qubits it touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..quantum.circuit import QuantumCircuit

__all__ = [
    "InjectionPoint",
    "cluster_sites",
    "enumerate_injection_points",
    "points_at_position",
]


@dataclass(frozen=True)
class InjectionPoint:
    """Where a fault lands: after instruction ``position``, on ``qubit``.

    ``qubit`` is the index in the campaign circuit (the *wire* frame).
    For campaigns over transpiled circuits the point additionally
    carries the wire's device qubit (``physical_qubit``) and the logical
    qubit whose state occupied the wire at that instant
    (``logical_qubit``); both default to ``-1`` — "no frame
    information" — for campaigns over logical circuits.
    """

    position: int
    qubit: int
    gate_name: str
    physical_qubit: int = -1
    logical_qubit: int = -1

    def __repr__(self) -> str:
        frames = ""
        if self.physical_qubit >= 0 or self.logical_qubit >= 0:
            frames = (
                f" [phys Q{self.physical_qubit}, log q{self.logical_qubit}]"
            )
        return (
            f"InjectionPoint(after #{self.position} {self.gate_name}, "
            f"q{self.qubit}{frames})"
        )


def enumerate_injection_points(
    circuit: QuantumCircuit,
    qubits: Optional[Sequence[int]] = None,
    positions: Optional[Sequence[int]] = None,
    layout=None,
) -> List[InjectionPoint]:
    """All (gate, qubit) fault sites of ``circuit``.

    Barriers and measurements are not fault sites (no quantum operation to
    corrupt). ``qubits``/``positions`` restrict the sweep — campaigns use
    them for per-qubit slicing and cheap subsampled runs.

    ``layout`` (a :class:`~repro.faults.layout_map.LayoutMap` for a
    transpiled ``circuit``) stamps each point with its physical and
    logical qubit so campaign records stay reportable in either frame.
    """
    qubit_filter = set(qubits) if qubits is not None else None
    position_filter = set(positions) if positions is not None else None
    points: List[InjectionPoint] = []
    for index, inst in enumerate(circuit):
        if not inst.is_unitary():
            continue
        if position_filter is not None and index not in position_filter:
            continue
        for qubit in inst.qubits:
            if qubit_filter is not None and qubit not in qubit_filter:
                continue
            if layout is None:
                points.append(InjectionPoint(index, qubit, inst.name))
            else:
                points.append(
                    InjectionPoint(
                        index,
                        qubit,
                        inst.name,
                        physical_qubit=layout.physical_qubit(qubit),
                        logical_qubit=layout.logical_at(index, qubit),
                    )
                )
    return points


def points_at_position(
    circuit: QuantumCircuit,
    position: int,
    qubits: Sequence[int],
) -> List[InjectionPoint]:
    """One injection point per ``qubits`` entry, all after ``position``.

    :func:`enumerate_injection_points` only yields the qubits an
    instruction *touches*; structured campaigns — QEC sweeps that strike
    each encoded data wire at the encoder/decoder boundary — need points
    on wires the boundary instruction does not act on. The faulty
    circuit is built exactly as for enumerated points (the fault gate is
    spliced immediately after instruction ``position``); the points
    simply name arbitrary wires.
    """
    if not 0 <= position < len(circuit.instructions):
        raise ValueError(
            f"position {position} out of range for a circuit of "
            f"{len(circuit.instructions)} instructions"
        )
    gate_name = circuit.instructions[position].name
    points: List[InjectionPoint] = []
    for qubit in qubits:
        if not 0 <= qubit < circuit.num_qubits:
            raise ValueError(
                f"qubit {qubit} out of range for "
                f"{circuit.num_qubits}-qubit circuit"
            )
        points.append(InjectionPoint(int(position), int(qubit), gate_name))
    return points


def cluster_sites(
    circuit: QuantumCircuit,
    clusters: Sequence[Sequence[int]],
    points: Optional[Sequence[InjectionPoint]] = None,
) -> Iterator[Tuple[int, InjectionPoint, Tuple[int, ...]]]:
    """The sites a multi-qubit fault sweep visits, cluster by cluster.

    Each cluster lists campaign-circuit qubits: the strike centre first,
    its pinned neighbour second, farther qubits after (a double-fault
    couple is a two-qubit cluster). A site is a centre point — one of
    ``points`` on ``cluster[0]``, by default every gate site of the
    centre qubit — at which the neighbour is still *live*. Once the
    neighbour has been measured, a phase shift on it cannot influence
    the outcome (and the splice would be invalid), so the site is
    dropped. Benchmark circuits measure terminally, so this prunes
    nothing on logical circuits; transpiled circuits interleave
    measurements (single-qubit fusion defers gates past other wires'
    measures), where a centre site can postdate the neighbour's measure.

    Yields ``(cluster_index, point, outer)`` in sweep order, where
    ``outer`` holds the slot indices (``>= 2``) of the farther cluster
    qubits still live at the point. Campaigns build their tasks from
    these sites and cost estimators count them, so both agree by
    construction.
    """
    first_measure: Dict[int, int] = {}
    for position, inst in enumerate(circuit):
        if inst.name == "measure":
            first_measure.setdefault(inst.qubits[0], position)

    def live(qubit: int, position: int) -> bool:
        measured_at = first_measure.get(qubit)
        return measured_at is None or position < measured_at

    points = (
        list(points)
        if points is not None
        else enumerate_injection_points(circuit)
    )
    for index, cluster in enumerate(clusters):
        centre, neighbour = cluster[0], cluster[1]
        for point in points:
            if point.qubit != centre or not live(neighbour, point.position):
                continue
            outer = tuple(
                slot
                for slot in range(2, len(cluster))
                if live(cluster[slot], point.position)
            )
            yield index, point, outer
