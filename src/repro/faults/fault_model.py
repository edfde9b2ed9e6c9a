"""The radiation-induced transient fault model (paper Sec. III and IV-B).

A particle strike deposits charge in the qubit substrate; the resulting
quasiparticle excess shifts the qubit's phase by an amount that grows with
the deposited charge. QuFI models this as an extra U(theta, phi, lambda=0)
gate — :class:`PhaseShiftFault` — and sweeps its magnitude over a grid:

* ``theta`` in [0, pi], every 15 degrees (13 values);
* ``phi`` in [0, 2 pi), every 15 degrees (24 values);
* ``lambda`` fixed at 0;

which yields the paper's 312 configurations per injection point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..quantum.gates import FaultUGate

__all__ = [
    "PhaseShiftFault",
    "fault_grid",
    "constrained_pairs",
    "theta_values",
    "phi_values",
    "GATE_EQUIVALENT_FAULTS",
    "FULL_GRID_STEP_DEG",
    "GRID_CONFIGURATIONS",
]

FULL_GRID_STEP_DEG = 15.0
GRID_CONFIGURATIONS = 312  # 13 theta x 24 phi at 15-degree resolution


@dataclass(frozen=True)
class PhaseShiftFault:
    """A transient fault: phase shift of given direction and magnitude.

    ``theta`` tilts the Bloch vector (|0>-|1> probability shift) and ``phi``
    rotates it about Z. ``lam`` is kept for completeness but the paper's
    campaigns fix it to zero.
    """

    theta: float
    phi: float
    lam: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi + 1e-9:
            raise ValueError(f"theta {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi + 1e-9:
            raise ValueError(f"phi {self.phi} outside [0, 2 pi)")

    def as_gate(self) -> FaultUGate:
        """The injector gate of Eq. 3.

        Returned as :class:`FaultUGate` (name ``ufault``) so noise models —
        which attach channels by gate name — treat the injected phase shift
        as an environmental perturbation rather than a noisy physical gate.
        """
        return FaultUGate(self.theta, self.phi, self.lam)

    def is_null(self, tol: float = 1e-12) -> bool:
        """True for the fault-free grid point (theta = phi = 0)."""
        return abs(self.theta) < tol and abs(self.phi) < tol and abs(self.lam) < tol

    def scaled(self, factor: float) -> "PhaseShiftFault":
        """A proportionally weaker fault (used for neighbour qubits)."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError("scale factor must be in [0, 1]")
        return PhaseShiftFault(self.theta * factor, self.phi * factor, self.lam)

    def label(self) -> str:
        return (
            f"(theta={math.degrees(self.theta):.0f}deg, "
            f"phi={math.degrees(self.phi):.0f}deg)"
        )


# Named faults whose effect equals appending a common gate (the dotted
# reference lines of Fig. 5 and the four faults of the Fig. 11 hardware run).
# With lambda = 0: U(0, phi, 0) = P(phi) (pure phase), U(pi, 0, 0) ~ Y and
# U(pi, pi, 0) ~ X up to global phase.
GATE_EQUIVALENT_FAULTS: Dict[str, PhaseShiftFault] = {
    "t": PhaseShiftFault(0.0, math.pi / 4),
    "s": PhaseShiftFault(0.0, math.pi / 2),
    "z": PhaseShiftFault(0.0, math.pi),
    "y": PhaseShiftFault(math.pi, 0.0),
    "x": PhaseShiftFault(math.pi, math.pi),
}


def theta_values(step_deg: float = FULL_GRID_STEP_DEG) -> List[float]:
    """Grid of theta shifts: [0, pi] inclusive at ``step_deg`` resolution."""
    count = int(round(180.0 / step_deg))
    if abs(count * step_deg - 180.0) > 1e-9:
        raise ValueError(f"step {step_deg} must divide 180 degrees")
    return [math.radians(step_deg * i) for i in range(count + 1)]


def phi_values(
    step_deg: float = FULL_GRID_STEP_DEG, max_deg: float = 360.0
) -> List[float]:
    """Grid of phi shifts: [0, max_deg) at ``step_deg`` resolution.

    ``max_deg=180`` (plus endpoint handling by callers) matches the paper's
    double-fault study, which exploits the phi symmetry about pi.
    """
    count = int(round(max_deg / step_deg))
    if abs(count * step_deg - max_deg) > 1e-9:
        raise ValueError(f"step {step_deg} must divide {max_deg} degrees")
    return [math.radians(step_deg * i) for i in range(count)]


def fault_grid(
    step_deg: float = FULL_GRID_STEP_DEG,
    phi_max_deg: float = 360.0,
    include_phi_endpoint: bool = False,
) -> List[PhaseShiftFault]:
    """The injection grid of Sec. IV-B.

    At the default 15-degree step this returns the paper's 312
    configurations. Coarser steps (e.g. 45) keep the same coverage shape at
    a fraction of the cost and are what the benchmarks default to.
    """
    phis = phi_values(step_deg, phi_max_deg)
    if include_phi_endpoint:
        phis = phis + [math.radians(phi_max_deg)]
    return [
        PhaseShiftFault(theta, phi)
        for theta in theta_values(step_deg)
        for phi in phis
    ]


def constrained_pairs(
    faults: Sequence[PhaseShiftFault],
    second_faults: Optional[Sequence[PhaseShiftFault]] = None,
) -> List[Tuple[PhaseShiftFault, PhaseShiftFault]]:
    """The ``(first, second)`` fault pairs of a double-fault sweep.

    The second qubit is farther from the strike and sees less charge
    (Sec. III-C / IV-C), so each first fault pairs with every second
    fault of no greater magnitude: ``theta1 <= theta0`` and ``phi1 <=
    phi0``, with 1e-9 slack for grid round-off. ``second_faults``
    defaults to ``faults``; pairs come out first-fault-major.
    """
    pool = list(second_faults) if second_faults is not None else faults
    return [
        (first, second)
        for first in faults
        for second in pool
        if second.theta <= first.theta + 1e-9
        and second.phi <= first.phi + 1e-9
    ]
