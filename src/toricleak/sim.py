"""Compiled circuits and scripted fault injections.

``compile_program`` fixes a static draw-slot layout: every gate owns a fixed
span of the shot's uniform stream, and the final data readout owns two slots
per edge.  A :class:`Script` lists deterministic fault injections for the
executor, :func:`toricleak.vector.execute`, to replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuits import CNOT, H, MEAS_Z, PREP_Z, SWAP, CircuitProgram, FaultLocation
from .noise import NoiseModel

DRAWS_PER_KIND = {
    PREP_Z: 2,
    H: 2,
    CNOT: 3,
    SWAP: 3,
    MEAS_Z: 2,
}


@dataclass(frozen=True)
class CompiledGate:
    kind: str
    q0: int
    q1: int  # -1 for single-qubit gates
    round_index: int
    draw_offset: int
    leak_victims: tuple[int, ...]  # positions eligible for the leak draw
    leak_prob: float
    check_type: int  # 0 = Z check, 1 = X check
    check_site: int
    label: FaultLocation


@dataclass
class CompiledProgram:
    program: CircuitProgram
    noise: NoiseModel
    gates: list[CompiledGate]
    n_draws: int  # total stream length including readout slots
    readout_offset: int

    @property
    def lattice(self):
        return self.program.lattice


@dataclass
class Script:
    """Deterministic fault injections for replay runs.

    Keys are global gate indices into ``CompiledProgram.gates``.
    """

    leaks: set[tuple[int, int]] = field(default_factory=set)  # (gate, position)
    paulis: dict[int, tuple] = field(default_factory=dict)  # gate -> per-qubit paulis
    meas_flips: set[int] = field(default_factory=set)
    readout_flips: dict[int, tuple[int, int]] = field(default_factory=dict)  # edge -> (dx, dz)


def compile_program(program: CircuitProgram, noise: NoiseModel) -> CompiledProgram:
    gates: list[CompiledGate] = []
    offset = 0
    for _, g in program.all_gates():
        check_type, check_site = g.label.check
        gates.append(
            CompiledGate(
                kind=g.kind,
                q0=g.qubits[0],
                q1=g.qubits[1] if len(g.qubits) > 1 else -1,
                round_index=g.label.round,
                draw_offset=offset,
                leak_victims=noise.leak_victims(g.label),
                leak_prob=noise.leak_prob(g.label),
                check_type={"Z": 0, "X": 1}[check_type],
                check_site=check_site,
                label=g.label,
            )
        )
        offset += DRAWS_PER_KIND[g.kind]
    readout_offset = offset
    n_draws = offset + 2 * program.lattice.n_data
    return CompiledProgram(program, noise, gates, n_draws, readout_offset)

