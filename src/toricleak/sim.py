"""Compiled circuits, scripted fault injections and the one-shot entry point.

``compile_program`` fixes a static draw-slot layout: every gate owns a fixed
span of the shot's uniform stream, and the final data readout owns two slots
per edge.  The executor itself lives in :mod:`toricleak.vector`; ``run_shot``
is a one-row call of it that resolves a full shot from one uniform vector,
or — when given no uniforms — resolves every draw to its null outcome so
that scripted fault injections replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    CNOT,
    H,
    MEAS_X,
    MEAS_Z,
    PREP_X,
    PREP_Z,
    SWAP,
    CircuitProgram,
    FaultLocation,
)
from .noise import NoiseModel
from .vector import execute

DRAWS_PER_KIND = {
    PREP_Z: 2,
    PREP_X: 2,
    H: 2,
    CNOT: 3,
    SWAP: 3,
    MEAS_Z: 2,
    MEAS_X: 2,
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
    check_type: int  # 0 = Z check, 1 = X check, -1 = none
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


@dataclass
class ShotResult:
    syndromes: np.ndarray  # (n_rounds + 1, 2, d*d); last row is the perfect readout round
    data_x: np.ndarray  # readout-consistent frame, indexed by edge
    data_z: np.ndarray
    logical_parities: np.ndarray  # (4,) pre-correction parities of the readout frame
    leak_final: np.ndarray  # per physical qubit

    @property
    def n_rounds(self) -> int:
        return self.syndromes.shape[0] - 1


def compile_program(program: CircuitProgram, noise: NoiseModel) -> CompiledProgram:
    gates: list[CompiledGate] = []
    offset = 0
    for _, g in program.all_gates():
        check = g.label.check
        gates.append(
            CompiledGate(
                kind=g.kind,
                q0=g.qubits[0],
                q1=g.qubits[1] if len(g.qubits) > 1 else -1,
                round_index=g.label.round,
                draw_offset=offset,
                leak_victims=noise.leak_victims(g.label),
                leak_prob=noise.leak_prob(g.label),
                check_type={"Z": 0, "X": 1}.get(check[0] if check else None, -1),
                check_site=check[1] if check else -1,
                label=g.label,
            )
        )
        offset += DRAWS_PER_KIND[g.kind]
    readout_offset = offset
    n_draws = offset + 2 * program.lattice.n_data
    return CompiledProgram(program, noise, gates, n_draws, readout_offset)


def run_shot(
    compiled: CompiledProgram,
    uniforms: np.ndarray | None = None,
    script: Script | None = None,
    initial_x: np.ndarray | None = None,
    initial_z: np.ndarray | None = None,
    trace: list | None = None,
) -> ShotResult:
    """Execute one shot: a one-row call of :func:`toricleak.vector.execute`.

    ``trace``, when given a list, collects the consequence slots a leak
    opens up, as ``execute`` describes them.
    """
    if uniforms is not None:
        if len(uniforms) != compiled.n_draws:
            raise ValueError(f"need {compiled.n_draws} uniform draws, got {len(uniforms)}")
        uniforms = np.asarray(uniforms, dtype=np.float64)[None, :]
    scripts = None if script is None else [script]
    traces = None if trace is None else [trace]
    res = execute(compiled, 1, uniforms, scripts, initial_x, initial_z, traces)
    return ShotResult(
        res.syndromes[0], res.data_x[0], res.data_z[0], res.logical_parities[0], res.leak_final[0]
    )
