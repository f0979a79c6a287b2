"""Compiled circuits and the columns of injected faults.

``compile_program`` fixes a static draw-slot layout: every gate owns a fixed
span of the shot's uniform stream, and the final data readout owns two slots
per edge.  It also splits the gates into layers (:class:`GateLayer`):
maximal runs of consecutive gates of one kind and one leak-victim tuple on
pairwise-disjoint qubits.  Such gates commute and each reads only its own
draws, so the executor, :func:`toricleak.vector.execute`, may resolve a
layer at once; gate j's draws start ``DRAWS_PER_KIND[kind]·j`` after the
layer's first.  :class:`Injections` lists deterministic fault injections
for the executor to replay as int columns, one entry per injection naming
its row, so a whole replay phase is one batch; they land after their
gate's layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

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


@dataclass(eq=False)
class GateLayer:
    kind: str
    leak_victims: tuple[int, ...]
    start: int  # index of the first gate
    draw_offset: int  # of the first gate
    q0: np.ndarray  # per gate, like CompiledGate's fields
    q1: np.ndarray
    leak_prob: np.ndarray
    slot: np.ndarray  # flat syndrome index (round·2 + check_type)·d² + check_site


@dataclass
class CompiledProgram:
    program: CircuitProgram
    noise: NoiseModel
    gates: list[CompiledGate]
    n_draws: int  # total stream length including readout slots
    readout_offset: int
    layers: list[GateLayer]

    @property
    def lattice(self):
        return self.program.lattice


@dataclass(frozen=True)
class Injections:
    """Deterministic fault injections for replay runs, as int columns.

    Each kind is a 2-D int array with one entry (array row) per injection;
    an entry's first column is the executor row it lands in, and ``gate``
    is a global index into ``CompiledProgram.gates``:

    * ``leaks``: ``(row, gate, position)``, the gate's qubit at
      ``position`` leaks;
    * ``paulis``: ``(row, gate, position, x, z)``, that qubit's frame is
      XORed with ``(x, z)``;
    * ``meas_flips``: ``(row, gate)``, the measurement's outcome flips;
    * ``readout_flips``: ``(row, edge, x, z)``, the final readout of data
      edge ``edge`` is XORed with ``(x, z)``.

    Any sequence of such int tuples converts, and a kind whose entries are
    not integers is refused; leaving a kind out injects none.
    """

    leaks: np.ndarray = field(default=(), metadata={"width": 3})
    paulis: np.ndarray = field(default=(), metadata={"width": 5})
    meas_flips: np.ndarray = field(default=(), metadata={"width": 2})
    readout_flips: np.ndarray = field(default=(), metadata={"width": 4})

    def __post_init__(self):
        for f in fields(self):
            width, column = f.metadata["width"], np.asarray(getattr(self, f.name))
            if column.size and column.dtype.kind not in "biu":
                raise ValueError(f"{f.name} entries must be integers, got {column.dtype}")
            column = column.astype(np.int64, copy=False)
            column = column.reshape(0, width) if column.size == 0 else column
            if column.shape[1:] != (width,):
                raise ValueError(f"{f.name} entries have {width} columns, got shape {column.shape}")
            object.__setattr__(self, f.name, column)


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
    layers = _layers(gates, program.lattice.d**2)
    return CompiledProgram(program, noise, gates, n_draws, readout_offset, layers)


def _layers(gates: list[CompiledGate], n_sites: int) -> list[GateLayer]:
    starts, used, key = [], set(), None
    for gi, g in enumerate(gates):
        if (g.kind, g.leak_victims) != key or g.q0 in used or g.q1 in used:
            starts.append(gi)
            key, used = (g.kind, g.leak_victims), set()
        used.update((g.q0, g.q1) if g.q1 >= 0 else (g.q0,))
    # every gate's q0, q1, leak_prob and slot; each layer holds a slice
    columns = [np.array(column) for column in zip(*[
        (g.q0, g.q1, g.leak_prob, (g.round_index * 2 + g.check_type) * n_sites + g.check_site)
        for g in gates])]
    return [GateLayer(gates[lo].kind, gates[lo].leak_victims, lo, gates[lo].draw_offset,
                      *(column[lo:hi] for column in columns))
            for lo, hi in zip(starts, starts[1:] + [len(gates)])]
