"""Compiled circuits and the columns of injected faults.

``compile_program`` builds one gate table, :class:`CompiledProgram`: per
gate its label and its columns, each built once, here.  It fixes a static
draw-slot layout: every gate owns a fixed span of the shot's uniform
stream, and the final data readout owns two slots per edge.  The gates
split into layers (:class:`GateLayer`, whose columns are views of the
table's): maximal runs of consecutive gates of one kind and one
leak-victim tuple on pairwise-disjoint qubits.  Such gates commute and
each reads only its own draws, so the executor,
:func:`toricleak.vector.execute`, may resolve a layer at once; gate j's
draws start ``DRAWS_PER_KIND[kind]·j`` after the layer's first.
:class:`Injections` lists deterministic fault injections for the executor
to replay as int columns, one entry per injection naming its row, so a
whole replay phase is one batch; they land after their gate's layer.
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


@dataclass(eq=False)
class GateLayer:
    kind: str
    leak_victims: tuple[int, ...]
    start: int  # index of the first gate
    draw_offset: int  # of the first gate
    q0: np.ndarray  # views of the program's gate columns over the layer's gates
    q1: np.ndarray
    leak_prob: np.ndarray
    slot: np.ndarray


@dataclass
class CompiledProgram:
    """One gate table: per gate, in ``program.all_gates()`` order, its label and columns."""

    program: CircuitProgram
    noise: NoiseModel
    labels: list[FaultLocation]
    qubits: np.ndarray  # (2, gates): q0, and q1 or -1 for single-qubit gates
    leak_prob: np.ndarray
    victims: np.ndarray  # (gates, 2): the positions eligible for the leak draw, -1 padded
    slot: np.ndarray  # flat syndrome index (round·2 + check_type)·d² + check_site, check_type 0 = Z
    layer: np.ndarray  # the index of the gate's layer
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
    is a global gate index, a row of the ``CompiledProgram`` table:

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
    labels, qubits, victims, starts, used, key = [], [], [], [], set(), None
    for gi, (_, g) in enumerate(program.all_gates()):
        victims.append(noise.leak_victims(g.label))
        if (g.kind, victims[-1]) != key or used & set(g.qubits):
            starts.append(gi)
            key, used = (g.kind, victims[-1]), set()
        used.update(g.qubits)
        labels.append(g.label)
        qubits.append(g.qubits + (-1,) * (2 - len(g.qubits)))
    offsets = np.cumsum([0] + [DRAWS_PER_KIND[label.kind] for label in labels]).tolist()
    n_sites = program.lattice.d**2
    qubits = np.array(qubits, dtype=np.int64).reshape(-1, 2).T.copy()
    leak_prob = np.array([noise.leak_prob(label) for label in labels], dtype=float)
    slot = np.array([(label.round * 2 + "ZX".index(label.check[0])) * n_sites + label.check[1]
                     for label in labels], dtype=np.int64)
    bounds = starts + [len(labels)]
    layers = [GateLayer(labels[lo].kind, victims[lo], lo, offsets[lo],
                        qubits[0, lo:hi], qubits[1, lo:hi], leak_prob[lo:hi], slot[lo:hi])
              for lo, hi in zip(bounds, bounds[1:])]
    return CompiledProgram(
        program, noise, labels, qubits, leak_prob,
        victims=np.array([v + (-1,) * (2 - len(v)) for v in victims], dtype=np.int64).reshape(-1, 2),
        slot=slot, layer=np.repeat(np.arange(len(starts)), np.diff(bounds)),
        n_draws=offsets[-1] + 2 * program.lattice.n_data, readout_offset=offsets[-1], layers=layers)
