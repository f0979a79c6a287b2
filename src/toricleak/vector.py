"""Shot executor: Pauli-frame propagation with leakage tracking, many shots at once.

The simulator never touches amplitudes.  Each qubit carries two frame bits
(x, z) relative to the ideal circuit plus a leak flag, and shots (rows) form
the leading axis of every array.  Measured bits are the ideal reference
(always 0) XORed with the frame, so syndrome records start from the all-zero
baseline and detection events are differences of consecutive rounds.

``execute`` resolves a batch layer by layer (``CompiledProgram.layers``),
one numpy pass per rule over a (rows × layer gates) block; which Pauli,
victim or partner Pauli a draw picks is decoded only where it fires.
Frames, leak flags and syndromes are qubit-contiguous (column-major), so a
layer's gather of its qubits reads whole columns.  Without a draw matrix
every draw takes its null outcome, so injected faults replay
deterministically.  Injections (``sim.Injections``) come as int columns
whose entries name their rows; they are checked with one vectorised test
per rule, grouped by layer with one stable sort per kind, and applied with
one fancy update per kind and layer, so the rows of a whole replay phase
cost one call.  A traced call also reports the consequence slots that
leaks open, as one code per row and gate.
``run_batch`` is the Monte-Carlo entry point.  It draws and executes a batch
``_CHUNK_ROWS`` rows at a time through one reused draw buffer, so its memory
is bounded by the chunk, not the batch, and every row is the one a
whole-batch draw would give it.  The scanner calls ``execute`` directly,
once per replay phase.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .circuits import CNOT, H, MEAS_Z, PREP_Z, SWAP
from .pauli import PAULI2_ERRORS, PAULI4, batch_uniforms, propagate_cnot, propagate_h, propagate_swap
from .sim import DRAWS_PER_KIND, CompiledProgram, Injections

# component tables for vectorized sub-decodes
_X3 = np.array([1, 1, 0], dtype=np.uint8)  # X, Y, Z
_Z3 = np.array([0, 1, 1], dtype=np.uint8)
_X4 = np.array([p[0] for p in PAULI4], dtype=np.uint8)  # I, X, Y, Z
_Z4 = np.array([p[1] for p in PAULI4], dtype=np.uint8)
_X15A = np.array([a[0] for a, b in PAULI2_ERRORS], dtype=np.uint8)
_Z15A = np.array([a[1] for a, b in PAULI2_ERRORS], dtype=np.uint8)
_X15B = np.array([b[0] for a, b in PAULI2_ERRORS], dtype=np.uint8)
_Z15B = np.array([b[1] for a, b in PAULI2_ERRORS], dtype=np.uint8)

# Monte-Carlo rows drawn and executed at once.  Fewer rows save little more
# memory, and below about 256 the executor's per-layer overhead costs time.
_CHUNK_ROWS = 512


@dataclass
class BatchResult:
    syndromes: np.ndarray  # (shots, rounds + 1, 2, d*d)
    data_x: np.ndarray  # (shots, n_data)
    data_z: np.ndarray
    leak_final: np.ndarray  # (shots, n_qubits)
    slots: np.ndarray | None = None  # (shots, gates) consequence slot codes of a traced call


def run_batch(
    compiled: CompiledProgram,
    master_seed: int,
    shot_start: int,
    n_shots: int,
) -> BatchResult:
    """Monte-Carlo shots ``shot_start ..`` of the deterministic per-shot streams.

    The rows run in chunks of ``_CHUNK_ROWS``.  Each chunk's draws fill the
    leading rows of one column-major buffer, allocated once per call, and
    the chunks' results are stacked into one ``BatchResult``.  A row depends
    only on ``(master_seed, shot_index)``, so the chunking changes no bit.
    """
    n_draws = compiled.n_draws
    buf = np.empty((min(n_shots, _CHUNK_ROWS), n_draws), order="F")
    parts = []
    # at least one chunk, so that an empty batch keeps its shapes
    for lo in range(0, max(n_shots, 1), _CHUNK_ROWS):
        m = min(n_shots - lo, _CHUNK_ROWS)
        U = batch_uniforms(master_seed, shot_start + lo, m, n_draws, out=buf[:m])
        parts.append(execute(compiled, m, uniforms=U))
    return BatchResult(*(np.concatenate([getattr(part, f.name) for part in parts])
                         for f in fields(BatchResult) if f.name != "slots"))


def _refuse(bad: np.ndarray, message: str, *columns: np.ndarray) -> None:
    """Raise ``ValueError`` with ``message`` formatted from the columns'
    values at the first entry that ``bad`` flags, if any."""
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(message.format(*(int(column[k]) for column in columns)))


def _by_layer(layer: np.ndarray, n_layers: int, *columns: np.ndarray) -> list:
    """Per layer: the columns' entries that land after it, in their given
    order (one stable sort), or None where none do."""
    order = np.argsort(layer, kind="stable")
    bounds = np.searchsorted(layer[order], np.arange(n_layers + 1)).tolist()
    columns = [column[order] for column in columns]
    return [tuple(column[lo:hi] for column in columns) if hi > lo else None
            for lo, hi in zip(bounds, bounds[1:])]


def _landing(compiled: CompiledProgram, injections: Injections, n_rows: int):
    """The injections checked against the program and the call, the first
    bad entry of a kind refused by name: per layer, the leaks as ``(row,
    qubit)``, the Paulis as ``(row, qubit, x, z)`` and the measurement flips
    as ``(row, slot)`` that land after it; then the readout flips as
    ``(row, edge, x, z)``."""
    layers, n_data = compiled.layers, compiled.lattice.n_data
    q0, q1, slot = (np.concatenate([getattr(layer, name) for layer in layers])
                    for name in ("q0", "q1", "slot"))
    sizes = [len(layer.q0) for layer in layers]
    layer_of = np.repeat(np.arange(len(layers)), sizes)
    is_meas = np.repeat([layer.kind == MEAS_Z for layer in layers], sizes)
    n_gates = len(q0)
    for f in fields(injections):
        entries = getattr(injections, f.name)
        _refuse((entries[:, 0] < 0) | (entries[:, 0] >= n_rows),
                f"row {{}} is not one of the call's {n_rows} rows", entries[:, 0])
        if f.name in ("paulis", "readout_flips"):
            _refuse((entries[:, -2:] & ~1).any(axis=1),
                    "row {} flips a frame bit by a value other than 0 or 1", entries[:, 0])
        if f.name != "readout_flips":
            gate = entries[:, 1]
            _refuse((gate < 0) | (gate >= n_gates),
                    f"gate {{}} is not one of the program's {n_gates} gates", gate)

    def qubits(gate, pos, what):
        _refuse((pos != 0) & ((pos != 1) | (q1[gate] < 0)),
                f"gate {{}} has no qubit at position {{}} {what}", gate, pos)
        return np.where(pos == 1, q1[gate], q0[gate])

    rows, gate, pos = injections.leaks.T
    leaks = _by_layer(layer_of[gate], len(layers), rows, qubits(gate, pos, "to leak"))
    rows, gate, pos, px, pz = injections.paulis.T
    paulis = _by_layer(layer_of[gate], len(layers), rows, qubits(gate, pos, "for a Pauli"),
                       px.astype(np.uint8), pz.astype(np.uint8))
    rows, gate = injections.meas_flips.T
    _refuse(~is_meas[gate], "gate {} is no measurement, so it has no outcome to flip", gate)
    flips = _by_layer(layer_of[gate], len(layers), rows, slot[gate])
    rows, edge, dx, dz = injections.readout_flips.T
    _refuse((edge < 0) | (edge >= n_data),
            f"edge {{}} is not one of the {n_data} data edges to flip", edge)
    return leaks, paulis, flips, (rows, edge, dx.astype(np.uint8), dz.astype(np.uint8))


def _fired(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a (rows × layer gates) mask's nonzero entries,
    column by column.  A layer's gates act on pairwise-disjoint qubits, so
    each (row, qubit) target appears once in the fancy update that follows,
    and the order changes no bit.  One flat search over the transposed mask
    costs a fraction of a 2-D ``np.nonzero``."""
    cols, rows = np.divmod(np.flatnonzero(mask.T != 0), mask.shape[0])
    return rows, cols


def execute(
    compiled: CompiledProgram,
    n_rows: int,
    uniforms: np.ndarray | None = None,
    injections: Injections | None = None,
    initial_x: np.ndarray | None = None,
    initial_z: np.ndarray | None = None,
    trace: bool = False,
) -> BatchResult:
    """Execute ``n_rows`` shots side by side.

    ``uniforms`` holds one draw row per shot; without it every draw takes its
    null outcome.  ``injections`` gives rows their own faults, which land
    after their gate's layer: each layer's entries of a kind in one fancy
    update, and two Paulis or flips on one target XOR twice.
    ``initial_x``/``initial_z`` seed the frames of the leading qubits.
    A ``trace`` call also returns the stochastic consequence slots a leak
    opens up, as ``slots``, one code per row and gate: 1 or 2 where a
    two-qubit gate has exactly one leaked participant and its partner at
    position 0 or 1, 3 where a measurement reads a leaked qubit, else 0.
    The readout slots are the leaked final data carriers,
    ``leak_final[:, program.final_data_carrier]``.
    """
    program = compiled.program
    lat = program.lattice
    p = compiled.noise.p
    n_sites = lat.d * lat.d
    U = uniforms
    stochastic = U is not None

    x = np.zeros((n_rows, lat.n_qubits), dtype=np.uint8, order="F")
    z = np.zeros_like(x)
    if initial_x is not None:
        x[:, : np.shape(initial_x)[-1]] |= np.asarray(initial_x, dtype=np.uint8)
    if initial_z is not None:
        z[:, : np.shape(initial_z)[-1]] |= np.asarray(initial_z, dtype=np.uint8)
    leak = np.zeros_like(x)
    # one column per measurement slot; the 4-D view below is what callers get
    flat = np.zeros((n_rows, (program.n_rounds + 1) * 2 * n_sites), dtype=np.uint8, order="F")
    syndromes = flat.reshape(n_rows, program.n_rounds + 1, 2, n_sites)
    injected = injections is not None
    if injected:
        leak_at, pauli_at, flip_at, (ro_rows, ro_edges, ro_x, ro_z) = _landing(
            compiled, injections, n_rows)
    # without draws or injected leaks nothing ever leaks, and no gate needs a mask
    leaky = stochastic or (injected and len(injections.leaks) > 0)
    slots = np.zeros((n_rows, len(compiled.gates)), dtype=np.uint8) if trace else None

    for li, layer in enumerate(compiled.layers):
        kind, q0, q1, lp = layer.kind, layer.q0, layer.q1, layer.leak_prob
        span = slice(layer.start, layer.start + len(q0))
        if stochastic:  # draw j of every gate of the layer: one strided view of U
            width = DRAWS_PER_KIND[kind]
            u = [U[:, layer.draw_offset + j :: width][:, : len(q0)] for j in range(width)]
        leak_draws = stochastic and bool(layer.leak_victims) and lp.any()
        if kind == PREP_Z:
            x[:, q0] = u[0] < p if stochastic else 0
            z[:, q0] = 0
            leak[:, q0] = u[1] < lp if leak_draws else 0
        elif kind == H:
            active = 1 - leak[:, q0] if leaky else None
            propagate_h(x, z, q0, mask=active)
            if stochastic and p > 0:
                rows, cols = _fired(active & (u[0] < p))
                idx = np.minimum((u[0][rows, cols] / p * 3).astype(np.int64), 2)
                x[rows, q0[cols]] ^= _X3[idx]
                z[rows, q0[cols]] ^= _Z3[idx]
            if leak_draws:
                leak[:, q0] |= active & (u[1] < lp)
        elif kind in (CNOT, SWAP):
            pair = np.stack((q0, q1))
            lk0, lk1 = leak[:, q0], leak[:, q1]
            neither = (1 - lk0) & (1 - lk1) if leaky else None
            propagate = propagate_cnot if kind == CNOT else propagate_swap
            propagate(x, z, q0, q1, mask=neither)
            if leaky and (stochastic or trace):
                # 1/2: the partner at position 0/1 is blocked by a leaked one
                blocked = (lk0 & (1 - lk1)) << 1 | lk1 & (1 - lk0)
                if trace:
                    slots[:, span] = blocked
            if stochastic:
                # a single leaked participant scrambles its partner
                rows, cols = _fired(blocked)
                partner = pair[blocked[rows, cols] - 1, cols]
                idx = np.minimum((u[2][rows, cols] * 4).astype(np.int64), 3)
                x[rows, partner] ^= _X4[idx]
                z[rows, partner] ^= _Z4[idx]
            if stochastic and p > 0:
                rows, cols = _fired(neither & (u[0] < p))
                idx = np.minimum((u[0][rows, cols] / p * 15).astype(np.int64), 14)
                x[rows, q0[cols]] ^= _X15A[idx]
                z[rows, q0[cols]] ^= _Z15A[idx]
                x[rows, q1[cols]] ^= _X15B[idx]
                z[rows, q1[cols]] ^= _Z15B[idx]
            if leak_draws:
                rows, cols = _fired(neither & (u[1] < lp))
                nv = len(layer.leak_victims)
                vic = np.minimum((u[1][rows, cols] / lp[cols] * nv).astype(np.int64), nv - 1)
                leak[rows, pair[np.array(layer.leak_victims)[vic], cols]] = 1
        elif kind == MEAS_Z:
            bit = x[:, q0] ^ (u[0] < p) if stochastic else x[:, q0]
            if leaky:
                lk = leak[:, q0].astype(bool)
                if trace:
                    slots[:, span] = lk * np.uint8(3)
                junk = (u[1] < 0.5).astype(np.uint8) if stochastic else np.uint8(0)
                bit = np.where(lk, junk, bit)
            flat[:, layer.slot] ^= bit
            # measure-and-reset clears the frame and any leakage before reuse
            x[:, q0] = 0
            z[:, q0] = 0
            leak[:, q0] = 0
        else:  # pragma: no cover - build_program emits only the kinds above
            raise ValueError(f"unknown gate kind {kind}")

        if injected:
            if leak_at[li]:
                leak[leak_at[li]] = 1
            if pauli_at[li]:
                rows, qubits, px, pz = pauli_at[li]
                np.bitwise_xor.at(x, (rows, qubits), px)
                np.bitwise_xor.at(z, (rows, qubits), pz)
            if flip_at[li]:
                np.bitwise_xor.at(flat, flip_at[li], 1)

    # final transversal readout of the data carriers
    carrier = program.final_data_carrier
    leak_c = leak[:, carrier].astype(bool)
    junk_x = junk_z = np.uint8(0)
    if stochastic:
        ro = compiled.readout_offset
        U_read = U[:, ro : ro + 2 * lat.n_data].reshape(n_rows, lat.n_data, 2)
        junk_x = (U_read[:, :, 0] < 0.5).astype(np.uint8)
        junk_z = (U_read[:, :, 1] < 0.5).astype(np.uint8)
    data_x = np.where(leak_c, junk_x, x[:, carrier])
    data_z = np.where(leak_c, junk_z, z[:, carrier])
    if injected:
        np.bitwise_xor.at(data_x, (ro_rows, ro_edges), ro_x)
        np.bitwise_xor.at(data_z, (ro_rows, ro_edges), ro_z)

    z_syn, x_syn = lat.syndrome_of(data_x, data_z)
    syndromes[:, program.n_rounds, 0] = z_syn
    syndromes[:, program.n_rounds, 1] = x_syn

    return BatchResult(
        syndromes=syndromes,
        data_x=data_x,
        data_z=data_z,
        leak_final=leak.astype(bool),
        slots=slots,
    )
