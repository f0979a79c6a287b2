"""Gate-by-gate single-shot executor, kept only as the tests' reference.

It resolves one shot with plain Python per gate and shares no propagation
code with :mod:`toricleak.vector`, so comparing the two bit for bit checks
the vectorised executor against an independent reading of the same rules:
each gate's action, then its draws from the static slot layout (none: every
draw takes its null outcome), then the scripted injections at that gate.
Its gates are ``oracles.gate_records``, read from the program and the
noise model, not from the compiled gate table.
"""

from __future__ import annotations

import numpy as np

from oracles import gate_records
from toricleak.circuits import CNOT, H, MEAS_Z, PREP_Z, SWAP
from toricleak.pauli import PAULI1_ERRORS, PAULI2_ERRORS, PAULI4, PAULI_X


def _sub(u: float, prob: float, n: int) -> int:
    """Index in [0, n) from a uniform known to be below ``prob``."""
    return min(int(u / prob * n), n - 1)


def reference_shot(compiled, uniforms=None, script=None):
    """``(syndromes, data_x, data_z, leak_final, trace)`` of one shot."""
    program, lat, noise = compiled.program, compiled.lattice, compiled.noise
    u = uniforms
    x, z, leak = [0] * lat.n_qubits, [0] * lat.n_qubits, [False] * lat.n_qubits
    syndromes = np.zeros((program.n_rounds + 1, 2, lat.d * lat.d), dtype=np.uint8)
    trace = []

    def flip(q, pauli):
        x[q] ^= pauli[0]
        z[q] ^= pauli[1]

    for gi, g in enumerate(gate_records(compiled)):
        q0, q1, off = g.q0, g.q1, g.draw_offset
        if g.kind == PREP_Z:
            x[q0] = z[q0] = 0
            leak[q0] = False
            if u is not None and u[off] < noise.p:
                flip(q0, PAULI_X)
            if u is not None and g.leak_victims and u[off + 1] < g.leak_prob:
                leak[q0] = True
        elif g.kind == H:
            if not leak[q0]:
                x[q0], z[q0] = z[q0], x[q0]
                if u is not None and u[off] < noise.p:
                    flip(q0, PAULI1_ERRORS[_sub(u[off], noise.p, 3)])
                if u is not None and g.leak_victims and u[off + 1] < g.leak_prob:
                    leak[q0] = True
        elif g.kind in (CNOT, SWAP):
            if leak[q0] != leak[q1]:  # blocked; the unleaked partner is scrambled
                trace.append(("pair", gi, 1 if leak[q0] else 0))
                if u is not None:
                    flip(q1 if leak[q0] else q0, PAULI4[min(int(u[off + 2] * 4), 3)])
            elif not leak[q0]:
                if g.kind == CNOT:
                    x[q1] ^= x[q0]
                    z[q0] ^= z[q1]
                else:
                    x[q0], x[q1], z[q0], z[q1] = x[q1], x[q0], z[q1], z[q0]
                if u is not None and u[off] < noise.p:
                    a, b = PAULI2_ERRORS[_sub(u[off], noise.p, 15)]
                    flip(q0, a)
                    flip(q1, b)
                if u is not None and g.leak_victims and u[off + 1] < g.leak_prob:
                    pos = g.leak_victims[_sub(u[off + 1], g.leak_prob, len(g.leak_victims))]
                    leak[(q0, q1)[pos]] = True
        elif g.kind == MEAS_Z:
            if not leak[q0]:
                bit = x[q0] ^ int(u is not None and u[off] < noise.p)
            else:
                trace.append(("measbit", gi))
                bit = int(u is not None and u[off + 1] < 0.5)
            if script is not None and gi in script.meas_flips:
                bit ^= 1
            syndromes[g.round_index, g.check_type, g.check_site] ^= bit
            x[q0] = z[q0] = 0
            leak[q0] = False
        if script is not None:
            touched = (q0,) if q1 < 0 else (q0, q1)
            for pos, q in enumerate(touched):
                if (gi, pos) in script.leaks:
                    leak[q] = True
            for q, pauli in zip(touched, script.paulis.get(gi, ())):
                flip(q, pauli)

    data_x = np.zeros(lat.n_data, dtype=np.uint8)
    data_z = np.zeros(lat.n_data, dtype=np.uint8)
    for e, q in enumerate(program.final_data_carrier):
        if not leak[q]:
            data_x[e], data_z[e] = x[q], z[q]
        else:
            trace.append(("readout", e))
            if u is not None:
                slot = compiled.readout_offset + 2 * e
                data_x[e], data_z[e] = u[slot] < 0.5, u[slot + 1] < 0.5
        if script is not None and e in script.readout_flips:
            dx, dz = script.readout_flips[e]
            data_x[e] ^= dx
            data_z[e] ^= dz
    z_syn, x_syn = lat.syndrome_of(data_x, data_z)
    syndromes[program.n_rounds, 0] = z_syn
    syndromes[program.n_rounds, 1] = x_syn
    return syndromes, data_x, data_z, np.array(leak), trace
