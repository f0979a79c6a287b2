"""Pauli algebra, error frames, and the deterministic random-stream contract.

Paulis are phase-free and encoded as (x, z) bit pairs: I=(0,0), X=(1,0),
Z=(0,1), Y=(1,1).  An error frame over n qubits is a pair of uint8 bit
vectors (xbits, zbits); composing frames is element-wise XOR.  Clifford
gates act on frames by conjugation, implemented as bit manipulations that
work on any array whose last axis indexes qubits, so the same rules act on
one frame or on a batch of frames.
"""

from __future__ import annotations

import mmap

import numpy as np

# Canonical single-qubit Paulis in (x, z) encoding.
PAULI_I = (0, 0)
PAULI_X = (1, 0)
PAULI_Y = (1, 1)
PAULI_Z = (0, 1)

PAULI_NAMES = {PAULI_I: "I", PAULI_X: "X", PAULI_Y: "Y", PAULI_Z: "Z"}
PAULI_BY_NAME = {v: k for k, v in PAULI_NAMES.items()}

# Fixed orders used by the noise sub-decoders.  PAULI1_ERRORS[k] is the k-th
# nontrivial single-qubit error; PAULI2_ERRORS[k] the k-th nontrivial pair.
PAULI1_ERRORS = (PAULI_X, PAULI_Y, PAULI_Z)
PAULI2_ERRORS = tuple(
    (a, b)
    for a in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
    for b in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
)[1:]  # drop II
PAULI4 = (PAULI_I,) + PAULI1_ERRORS  # uniform partner draw alphabet


# --- Clifford conjugation rules -------------------------------------------
# Each rule mutates (x, z) in place; the last axis indexes qubits so the same
# code handles a single frame (1-D) or a batch of frames (2-D).  A ``mask``
# (0/1 or bool, one entry per frame) limits a rule to the frames it selects;
# swaps are XOR exchanges, so masked and unmasked rules share one code path.


def propagate_h(x: np.ndarray, z: np.ndarray, q: int, mask: np.ndarray | None = None) -> None:
    """H on qubit q swaps the X and Z components (Y is fixed)."""
    diff = x[..., q] ^ z[..., q]
    if mask is not None:
        diff &= mask
    x[..., q] ^= diff
    z[..., q] ^= diff


def propagate_cnot(
    x: np.ndarray, z: np.ndarray, control: int, target: int, mask: np.ndarray | None = None
) -> None:
    """CNOT copies X from control to target and Z from target to control."""
    if control == target:
        raise ValueError("control and target must differ")
    if mask is None:
        x[..., target] ^= x[..., control]
        z[..., control] ^= z[..., target]
    else:
        x[..., target] ^= x[..., control] & mask
        z[..., control] ^= z[..., target] & mask


def propagate_swap(
    x: np.ndarray, z: np.ndarray, a: int, b: int, mask: np.ndarray | None = None
) -> None:
    """SWAP exchanges both components between qubits a and b."""
    for bits in (x, z):
        diff = bits[..., a] ^ bits[..., b]
        if mask is not None:
            diff &= mask
        bits[..., a] ^= diff
        bits[..., b] ^= diff


# --- Deterministic random streams -----------------------------------------


def shot_uniforms(master_seed: int, shot_index: int, n_draws: int) -> np.ndarray:
    """The canonical uniform draw sequence for one shot.

    Identical (master_seed, shot_index) always yields an identical sequence,
    regardless of execution order across shots — the reproducibility contract
    every stochastic component relies on.
    """
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, shot_index])))
    return gen.random(n_draws)


def batch_uniforms(master_seed: int, shot_start: int, n_shots: int, n_draws: int) -> np.ndarray:
    """Stacked per-shot draw rows, bit-identical to ``shot_uniforms`` per row.

    The matrix lives in its own anonymous memory mapping, so freeing it
    unmaps its pages.  A heap block of that size would stay with the process
    after each batch, and the allocations made between batches would split
    it, so the next batch's matrix could grow the heap again: a sweep's peak
    memory would then depend on heap layout alone.
    """
    mapping = mmap.mmap(-1, max(8 * n_shots * n_draws, 1))
    out = np.frombuffer(mapping, dtype=np.float64, count=n_shots * n_draws)
    out = out.reshape(n_shots, n_draws)
    for i in range(n_shots):
        out[i] = shot_uniforms(master_seed, shot_start + i, n_draws)
    return out
