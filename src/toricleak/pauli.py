"""Pauli algebra, error frames, and the deterministic random-stream contract.

Paulis are phase-free and encoded as (x, z) bit pairs: I=(0,0), X=(1,0),
Z=(0,1), Y=(1,1).  An error frame over n qubits is a pair of uint8 bit
vectors (xbits, zbits); composing frames is element-wise XOR.  Clifford
gates act on frames by conjugation, implemented as bit manipulations that
work on any array whose last axis indexes qubits, so the same rules act on
one frame or on a batch of frames.

Shot i of a run draws its uniforms from numpy's PCG64 seeded with
``SeedSequence([master_seed, i])``.  ``batch_uniforms`` fills a column-major
matrix with the draws of a run of consecutive shots, into the caller's
buffer when it is given one.  It hashes every shot's seed at once in numpy
uint32 arithmetic instead of building a seed sequence and a generator per
shot, and returns the same bits.
"""

from __future__ import annotations

import numpy as np

# Canonical single-qubit Paulis in (x, z) encoding.
PAULI_I = (0, 0)
PAULI_X = (1, 0)
PAULI_Y = (1, 1)
PAULI_Z = (0, 1)

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
# code handles a single frame (1-D) or a batch of frames (2-D).  Qubits may be
# arrays of pairwise-disjoint indices.  A ``mask`` (0/1 or bool, shaped like
# the selected qubits' entries) limits a rule to the entries it selects;
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
    if np.any(np.equal(control, target)):
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
# SeedSequence's entropy hash (numpy's ``bit_generator.pyx``) restated over
# uint32 arrays, then PCG64's seeding step (O'Neill, "PCG: A Family of Simple
# Fast Space-Efficient Statistically Good Algorithms for Random Number
# Generation", 2014).  The tests hold both to numpy's own objects.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4  # SeedSequence's default pool, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK_ROWS = 32  # shots drawn row by row before one copy into the matrix


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's reading of a non-negative int: 32-bit words, low first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's running hash over uint32 arrays: XOR the constant in,
    advance it, multiply by the new constant, fold the high half down."""

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _generate_state(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for every column
    of the entropy word arrays, one row per column."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    padded = entropy + [np.zeros_like(entropy[0])] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    generate = _hasher(_INIT_B, _MULT_B)
    words = np.stack([generate(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)], axis=1)
    # as numpy reads them: little-endian pairs of 32-bit words
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _seed_states(master_seed: int, shot_start: int, n_shots: int) -> np.ndarray:
    """``SeedSequence([master_seed, i]).generate_state(4, np.uint64)`` as
    row ``i - shot_start``, for shots ``i = shot_start ..``, hashed for all
    shots at once."""
    head = _uint32_words(master_seed)
    groups = [np.empty((0, 4), dtype=np.uint64)]
    lo, end = shot_start, shot_start + n_shots
    while lo < end:
        # up to the next multiple of 2**32 an index's higher words are fixed
        hi = min(end, (lo | _MASK32) + 1)
        low = np.arange(lo & _MASK32, (hi - 1 & _MASK32) + 1, dtype=np.uint32)
        higher = _uint32_words(lo >> 32) if lo >> 32 else []
        seed = [np.full(len(low), w, dtype=np.uint32) for w in head]
        index = [low] + [np.full(len(low), w, dtype=np.uint32) for w in higher]
        groups.append(_generate_state(seed + index))
        lo = hi
    return np.concatenate(groups)


def _pcg64_states(seed_states: np.ndarray) -> list[tuple[int, int]]:
    """``PCG64``'s ``(state, inc)`` seeded from each row of ``_seed_states``."""
    states = []
    for s_hi, s_lo, i_hi, i_lo in seed_states.tolist():
        # pcg64_set_seed: inc = 2*seq + 1; two LCG steps from state 0, the
        # seed added in between
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def batch_uniforms(
    master_seed: int, shot_start: int, n_shots: int, n_draws: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw rows of shots ``shot_start ..``: row i is the first ``n_draws``
    ``Generator.random`` values of ``PCG64(SeedSequence([master_seed,
    shot_start + i]))``.

    Identical ``(master_seed, shot_index)`` always yields an identical row,
    whatever the batch it lands in: the reproducibility contract every
    stochastic component relies on.  The seed words of all shots are hashed
    at once (``_seed_states``).  Then, ``_BLOCK_ROWS`` shots at a time, each
    shot's PCG64 state (``_pcg64_states``) is set on one reused generator,
    which draws the shot's row into a small block, and the block is copied
    into the matrix.  Only one block's states exist as Python ints at once.

    ``out`` is the caller's float64 (n_shots × n_draws) buffer to fill and
    return, for example the leading rows of a larger column-major buffer
    reused from one call to the next.  Without it a new column-major matrix
    is allocated, so every draw column that the executor reads is
    contiguous.
    """
    if out is None:
        out = np.empty((n_shots, n_draws), order="F")
    elif out.shape != (n_shots, n_draws) or out.dtype != np.float64:
        raise ValueError(
            f"out is a {out.dtype} array of shape {out.shape}, "
            f"not float64 of shape {(n_shots, n_draws)}"
        )
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    block = np.empty((min(n_shots, _BLOCK_ROWS), n_draws))
    seeds = _seed_states(master_seed, shot_start, n_shots)
    for start in range(0, n_shots, _BLOCK_ROWS):
        rows = block[: min(n_shots - start, _BLOCK_ROWS)]
        for row, (state, inc) in zip(rows, _pcg64_states(seeds[start : start + _BLOCK_ROWS])):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen.random(out=row)
        out[start : start + len(rows)] = rows
    return out
