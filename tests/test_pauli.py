"""Frame-propagation rules checked against brute-force unitary conjugation,
and the batch draws checked against numpy's own seeding objects."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import PAULI_BY_NAME, shot_uniforms
from toricleak.pauli import (
    PAULI1_ERRORS,
    PAULI2_ERRORS,
    _pcg64_states,
    _seed_states,
    batch_uniforms,
    propagate_cnot,
    propagate_h,
    propagate_swap,
)

# --- independent oracle: explicit matrices --------------------------------

_M = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _kron(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def _pauli_matrix(labels: str) -> np.ndarray:
    return _kron([_M[c] for c in labels])


def _embed(gate: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Unitary acting as `gate` on `qubits` (in order) and identity elsewhere."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in qubits]
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = 0
        for q in qubits:
            sub_in = (sub_in << 1) | bits[q]
        for sub_out in range(2 ** len(qubits)):
            amp = gate[sub_out, sub_in]
            if amp == 0:
                continue
            new_bits = list(bits)
            for i, q in enumerate(qubits):
                new_bits[q] = (sub_out >> (len(qubits) - 1 - i)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            out[row, col] += amp
    return out


def _identify_pauli(mat: np.ndarray, n: int) -> str:
    """Match a matrix to a Pauli string up to global phase, or fail."""
    for labels in itertools.product("IXYZ", repeat=n):
        p = _pauli_matrix("".join(labels))
        tr = np.trace(p.conj().T @ mat) / 2**n
        if abs(abs(tr) - 1.0) < 1e-9:
            return "".join(labels)
    raise AssertionError("conjugation result is not a Pauli")


def _frame_from_labels(labels: str) -> tuple[np.ndarray, np.ndarray]:
    """The (x, z) bit vectors of a Pauli string."""
    x, z = zip(*(PAULI_BY_NAME[c] for c in labels))
    return np.array(x, dtype=np.uint8), np.array(z, dtype=np.uint8)


def _labels_from_frame(x: np.ndarray, z: np.ndarray) -> str:
    names = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    return "".join(names[int(a), int(b)] for a, b in zip(x, z))


_GATES = [
    ("H", _H, (0,)),
    ("H", _H, (1,)),
    ("H", _H, (2,)),
    ("CNOT", _CNOT, (0, 1)),
    ("CNOT", _CNOT, (1, 0)),
    ("CNOT", _CNOT, (0, 2)),
    ("CNOT", _CNOT, (2, 1)),
    ("SWAP", _SWAP, (0, 1)),
    ("SWAP", _SWAP, (1, 2)),
    ("SWAP", _SWAP, (0, 2)),
]


@pytest.mark.parametrize("name,gate,qubits", _GATES)
def test_propagation_matches_unitary_conjugation(name, gate, qubits):
    """Exhaustive over all 64 three-qubit Pauli inputs per gate placement."""
    n = 3
    u = _embed(gate, qubits, n)
    for labels in itertools.product("IXYZ", repeat=n):
        labels = "".join(labels)
        expected = _identify_pauli(u @ _pauli_matrix(labels) @ u.conj().T, n)
        x, z = _frame_from_labels(labels)
        if name == "H":
            propagate_h(x, z, qubits[0])
        elif name == "CNOT":
            propagate_cnot(x, z, qubits[0], qubits[1])
        else:
            propagate_swap(x, z, qubits[0], qubits[1])
        assert _labels_from_frame(x, z) == expected, f"{name}{qubits} on {labels}"


def test_error_orders():
    assert len(PAULI1_ERRORS) == 3 and len(set(PAULI1_ERRORS)) == 3
    assert len(PAULI2_ERRORS) == 15 and (0, 0) != PAULI2_ERRORS[0]
    assert len(set(PAULI2_ERRORS)) == 15


def test_cnot_rejects_equal_qubits():
    x, z = np.zeros(2, dtype=np.uint8), np.zeros(2, dtype=np.uint8)
    with pytest.raises(ValueError):
        propagate_cnot(x, z, 1, 1)


@given(st.integers(2, 6), st.data())
def test_propagation_linearity(n, data):
    """propagate_G(f XOR g) == propagate_G(f) XOR propagate_G(g)."""
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    fx = np.array(data.draw(bits), dtype=np.uint8)
    fz = np.array(data.draw(bits), dtype=np.uint8)
    gx = np.array(data.draw(bits), dtype=np.uint8)
    gz = np.array(data.draw(bits), dtype=np.uint8)
    q = data.draw(st.integers(0, n - 1))
    q2 = data.draw(st.integers(0, n - 1).filter(lambda v: v != q))
    for op in (
        lambda x, z: propagate_h(x, z, q),
        lambda x, z: propagate_cnot(x, z, q, q2),
        lambda x, z: propagate_swap(x, z, q, q2),
    ):
        ax, az = fx ^ gx, fz ^ gz
        op(ax, az)
        bx, bz = fx.copy(), fz.copy()
        cx, cz = gx.copy(), gz.copy()
        op(bx, bz)
        op(cx, cz)
        assert np.array_equal(ax, bx ^ cx) and np.array_equal(az, bz ^ cz)


@given(st.integers(2, 6), st.data())
def test_propagation_involution(n, data):
    """Applying H (or CNOT, or SWAP) twice is the identity on frames."""
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    x = np.array(data.draw(bits), dtype=np.uint8)
    z = np.array(data.draw(bits), dtype=np.uint8)
    q = data.draw(st.integers(0, n - 1))
    q2 = data.draw(st.integers(0, n - 1).filter(lambda v: v != q))
    for op in (
        lambda a, b: propagate_h(a, b, q),
        lambda a, b: propagate_cnot(a, b, q, q2),
        lambda a, b: propagate_swap(a, b, q, q2),
    ):
        x2, z2 = x.copy(), z.copy()
        op(x2, z2)
        op(x2, z2)
        assert np.array_equal(x2, x) and np.array_equal(z2, z)


def test_masked_propagation_matches_per_row():
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2, size=(8, 5)).astype(np.uint8)
    z = rng.integers(0, 2, size=(8, 5)).astype(np.uint8)
    mask = rng.integers(0, 2, size=8).astype(bool)
    for op, args in (
        (propagate_h, (2,)),
        (propagate_cnot, (1, 3)),
        (propagate_swap, (0, 4)),
    ):
        bx, bz = x.copy(), z.copy()
        op(bx, bz, *args, mask=mask)
        for i in range(8):
            rx, rz = x[i].copy(), z[i].copy()
            if mask[i]:
                op(rx, rz, *args)
            assert np.array_equal(bx[i], rx) and np.array_equal(bz[i], rz)


def test_shot_stream_reproducible_and_independent():
    a = shot_uniforms(12345, 7, 100)
    b = shot_uniforms(12345, 7, 100)
    c = shot_uniforms(12345, 8, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    batch = batch_uniforms(12345, 7, 2, 100)
    assert np.array_equal(batch[0], a)
    assert np.array_equal(batch[1], c)


# --- batch seeding against numpy's SeedSequence and PCG64 -----------------
# These tests restate numpy's seeding: if a numpy release changes it, they
# fail here before any frozen-seed output drifts.

EDGE_SEEDS = [0, 7, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
# (shot_start, n_shots): small indices, indices past 2**32, a batch that
# straddles 2**32, and one that straddles 2**64 (a five-word entropy)
SHOT_RANGES = [(0, 5), (2**32 + 11, 3), (2**40, 2), (2**32 - 3, 6), (2**64 - 2, 4)]


def _assert_numpy_seeding(master_seed, shot_start, n_shots):
    seeds = _seed_states(master_seed, shot_start, n_shots)
    assert seeds.shape == (n_shots, 4) and seeds.dtype == np.uint64
    for i, row, (state, inc) in zip(range(shot_start, shot_start + n_shots), seeds,
                                    _pcg64_states(seeds)):
        sequence = np.random.SeedSequence([master_seed, i])
        np.testing.assert_array_equal(row, sequence.generate_state(4, np.uint64))
        expected = np.random.PCG64(sequence).state["state"]
        assert (state, inc) == (expected["state"], expected["inc"]), i


@pytest.mark.parametrize("master_seed", EDGE_SEEDS)
@pytest.mark.parametrize("shot_start,n_shots", SHOT_RANGES)
def test_seeded_states_equal_numpy_seeding(master_seed, shot_start, n_shots):
    _assert_numpy_seeding(master_seed, shot_start, n_shots)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(1, 3))
def test_seeded_states_equal_numpy_seeding_for_any_seed(master_seed, shot_start, n_shots):
    _assert_numpy_seeding(master_seed, shot_start, n_shots)


@pytest.mark.parametrize(
    "master_seed,shot_start,n_shots,n_draws",
    [(7, 0, 300, 37), (2**64 - 1, 2**32 - 3, 6, 1440), (2**32, 2**33, 129, 5), (12345, 7, 1, 1)],
)
def test_batches_equal_stacked_reference_rows(master_seed, shot_start, n_shots, n_draws):
    """Row i is shot ``shot_start + i``'s stream, bit for bit, stored
    column-major; 300 and 129 shots span several of the drawing's row blocks."""
    batch = batch_uniforms(master_seed, shot_start, n_shots, n_draws)
    assert batch.shape == (n_shots, n_draws) and batch.flags.f_contiguous
    rows = [shot_uniforms(master_seed, shot_start + i, n_draws) for i in range(n_shots)]
    np.testing.assert_array_equal(batch.view(np.uint64), np.stack(rows).view(np.uint64))


@pytest.mark.parametrize("n_shots,n_draws", [(0, 40), (5, 0), (0, 0)])
def test_empty_batches(n_shots, n_draws):
    batch = batch_uniforms(3, 10, n_shots, n_draws)
    assert batch.shape == (n_shots, n_draws) and batch.flags.f_contiguous
    assert batch.dtype == np.float64


def test_negative_seeds_and_indices_are_rejected():
    for master_seed, shot_start in ((-1, 0), (0, -2)):
        with pytest.raises(ValueError, match="non-negative"):
            batch_uniforms(master_seed, shot_start, 3, 4)
        with pytest.raises(ValueError, match="non-negative"):
            np.random.SeedSequence([master_seed, shot_start])
