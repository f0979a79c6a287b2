"""Geometry of the distance-d toric code.

Data qubits live on the 2·d² edges of a d×d square lattice with periodic
boundaries: h(r,c) is the horizontal edge from vertex (r,c) to (r,c+1) and
v(r,c) the vertical edge from (r,c) to (r+1,c).  Z-type checks sit on
vertices (star of 4 edges), X-type checks on plaquettes (boundary of 4
edges).  Check supports are stored in a fixed neighbour order
N/W/E/S (Z) and N/E/W/S (X), which is also the CNOT schedule.

Physical qubit ids: edges 0..2d²-1, Z-ancillas 2d²..3d²-1, X-ancillas
3d²..4d²-1, and (with spares) Z-spares 4d²..5d²-1, X-spares 5d²..6d²-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Z = "Z"
X = "X"

# Neighbour orders double as the CNOT schedule (one CNOT layer per
# position).  The orders interleave so that no data qubit is touched twice
# in one layer.
Z_ORDER = ("N", "W", "E", "S")
X_ORDER = ("N", "E", "W", "S")


class InvalidDistanceError(ValueError):
    pass


@dataclass(frozen=True)
class ToricLattice:
    """Distance-d toric code layout, immutable after construction."""

    d: int
    with_spares: bool
    n_data: int
    n_qubits: int
    # Support arrays indexed [site, position]; positions follow Z_ORDER / X_ORDER.
    z_support: np.ndarray
    x_support: np.ndarray
    x_logicals: tuple[tuple[int, ...], tuple[int, ...]]
    z_logicals: tuple[tuple[int, ...], tuple[int, ...]]

    # -- id helpers --------------------------------------------------------
    def h(self, r: int, c: int) -> int:
        d = self.d
        return (r % d) * d + (c % d)

    def v(self, r: int, c: int) -> int:
        d = self.d
        return d * d + (r % d) * d + (c % d)

    def z_ancilla(self, site: int) -> int:
        return 2 * self.d**2 + site

    def x_ancilla(self, site: int) -> int:
        return 3 * self.d**2 + site

    def z_spare(self, site: int) -> int:
        if not self.with_spares:
            raise ValueError("lattice built without spares")
        return 4 * self.d**2 + site

    def x_spare(self, site: int) -> int:
        if not self.with_spares:
            raise ValueError("lattice built without spares")
        return 5 * self.d**2 + site

    # -- syndromes and parities -------------------------------------------
    def syndrome_of(self, x_bits: np.ndarray, z_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ideal syndrome of a data frame.

        Z-check bit = parity of X components on its 4 edges; X-check bit =
        parity of Z components.  Accepts frames over data edges only or over
        all physical qubits (extra entries are ignored).
        """
        if x_bits.shape[-1] < self.n_data or z_bits.shape[-1] < self.n_data:
            raise ValueError("frame smaller than data-qubit count")
        z_syn = np.bitwise_xor.reduce(x_bits[..., self.z_support], axis=-1)
        x_syn = np.bitwise_xor.reduce(z_bits[..., self.x_support], axis=-1)
        return z_syn, x_syn

    def logical_parities(self, x_bits: np.ndarray, z_bits: np.ndarray) -> np.ndarray:
        """Four bits: residual X overlaps Z-logical 1/2, residual Z overlaps X-logical 1/2.

        Bit i set means the residual anticommutes with logical i in the order
        (X_L1, X_L2, Z_L1, Z_L2): an X-type residual crossing Z_L1 flips the
        first logical qubit's X parity, etc.
        """
        zl1, zl2 = self.z_logicals
        xl1, xl2 = self.x_logicals
        bits = np.stack(
            [
                np.bitwise_xor.reduce(x_bits[..., list(zl1)], axis=-1),
                np.bitwise_xor.reduce(x_bits[..., list(zl2)], axis=-1),
                np.bitwise_xor.reduce(z_bits[..., list(xl1)], axis=-1),
                np.bitwise_xor.reduce(z_bits[..., list(xl2)], axis=-1),
            ],
            axis=-1,
        )
        return bits


def build_lattice(d: int, with_spares: bool = False) -> ToricLattice:
    """Construct the distance-d toric lattice (d odd, ≥ 3)."""
    if d < 3 or d % 2 == 0:
        raise InvalidDistanceError(f"distance must be odd and >= 3, got {d}")
    dd = d * d
    n_data = 2 * dd
    n_qubits = 6 * dd if with_spares else 4 * dd

    def h(r, c):
        return (r % d) * d + (c % d)

    def v(r, c):
        return dd + (r % d) * d + (c % d)

    z_support = np.zeros((dd, 4), dtype=np.int64)
    x_support = np.zeros((dd, 4), dtype=np.int64)
    for r in range(d):
        for c in range(d):
            s = r * d + c
            # star at vertex (r,c), order N W E S
            z_support[s] = (v(r - 1, c), h(r, c - 1), h(r, c), v(r, c))
            # plaquette at (r,c), order N E W S
            x_support[s] = (h(r, c), v(r, c + 1), v(r, c), h(r + 1, c))

    x_logicals = (
        tuple(h(0, c) for c in range(d)),  # horizontal loop of h-edges
        tuple(v(r, 0) for r in range(d)),  # vertical loop of v-edges
    )
    z_logicals = (
        tuple(h(r, 0) for r in range(d)),  # column of h-edges
        tuple(v(0, c) for c in range(d)),  # row of v-edges
    )
    return ToricLattice(
        d=d,
        with_spares=with_spares,
        n_data=n_data,
        n_qubits=n_qubits,
        z_support=z_support,
        x_support=x_support,
        x_logicals=x_logicals,
        z_logicals=z_logicals,
    )
