"""Gate programs for one memory experiment: six syndrome-extraction variants.

A program is a list of rounds; each round is a list of :class:`GateOp` grouped
into integer timesteps (moments).  Gates address *physical* qubit ids; role
maps record which physical qubit carries which role (data edge, check
ancilla, spare) in each round, so role-exchanging variants stay decodable.

Variants
--------
standard        static roles; per round: prep, (H on X-ancillas), 4 CNOT
                layers, (H), measure.
swap_lrc        standard plus an end-of-round SWAP between every check ancilla
                and its designated N data neighbour (period 1: every round).
swap_alt        swap_lrc with period 2: swaps only in odd rounds (0-indexed),
                i.e. the circuit alternates standard/swap starting standard.
gate_biased     swap_lrc with every X-check CNOT reversed (data becomes the
                control) via H conjugation; leftover H·H identity pairs on the
                ancilla are kept only at the junctions after CNOTs 2-4, adding
                exactly 12 single-qubit gates per X-check circuit.
gate_biased_opt only the 1st and 2nd X-check CNOTs are reversed, adding
                exactly 4 single-qubit gates per X-check circuit.
mixed_lrc       doubled ancillas: a freshly prepared spare is swapped in for
                each check ancilla between the 2nd and 3rd CNOT, and the
                end-of-round SWAP is retained; the three physical qubits per
                check rotate through (active, fresh, data-partner) roles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import ToricLattice, X_ORDER, Z_ORDER, build_lattice

VARIANTS = ("standard", "swap_lrc", "swap_alt", "gate_biased", "gate_biased_opt", "mixed_lrc")

PREP_Z = "PrepZ"
PREP_X = "PrepX"
H = "H"
CNOT = "CNOT"
SWAP = "SWAP"
MEAS_Z = "MeasZ"
MEAS_X = "MeasX"

ROLE_DATA = "data"
ROLE_ZANC = "ancillaZ"
ROLE_XANC = "ancillaX"
ROLE_SPARE = "spare"


@dataclass(frozen=True)
class FaultLocation:
    """Identity of a gate as a fault-injection site."""

    round: int
    gate_index: int
    kind: str
    cnot_ordinal: int  # 0 unless this is one of a check's 4 CNOTs
    roles: tuple[str, ...]  # role of each touched qubit at this gate
    check: tuple[str, int] | None  # owning check (type, site) if any


@dataclass(frozen=True)
class GateOp:
    kind: str
    qubits: tuple[int, ...]
    step: int
    label: FaultLocation


@dataclass
class CircuitProgram:
    """Timestep-ordered gate program with per-round role bookkeeping."""

    variant: str
    lattice: ToricLattice
    n_rounds: int
    rounds: list[list[GateOp]]
    role_maps: list[dict[int, str]]
    data_carriers: list[np.ndarray]  # per round: edge id -> physical qubit
    final_data_carrier: np.ndarray  # after the last round's swaps
    z_order: tuple[str, ...] = Z_ORDER
    x_order: tuple[str, ...] = X_ORDER

    @property
    def n_qubits(self) -> int:
        return self.lattice.n_qubits

    def all_gates(self):
        for r, gates in enumerate(self.rounds):
            for g in gates:
                yield r, g


def partner_edges(lat: ToricLattice) -> tuple[np.ndarray, np.ndarray]:
    """Designated SWAP-LRC partner (the N neighbour) for each Z and X check."""
    z_partner = np.array([lat.z_support[s][0] for s in range(lat.d**2)])
    x_partner = np.array([lat.x_support[s][0] for s in range(lat.d**2)])
    return z_partner, x_partner


def _order_permutation(canonical: tuple[str, ...], requested: tuple[str, ...]) -> list[int]:
    if sorted(requested) != sorted(canonical):
        raise ValueError(f"order must permute {canonical}, got {requested}")
    return [canonical.index(dirn) for dirn in requested]


class _RoundBuilder:
    """Accumulates one round's gates with automatic labels and moments."""

    def __init__(self, round_index: int):
        self.r = round_index
        self.gates: list[GateOp] = []
        self.step = 0

    def add(self, kind, qubits, roles, ordinal=0, check=None):
        label = FaultLocation(
            round=self.r,
            gate_index=len(self.gates),
            kind=kind,
            cnot_ordinal=ordinal,
            roles=tuple(roles),
            check=check,
        )
        self.gates.append(GateOp(kind, tuple(int(q) for q in qubits), self.step, label))

    def next_moment(self):
        self.step += 1


def build_program(
    variant: str,
    d: int,
    n_rounds: int,
    z_order: tuple[str, ...] = Z_ORDER,
    x_order: tuple[str, ...] = X_ORDER,
) -> CircuitProgram:
    """Build any of the six variants for ``n_rounds`` syndrome rounds."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    lat = build_lattice(d, with_spares=(variant == "mixed_lrc"))
    zperm = _order_permutation(Z_ORDER, tuple(z_order))
    xperm = _order_permutation(X_ORDER, tuple(x_order))
    n_sites = d * d

    # carrier state, updated between rounds
    edge_carrier = np.arange(lat.n_data)
    z_anc = np.array([lat.z_ancilla(s) for s in range(n_sites)])
    x_anc = np.array([lat.x_ancilla(s) for s in range(n_sites)])
    if variant == "mixed_lrc":
        z_fresh = np.array([lat.z_spare(s) for s in range(n_sites)])
        x_fresh = np.array([lat.x_spare(s) for s in range(n_sites)])
    z_partner, x_partner = partner_edges(lat)

    rounds: list[list[GateOp]] = []
    role_maps: list[dict[int, str]] = []
    data_carriers: list[np.ndarray] = []

    for r in range(n_rounds):
        rb = _RoundBuilder(r)
        role_map = {int(edge_carrier[e]): ROLE_DATA for e in range(lat.n_data)}
        for s in range(n_sites):
            role_map[int(z_anc[s])] = ROLE_ZANC
            role_map[int(x_anc[s])] = ROLE_XANC
            if variant == "mixed_lrc":
                role_map[int(z_fresh[s])] = ROLE_SPARE
                role_map[int(x_fresh[s])] = ROLE_SPARE
        role_maps.append(role_map)
        data_carriers.append(edge_carrier.copy())

        def z_data(s, ordinal):  # data carrier for a Z-check's k-th CNOT
            return edge_carrier[lat.z_support[s][zperm[ordinal - 1]]]

        def x_data(s, ordinal):
            return edge_carrier[lat.x_support[s][xperm[ordinal - 1]]]

        # --- moment 0: preparation ---------------------------------------
        for s in range(n_sites):
            rb.add(PREP_Z, [z_anc[s]], [ROLE_ZANC], check=("Z", s))
        for s in range(n_sites):
            rb.add(PREP_Z, [x_anc[s]], [ROLE_XANC], check=("X", s))
        if variant == "mixed_lrc":
            for s in range(n_sites):
                rb.add(PREP_Z, [z_fresh[s]], [ROLE_SPARE], check=("Z", s))
            for s in range(n_sites):
                rb.add(PREP_Z, [x_fresh[s]], [ROLE_SPARE], check=("X", s))
        rb.next_moment()

        # --- basis change on X ancillas (not in gate-biased variants) -----
        if variant not in ("gate_biased", "gate_biased_opt"):
            for s in range(n_sites):
                rb.add(H, [x_anc[s]], [ROLE_XANC], check=("X", s))
            rb.next_moment()

        # --- 4 CNOT layers ------------------------------------------------
        def z_cnot_layer(k):
            for s in range(n_sites):
                rb.add(
                    CNOT,
                    [z_data(s, k), z_anc[s]],
                    [ROLE_DATA, ROLE_ZANC],
                    ordinal=k,
                    check=("Z", s),
                )

        if variant in ("standard", "swap_lrc", "swap_alt"):
            for k in (1, 2, 3, 4):
                z_cnot_layer(k)
                for s in range(n_sites):
                    rb.add(
                        CNOT,
                        [x_anc[s], x_data(s, k)],
                        [ROLE_XANC, ROLE_DATA],
                        ordinal=k,
                        check=("X", s),
                    )
                rb.next_moment()
        elif variant in ("gate_biased", "gate_biased_opt"):
            reversed_ordinals = (1, 2, 3, 4) if variant == "gate_biased" else (1, 2)
            for k in (1, 2, 3, 4):
                if k in reversed_ordinals:
                    for s in range(n_sites):
                        rb.add(H, [x_data(s, k)], [ROLE_DATA], check=("X", s))
                    rb.next_moment()
                    z_cnot_layer(k)
                    for s in range(n_sites):
                        rb.add(
                            CNOT,
                            [x_data(s, k), x_anc[s]],
                            [ROLE_DATA, ROLE_XANC],
                            ordinal=k,
                            check=("X", s),
                        )
                    rb.next_moment()
                    for s in range(n_sites):
                        rb.add(H, [x_data(s, k)], [ROLE_DATA], check=("X", s))
                    rb.next_moment()
                else:
                    z_cnot_layer(k)
                    for s in range(n_sites):
                        rb.add(
                            CNOT,
                            [x_anc[s], x_data(s, k)],
                            [ROLE_XANC, ROLE_DATA],
                            ordinal=k,
                            check=("X", s),
                        )
                    rb.next_moment()
                # leftover identity pairs / basis change on the ancilla
                if variant == "gate_biased" and k in (2, 3, 4):
                    for _ in range(2):
                        for s in range(n_sites):
                            rb.add(H, [x_anc[s]], [ROLE_XANC], check=("X", s))
                        rb.next_moment()
                if variant == "gate_biased_opt" and k == 2:
                    for s in range(n_sites):
                        rb.add(H, [x_anc[s]], [ROLE_XANC], check=("X", s))
                    rb.next_moment()
        else:  # mixed_lrc
            for k in (1, 2):
                z_cnot_layer(k)
                for s in range(n_sites):
                    rb.add(
                        CNOT,
                        [x_anc[s], x_data(s, k)],
                        [ROLE_XANC, ROLE_DATA],
                        ordinal=k,
                        check=("X", s),
                    )
                rb.next_moment()
            # mid-circuit ancilla replacement between the 2nd and 3rd CNOT
            for s in range(n_sites):
                rb.add(SWAP, [z_anc[s], z_fresh[s]], [ROLE_ZANC, ROLE_SPARE], check=("Z", s))
            for s in range(n_sites):
                rb.add(SWAP, [x_anc[s], x_fresh[s]], [ROLE_XANC, ROLE_SPARE], check=("X", s))
            rb.next_moment()
            z_anc, z_fresh = z_fresh, z_anc  # the fresh qubit now carries the check
            x_anc, x_fresh = x_fresh, x_anc

            def z_data2(s, k):
                return edge_carrier[lat.z_support[s][zperm[k - 1]]]

            for k in (3, 4):
                for s in range(n_sites):
                    rb.add(
                        CNOT,
                        [z_data2(s, k), z_anc[s]],
                        [ROLE_DATA, ROLE_ZANC],
                        ordinal=k,
                        check=("Z", s),
                    )
                for s in range(n_sites):
                    rb.add(
                        CNOT,
                        [x_anc[s], edge_carrier[lat.x_support[s][xperm[k - 1]]]],
                        [ROLE_XANC, ROLE_DATA],
                        ordinal=k,
                        check=("X", s),
                    )
                rb.next_moment()

        # --- basis change back and measurement ----------------------------
        if variant != "gate_biased":  # full gb measures right after its last H pair
            for s in range(n_sites):
                rb.add(H, [x_anc[s]], [ROLE_XANC], check=("X", s))
            rb.next_moment()
        for s in range(n_sites):
            rb.add(MEAS_Z, [z_anc[s]], [ROLE_ZANC], check=("Z", s))
        for s in range(n_sites):
            rb.add(MEAS_Z, [x_anc[s]], [ROLE_XANC], check=("X", s))
        rb.next_moment()

        # --- end-of-round SWAP LRC ---------------------------------------
        swap_now = variant in ("swap_lrc", "gate_biased", "gate_biased_opt", "mixed_lrc") or (
            variant == "swap_alt" and r % 2 == 1
        )
        if swap_now:
            for s in range(n_sites):
                rb.add(
                    SWAP,
                    [z_anc[s], edge_carrier[z_partner[s]]],
                    [ROLE_ZANC, ROLE_DATA],
                    check=("Z", s),
                )
            for s in range(n_sites):
                rb.add(
                    SWAP,
                    [x_anc[s], edge_carrier[x_partner[s]]],
                    [ROLE_XANC, ROLE_DATA],
                    check=("X", s),
                )
            rb.next_moment()
            # roles follow the physical exchanges
            for s in range(n_sites):
                z_anc[s], edge_carrier[z_partner[s]] = edge_carrier[z_partner[s]], z_anc[s]
                x_anc[s], edge_carrier[x_partner[s]] = edge_carrier[x_partner[s]], x_anc[s]

        rounds.append(rb.gates)

    return CircuitProgram(
        variant=variant,
        lattice=lat,
        n_rounds=n_rounds,
        rounds=rounds,
        role_maps=role_maps,
        data_carriers=data_carriers,
        final_data_carrier=edge_carrier.copy(),
        z_order=tuple(z_order),
        x_order=tuple(x_order),
    )


# --- versioned text form ---------------------------------------------------


def program_to_text(program: CircuitProgram) -> str:
    lat = program.lattice
    lines = [
        "toricleak-circuit v1 variant=%s d=%d rounds=%d qubits=%d"
        % (program.variant, lat.d, program.n_rounds, lat.n_qubits)
    ]
    for r, gates in enumerate(program.rounds):
        lines.append(f"round {r}")
        for g in gates:
            check = "-" if g.label.check is None else "%s:%d" % g.label.check
            lines.append(
                "gate %d step=%d kind=%s qubits=%s ordinal=%d roles=%s check=%s"
                % (
                    g.label.gate_index,
                    g.step,
                    g.kind,
                    ",".join(map(str, g.qubits)),
                    g.label.cnot_ordinal,
                    ",".join(g.label.roles),
                    check,
                )
            )
    return "\n".join(lines) + "\n"
