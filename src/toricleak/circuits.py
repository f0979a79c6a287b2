"""Gate programs for one memory experiment: six syndrome-extraction variants.

A program is a list of rounds; each round is a list of :class:`GateOp` grouped
into integer timesteps (moments).  Gates address *physical* qubit ids, and
each gate's label records the role (data edge, check ancilla, spare) of every
qubit it touches.  Role-exchanging variants move states between physical
qubits; ``final_data_carrier`` says which qubit holds each data edge at
readout, so they stay decodable.

Every variant runs the same round schedule, with Z checks before X checks in
each moment:

    prep, (H on X ancillas), CNOT layers k = 1..4, (H), measure, (SWAP)

The k-th CNOT of a check touches the k-th edge of its support (``Z_ORDER`` /
``X_ORDER``).  An X ancilla is turned to the X basis before its first CNOT
unless that CNOT is reversed, and turned back before measurement if an odd
number of H gates has acted on it by then.  ``_SCHEDULES`` states how each
variant departs from ``standard``:

standard        static roles; no departures.
swap_lrc        an end-of-round SWAP between every check ancilla and its
                designated N data neighbour, every round.
swap_alt        the end-of-round SWAP only in odd rounds (0-indexed), so the
                circuit alternates standard/swap starting standard.
gate_biased     swap_lrc with every X-check CNOT reversed (data becomes the
                control) via H conjugation on the data; leftover H·H identity
                pairs on the ancilla stay at the junctions after CNOTs 2-4,
                adding exactly 12 single-qubit gates per X-check circuit.
gate_biased_opt only the 1st and 2nd X-check CNOTs are reversed, with one H on
                the ancilla after the 2nd, adding exactly 4 single-qubit gates
                per X-check circuit.
mixed_lrc       swap_lrc with doubled ancillas: a freshly prepared spare is
                swapped in for each check ancilla between the 2nd and 3rd
                CNOT, so the three physical qubits per check rotate through
                (active, fresh, data-partner) roles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import X, Z, ToricLattice, build_lattice

PREP_Z = "PrepZ"
H = "H"
CNOT = "CNOT"
SWAP = "SWAP"
MEAS_Z = "MeasZ"

ROLE_DATA = "data"
ROLE_ZANC = "ancillaZ"
ROLE_XANC = "ancillaX"
ROLE_SPARE = "spare"


@dataclass(frozen=True)
class _Schedule:
    """How one variant's round departs from the standard round."""

    reversed_x: tuple[int, ...] = ()  # X-check CNOT ordinals reversed by H on the data
    ancilla_h: tuple[int, ...] = (0, 0, 0, 0)  # H gates on each X ancilla after layer k
    spare_swap: bool = False  # swap a fresh spare in for each ancilla after layer 2
    swap_period: int = 0  # end-of-round SWAP in rounds r with r % period == period - 1


_SCHEDULES = {
    "standard": _Schedule(),
    "swap_lrc": _Schedule(swap_period=1),
    "swap_alt": _Schedule(swap_period=2),
    "gate_biased": _Schedule((1, 2, 3, 4), (0, 2, 2, 2), swap_period=1),
    "gate_biased_opt": _Schedule((1, 2), (0, 1, 0, 0), swap_period=1),
    "mixed_lrc": _Schedule(spare_swap=True, swap_period=1),
}
VARIANTS = tuple(_SCHEDULES)


@dataclass(frozen=True)
class FaultLocation:
    """Identity of a gate as a fault-injection site."""

    round: int
    gate_index: int
    kind: str
    cnot_ordinal: int  # 0 unless this is one of a check's 4 CNOTs
    roles: tuple[str, ...]  # role of each touched qubit at this gate
    check: tuple[str, int]  # owning check (type, site)


@dataclass(frozen=True)
class GateOp:
    kind: str
    qubits: tuple[int, ...]
    step: int
    label: FaultLocation


@dataclass
class CircuitProgram:
    """Timestep-ordered gate program of ``n_rounds`` syndrome rounds."""

    variant: str
    lattice: ToricLattice
    n_rounds: int
    rounds: list[list[GateOp]]
    final_data_carrier: np.ndarray  # edge id -> physical qubit, after the last round's swaps

    def all_gates(self):
        for r, gates in enumerate(self.rounds):
            for g in gates:
                yield r, g


def partner_edges(lat: ToricLattice) -> tuple[np.ndarray, np.ndarray]:
    """Designated SWAP-LRC partner (the N neighbour) for each Z and X check."""
    return lat.z_support[:, 0].copy(), lat.x_support[:, 0].copy()


class _RoundBuilder:
    """Accumulates one round's gates with automatic labels and moments."""

    def __init__(self, round_index: int):
        self.r = round_index
        self.gates: list[GateOp] = []
        self.step = 0

    def layer(self, kind, check_type, qubits, roles, ordinal=0):
        """One gate per check site; ``qubits`` holds one per-site column per operand."""
        roles = tuple(roles)
        for s, qs in enumerate(zip(*qubits)):
            label = FaultLocation(self.r, len(self.gates), kind, ordinal, roles, (check_type, s))
            self.gates.append(GateOp(kind, tuple(int(q) for q in qs), self.step, label))

    def next_moment(self):
        self.step += 1


def build_program(variant: str, d: int, n_rounds: int) -> CircuitProgram:
    """Build any of the six variants for ``n_rounds`` syndrome rounds."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    sched = _SCHEDULES[variant]
    lat = build_lattice(d, with_spares=sched.spare_swap)
    sites = np.arange(d * d)
    checks = (Z, X)
    anc_role = {Z: ROLE_ZANC, X: ROLE_XANC}
    support = {Z: lat.z_support, X: lat.x_support}
    partner = dict(zip(checks, partner_edges(lat)))
    anc = {Z: lat.z_ancilla(sites), X: lat.x_ancilla(sites)}
    spare = {Z: lat.z_spare(sites), X: lat.x_spare(sites)} if sched.spare_swap else {}
    h_first = 1 not in sched.reversed_x
    h_last = (h_first + sum(sched.ancilla_h)) % 2 == 1

    carrier = np.arange(lat.n_data)  # edge id -> physical qubit, updated by swaps
    rounds: list[list[GateOp]] = []

    for r in range(n_rounds):
        rb = _RoundBuilder(r)

        def x_ancilla_h():
            rb.layer(H, X, [anc[X]], [ROLE_XANC])
            rb.next_moment()

        for t in checks:
            rb.layer(PREP_Z, t, [anc[t]], [anc_role[t]])
        for t in spare:
            rb.layer(PREP_Z, t, [spare[t]], [ROLE_SPARE])
        rb.next_moment()
        if h_first:
            x_ancilla_h()

        for k in (1, 2, 3, 4):
            data = {t: carrier[support[t][:, k - 1]] for t in checks}
            biased = k in sched.reversed_x
            if biased:
                rb.layer(H, X, [data[X]], [ROLE_DATA])
                rb.next_moment()
            for t in checks:
                cols = [data[t], anc[t]]
                roles = [ROLE_DATA, anc_role[t]]
                if t == X and not biased:  # the ancilla controls
                    cols.reverse()
                    roles.reverse()
                rb.layer(CNOT, t, cols, roles, k)
            rb.next_moment()
            if biased:
                rb.layer(H, X, [data[X]], [ROLE_DATA])
                rb.next_moment()
            for _ in range(sched.ancilla_h[k - 1]):
                x_ancilla_h()
            if spare and k == 2:
                for t in checks:
                    rb.layer(SWAP, t, [anc[t], spare[t]], [anc_role[t], ROLE_SPARE])
                rb.next_moment()
                for t in checks:  # the fresh qubit now carries the check
                    anc[t], spare[t] = spare[t], anc[t]

        if h_last:
            x_ancilla_h()
        for t in checks:
            rb.layer(MEAS_Z, t, [anc[t]], [anc_role[t]])
        rb.next_moment()

        period = sched.swap_period
        if period and r % period == period - 1:
            for t in checks:
                rb.layer(SWAP, t, [anc[t], carrier[partner[t]]], [anc_role[t], ROLE_DATA])
            rb.next_moment()
            for t in checks:  # roles follow the physical exchanges
                anc[t], carrier[partner[t]] = carrier[partner[t]], anc[t]
        rounds.append(rb.gates)

    return CircuitProgram(
        variant=variant,
        lattice=lat,
        n_rounds=n_rounds,
        rounds=rounds,
        final_data_carrier=carrier.copy(),
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
            lines.append(
                "gate %d step=%d kind=%s qubits=%s ordinal=%d roles=%s check=%s"
                % (
                    g.label.gate_index,
                    g.step,
                    g.kind,
                    ",".join(map(str, g.qubits)),
                    g.label.cnot_ordinal,
                    ",".join(g.label.roles),
                    "%s:%d" % g.label.check,
                )
            )
    return "\n".join(lines) + "\n"
