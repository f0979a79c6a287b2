"""Test-side oracles: structural checks, text forms, a zero-noise model, the
Paulis by name, a compiled program's gates as records (``gate_records``,
the reference for its gate table and layers), the fault universe spec by
spec (``reference_universe``, the reference for the scanner's
column-built one), per-row fault scripts
(``Script``, and ``columns_of``, which turns them into the executor's
injection columns), lattice coordinates, the per-shot reference draws, the
bare detection events of a batch (``detection_events``, the reference for
the events inside ``decoder.judge_rows``) and its four judge bits
(``judged``), one-shot and scripted replays with their consequence slots as
tuples (``trace_of``), per-spec leak span sides as ints (``leak_sides``, the
reference for the scanner's shared unit effects, converted to the scanner's
arrays by ``side_arrays``), a row-by-row Pauli-pair judge
(``pair_failures``, the reference for the scanner's pair tables), the torus
metric, rows-first repair paths (``path_edges``, the reference for the
decoder's closed-form pair table), a reference matcher (``match_defects``
and ``reference_parities``, the scalar reference for ``Decoder.parities``)
and residual-weight analysis.

None of this is on a production path.  The tests use it to check circuits,
lattices, configs, matchings and the batch draws, to replay single shots and
fully specified faults, and to measure the residual data error such a fault
leaves at readout.  The reference matcher is a bottom-up subset DP over
every even subset, independent of the decoder's top-down one, with
networkx's blossom matching above ``_DP_LIMIT`` defects, the oracle for the
decoder's port of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from toricleak.circuits import CNOT, H, MEAS_Z, PREP_Z, SWAP, CircuitProgram, FaultLocation
from toricleak.decoder import _DP_LIMIT, Decoder, judge_rows
from toricleak.experiments import _LIST_KEYS, CONFIG_VERSION, ExperimentConfig, _fmt
from toricleak.lattice import Z, ToricLattice
from toricleak.noise import NoiseModel
from toricleak.pauli import PAULI1_ERRORS, PAULI2_ERRORS, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, batch_uniforms
from toricleak.scanner import FaultSpec, _gf2_basis
from toricleak.sim import DRAWS_PER_KIND, CompiledProgram, Injections
from toricleak.vector import BatchResult, execute


NULL_NOISE = NoiseModel(p=0.0)

PAULI_NAMES = {PAULI_I: "I", PAULI_X: "X", PAULI_Y: "Y", PAULI_Z: "Z"}
PAULI_BY_NAME = {v: k for k, v in PAULI_NAMES.items()}


# ---------------------------------------------------------------------------
# per-row scripts


@dataclass
class Script:
    """One row's deterministic fault injections, the form tests write by
    hand; ``columns_of`` gives the executor's columns.

    Keys are global gate indices, as in ``gate_records``.
    """

    leaks: set[tuple[int, int]] = field(default_factory=set)  # (gate, position)
    paulis: dict[int, tuple] = field(default_factory=dict)  # gate -> per-qubit paulis
    meas_flips: set[int] = field(default_factory=set)
    readout_flips: dict[int, tuple[int, int]] = field(default_factory=dict)  # edge -> (dx, dz)


def columns_of(scripts: list[Script | None]) -> Injections:
    """The executor's injection columns for one script per row, None
    injecting nothing; a Pauli tuple gives one entry per position, identities
    included, so that a tuple longer than its gate's qubits is refused."""
    columns: dict[str, list] = {"leaks": [], "paulis": [], "meas_flips": [], "readout_flips": []}
    for row, script in enumerate(scripts):
        if script is None:
            continue
        columns["leaks"] += [(row, gi, pos) for gi, pos in sorted(script.leaks)]
        columns["paulis"] += [(row, gi, pos, px, pz) for gi, per_qubit in script.paulis.items()
                              for pos, (px, pz) in enumerate(per_qubit)]
        columns["meas_flips"] += [(row, gi) for gi in sorted(script.meas_flips)]
        columns["readout_flips"] += [(row, e, dx, dz) for e, (dx, dz) in script.readout_flips.items()]
    return Injections(**columns)


# ---------------------------------------------------------------------------
# circuits and compiled programs


def validate_program(program: CircuitProgram) -> None:
    """Assert the structural invariants every variant must satisfy."""
    for r, gates in enumerate(program.rounds):
        by_step: dict[int, set[int]] = {}
        prepped: set[int] = set()
        for g in gates:
            used = by_step.setdefault(g.step, set())
            for q in g.qubits:
                if q in used:
                    raise AssertionError(
                        f"round {r} step {g.step}: qubit {q} used twice"
                    )
                used.add(q)
            if g.kind == PREP_Z:
                prepped.add(g.qubits[0])
            if g.kind == SWAP:
                # a swap before measurement moves the prepared state along
                if g.qubits[0] in prepped or g.qubits[1] in prepped:
                    prepped.update(g.qubits)
            if g.kind == MEAS_Z and g.qubits[0] not in prepped:
                raise AssertionError(
                    f"round {r}: measurement of unprepared qubit {g.qubits[0]}"
                )


def gate_counts(program: CircuitProgram, round_index: int = 0) -> dict[str, int]:
    counts: dict[str, int] = {}
    for g in program.rounds[round_index]:
        counts[g.kind] = counts.get(g.kind, 0) + 1
    return counts


def x_check_single_qubit_gates(program: CircuitProgram, round_index: int = 0) -> int:
    """Single-qubit gates belonging to one X-check circuit (uniform over sites)."""
    per_site: dict[int, int] = {}
    for g in program.rounds[round_index]:
        if g.kind == H and g.label.check[0] == "X":
            per_site[g.label.check[1]] = per_site.get(g.label.check[1], 0) + 1
    values = set(per_site.values()) or {0}
    if len(values) != 1:
        raise AssertionError(f"nonuniform X-check single-qubit counts: {per_site}")
    return values.pop()


def parse_program_text(text: str) -> dict:
    """Parse the emitted text back into a plain structure (for round-trips)."""
    lines = text.strip().split("\n")
    head = lines[0].split()
    if head[0] != "toricleak-circuit" or head[1] != "v1":
        raise ValueError("not a toricleak-circuit v1 file")
    meta = dict(kv.split("=") for kv in head[2:])
    out = {"variant": meta["variant"], "d": int(meta["d"]), "rounds": []}
    current: list[dict] | None = None
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "round":
            current = []
            out["rounds"].append(current)
        else:
            fields = dict(kv.split("=", 1) for kv in parts[2:])
            current.append(
                {
                    "index": int(parts[1]),
                    "step": int(fields["step"]),
                    "kind": fields["kind"],
                    "qubits": tuple(int(q) for q in fields["qubits"].split(",")),
                    "ordinal": int(fields["ordinal"]),
                    "roles": tuple(fields["roles"].split(",")),
                    "check": (fields["check"].split(":")[0], int(fields["check"].split(":")[1])),
                }
            )
    return out


@dataclass(frozen=True)
class GateRecord:
    """One gate of a compiled program, field by field."""

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


def gate_records(compiled: CompiledProgram) -> list[GateRecord]:
    """Per gate of ``compiled``, in ``program.all_gates()`` order, its record,
    read from the program and the noise model alone, never from the gate
    table or the layers: each draw offset is the running sum of
    ``DRAWS_PER_KIND``."""
    records, offset, noise = [], 0, compiled.noise
    for _, g in compiled.program.all_gates():
        check_type, check_site = g.label.check
        records.append(GateRecord(
            g.kind, g.qubits[0], g.qubits[1] if len(g.qubits) > 1 else -1, g.label.round, offset,
            noise.leak_victims(g.label), noise.leak_prob(g.label), {"Z": 0, "X": 1}[check_type],
            check_site, g.label))
        offset += DRAWS_PER_KIND[g.kind]
    return records


def find_gates(
    compiled: CompiledProgram,
    kind: str | None = None,
    round_index: int | None = None,
    check: tuple[str, int] | None = None,
    ordinal: int | None = None,
) -> list[int]:
    """Global indices of gates matching all the given criteria."""
    out = []
    for gi, g in enumerate(gate_records(compiled)):
        if kind is not None and g.kind != kind:
            continue
        if round_index is not None and g.round_index != round_index:
            continue
        if check is not None and g.label.check != check:
            continue
        if ordinal is not None and g.label.cnot_ordinal != ordinal:
            continue
        out.append(gi)
    return out


# ---------------------------------------------------------------------------
# lattice and config text


def site(lat: ToricLattice, r: int, c: int) -> int:
    """Check site at row ``r``, column ``c`` (wrapped)."""
    return (r % lat.d) * lat.d + (c % lat.d)


def support(lat: ToricLattice, check_type: str, site: int) -> np.ndarray:
    """Data edges of a check, in its CNOT order."""
    return lat.z_support[site] if check_type == Z else lat.x_support[site]


def coordinates(lat: ToricLattice) -> dict[int, tuple[int, int, str]]:
    """Physical qubit id -> (row, column, subtype)."""
    d = lat.d
    dd = d * d
    coords: dict[int, tuple[int, int, str]] = {}
    for r in range(d):
        for c in range(d):
            s = r * d + c
            coords[lat.h(r, c)] = (r, c, "edge_h")
            coords[lat.v(r, c)] = (r, c, "edge_v")
            coords[2 * dd + s] = (r, c, "zcheck")
            coords[3 * dd + s] = (r, c, "xcheck")
            if lat.with_spares:
                coords[4 * dd + s] = (r, c, "zspare")
                coords[5 * dd + s] = (r, c, "xspare")
    return coords


def lattice_to_text(lat: ToricLattice) -> str:
    """Versioned text form of the lattice: sites, check supports, logicals."""
    lines = [f"toricleak-lattice v1 d={lat.d} spares={int(lat.with_spares)}"]
    coords = coordinates(lat)
    for q in sorted(coords):
        r, c, subtype = coords[q]
        lines.append(f"site {q} {subtype} {r} {c}")
    for s in range(lat.d**2):
        lines.append("zcheck %d %s" % (s, ",".join(map(str, lat.z_support[s]))))
    for s in range(lat.d**2):
        lines.append("xcheck %d %s" % (s, ",".join(map(str, lat.x_support[s]))))
    for i, sup in enumerate(lat.x_logicals):
        lines.append("xlogical %d %s" % (i + 1, ",".join(map(str, sup))))
    for i, sup in enumerate(lat.z_logicals):
        lines.append("zlogical %d %s" % (i + 1, ",".join(map(str, sup))))
    return "\n".join(lines) + "\n"


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse_config round-trips it exactly."""
    out = [CONFIG_VERSION]
    for key in ExperimentConfig.__dataclass_fields__:
        value = getattr(config, key)
        if value is None:
            continue
        if key in _LIST_KEYS:
            sep = ", ".join(_fmt(v) for v in value)
            out.append(f"{key} = {sep}")
        else:
            out.append(f"{key} = {_fmt(value)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# one-shot and scripted replays


def shot_uniforms(master_seed: int, shot_index: int, n_draws: int) -> np.ndarray:
    """One shot's uniform draws, from numpy's own seeding objects: the
    reference that every row of ``pauli.batch_uniforms`` must equal."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, shot_index])))
    return gen.random(n_draws)


def monte_carlo(compiled: CompiledProgram, master_seed: int, shot_start: int, n_shots: int):
    """Every field of Monte-Carlo shots ``shot_start ..``: one executor call
    on the whole batch's draws, whose judged rows the chunked
    ``vector.run_group`` must give."""
    return execute(compiled, n_shots, uniforms=batch_uniforms(master_seed, shot_start, n_shots,
                                                              compiled.n_draws))


def judged(decoder: Decoder, res) -> np.ndarray:
    """The four judge bits (X_L1, X_L2, Z_L1, Z_L2) per shot of an executor
    result: ``Decoder.judge_batch`` of its judged rows, each check type's
    value 0-3 split into its two bits."""
    judge = decoder.judge_batch(judge_rows(decoder.lat, res))
    return (judge[..., None] >> np.arange(2) & 1).reshape(len(judge), -1).astype(np.uint8)


def detection_events(syndromes: np.ndarray) -> np.ndarray:
    """Per shot, the XOR of consecutive syndrome rows from the zero
    baseline, shaped as the syndromes: ``(shot, t, check type, site)``."""
    events = syndromes.copy()
    events[:, 1:] ^= syndromes[:, :-1]
    return events


@dataclass
class ShotResult:
    syndromes: np.ndarray  # (n_rounds + 1, 2, d*d); last row is the perfect readout round
    data_x: np.ndarray  # readout-consistent frame, indexed by edge
    data_z: np.ndarray
    logical_parities: np.ndarray  # (4,) pre-correction parities of the readout frame
    leak_final: np.ndarray  # per physical qubit

    @property
    def n_rounds(self) -> int:
        return self.syndromes.shape[0] - 1


def trace_of(compiled: CompiledProgram, res, row: int) -> list[tuple]:
    """The consequence slots that row ``row`` of a traced ``execute`` call
    opened, as tuples: ``("pair", gate, partner_position)`` for each
    two-qubit gate with exactly one leaked participant, ``("measbit",
    gate)`` for each measurement of a leaked qubit, and ``("readout",
    edge)`` for each leaked final data carrier, in gate order, then in
    ascending edge order."""
    codes = res.slots[row]
    trace = [("measbit", g) if codes[g] == 3 else ("pair", g, int(codes[g]) - 1)
             for g in np.flatnonzero(codes).tolist()]
    carrier = compiled.program.final_data_carrier
    return trace + [("readout", e) for e in np.flatnonzero(res.leak_final[row, carrier]).tolist()]


def run_shot(
    compiled: CompiledProgram,
    uniforms: np.ndarray | None = None,
    script: Script | None = None,
    initial_x: np.ndarray | None = None,
    initial_z: np.ndarray | None = None,
    trace: list | None = None,
) -> ShotResult:
    """Execute one shot: a one-row call of :func:`toricleak.vector.execute`.

    ``trace``, when given a list, collects the consequence slots a leak
    opens up, as ``trace_of`` lists them.
    """
    if uniforms is not None:
        if len(uniforms) != compiled.n_draws:
            raise ValueError(f"need {compiled.n_draws} uniform draws, got {len(uniforms)}")
        uniforms = np.asarray(uniforms, dtype=np.float64)[None, :]
    injections = None if script is None else columns_of([script])
    res = execute(compiled, 1, uniforms, injections, initial_x, initial_z, trace is not None)
    if trace is not None:
        trace += trace_of(compiled, res, 0)
    return ShotResult(
        res.syndromes[0],
        res.data_x[0],
        res.data_z[0],
        compiled.lattice.logical_parities(res.data_x, res.data_z)[0],
        res.leak_final[0],
    )


def reference_universe(compiled: CompiledProgram) -> list[FaultSpec]:
    """Deterministic list of all single-fault specs for this program/policy,
    built gate by gate: the reference for ``scanner.enumerate_fault_universe``."""
    specs: list[FaultSpec] = []
    gates = gate_records(compiled)
    for gi, g in enumerate(gates):
        if g.kind == PREP_Z:
            specs.append(FaultSpec("pauli", gi, paulis=(PAULI_X,)))
        elif g.kind == H:
            for p in PAULI1_ERRORS:
                specs.append(FaultSpec("pauli", gi, paulis=(p,)))
        elif g.kind in (CNOT, SWAP):
            for pair in PAULI2_ERRORS:
                specs.append(FaultSpec("pauli", gi, paulis=pair))
        elif g.kind == MEAS_Z:
            specs.append(FaultSpec("meas_flip", gi))
    for gi, g in enumerate(gates):
        if g.leak_prob > 0:
            for pos in g.leak_victims:
                specs.append(FaultSpec("leak", gi, victim=pos))
    return specs


def script_for(compiled: CompiledProgram, spec: FaultSpec, assignment: tuple = ()) -> Script:
    """Translate a spec into executor injections, a leak spec's with the
    downstream outcomes that ``assignment`` fixes.

    An assignment is a tuple of ``(slot, choice)`` pairs, each slot at most
    once, where slots are the executor's consequence slots and choices are
    the slot's outcome: a partner Pauli "X"/"Y"/"Z" for ``("pair", gate,
    position)``, a junk bit 0/1 for ``("measbit", gate)``, and an erasure
    component "x"/"y"/"z" for ``("readout", edge)``.  A slot left out takes
    the null outcome.
    """
    if spec.kind == "pauli":
        return Script(paulis={spec.gate_index: spec.paulis})
    if spec.kind == "meas_flip":
        return Script(meas_flips={spec.gate_index})
    script = Script(leaks={(spec.gate_index, spec.victim)})
    for slot, choice in assignment:
        tag = slot[0]
        if tag == "pair":
            _, gi, pos = slot
            paulis = [PAULI_I] * len(compiled.labels[gi].roles)  # one per qubit of the gate
            paulis[pos] = PAULI_BY_NAME[choice]
            script.paulis[gi] = tuple(paulis)
        elif tag == "measbit":
            if choice:
                script.meas_flips.add(slot[1])
        elif tag == "readout":
            dx = 1 if choice in ("x", "y") else 0
            dz = 1 if choice in ("z", "y") else 0
            script.readout_flips[slot[1]] = (dx, dz)
        else:
            raise ValueError(f"unknown assignment slot {slot!r}")
    return script


# the unit outcome choices of each consequence-slot tag, whose effects span the slot's
_UNIT_CHOICES = {"pair": ("X", "Z"), "measbit": (1,), "readout": ("x", "z")}


def unit_generators(trace: list[tuple]) -> list[tuple]:
    """One ``(slot, choice)`` per unit outcome choice of each slot of a trace."""
    return [(slot, choice) for slot in trace for choice in _UNIT_CHOICES[slot[0]]]


def points(lat: ToricLattice, res) -> list[list[int]]:
    """Per row of an ``execute`` result: its star and its plaquette point as
    ints, bit ``t·d² + site`` for event cell ``(t, site)`` of the check
    type and its two judge bits above the cells."""
    shots, times, types, sites = res.syndromes.shape
    cells = detection_events(res.syndromes).transpose(0, 2, 1, 3).reshape(shots, types, times * sites)
    judge = lat.logical_parities(res.data_x, res.data_z).reshape(-1, 2, 2)  # [row, type, bit]
    packed = np.packbits(np.concatenate([cells, judge], axis=2), axis=2, bitorder="little")
    return [[int.from_bytes(side.tobytes(), "little") for side in row] for row in packed]


def side_arrays(sides: list, width: int) -> list:
    """Per check type, star then plaquette, the sides of int ``(base,
    basis)`` pairs, one list of two per spec, as the scanner's three arrays:
    base rows, ranks, and basis rows, spec after spec; a row holds the
    type's ``width`` event cells, then its two judge bits as one value 0-3."""
    size = (width + 9) // 8  # bytes that hold bit width + 1

    def rows(ints):
        blob = b"".join(point.to_bytes(size, "little") for point in ints)
        bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8).reshape(-1, size), axis=1,
                             count=width + 2, bitorder="little")
        return np.concatenate([bits[:, :width], bits[:, width:-1] | bits[:, -1:] << 1], axis=1)

    return [(rows([spec[ct][0] for spec in sides]),
             np.array([len(spec[ct][1]) for spec in sides], dtype=np.int64),
             rows([vec for spec in sides for vec in spec[ct][1]])) for ct in (0, 1)]


def leak_sides(compiled: CompiledProgram, specs: list[FaultSpec]) -> list:
    """The leak specs' span sides, with every unit effect measured on the
    spec's own leak, the reference for the scanner's shared units, in
    ``side_arrays``'s form.  A unit's effect is the replay of the spec with
    that one unit assigned XOR the spec's baseline replay; a spec's effects
    on one check type are reduced to a basis in trace order.  256 rows
    share an executor batch."""
    lat, sides = compiled.lattice, []
    for lo in range(0, len(specs), 256):
        group = specs[lo : lo + 256]
        scripts = [script_for(compiled, spec) for spec in group]
        res = execute(compiled, len(group), injections=columns_of(scripts), trace=True)
        base = points(lat, res)
        units = [(k, gen) for k in range(len(group)) for gen in unit_generators(trace_of(compiled, res, k))]
        effects: list[list] = [[] for _ in group]
        for at in range(0, len(units), 256):
            chunk = units[at : at + 256]
            scripts = [script_for(compiled, group[k], (gen,)) for k, gen in chunk]
            replays = points(lat, execute(compiled, len(chunk), injections=columns_of(scripts)))
            for (k, _), unit in zip(chunk, replays):
                effects[k].append([p ^ q for p, q in zip(unit, base[k])])
        for spec_base, spec_effects in zip(base, effects):
            if any(all(unit) for unit in spec_effects):
                raise ValueError("a unit effect touches both check types")
            sides.append([(spec_base[ct], _gf2_basis([unit[ct] for unit in spec_effects]))
                          for ct in (0, 1)])
    return side_arrays(sides, (compiled.program.n_rounds + 1) * lat.d**2)


def pair_failures(decoder: Decoder, specs: list[FaultSpec], rows: np.ndarray,
                  pass_rows: int = 1 << 15) -> list[tuple]:
    """The pairs ``(specs[i], specs[j])``, ``i < j`` in order, whose point,
    the XOR of their two rows, fails on some check type, judged row by row
    in passes of ``pass_rows`` pairs: each pass gathers its XORed rows and
    sends ``Decoder.parities`` one row per distinct pair of the two specs'
    cell ids, each row's first-seen order among its check type's distinct
    cell bytes (equal id pairs, equal XORed cells)."""
    n, ids = len(specs), np.zeros((2, len(rows)), dtype=np.int64)
    for ct in (0, 1):
        seen: dict[bytes, int] = {}
        ids[ct] = [seen.setdefault(cells.tobytes(), len(seen)) for cells in rows[:, ct, :-1]]
    total = n * (n - 1) // 2
    first = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2  # flat number of pair (i, i + 1)
    failures = []
    for lo in range(0, total, pass_rows):
        k = np.arange(lo, min(lo + pass_rows, total))
        i = np.searchsorted(first, k, side="right") - 1
        j = k - first[i] + i + 1
        points = rows[i] ^ rows[j]
        fail = np.zeros(len(k), dtype=bool)
        for ct in (0, 1):
            _, one, inverse = np.unique(ids[ct, i] * n + ids[ct, j], return_index=True,
                                        return_inverse=True)
            fail |= points[:, ct, -1] != decoder.parities(ct, points[one, ct, :-1])[inverse]
        failures += [(specs[a], specs[b]) for a, b in zip(i[fail].tolist(), j[fail].tolist())]
    return failures


# valid outcome choices per consequence-slot tag
_CHOICES = {"pair": ("X", "Y", "Z"), "measbit": (0, 1), "readout": ("x", "y", "z")}


def leak_consequences(compiled: CompiledProgram, spec: FaultSpec):
    """Baseline replay of a leak spec plus its downstream consequence slots."""
    if spec.kind != "leak":
        raise ValueError("consequence slots exist only for leak specs")
    trace: list = []
    base = run_shot(compiled, script=script_for(compiled, spec), trace=trace)
    return base, tuple(trace)


def _program_slots(compiled: CompiledProgram) -> set[tuple]:
    """Every consequence slot that some leak of the program could open."""
    slots = {("readout", e) for e in range(compiled.lattice.n_data)}
    for gi, (_, g) in enumerate(compiled.program.all_gates()):
        if len(g.qubits) == 2:
            slots |= {("pair", gi, 0), ("pair", gi, 1)}
        elif g.kind == MEAS_Z:
            slots.add(("measbit", gi))
    return slots


def _check_assignment(compiled: CompiledProgram, spec: FaultSpec, assignment: tuple) -> None:
    """Reject, before any replay, an assignment on a non-leak spec, a slot
    listed twice or absent from the program, or a choice outside its slot's
    outcomes."""
    if not assignment:
        return
    if spec.kind != "leak":
        raise ValueError(f"a {spec.kind} spec takes no assignment")
    listed = [slot for slot, _ in assignment]
    if len(set(listed)) < len(listed):
        raise ValueError("an assignment slot is listed twice")
    known = _program_slots(compiled)
    for slot, choice in assignment:
        if slot not in known:
            raise ValueError(f"assignment slot {slot!r} is not in the program")
        if choice not in _CHOICES[slot[0]]:
            raise ValueError(f"choice {choice!r} is not an outcome of slot {slot!r}")


def replay_spec(compiled: CompiledProgram, decoder: Decoder, spec: FaultSpec, assignment: tuple = ()):
    """Run a spec with the outcomes ``assignment`` fixes (``script_for``;
    other noise off); return the shot and its 4 judge bits.

    Outcome choices never move a leak, so the replay's own trace lists the
    slots the leak opens up, and every assigned slot must be among them.
    """
    _check_assignment(compiled, spec, assignment)
    trace: list = []
    res = run_shot(compiled, script=script_for(compiled, spec, assignment), trace=trace)
    opened = set(trace)
    for slot, _ in assignment:
        if slot not in opened:
            raise ValueError(f"assignment slot {slot!r} is not downstream of the leak")
    return res, judged(decoder, BatchResult(res.syndromes[None], res.data_x[None], res.data_z[None], None))[0]


# ---------------------------------------------------------------------------
# reference matcher


def path_edges(lat: ToricLattice, check_type: int, s1: int, s2: int) -> list[int]:
    """Shortest torus path between two same-type check sites, as edge ids.

    Rows are traversed before columns; each axis wraps toward the shorter
    side.  For Z checks the path lives on the primal lattice (edges flip the
    two endpoint stars); for X checks on the dual (endpoint plaquettes).
    """
    d = lat.d
    r, c = divmod(s1, d)
    r2, c2 = divmod(s2, d)
    edges = []

    def signed_step(a, b):
        delta = (b - a) % d
        return 1 if 0 < delta <= d // 2 else (-1 if delta else 0)

    while r != r2:
        step = signed_step(r, r2)
        if check_type == 0:  # stars: vertical edge between (r, c) and (r+1, c)
            edges.append(lat.v(r if step == 1 else r - 1, c))
        else:  # plaquettes: shared horizontal edge
            edges.append(lat.h(r + 1 if step == 1 else r, c))
        r = (r + step) % d
    while c != c2:
        step = signed_step(c, c2)
        if check_type == 0:
            edges.append(lat.h(r, c if step == 1 else c - 1))
        else:
            edges.append(lat.v(r, c + 1 if step == 1 else c))
        c = (c + step) % d
    return edges


def torus_distance(lat: ToricLattice, site_a: int, site_b: int) -> int:
    """Min over periodic images of |Δrow| + |Δcol| between two check sites."""
    ra, ca = divmod(site_a, lat.d)
    rb, cb = divmod(site_b, lat.d)
    dr = abs(ra - rb)
    dc = abs(ca - cb)
    return min(dr, lat.d - dr) + min(dc, lat.d - dc)


def _pair_weight(lat: ToricLattice, a: tuple[int, int], b: tuple[int, int]) -> int:
    return torus_distance(lat, a[1], b[1]) + abs(a[0] - b[0])


def _subset_dp(w: list[list[int]]) -> list[int]:
    """Minimum-weight perfect matchings of every even subset, as a choice table.

    ``choice[mask]`` is the partner of the pivot — the lowest set bit — in
    the matching chosen for the cells in ``mask``.  Partners are tried in
    ascending order and only a strictly lower weight replaces the incumbent,
    so ties go to the lowest partner.
    """
    n = len(w)
    INF = 1 << 60
    dp = [INF] * (1 << n)
    choice = [0] * (1 << n)
    dp[0] = 0
    for mask in range(1, 1 << n):
        if mask.bit_count() & 1:
            continue
        low = mask & -mask
        rest = mask ^ low
        wi = w[low.bit_length() - 1]
        best, best_j = INF, -1
        bits = rest
        while bits:
            bit = bits & -bits
            bits ^= bit
            j = bit.bit_length() - 1
            cand = dp[rest ^ bit] + wi[j]
            if cand < best:
                best, best_j = cand, j
        dp[mask] = best
        choice[mask] = best_j
    return choice


def _match_dp(w: np.ndarray) -> list[tuple[int, int]]:
    """Exact minimum-weight perfect matching by subset DP (deterministic)."""
    choice = _subset_dp(w.tolist())
    pairs = []
    mask = (1 << w.shape[0]) - 1
    while mask:
        i = (mask & -mask).bit_length() - 1
        j = choice[mask]
        pairs.append((i, j))
        mask ^= (1 << i) | (1 << j)
    return pairs


def _match_blossom(w) -> list[tuple[int, int]]:
    """networkx's exact matching of the complete graph on pair weights ``w``
    (a square int matrix), built as the decoder once built it: nodes in
    order, edges ``(i, j)`` for ``i < j`` weighing ``-w[i][j]``."""
    n = len(w)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j, weight=-int(w[i][j]))
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    return sorted(tuple(sorted(edge)) for edge in matching)


def weight_matrix(lat: ToricLattice, defects: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Spacetime pair weights of defects: torus distance plus time separation."""
    n = len(defects)
    w = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = _pair_weight(lat, defects[i], defects[j])
    return w


def random_defects(rng, d: int, max_t: int, n: int) -> tuple[tuple[int, int], ...]:
    """``n`` distinct sorted (t, site) defects with t in [0, max_t]."""
    chosen = set()
    while len(chosen) < n:
        chosen.add((int(rng.integers(0, max_t + 1)), int(rng.integers(0, d * d))))
    return tuple(sorted(chosen))


def defect_mask(lat: ToricLattice, defects) -> int:
    """The decoder's defect mask of (t, site) defects: bit ``t * d*d + site``."""
    mask = 0
    for t, s in defects:
        mask |= 1 << (t * lat.d**2 + s)
    return mask


def defect_rows(lat: ToricLattice, sets, n_cells: int) -> np.ndarray:
    """One row of 0/1 event cells per set of (t, site) defects: cell
    ``t * d*d + site``, as ``Decoder.parities`` reads them."""
    rows = np.zeros((len(sets), n_cells), dtype=np.uint8)
    for row, defects in zip(rows, sets):
        for t, s in defects:
            row[t * lat.d**2 + s] = 1
    return rows


def row_defects(lat: ToricLattice, cells) -> tuple[tuple[int, int], ...]:
    """The sorted (t, site) defects of one row of 0/1 event cells."""
    times, sites = np.divmod(np.flatnonzero(cells), lat.d**2)
    return tuple(zip(times.tolist(), sites.tolist()))


def reference_parities(lat: ToricLattice, check_type: int, defects) -> int:
    """The reference matcher's crossing parities of a defect set: what
    ``Decoder.parities`` must give its row."""
    return crossing_parities(lat, check_type, match_defects(lat, tuple(defects)))


def match_defects(
    lat: ToricLattice, defects: tuple[tuple[int, int], ...]
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Exact minimum-weight perfect matching of spacetime defects."""
    n = len(defects)
    if n % 2:
        raise ValueError("odd number of defects cannot be matched")
    if n == 0:
        return []
    w = weight_matrix(lat, defects)
    pairs = _match_dp(w) if n <= _DP_LIMIT else _match_blossom(w)
    return [(defects[i], defects[j]) for i, j in pairs]


def crossing_parities(lat: ToricLattice, check_type: int, pairs) -> int:
    """Logical-crossing parities of matched pairs, read from the frame their
    repair paths flip: bits 0-1 of the judge for stars, 2-3 for plaquettes."""
    edges = [e for a, b in pairs for e in path_edges(lat, check_type, a[1], b[1])]
    return edge_parities(lat, check_type, edges)


def edge_parities(lat: ToricLattice, check_type: int, edges) -> int:
    """The two logical parities of the frame that flipping ``edges`` (X flips
    for stars, Z flips for plaquettes) leaves, as in ``crossing_parities``."""
    frame = np.zeros(lat.n_data, dtype=np.uint8)
    for e in edges:
        frame[e] ^= 1
    zero = np.zeros_like(frame)
    bits = lat.logical_parities(frame, zero) if check_type == 0 else lat.logical_parities(zero, frame)
    return int(bits[2 * check_type]) | int(bits[2 * check_type + 1]) << 1


# ---------------------------------------------------------------------------
# residual error chains


@dataclass
class ResidualWeight:
    """Raw and stabilizer-reduced weight of a spec's residual data error."""

    raw_x: int
    raw_z: int
    reduced_x: int
    reduced_z: int
    joint: int  # min qubits carrying any error over simultaneous coset choices
    aligned_x: bool  # some minimal X representative sits inside a logical line
    aligned_z: bool
    support_x: tuple[int, ...]
    support_z: tuple[int, ...]


def _frame_int(bits: np.ndarray) -> int:
    out = 0
    for e in np.nonzero(bits)[0]:
        out |= 1 << int(e)
    return out


_COSET_CACHE: dict[tuple[int, int], list[int]] = {}


def _coset_masks(lat: ToricLattice, check_type: int) -> list[int]:
    """All stabilizer products that multiply onto a frame of one error type."""
    if lat.d != 3:
        raise NotImplementedError("exhaustive coset search is provided for d=3")
    key = (lat.d, check_type)
    hit = _COSET_CACHE.get(key)
    if hit is not None:
        return hit
    support = lat.x_support if check_type == 0 else lat.z_support
    rows = []
    for s in range(lat.d**2):
        m = 0
        for e in support[s]:
            m |= 1 << int(e)
        rows.append(m)
    masks = [0]
    for row in rows:
        masks += [m ^ row for m in masks]
    _COSET_CACHE[key] = masks
    return masks


def _logical_line_masks(lat: ToricLattice, check_type: int) -> list[int]:
    d = lat.d
    lines = []
    if check_type == 0:  # X errors: loops parallel to the X logicals
        for r in range(d):
            lines.append(sum(1 << lat.h(r, c) for c in range(d)))
        for c in range(d):
            lines.append(sum(1 << lat.v(r, c) for r in range(d)))
    else:  # Z errors: loops parallel to the Z logicals
        for c in range(d):
            lines.append(sum(1 << lat.h(r, c) for r in range(d)))
        for r in range(d):
            lines.append(sum(1 << lat.v(r, c) for c in range(d)))
    return lines


def _reduce(lat: ToricLattice, frame: int, check_type: int) -> tuple[int, list[int]]:
    best = frame.bit_count()
    reps = [frame]
    for mask in _coset_masks(lat, check_type):
        cand = frame ^ mask
        w = cand.bit_count()
        if w < best:
            best, reps = w, [cand]
        elif w == best and cand not in reps:
            reps.append(cand)
    return best, reps


def _aligned(reps: list[int], lines: list[int]) -> bool:
    return any(rep and rep & ~line == 0 for rep in reps for line in lines)


def residual_frames_to_weight(lat: ToricLattice, data_x, data_z) -> ResidualWeight:
    fx, fz = _frame_int(data_x), _frame_int(data_z)
    reduced_x, reps_x = _reduce(lat, fx, 0)
    reduced_z, reps_z = _reduce(lat, fz, 1)
    masks_x, masks_z = _coset_masks(lat, 0), _coset_masks(lat, 1)
    joint = min(
        ((fx ^ mx) | (fz ^ mz)).bit_count() for mx in masks_x for mz in masks_z
    )
    return ResidualWeight(
        raw_x=fx.bit_count(),
        raw_z=fz.bit_count(),
        reduced_x=reduced_x,
        reduced_z=reduced_z,
        joint=joint,
        aligned_x=_aligned(reps_x, _logical_line_masks(lat, 0)),
        aligned_z=_aligned(reps_z, _logical_line_masks(lat, 1)),
        support_x=tuple(int(e) for e in np.nonzero(data_x)[0]),
        support_z=tuple(int(e) for e in np.nonzero(data_z)[0]),
    )


def residual_weight(compiled: CompiledProgram, spec: FaultSpec, assignment: tuple = ()) -> ResidualWeight:
    """Residual data error left at readout by a spec with the outcomes
    ``assignment`` fixes."""
    res, _ = replay_spec(compiled, Decoder(compiled.lattice), spec, assignment)
    return residual_frames_to_weight(compiled.lattice, res.data_x, res.data_z)
