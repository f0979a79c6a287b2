"""Exhaustive fault scanner: which single fault locations break the distance.

The scanner enumerates a deterministic fault universe over a compiled
program and judges every spec with all other noise switched off:

* Pauli specs — one orthogonal flip per preparation, 3 single-qubit Paulis
  per H, all 15 two-qubit Paulis per CNOT/SWAP, one bit flip per
  measurement.  Each is injected after its gate and the shot is decoded.
* Leak specs — one per (gate, eligible victim) under the noise policy's
  side/site filters, with preparation leaks included only when the policy
  enables initialization leakage.  A leak spec fails if *any* assignment of
  its downstream stochastic outcomes fails: every partner scramble at a
  two-qubit gate with one leaked participant, every junk measurement bit,
  and every erased readout bit.

Worst-case leak semantics are evaluated exactly.  The leak trajectory is
fixed by the location alone (outcome choices never create or move leaks),
so the consequence slots are a fixed list and the map from outcome choices
to (detection events, readout frame) is GF(2)-linear.  A traced executor
call reports the slots as codes per row and gate, and the leaked final
carriers as readout slots; each opens one or two units, named by int keys
(``_generators``).  Each unit's effect is replayed once per call and shared
by every spec whose trace opens it, as a detector error model shares a
fault's effect.  The sharing is exact.  A junk measurement or readout unit
is a plain bit flip, so its effect is its replay alone.  A pair slot at
gate g and partner position pos opens only while the other qubit of gate
g is leaked.  One fault opens one leak, and that qubit stays leaked (SWAPs
leave leak flags in place) until its next measurement or preparation, so
the leak pattern after g is fixed by ``(g, pos)``.  With it fixed the
executor is GF(2)-linear in the frame, so the unit's effect is the replay
of the leak ``(g, 1 - pos)`` plus the partner Pauli at g, XOR the replay of
that leak alone.  A spec's effects, in its trace's order, are reduced to a
basis, and the whole span is enumerated.
The code is CSS and CNOT never mixes X and Z frame sectors, so every unit
effect lands on one check type (``_sides`` raises ``ValueError`` if one
does not).  The span therefore splits into a star side (star events + the
two judge bits of the data X frame) and a plaquette side (plaquette events
+ the Z frame's two), which the decoder also judges independently.  Points
are rows (``_rows``'s layout): the check type's event cell ``t·d² + site``
over the program's ``(rounds+1)·d²`` cells, then its two judge bits as one
value 0-3.  Each check type's sides are three arrays: base rows, ranks and
basis rows.  Points are ints, with the cells as bits and the judge bits
above them, only inside the one basis step, to reduce bases.  One judge,
``_failing_counts``, counts each side's failing points by
``Decoder.parities``, in stages: stage 0 is each side's base point, stage
k the points ``2^(k-1) .. 2^k - 1``, the base row XOR basis vector k - 1
doubled by vectors 0 .. k - 2 (an XOR of rows is GF(2)-correct, judge
value included).  Each stage is filled afresh into one block from the
sides' arrays, for a number of sides at a time that bounds its rows by
``_PASS_ROWS``, so no point outlives its stage.  A side whose rank exceeds
``SPAN_BUDGET_BITS`` is judged on ``SAMPLE_COUNT`` seeded random points
instead, and the spec is reported as sampled rather than exact.

A Pauli or ``meas_flip`` spec opens no consequence slots: its span is the
one point of its own replay, composed, not replayed.  A noise-free,
leak-free replay is GF(2)-linear in the injected frame and the fault-free
point is 0, so it is the XOR of the points of its single-qubit units (an X
or Z at one gate position, or one measurement flip), each replayed once
per call.  These points are rows of event cells (``_pauli_rows``), judged
as each check type's one-point stage of rank-0 sides; they, and for pairs
every XOR of two of their distinct cell rows (``_pair_failures``), reach
the matcher through ``Decoder.parities``, the Monte-Carlo judge's row
route, so every verdict is exact for the decoder that the Monte-Carlo path
runs.  Only Pauli specs pair: a leak spec's worst case already spans
multi-error combinations.  One walk (``_walk``) judges a universe: the
Pauli rows and pairs, freed before the leak sides are built, then the
stages; ``scan`` drops a spec at its first failing stage, and
``leak_failure_fractions`` reads the counts.

Replays run in three phases, each one executor call on ``sim.Injections``
columns, split only above ``_CHUNK_ROWS`` rows: the Pauli units, the leak
baselines with their traces, and the leak units.  Every replay row is a
leak ``(gate, position)`` and/or one unit key, and one builder,
``_injections``, turns such columns into the executor's.

Every verdict is a judge-bit verdict: the scanner does no residual-weight
analysis of the data error a replay leaves behind.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .circuits import CNOT, H, MEAS_Z, PREP_Z, SWAP
from .decoder import Decoder, event_rows
from .lattice import ToricLattice
from .pauli import PAULI1_ERRORS, PAULI2_ERRORS, PAULI_X
from .sim import CompiledProgram, Injections
from .vector import execute

# read at call time, so tests can patch them
SPAN_BUDGET_BITS = 16  # max basis rank enumerated exhaustively per side
SAMPLE_COUNT = 4096  # assignments drawn when a span exceeds the budget
_CHUNK_ROWS = 4096  # replay rows per executor call: a replay phase is split only above it
_PASS_ROWS = 1 << 15  # rows judged per pass: memory follows the pass, not the pairs or spans


@dataclass(frozen=True)
class FaultSpec:
    """One element of the fault universe."""

    kind: str  # "pauli" | "meas_flip" | "leak"
    gate_index: int
    paulis: tuple = ()
    victim: int = -1


@dataclass(frozen=True)
class SpecLocation:
    """Reporting identity of a spec: what kind of site it sits on."""

    fault: str
    kind: str
    round: int
    ordinal: int
    role: str
    phase: str  # H gates: pre/mid/post relative to the round's CNOT block
    check: tuple[str, int]


@dataclass
class ScanVerdict:
    variant: str
    d: int
    n_rounds: int
    max_faults: int
    n_pauli_specs: int
    n_leak_specs: int
    pauli_failures: list[FaultSpec]
    leak_failures: list[FaultSpec]
    pair_failures: list[tuple[FaultSpec, FaultSpec]] = field(default_factory=list)
    sampled: list[FaultSpec] = field(default_factory=list)  # some side over budget

    @property
    def n_pairs(self) -> int:
        """The Pauli pairs scanned: every two Pauli specs at two faults."""
        return self.n_pauli_specs * (self.n_pauli_specs - 1) // 2 if self.max_faults == 2 else 0

    @property
    def distance_preserving(self) -> bool:
        """No scanned set of at most ``(d - 1) // 2`` faults fails: no Pauli
        or leak spec, and from d=5 on no Pauli pair (at d=3, pairs do not
        count).  Leak specs do not pair, so no leak pair is covered."""
        return not (self.pauli_failures or self.leak_failures or (self.d >= 5 and self.pair_failures))

    @property
    def exhaustive(self) -> bool:
        return not self.sampled


# ---------------------------------------------------------------------------
# universe


def enumerate_fault_universe(compiled: CompiledProgram) -> list[FaultSpec]:
    """Deterministic list of all single-fault specs for this program/policy."""
    specs: list[FaultSpec] = []
    for gi, g in enumerate(compiled.gates):
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
    for gi, g in enumerate(compiled.gates):
        if g.leak_prob > 0:
            for pos in g.leak_victims:
                specs.append(FaultSpec("leak", gi, victim=pos))
    return specs


def spec_location(compiled: CompiledProgram, spec: FaultSpec) -> SpecLocation:
    g = compiled.gates[spec.gate_index]
    label = g.label
    if spec.kind == "leak":
        if not 0 <= spec.victim < len(label.roles):
            raise ValueError(
                f"gate {spec.gate_index} has no qubit at position {spec.victim} to leak"
            )
        role = label.roles[spec.victim]
    else:
        role = "+".join(label.roles)
    phase = "-"
    if label.kind == H:
        kinds = [op.kind for op in compiled.program.rounds[label.round]]
        if label.gate_index < kinds.index(CNOT):
            phase = "pre"
        elif CNOT not in kinds[label.gate_index:]:
            phase = "post"
        else:
            phase = "mid"
    return SpecLocation(
        fault=spec.kind,
        kind=label.kind,
        round=label.round,
        ordinal=label.cnot_ordinal,
        role=role,
        phase=phase,
        check=label.check,
    )


# ---------------------------------------------------------------------------
# replays


def _split(compiled: CompiledProgram, specs: list[FaultSpec]) -> tuple:
    """Whether each spec is a leak spec, then the Pauli and ``meas_flip``
    specs and the leak specs.  A spec of another kind, with a gate or
    victim that is not an integer (the int columns would truncate it), or
    on a gate outside the program, is refused before any replay: a unit key
    at or above ``5·len(gates)`` names a readout unit, and gate -1 names no
    leak (``_injections``)."""
    n_gates, ints = len(compiled.gates), (int, np.integer, np.bool_)
    for spec in specs:
        if spec.kind not in ("pauli", "meas_flip", "leak"):
            raise ValueError(f"unknown fault kind {spec.kind!r}")
        if not (isinstance(spec.gate_index, ints) and isinstance(spec.victim, ints)):
            name, value = (("victim", spec.victim) if isinstance(spec.gate_index, ints)
                           else ("gate", spec.gate_index))
            raise ValueError(f"the {name} {value!r} of a {spec.kind} spec is not an integer")
        if not 0 <= spec.gate_index < n_gates:
            raise ValueError(f"gate {spec.gate_index} is not one of the program's {n_gates} gates")
    leak = np.array([spec.kind == "leak" for spec in specs], dtype=bool)
    return leak, list(compress(specs, ~leak)), list(compress(specs, leak))


def _injections(n_gates: int, leaks: np.ndarray, keys: np.ndarray) -> Injections:
    """The executor columns of replay rows: row k leaks ``leaks[k]``, a
    ``(gate, position)``, unless its gate is -1, and carries the unit that
    ``keys[k]`` names unless it is -1.  Key ``5·gate + slot`` is, by
    ``divmod``, an X (even slot) or a Z (odd) at position ``slot // 2`` of
    the gate, or its measurement flip (slot 4); key ``5·n_gates + 2·edge +
    component`` flips the x (0) or z (1) component of a data edge's final
    readout."""
    row = np.arange(len(keys))
    gate, slot = np.divmod(keys, 5)
    edge, component = np.divmod(keys - 5 * n_gates, 2)
    on_gate = (keys != -1) & (keys < 5 * n_gates)
    return Injections(
        leaks=np.column_stack([row, leaks])[leaks[:, 0] != -1],
        paulis=np.column_stack([row, gate, slot // 2, 1 - slot % 2, slot % 2])[on_gate & (slot < 4)],
        meas_flips=np.column_stack([row, gate])[on_gate & (slot == 4)],
        readout_flips=np.column_stack([row, edge, 1 - component, component])[keys >= 5 * n_gates])


def _replayed(compiled: CompiledProgram, leaks: np.ndarray, keys: np.ndarray, trace: bool = False):
    """The replay rows of ``_injections``, one executor call split only
    above ``_CHUNK_ROWS`` rows: per part, its first row and its result."""
    for lo in range(0, len(keys), _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, len(keys))
        injections = _injections(len(compiled.gates), leaks[lo:hi], keys[lo:hi])
        yield lo, execute(compiled, hi - lo, injections=injections, trace=trace)


def _generators(res, carrier: np.ndarray, n_gates: int) -> tuple[np.ndarray, np.ndarray]:
    """Per unit outcome choice that a traced result's rows open, in trace
    order (row by row: gate slots in gate order, then readout slots in
    edge order): its row and its unit key.  A pair slot, code ``pos + 1``,
    opens the partner's X and Z, keys ``5·gate + 2·pos`` and one more; a
    junk measurement, code 3, its flip, key ``5·gate + 4``; a leaked final
    carrier of edge e its x and z readout flips."""
    rows, gates = np.nonzero(res.slots)
    codes = res.slots[rows, gates].astype(np.int64)
    edge_rows, edges = np.nonzero(res.leak_final[:, carrier])
    order = np.argsort(np.concatenate([rows, edge_rows]), kind="stable")
    row = np.concatenate([rows, edge_rows])[order]
    first = np.concatenate([5 * gates + 2 * codes - 2, 5 * n_gates + 2 * edges])[order]
    count = np.concatenate([np.where(codes == 3, 1, 2), np.full(len(edges), 2)])[order]
    offset = np.arange(count.sum()) - np.repeat(count.cumsum() - count, count)
    return np.repeat(row, count), np.repeat(first, count) + offset


@functools.cache
def _unit_slots(kind: str, paulis: tuple) -> tuple[int, ...]:
    """Slots on its gate of the units whose rows XOR to a Pauli or
    ``meas_flip`` spec's row, -1 past the last: ``2·position + component``
    per X (component 0) or Z (1) of its Paulis, or 4 for its measurement
    flip.  A unit's key ``5·gate + slot`` names no other gate's unit: a
    position past 1, which no gate has, is refused here, as is any Pauli but
    a tuple of ``(x, z)`` pairs of bits, and any on a ``meas_flip``."""
    if kind == "meas_flip":
        if paulis:
            raise ValueError(f"the Pauli {paulis[0]!r} at position 0 is on a meas_flip spec, which takes none")
        return (4, -1, -1, -1)
    if not isinstance(paulis, tuple):
        raise ValueError(f"the Paulis {paulis!r} are not a tuple")
    if len(paulis) > 2:
        raise ValueError(f"no gate has a qubit at position {len(paulis) - 1} for a Pauli")
    for pos, pauli in enumerate(paulis):
        if not (isinstance(pauli, tuple) and len(pauli) == 2 and all(bit in (0, 1) for bit in pauli)):
            raise ValueError(f"the Pauli {pauli!r} at position {pos} is not an (x, z) pair of bits")
    slots = tuple(2 * pos + comp
                  for pos, (x, z) in enumerate(paulis) for comp, bit in ((0, x), (1, z)) if bit)
    return slots + (-1,) * (4 - len(slots))


def _rows(lat: ToricLattice, res) -> np.ndarray:
    """Per replay row, its star and its plaquette point as uint8 rows: the
    check type's event cells, cell ``t·d² + site``, then its two judge bits
    as one value 0-3."""
    judge = lat.logical_parities(res.data_x, res.data_z).reshape(-1, 2, 2)  # [row, type, bit]
    return np.concatenate([event_rows(res.syndromes), judge[..., :1] | judge[..., 1:] << 1], axis=2)


def _unit_rows(compiled: CompiledProgram, leaks: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The rows of the replays that ``leaks`` and ``keys`` describe
    (``_injections``), then one zero row.  The executor refuses a unit on a
    gate, position or measurement the program lacks."""
    width = (compiled.program.n_rounds + 1) * compiled.lattice.d**2
    rows = np.zeros((len(keys) + 1, 2, width + 1), dtype=np.uint8)
    for lo, res in _replayed(compiled, leaks, keys):
        rows[lo : lo + len(res.data_x)] = _rows(compiled.lattice, res)
    return rows


def _pauli_rows(compiled: CompiledProgram, specs: list[FaultSpec]) -> np.ndarray:
    """Per Pauli or ``meas_flip`` spec, its rank-0 point as ``_rows`` lays
    it out: the XOR of its at most four unit rows (frame linearity),
    gathered one slot at a time, an empty slot reading the zero row."""
    gates = np.array([spec.gate_index for spec in specs], dtype=np.int64)
    try:  # slots are cached per (kind, Paulis); Paulis that cannot key the cache are checked uncached
        slots = [_unit_slots(s.kind, s.paulis) for s in specs]
    except TypeError:
        slots = [_unit_slots.__wrapped__(s.kind, s.paulis) for s in specs]
    slots = np.array(slots, dtype=np.int64).reshape(-1, 4)
    used = slots >= 0
    units, index = np.unique((5 * gates[:, None] + slots)[used], return_inverse=True)
    slots[used] = index
    slots[~used] = len(units)
    rows = _unit_rows(compiled, np.full((len(units), 2), -1), units)
    points = rows[slots[:, 0]]
    for slot in slots.T[1:]:
        points ^= rows[slot]
    return points


def _cell_ids(rows: np.ndarray) -> np.ndarray:
    """Per check type and row, the rank of the row's cells among the
    distinct ones: rows with equal ids have equal cells."""
    packed = np.packbits(rows[..., :-1], axis=2)
    cells = packed.view(np.dtype((np.void, packed.shape[2])))[..., 0]  # one bytes key per row and type
    return np.array([np.unique(cells[:, ct], return_inverse=True)[1] for ct in (0, 1)])


def _pair_failures(decoder: Decoder, specs: list[FaultSpec], rows: np.ndarray) -> list[tuple]:
    """The pairs ``(specs[i], specs[j])``, ``i < j`` in order, whose point,
    the XOR of their rows, fails: on a check type, their judge values' XOR
    differs from the parities of their cells' XOR, which depend only on
    their ``_cell_ids``.  Per type, a table holds the parities of every two
    distinct cell rows, judged ``_PASS_ROWS`` at a time, and spec i's pairs
    with later specs read both tables (star bits 0-1, plaquette 2-3)."""
    ids, tables = _cell_ids(rows), []
    for ct in (0, 1):
        cells = rows[np.unique(ids[ct], return_index=True)[1], ct, :-1]  # row k: the cells of id k
        a, b = np.triu_indices(len(cells), 1)
        table = np.zeros((len(cells), len(cells)), dtype=np.uint8)  # a row XOR itself has no events
        for lo in range(0, len(a), _PASS_ROWS):
            i, j = a[lo : lo + _PASS_ROWS], b[lo : lo + _PASS_ROWS]
            table[i, j] = table[j, i] = decoder.parities(ct, cells[i] ^ cells[j]) << 2 * ct
        tables.append(table)
    judge, failures = rows[:, 0, -1] | rows[:, 1, -1] << 2, []
    for i in range(len(specs) - 1):
        rest = slice(i + 1, None)
        verdict = tables[0][ids[0, i]][ids[0, rest]] | tables[1][ids[1, i]][ids[1, rest]]
        later = np.flatnonzero(verdict != judge[rest] ^ judge[i]) + i + 1
        failures += [(specs[i], specs[j]) for j in later.tolist()]
    return failures


# ---------------------------------------------------------------------------
# GF(2) spans of leak consequences


def _gf2_basis(vecs: list[int]) -> list[int]:
    """Row-reduce GF(2) vectors to a basis of their span, in insertion order."""
    by_lead: dict[int, int] = {}
    for v in vecs:
        while v:
            lead = v.bit_length() - 1
            hit = by_lead.get(lead)
            if hit is None:
                by_lead[lead] = v
                break
            v ^= hit
    return list(by_lead.values())


def _baselines(compiled: CompiledProgram, specs: list[FaultSpec]) -> tuple[np.ndarray, ...]:
    """The leak specs' baseline rows, one traced replay phase, and their
    generators (``_generators``): per generator, its spec and its unit key,
    spec by spec in trace order.  No part's slot codes outlive it."""
    n_gates = len(compiled.gates)
    width = (compiled.program.n_rounds + 1) * compiled.lattice.d**2
    leaks = np.array([(s.gate_index, s.victim) for s in specs], dtype=np.int64).reshape(-1, 2)
    base = np.empty((len(specs), 2, width + 1), dtype=np.uint8)
    owners, keys = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo, res in _replayed(compiled, leaks, np.full(len(specs), -1), trace=True):
        base[lo : lo + len(res.data_x)] = _rows(compiled.lattice, res)
        owner, key = _generators(res, compiled.program.final_data_carrier, n_gates)
        owners.append(owner + lo)
        keys.append(key)
    return base, np.concatenate(owners), np.concatenate(keys)


def _leak_sides(compiled: CompiledProgram, specs: list[FaultSpec]) -> list:
    """The leak specs' span sides, as ``_sides`` lays them out.

    Two replay phases, each one executor call, split only above
    ``_CHUNK_ROWS`` rows: every spec's baseline, traced, which gives its
    generators (``_baselines``), then every distinct unit that they name
    and, per pair slot, the leak it implies alone.  Each unit's effect is
    taken once and shared by every spec whose trace opens it.
    """
    n_gates = len(compiled.gates)
    base, owner, keys = _baselines(compiled, specs)
    units, unit_of = np.unique(keys, return_inverse=True)
    gate, slot = np.divmod(units, 5)
    pair = (units < 5 * n_gates) & (slot < 4)
    implied = 2 * gate + 1 - slot // 2  # the leak (gate, 1 - pos), as 2·gate + position
    alone, partner = np.unique(implied[pair], return_inverse=True)
    unit_leaks = np.where(pair[:, None], np.column_stack(np.divmod(implied, 2)), -1)
    rows = _unit_rows(compiled, np.concatenate([unit_leaks, np.column_stack(np.divmod(alone, 2))]),
                      np.concatenate([units, np.full(len(alone), -1)]))
    partners = np.full(len(units), len(rows) - 1)  # the zero row
    partners[pair] = len(units) + partner
    effects = rows[: len(units)] ^ rows[partners]
    del rows  # only the effects live on into the sides
    return _sides(base, effects, owner, unit_of)


def _sides(base: np.ndarray, effects: np.ndarray, owner: np.ndarray, unit_of: np.ndarray) -> list:
    """Per check type, star then plaquette, the sides of the specs' spans
    as three arrays in ``_rows``'s layout: each spec's base row, its rank,
    and the basis rows, spec k's at offset ``ranks.cumsum() - ranks``.

    ``base`` holds each spec's baseline rows and ``effects`` each distinct
    unit's; generator i, in trace order, is unit ``unit_of[i]`` of spec
    ``owner[i]``.  A basis is reduced as ints, cell k at bit k and the two
    judge bits above the cells, the one place points are ints: pack the
    effects, reduce each spec's with ``_gf2_basis`` in trace order, unpack.
    """
    if effects.any(axis=2).all(axis=1).any():
        raise ValueError("a unit effect touches both check types")
    width = base.shape[2] - 1
    size = (width + 9) // 8  # bytes that hold bit width + 1
    starts = np.searchsorted(owner, np.arange(len(base) + 1)).tolist()
    sides = []
    for ct in (0, 1):
        rows = effects[:, ct]
        bits = np.concatenate([rows[:, :-1], rows[:, -1:] & 1, rows[:, -1:] >> 1], axis=1)
        blob = np.packbits(bits, axis=1, bitorder="little").tobytes()
        ints = [int.from_bytes(blob[k : k + size], "little") for k in range(0, len(blob), size)]
        bases = [_gf2_basis([ints[u] for u in unit_of[lo:hi].tolist()])
                 for lo, hi in zip(starts, starts[1:])]
        ranks = np.array([len(vecs) for vecs in bases], dtype=np.int64)
        blob = b"".join(vec.to_bytes(size, "little") for vecs in bases for vec in vecs)
        del bases
        bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8).reshape(-1, size), axis=1,
                             count=width + 2, bitorder="little")
        bits[:, width] |= bits[:, -1] << 1  # the judge bits as one value, in place
        sides.append((base[:, ct].copy(), ranks, bits[:, :-1]))
    return sides


def _sampled_points(spec: FaultSpec, base: np.ndarray, vectors: np.ndarray, points: np.ndarray) -> None:
    """Fill ``points`` ``(point, cell)`` in place with an over-budget
    side's ``SAMPLE_COUNT`` random combinations of its basis rows
    ``vectors`` on its base row, seeded by the spec and the side's rank."""
    rank = len(vectors)
    rng = np.random.default_rng(np.random.SeedSequence([spec.gate_index, spec.victim, rank, 1]))
    bits = rng.integers(0, 2, size=(SAMPLE_COUNT, rank)).astype(np.uint8)
    points[:] = base
    for j in range(rank):
        points ^= bits[:, j, None] * vectors[j]


def _judged(decoder: Decoder, check_type: int, stage: np.ndarray) -> np.ndarray:
    """Per side of a stage ``(point, side, cell)`` of one check type, how
    many of its points fail: its judge value differs from
    ``Decoder.parities`` of its cells."""
    rows = stage.reshape(-1, stage.shape[2])
    return (rows[:, -1] != decoder.parities(check_type, rows[:, :-1])).reshape(stage.shape[:2]).sum(axis=0)


def _stage(base: np.ndarray, basis: np.ndarray, first: np.ndarray, j: int) -> np.ndarray:
    """Stage ``j`` of the sides with base rows ``base`` whose basis rows
    start at rows ``first`` of ``basis``, as one block ``(point, side,
    cell)``: the base rows, or the base rows XOR basis vector j - 1 doubled
    in place by vectors 0 .. j - 2, point k taking vector i when bit i of k
    is set."""
    points = np.empty((1 << max(j - 1, 0), *base.shape), dtype=base.dtype)
    points[0] = base ^ basis[first + j - 1] if j else base
    for i in range(j - 1):
        np.bitwise_xor(points[: 1 << i], basis[first + i], out=points[1 << i : 2 << i])
    return points


def _failing_counts(decoder: Decoder, specs: list[FaultSpec], sides: list,
                    stop_early: bool = False) -> np.ndarray:
    """The one judge: per leak spec and check type, how many of that side's
    span points fail; ``sides`` are ``_sides``'s arrays.

    Exact sides go in stages: stage 0 is each side's base point, stage j
    the points ``2^(j-1) .. 2^j - 1`` of the sides of rank j or more, built
    afresh from the sides' arrays (``_stage``), so no point outlives its
    stage.  Stage j's sides go in passes of ``_PASS_ROWS >> (j + 1)`` sides,
    at least one, each judged by one ``_judged`` call: a pass's block holds
    at most ``_PASS_ROWS // 2`` rows, unless it is one side's stage.  An
    over-budget side is judged on its ``_sampled_points``.  With
    ``stop_early`` a spec leaves after its first failing stage, so only
    whether its counts are zero holds.
    """
    counts = np.zeros((len(specs), 2), dtype=np.int64)
    firsts = [ranks.cumsum() - ranks for _, ranks, _ in sides]  # each side's first basis row
    for j in range(SPAN_BUDGET_BITS + 1):
        live = ~(stop_early & counts.any(axis=1))  # read over both check types before the stage
        step = max(1, _PASS_ROWS >> (j + 1))
        for ct, (base, ranks, basis) in enumerate(sides):
            owners = np.flatnonzero(live & (ranks >= j) & (ranks <= SPAN_BUDGET_BITS))
            for lo in range(0, len(owners), step):
                part = owners[lo : lo + step]
                counts[part, ct] += _judged(decoder, ct, _stage(base[part], basis, firsts[ct][part], j))
    step = max(1, _PASS_ROWS // SAMPLE_COUNT)
    for ct, (base, ranks, basis) in enumerate(sides):
        over = np.flatnonzero(ranks > SPAN_BUDGET_BITS).tolist()
        for lo in range(0, len(over), step):
            batch = [k for k in over[lo : lo + step] if not (stop_early and counts[k].any())]
            if batch:  # filled in place side by side, so that no side's block is extra
                stage = np.empty((SAMPLE_COUNT, len(batch), base.shape[1]), dtype=np.uint8)
                for i, k in enumerate(batch):
                    first = firsts[ct][k]
                    _sampled_points(specs[k], base[k], basis[first : first + ranks[k]], stage[:, i])
                counts[batch, ct] = _judged(decoder, ct, stage)
    return counts


def _walk(compiled: CompiledProgram, specs: list[FaultSpec], decoder: Decoder,
          max_faults: int = 1, stop_early: bool = False) -> tuple:
    """The one walk over a universe: per spec, in order, whether it is a
    leak spec and, per check type, how many points of its side fail and the
    side's rank (each type's Pauli rows are one one-point stage of rank-0
    sides); then, at two faults, the failing Pauli pairs.  The Pauli rows
    are freed before the leak sides are built, and the per-spec arrays are
    filled after the stages; ``stop_early`` drops a spec at its first
    failing stage (``_failing_counts``)."""
    leak, paulis, leaks = _split(compiled, specs)
    rows = _pauli_rows(compiled, paulis)
    # a one-point stage's count per side is 0 or 1
    judged = np.array([_judged(decoder, ct, rows[None, :, ct]) for ct in (0, 1)], dtype=np.uint8).T
    pairs = _pair_failures(decoder, paulis, rows) if max_faults == 2 else []
    del rows, paulis  # no Pauli row or spec list lives through the stages
    sides = _leak_sides(compiled, leaks)
    leak_counts = _failing_counts(decoder, leaks, sides, stop_early)
    counts, ranks = np.zeros((2, len(specs), 2), dtype=np.int64)
    counts[~leak], counts[leak] = judged, leak_counts
    ranks[leak] = np.stack([side[1] for side in sides], axis=1)
    return leak, counts, ranks, pairs


def leak_failure_fractions(
    compiled: CompiledProgram, specs: list[FaultSpec]
) -> list[tuple[float, bool]]:
    """Per spec, exact P(logical failure | this fault fires) under uniform draws.

    Every consequence draw resolves to independent uniform bits (a partner
    Pauli is two bits, a junk measurement one, a readout erasure two), and
    the map from draw choices to the judged effect is GF(2)-linear, so the
    effect is uniform over the span with equal fibers.  The failing fraction
    is therefore (#failing span points) / 2^rank, with independent sides
    combining as 1 - (1-q_star)(1-q_plaq).  Each spec gives
    ``(fraction, exact)``; an over-budget side falls back to a sampled
    estimate with exact=False.  A Pauli or ``meas_flip`` spec has rank-0
    sides, so its fraction is exactly 0 or 1.
    """
    _, counts, ranks, _ = _walk(compiled, specs, Decoder(compiled.lattice))
    exact = ranks <= SPAN_BUDGET_BITS
    survive = 1.0 - counts / np.where(exact, 2.0**ranks, SAMPLE_COUNT)
    return list(zip((1.0 - survive.prod(axis=1)).tolist(), exact.all(axis=1).tolist()))


# ---------------------------------------------------------------------------
# the scan


def scan(
    compiled: CompiledProgram,
    universe: list[FaultSpec] | None = None,
    decoder: Decoder | None = None,
    max_faults: int = 1,
) -> ScanVerdict:
    """Judge every spec in the universe with all other noise off."""
    if max_faults not in (1, 2):
        raise ValueError("max_faults must be 1 or 2")
    if universe is None:
        universe = enumerate_fault_universe(compiled)
    leak, counts, ranks, pair_failures = _walk(
        compiled, universe, decoder or Decoder(compiled.lattice), max_faults, stop_early=True)
    failing = counts.any(axis=1)

    program = compiled.program
    return ScanVerdict(
        variant=program.variant,
        d=compiled.lattice.d,
        n_rounds=program.n_rounds,
        max_faults=max_faults,
        n_pauli_specs=int((~leak).sum()),
        n_leak_specs=int(leak.sum()),
        pauli_failures=list(compress(universe, failing & ~leak)),
        leak_failures=list(compress(universe, failing & leak)),
        pair_failures=pair_failures,
        sampled=list(compress(universe, (ranks > SPAN_BUDGET_BITS).any(axis=1))),
    )


def verdict_to_text(compiled: CompiledProgram, verdict: ScanVerdict) -> str:
    """Versioned scan report with failing locations grouped by site class."""
    noise = compiled.noise
    lines = [
        "toricleak-scan v1",
        f"variant={verdict.variant} d={verdict.d} rounds={verdict.n_rounds} "
        f"max_faults={verdict.max_faults}",
        f"policy side_policy={noise.side_policy} site_filter={noise.site_filter} "
        f"init_leak={'on' if noise.p_init_leak > 0 else 'off'} "
        "leaked_meas=random_bit",
        f"universe pauli={verdict.n_pauli_specs} leak={verdict.n_leak_specs}",
        f"pauli_failing={len(verdict.pauli_failures)}",
        f"leak_failing={len(verdict.leak_failures)}",
    ]
    groups: dict[tuple, list[int]] = {}
    for spec in verdict.pauli_failures + verdict.leak_failures:
        loc = spec_location(compiled, spec)
        key = (loc.fault, loc.kind, loc.ordinal, loc.role, loc.phase)
        groups.setdefault(key, []).append(loc.round)
    for key in sorted(groups, key=str):
        fault, kind, ordinal, role, phase = key
        rounds = ",".join(str(r) for r in sorted(set(groups[key])))
        lines.append(
            f"group fault={fault} kind={kind} ordinal={ordinal} role={role} "
            f"phase={phase} specs={len(groups[key])} rounds={rounds}"
        )
    if verdict.max_faults == 2:
        lines.append(
            f"pairs_scanned={verdict.n_pairs} pairs_failing={len(verdict.pair_failures)}"
        )
    lines.append(f"sampled={len(verdict.sampled)}")
    lines.append(f"distance_preserving={int(verdict.distance_preserving)}")
    lines.append(f"exhaustive={int(verdict.exhaustive)}")
    return "\n".join(lines) + "\n"
