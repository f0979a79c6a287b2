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
to (detection events, readout frame) is GF(2)-linear.  Each unit outcome
choice's effect is replayed once per call and shared by every spec whose
trace opens its slot, as a detector error model shares a fault's effect.
The sharing is exact.  A ``measbit`` or ``readout`` unit is a plain bit
flip, so its effect is its replay alone.  A ``("pair", g, pos)`` slot opens
only while the other qubit of gate g is leaked.  One fault opens one leak,
and that qubit stays leaked (SWAPs leave leak flags in place) until its
next measurement or preparation, so the leak pattern after g is fixed by
``(g, pos)``.  With it fixed the executor is GF(2)-linear in the frame, so
the unit's effect is the replay of the leak ``(g, 1 - pos)`` plus the
partner Pauli at g, XOR the replay of that leak alone.  A spec's effects,
in its trace's order, are reduced to a basis, and the whole span is
enumerated.
The code is CSS and CNOT never mixes X and Z frame sectors, so every unit
effect lands on one check type (``_span_sides`` raises ``ValueError`` if
one does not).  The span therefore splits into a star side (star events +
the two judge bits of the data X frame) and a plaquette side (plaquette
events + the Z frame's two), which the decoder also judges independently.
A side keeps its points as ints: bit ``t·d² + site`` is the check type's
event cell, over the program's ``(rounds+1)·d²`` cells, with the two judge
bits above.  One judge, ``_failing_counts``, counts each side's failing
points, judging each as a row of event cells (``_rows``'s layout) by
``Decoder.parities``, in stages by doubling: stage 0 is each side's base
point, stage k the points ``2^(k-1) .. 2^k - 1``, the earlier points XOR
basis vector k - 1 (an XOR of rows is GF(2)-correct, judge value
included).  ``scan`` drops a spec from later stages once a point fails;
``leak_failure_fractions`` reads the counts.  A side whose rank exceeds
``SPAN_BUDGET_BITS`` is judged on ``SAMPLE_COUNT`` seeded random points
instead, and the spec is reported as sampled rather than exact.

A Pauli or ``meas_flip`` spec opens no consequence slots: its span is the
one point of its own replay, composed, not replayed.  A noise-free,
leak-free replay is GF(2)-linear in the injected frame and the fault-free
point is 0, so it is the XOR of the points of its single-qubit units (an X
or Z at one gate position, or one measurement flip), each replayed once
per call.  These points are rows of event cells (``_pauli_rows``); all
specs' rows, then every pair's XOR of two rows ``_PASS_ROWS`` at a time,
are judged by ``Decoder.parities`` too, the Monte-Carlo judge's row route,
so every verdict is exact for the decoder that the Monte-Carlo path runs.
Only Pauli specs pair: a leak spec's worst case already spans multi-error
combinations.

Replays run in three phases, each one executor call on ``sim.Injections``
columns, split only above ``_CHUNK_ROWS`` rows: the Pauli units, the leak
baselines with their traces, and the leak units.

Every verdict is a judge-bit verdict: the scanner does no residual-weight
analysis of the data error a replay leaves behind.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import compress, islice

import numpy as np

from .circuits import CNOT, H, MEAS_Z, PREP_Z, SWAP
from .decoder import Decoder, event_rows
from .experiments import ConfigError
from .lattice import ToricLattice
from .pauli import PAULI1_ERRORS, PAULI2_ERRORS, PAULI_X
from .sim import CompiledProgram, Injections
from .vector import execute

# read at call time, so tests can patch them
SPAN_BUDGET_BITS = 16  # max basis rank enumerated exhaustively per side
SAMPLE_COUNT = 4096  # assignments drawn when a span exceeds the budget
PAIR_CAP = 1200  # max single-fault specs admitted into pair scanning
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
    n_pairs: int = 0
    sampled: list[FaultSpec] = field(default_factory=list)  # some side over budget

    @property
    def distance_preserving(self) -> bool:
        """No failing single fault: no Pauli and no leak spec fails.  Pair
        failures do not count, so this is the distance claim only where one
        fault suffices to break it (d=3)."""
        return not self.pauli_failures and not self.leak_failures

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
# scripted replays


def _unit_injections(keys: list[tuple]) -> Injections:
    """One replay row per ``(leak, unit)`` key of ``_replays``: the leak
    ``(gate, position)`` and the unit generator ``(slot, choice)`` of
    ``_unit_generators``, each optional."""
    columns: dict[str, list] = {"leaks": [], "paulis": [], "meas_flips": [], "readout_flips": []}
    for row, (leak, unit) in enumerate(keys):
        if leak:
            columns["leaks"].append((row, *leak))
        if unit:
            (tag, *at), choice = unit
            if tag == "pair":  # the partner's X or Z
                columns["paulis"].append((row, *at, choice == "X", choice == "Z"))
            elif tag == "measbit":
                columns["meas_flips"].append((row, *at))
            else:  # readout erasure, its x or z component
                columns["readout_flips"].append((row, *at, choice == "x", choice == "z"))
    return Injections(**columns)


def _replays(unit: tuple) -> tuple:
    """The two ``(leak, unit)`` replays whose points XOR to a unit's effect:
    the unit on top of the one leak its slot implies, and that leak alone."""
    slot = unit[0]
    leak = (slot[1], 1 - slot[2]) if slot[0] == "pair" else None
    return (leak, unit), (leak, None)


def _chunks(items, size: int):
    """Lists of up to ``size`` consecutive items of any iterable."""
    it = iter(items)
    while chunk := list(islice(it, size)):
        yield chunk


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


@dataclass
class _SpanSide:
    """One check type's side of a spec's span.

    A point is one int: bit k is the type's event cell k of the program's
    ``width`` cells, in ``_rows``'s order, and the two judge bits sit above
    them; ``base`` is the baseline replay's point.
    """

    check_type: int
    width: int
    base: int
    basis: list[int]

    @property
    def exact(self) -> bool:
        """True when the side is small enough to enumerate exhaustively."""
        return len(self.basis) <= SPAN_BUDGET_BITS


def _points(lat: ToricLattice, res) -> list[list[int]]:
    """Per replay row: its star point and its plaquette point, as ints."""
    rows = _rows(lat, res)
    bits = np.concatenate([rows[..., :-1], rows[..., -1:] & 1, rows[..., -1:] >> 1], axis=2)
    packed = np.packbits(bits, axis=2, bitorder="little")
    size, blob = packed.shape[2], packed.tobytes()
    ints = [int.from_bytes(blob[k : k + size], "little") for k in range(0, len(blob), size)]
    return [ints[k : k + 2] for k in range(0, len(ints), 2)]


_UNIT_CHOICES = {"pair": ("X", "Z"), "measbit": (1,), "readout": ("x", "z")}


def _unit_generators(slots: list[tuple]) -> list[tuple]:
    """One (slot, choice) per unit outcome choice of each consequence slot."""
    return [(slot, choice) for slot in slots for choice in _UNIT_CHOICES[slot[0]]]


@functools.cache
def _unit_slots(kind: str, paulis: tuple) -> tuple[int, ...]:
    """Slots on its gate of the units whose rows XOR to a Pauli or
    ``meas_flip`` spec's row, -1 past the last: ``2·position + component``
    per X (component 0) or Z (1) of its Paulis, or 4 for its measurement
    flip.  A unit's key ``5·gate + slot`` names no other gate's unit: a
    position past 1, which no gate has, is refused here."""
    if kind == "meas_flip":
        return (4, -1, -1, -1)
    if len(paulis) > 2:
        raise ValueError(f"no gate has a qubit at position {len(paulis) - 1} for a Pauli")
    slots = tuple(2 * pos + comp
                  for pos, (x, z) in enumerate(paulis) for comp, bit in ((0, x), (1, z)) if bit)
    return slots + (-1,) * (4 - len(slots))


def _rows(lat: ToricLattice, res) -> np.ndarray:
    """Per replay row, its star and its plaquette point as uint8 rows: the
    check type's event cells in mask bit order, then its two judge bits as
    one value 0-3, as a point holds them above its mask."""
    judge = lat.logical_parities(res.data_x, res.data_z).reshape(-1, 2, 2)  # [row, type, bit]
    return np.concatenate([event_rows(res.syndromes), judge[..., :1] | judge[..., 1:] << 1], axis=2)


def _unit_rows(compiled: CompiledProgram, keys: list[int]) -> np.ndarray:
    """The rows of the units that ``keys`` name, then one zero row.  Key
    ``5·gate + slot`` is, by ``divmod``, an X (even slot) or a Z (odd) at
    position ``slot // 2`` of the gate, or its measurement flip (slot 4);
    one executor call replays them all, split only above ``_CHUNK_ROWS``
    rows.  The executor refuses a unit on a gate, position or measurement
    the program lacks."""
    width = (compiled.program.n_rounds + 1) * compiled.lattice.d**2
    rows = np.zeros((len(keys) + 1, 2, width + 1), dtype=np.uint8)
    keys = np.asarray(keys, dtype=np.int64)
    for lo in range(0, len(keys), _CHUNK_ROWS):
        gate, slot = np.divmod(keys[lo : lo + _CHUNK_ROWS], 5)
        row, component, flip = np.arange(len(gate)), slot % 2, slot == 4
        injections = Injections(
            paulis=np.stack([row, gate, slot // 2, 1 - component, component], axis=1)[~flip],
            meas_flips=np.stack([row, gate], axis=1)[flip])
        res = execute(compiled, len(gate), injections=injections)
        rows[lo : lo + len(gate)] = _rows(compiled.lattice, res)
    return rows


def _pauli_rows(compiled: CompiledProgram, specs: list[FaultSpec]) -> np.ndarray:
    """Per Pauli or ``meas_flip`` spec, its rank-0 point as ``_rows`` lays
    it out: the XOR of its at most four unit rows (frame linearity),
    gathered one slot at a time, an empty slot reading the zero row."""
    gates = np.array([spec.gate_index for spec in specs], dtype=np.intp)
    slots = np.array([_unit_slots(s.kind, s.paulis) for s in specs], dtype=np.intp).reshape(-1, 4)
    used = slots >= 0
    keys = (5 * gates[:, None] + slots)[used].tolist()
    index = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    slots[used] = [index[key] for key in keys]
    slots[~used] = len(index)
    units = _unit_rows(compiled, list(index))
    rows = units[slots[:, 0]]
    for slot in slots.T[1:]:
        rows ^= units[slot]
    return rows


def _cell_ids(rows: np.ndarray) -> np.ndarray:
    """Per check type and row, the rank of the row's cells among the
    distinct ones: rows with equal ids have equal cells."""
    packed = np.packbits(rows[..., :-1], axis=2)
    cells = packed.view(np.dtype((np.void, packed.shape[2])))[..., 0]  # one bytes key per row and type
    return np.array([np.unique(cells[:, ct], return_inverse=True)[1] for ct in (0, 1)])


def _failing_rows(decoder: Decoder, rows: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
    """Whether each row of points fails: on some check type, its judge
    bits differ from ``Decoder.parities`` of its cells, which judges the
    first row of each distinct id of ``ids[type]`` (equal ids, equal
    cells; by default the rows' own ``_cell_ids``)."""
    ids = _cell_ids(rows) if ids is None else ids
    fail = np.zeros(len(rows), dtype=bool)
    for ct in (0, 1):
        _, first, inverse = np.unique(ids[ct], return_index=True, return_inverse=True)
        fail |= rows[:, ct, -1] != decoder.parities(ct, rows[first, ct, :-1])[inverse]
    return fail


def _pair_failures(decoder: Decoder, specs: list[FaultSpec], rows: np.ndarray) -> list[tuple]:
    """The pairs ``(specs[i], specs[j])``, ``i < j`` in order, whose point,
    the XOR of their two rows, fails; ``_PASS_ROWS`` pairs per pass.  The
    rows' ``_cell_ids`` key the pairs: equal id pairs, equal XORed cells."""
    n, total, ids = len(specs), len(specs) * (len(specs) - 1) // 2, _cell_ids(rows)
    first = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2  # flat number of pair (i, i + 1)
    failures = []
    for lo in range(0, total, _PASS_ROWS):
        k = np.arange(lo, min(lo + _PASS_ROWS, total))
        i = np.searchsorted(first, k, side="right") - 1
        j = k - first[i] + i + 1
        fail = _failing_rows(decoder, rows[i] ^ rows[j], ids[:, i] * n + ids[:, j])
        failures += [(specs[a], specs[b]) for a, b in zip(i[fail].tolist(), j[fail].tolist())]
    return failures


def _leak_sides(compiled: CompiledProgram, specs: list[FaultSpec]):
    """Per leak spec, in order: its span sides.

    Two replay phases, each one executor call, split only above
    ``_CHUNK_ROWS`` rows: every spec's baseline, which also yields its
    trace, then the ``_replays`` of every distinct unit generator that the
    traces open.  Each generator's effect is taken once and shared by every
    spec whose trace opens it.
    """
    lat = compiled.lattice
    width = (compiled.program.n_rounds + 1) * lat.d**2
    base, units = [], []
    for group in _chunks(specs, _CHUNK_ROWS):
        traces: list[list] = [[] for _ in group]
        leaks = Injections(leaks=[(row, s.gate_index, s.victim) for row, s in enumerate(group)])
        base += _points(lat, execute(compiled, len(group), injections=leaks, traces=traces))
        units += map(_unit_generators, traces)
    generators = dict.fromkeys(gen for gens in units for gen in gens)
    points = {(None, None): [0, 0]}  # per (leak, unit) replay; the fault-free one is 0
    keys = dict.fromkeys(key for gen in generators for key in _replays(gen) if key not in points)
    for chunk in _chunks(keys, _CHUNK_ROWS):
        res = execute(compiled, len(chunk), injections=_unit_injections(chunk))
        points.update(zip(chunk, _points(lat, res)))
    effects = {gen: [p ^ q for p, q in zip(*map(points.get, _replays(gen)))] for gen in generators}
    del points  # only the effects live on through the yields
    for spec_base, gens in zip(base, units):
        yield _span_sides([effects[gen] for gen in gens], spec_base, width)


def _span_sides(effects: list, base: list[int], width: int) -> list[_SpanSide]:
    """The star side and then the plaquette side of one spec's span, from
    the star and plaquette points of its unit effects and of its baseline."""
    if any(all(unit) for unit in effects):
        raise ValueError("a unit effect touches both check types")
    return [_SpanSide(ct, width, base[ct], _gf2_basis([unit[ct] for unit in effects]))
            for ct in (0, 1)]


def _stacked(batch: list[_SpanSide]) -> tuple[np.ndarray, ...]:
    """Sides of one check type, their points as ``_rows`` lays them out:
    their ranks, their bases ``(1, side, cell)``, and their basis vectors,
    one row each, side after side."""
    width = batch[0].width
    points = [side.base for side in batch] + [vec for side in batch for vec in side.basis]
    size = (width + 9) // 8  # bytes that hold bit width + 1
    blob = b"".join(point.to_bytes(size, "little") for point in points)
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8).reshape(-1, size), axis=1,
                         count=width + 2, bitorder="little")
    rows = np.concatenate([bits[:, :width], bits[:, width:-1] | bits[:, -1:] << 1], axis=1)
    ranks = np.array([len(side.basis) for side in batch])
    return ranks, rows[None, : len(batch)], rows[len(batch) :]


def _sampled_points(spec: FaultSpec, side: _SpanSide) -> np.ndarray:
    """An over-budget side's ``SAMPLE_COUNT`` random basis combinations,
    seeded by the spec and the side's rank, as one block ``(point, cell)``."""
    _, base, vectors = _stacked([side])
    rank = len(side.basis)
    rng = np.random.default_rng(np.random.SeedSequence([spec.gate_index, spec.victim, rank, 1]))
    bits = rng.integers(0, 2, size=(SAMPLE_COUNT, rank)).astype(np.uint8)
    points = np.repeat(base[:, 0], SAMPLE_COUNT, axis=0)
    for j in range(rank):
        points ^= bits[:, j, None] * vectors[j]
    return points


def _judged(decoder: Decoder, check_type: int, stage: np.ndarray) -> np.ndarray:
    """Per side of a stage ``(point, side, cell)`` of one check type, how
    many of its points fail, by ``Decoder.parities``, ``_PASS_ROWS`` rows
    per call."""
    rows = stage.reshape(-1, stage.shape[2])
    fail = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), _PASS_ROWS):
        part = rows[lo : lo + _PASS_ROWS]
        fail[lo : lo + _PASS_ROWS] = part[:, -1] != decoder.parities(check_type, part[:, :-1])
    return fail.reshape(stage.shape[:2]).sum(axis=0)


def _doubled(points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Points ``(point, side, cell)`` and then each XOR its side's row of
    ``vectors``, in one array of twice the points: the second half is the
    next stage, contiguous, so judging it copies nothing."""
    grown = np.empty((2 * len(points), *points.shape[1:]), dtype=points.dtype)
    grown[: len(points)] = points
    np.bitwise_xor(points, vectors, out=grown[len(points) :])
    return grown


def _kept(stacks: dict, keep) -> dict:
    """The stacks with only the sides that ``keep(owners, ranks)`` selects;
    a stack that keeps every side is kept as it is, not copied."""
    kept = {}
    for ct, (owners, ranks, points, first) in stacks.items():
        mask = keep(owners, ranks)
        if mask.all():
            kept[ct] = stacks[ct]
        elif mask.any():
            # compress, unlike points[:, mask], keeps the stage contiguous for _judged
            kept[ct] = owners[mask], ranks[mask], np.compress(mask, points, axis=1), first[mask]
    return kept


def _failing_counts(decoder: Decoder, specs: list[FaultSpec], sides: list[list[_SpanSide]],
                    stop_early: bool = False) -> np.ndarray:
    """The one judge: per leak spec and check type, how many of that side's
    span points fail.

    Exact sides go in stages: stage 0 is each side's base point, stage k
    the points ``2^(k-1) .. 2^k - 1`` of the sides of rank k or more, the
    earlier points XOR basis vector k - 1.  Each side then holds ``2^(k-1)``
    earlier points, whatever its rank, so one stack ``(point, side, cell)``
    per check type holds them.  A stage grows the stack once, into an array
    of twice the points whose second half it is (``_doubled``), or, when it
    is the last stage of every side in the stack, overwrites the earlier
    points; one ``_judged`` call judges it.  A stage after which the stacks
    would hold more than ``_PASS_ROWS`` points first splits off its later
    open specs, which resume there once the rest are done.  An over-budget
    side is judged on its ``_sampled_points``.  With ``stop_early`` a spec
    leaves after its first failing stage, so only whether its counts are
    zero holds.
    """
    counts = np.zeros((len(sides), 2), dtype=np.int64)
    todo = [(range(len(sides)), 0)]  # (spec numbers, the stage they resume at)
    while todo:
        members, j = todo.pop()
        # per check type: its open sides' spec numbers, ranks, earlier points and
        # the row of their first basis vector (stacks), and the basis vectors' rows
        stacks, vectors = {}, {}
        for ct in (0, 1):
            owners = [k for k in members if sides[k][ct].exact and len(sides[k][ct].basis) >= j]
            if owners:
                ranks, points, vectors[ct] = _stacked([sides[k][ct] for k in owners])
                first = ranks.cumsum() - ranks
                for i in range(j - 1):  # rebuild the points 0 .. 2^(j-1) - 1
                    points = _doubled(points, vectors[ct][first + i])
                stacks[ct] = np.array(owners), ranks, points, first
        while stacks := _kept(stacks, lambda owners, ranks:
                              (ranks >= j) & ~(stop_early & counts[owners].any(axis=1))):
            held = sum(len(stack[0]) for stack in stacks.values()) << j  # points held after stage j
            open_specs = sorted({k for stack in stacks.values() for k in stack[0].tolist()})
            if held > _PASS_ROWS and len(open_specs) > 1:
                cut = open_specs[len(open_specs) // 2]
                todo.append((open_specs[len(open_specs) // 2 :], j))
                stacks = _kept(stacks, lambda owners, _: owners < cut)
                continue
            for ct in stacks:  # not .items(), whose iterator keeps the last stack alive
                owners, ranks, points, first = stacks[ct]
                if j and ranks.max() > j:  # the earlier points leave with the stack they grew from
                    points = _doubled(points, vectors[ct][first + j - 1])
                    stacks[ct] = owners, ranks, points, first
                    points = points[len(points) // 2 :]
                elif j:  # every side's last stage: no later stage reads the earlier points
                    np.bitwise_xor(points, vectors[ct][first + j - 1], out=points)
                counts[owners, ct] += _judged(decoder, ct, points)
            del points  # so that a stack the next stage drops frees its points
            j += 1
    step = max(1, _PASS_ROWS // SAMPLE_COUNT)
    for ct in (0, 1):
        over = [k for k, spec_sides in enumerate(sides) if not spec_sides[ct].exact]
        for lo in range(0, len(over), step):
            batch = [k for k in over[lo : lo + step] if not (stop_early and counts[k].any())]
            if batch:  # filled side by side, so that only one side's block is extra
                width = sides[batch[0]][ct].width + 1
                stage = np.empty((SAMPLE_COUNT, len(batch), width), dtype=np.uint8)
                for i, k in enumerate(batch):
                    stage[:, i] = _sampled_points(specs[k], sides[k][ct])
                counts[batch, ct] = _judged(decoder, ct, stage)
    return counts


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
    decoder = Decoder(compiled.lattice)
    paulis = [s for s in specs if s.kind != "leak"]
    failing = iter(_failing_rows(decoder, _pauli_rows(compiled, paulis)).tolist())  # rows freed here
    leaks = [s for s in specs if s.kind == "leak"]
    sides = list(_leak_sides(compiled, leaks))
    judged = zip(sides, _failing_counts(decoder, leaks, sides).tolist())
    out = []
    for spec in specs:
        if spec.kind != "leak":
            out.append((float(next(failing)), True))
            continue
        spec_sides, counts = next(judged)
        survive = 1.0
        for side, count in zip(spec_sides, counts):
            survive *= 1.0 - count / (1 << len(side.basis) if side.exact else SAMPLE_COUNT)
        out.append((1.0 - survive, all(side.exact for side in spec_sides)))
    return out


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
    decoder = decoder or Decoder(compiled.lattice)

    pauli_specs = [s for s in universe if s.kind in ("pauli", "meas_flip")]
    leak_specs = [s for s in universe if s.kind == "leak"]
    if max_faults == 2 and len(pauli_specs) > PAIR_CAP:
        raise ConfigError(
            f"pair scanning capped at {PAIR_CAP} single-fault specs, "
            f"got {len(pauli_specs)}; pass a restricted universe"
        )

    rows = _pauli_rows(compiled, pauli_specs)
    pauli_failures = list(compress(pauli_specs, _failing_rows(decoder, rows)))
    pair_failures = _pair_failures(decoder, pauli_specs, rows) if max_faults == 2 else []
    del rows  # no Pauli row lives through the leak walk

    sides = list(_leak_sides(compiled, leak_specs))
    failing = _failing_counts(decoder, leak_specs, sides, stop_early=True).any(axis=1)
    leak_failures = list(compress(leak_specs, failing))
    sampled = [spec for spec, spec_sides in zip(leak_specs, sides)
               if not all(side.exact for side in spec_sides)]
    n_pairs = len(pauli_specs) * (len(pauli_specs) - 1) // 2 if max_faults == 2 else 0

    program = compiled.program
    return ScanVerdict(
        variant=program.variant,
        d=compiled.lattice.d,
        n_rounds=program.n_rounds,
        max_faults=max_faults,
        n_pauli_specs=len(pauli_specs),
        n_leak_specs=len(leak_specs),
        pauli_failures=pauli_failures,
        leak_failures=leak_failures,
        pair_failures=pair_failures,
        n_pairs=n_pairs,
        sampled=sampled,
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
