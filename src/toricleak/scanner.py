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

The universe is columns (``_Universe``): per spec a template (its kind and
Paulis, ``_TEMPLATES``), a gate and a victim, from which its up to four
unit keys follow.  ``_enumerated`` builds them from the gate table's leak
columns and per-gate-kind templates with ``np.repeat``; a given
``FaultSpec`` list is converted once (``_from_specs``), each spec checked
by ``_refused`` and then by the templates.  A ``FaultSpec`` is built only
for what a caller reads: ``enumerate_fault_universe``, and a scan's
failures, sampled specs and pair members, each built once.  A verdict
keeps its failing pairs as two index arrays and builds their tuples only
when ``pair_failures`` is read.

Worst-case leak semantics are evaluated exactly.  The leak trajectory is
fixed by the location alone (outcome choices never create or move leaks),
so the consequence slots are a fixed list and the map from outcome choices
to (detection events, readout frame) is GF(2)-linear.  A traced executor
call reports the slots as codes per row and gate, and the leaked final
carriers as readout slots; each opens one or two units, named by int keys
(``_generators``).  Each unit's effect is taken once per call and shared
by every spec whose trace opens it, as a detector error model shares a
fault's effect.  The sharing is exact.  A junk measurement or readout unit
is a plain bit flip, so its effect is its plain replay.  A pair slot at
gate g and partner position pos opens only while the other qubit of gate
g is leaked.  One fault opens one leak, and that qubit stays leaked (SWAPs
leave leak flags in place) until its next measurement or preparation, so
the leak pattern after g is fixed by ``(g, pos)``.  With it fixed the
executor is GF(2)-linear in the frame, so the unit's effect is the replay
of the leak ``(g, 1 - pos)`` plus the partner Pauli at g, XOR the replay of
that leak alone.  That equals the plain replay of the partner Pauli when
the leak never touches what the Pauli reaches: a unit is inert when its
forward light cone (``_inert``, per-component qubit sets walked over the
gate layers) never meets a gate that the leaked qubit blocks before that
qubit's next measurement or preparation.  The leaked qubit then keeps a
zero frame in both replays, its junk bits read that zero frame's 0, and
every gate it blocks would have moved no part of the Pauli.  An inert
unit's effect is its plain row; any other is replayed with its leak.
A spec's effects, in its trace's order, are reduced to a basis, and the
whole span is enumerated.
The code is CSS and CNOT never mixes X and Z frame sectors, so every unit
effect lands on one check type (``_sides`` raises ``ValueError`` if one does
not).  The span therefore splits into a star side (star events + the two
judge bits of the data X frame) and a plaquette side (plaquette events + the
Z frame's two), which the decoder also judges independently.  Points are
judged rows (``decoder.judge_rows``, the Monte-Carlo judge's rows too): the
check type's event cell ``t·d² + site`` over the program's ``(rounds+1)·d²``
cells, then its two judge bits as one value 0-3.  Each check type's sides
are three arrays: base rows, ranks and basis rows.  Points are ints, with
the cells as bits and the judge bits above them, only inside the one basis
step, to reduce bases.  One judge, ``_failing_counts``, counts each side's
failing points by ``Decoder.parities``, in stages: stage 0 is each side's
base point, stage k the points ``2^(k-1) .. 2^k - 1``, the base row XOR
basis vector k - 1 doubled by vectors 0 .. k - 2 (an XOR of rows is
GF(2)-correct, judge value included).  Each stage is filled afresh into one
block from the sides' arrays, for a number of sides at a time that bounds
its rows by ``_PASS_ROWS``, so no point outlives its stage.  A side whose
rank exceeds ``SPAN_BUDGET_BITS`` is judged on ``SAMPLE_COUNT`` seeded
random points instead, and the spec is reported as sampled rather than
exact.

A Pauli or ``meas_flip`` spec opens no consequence slots: its span is the
one point of its own replay, composed, not replayed.  A noise-free,
leak-free replay is GF(2)-linear in the injected frame and the fault-free
point is 0, so it is the XOR of the rows of its single-qubit units (an X
or Z at one gate position, or one measurement flip): gathers from the unit
table (``_pauli_rows``), built once per walk.  A point's verdict depends
only on its judge value and its cells, so ``_pauli_verdicts`` keys each
check type's rows once by their cells (``_cell_ids``) and judges each
distinct cell row once; at two faults it judges every XOR of two distinct
cell rows, in one table per check type that every pair reads.  Every row
reaches the matcher through ``Decoder.parities``, the Monte-Carlo judge's
row route, so every verdict is exact for the decoder that the Monte-Carlo
path runs.  Only Pauli specs pair: a leak spec's worst case already spans
multi-error combinations.  One walk (``_walk``) judges a universe: the
Pauli specs and pairs, with the unit table and the Pauli rows freed before
the leak sides are built, then the stages; ``scan`` drops a spec at its
first failing stage, and ``leak_failure_fractions`` reads the counts.

Replays run in two phases through one function, ``_replays``: each phase
is one executor call on ``sim.Injections`` columns, split only above
``_CHUNK_ROWS`` rows.  First the leak baselines, traced, then the unit
table (``_unit_table``): every unit that a Pauli spec or a leak generator
names, once, the leaks of the pair units that ``_inert`` does not prove
inert, and one fault-free row, the table's 0.  Every replay row is a leak
``(gate, position)`` and/or one unit key, and one builder, ``_injections``,
turns such columns into the executor's.

Every verdict is a judge-bit verdict: the scanner does no residual-weight
analysis of the data error a replay leaves behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuits import CNOT, H, MEAS_Z, PREP_Z, SWAP
from .decoder import Decoder, judge_rows
from .pauli import PAULI1_ERRORS, PAULI2_ERRORS, PAULI4, PAULI_X
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
    pair_index: tuple[np.ndarray, np.ndarray]  # the failing Pauli pairs as two arrays of universe indices
    pair_specs: dict[int, FaultSpec]  # the spec at each index that the verdict lists
    sampled: list[FaultSpec] = field(default_factory=list)  # some side over budget

    @property
    def pair_failures(self) -> list[tuple[FaultSpec, FaultSpec]]:
        """The failing Pauli pairs as spec tuples, built on each read."""
        first, second = self.pair_index
        return [(self.pair_specs[i], self.pair_specs[j]) for i, j in zip(first.tolist(), second.tolist())]

    @property
    def n_pair_failures(self) -> int:
        return len(self.pair_index[0])

    @property
    def n_pairs(self) -> int:
        """The Pauli pairs scanned: every two Pauli specs at two faults."""
        return self.n_pauli_specs * (self.n_pauli_specs - 1) // 2 if self.max_faults == 2 else 0

    @property
    def distance_preserving(self) -> bool:
        """No scanned set of at most ``(d - 1) // 2`` faults fails: no Pauli
        or leak spec, and from d=5 on no Pauli pair (at d=3, pairs do not
        count).  Leak specs do not pair, so no leak pair is covered."""
        return not (self.pauli_failures or self.leak_failures or (self.d >= 5 and self.n_pair_failures))

    @property
    def exhaustive(self) -> bool:
        return not self.sampled


# ---------------------------------------------------------------------------
# universe

_INTS = (int, np.integer, np.bool_)
_KINDS = ("pauli", "meas_flip", "leak")


def _padded(values: list, width: int) -> list:
    return values + [-1] * (width - len(values))


# Every spec shape: a kind and its Paulis.  A Pauli spec takes up to two
# (x, z) pairs, a meas_flip spec none, and a leak spec's Paulis are ignored.
_TEMPLATES = ([("pauli", ())] + [("pauli", (a,)) for a in PAULI4]
              + [("pauli", (a, b)) for a in PAULI4 for b in PAULI4] + [("meas_flip", ()), ("leak", ())])
_TEMPLATE_OF = {template: t for t, template in enumerate(_TEMPLATES)}
_LEAK = _TEMPLATE_OF["leak", ()]
# Per template, the slots on its gate of the units whose rows XOR to its
# row, -1 padded: ``2·position + component`` per X (component 0) or Z (1)
# of its Paulis, 4 for a measurement flip.  A unit's key is ``5·gate + slot``.
_TEMPLATE_SLOTS = np.array(
    [_padded([2 * pos + comp for pos, pauli in enumerate(paulis) for comp in (0, 1) if pauli[comp]]
             + [4] * (kind == "meas_flip"), 4) for kind, paulis in _TEMPLATES], dtype=np.int64)
# per gate kind, its Pauli or meas_flip templates in enumeration order, -1 padded
_GATE_KINDS = (PREP_Z, H, CNOT, SWAP, MEAS_Z)
_KIND_TEMPLATES = np.array([_padded([_TEMPLATE_OF[template] for template in templates], 15) for templates in (
    [("pauli", (PAULI_X,))], [("pauli", (p,)) for p in PAULI1_ERRORS],
    [("pauli", pair) for pair in PAULI2_ERRORS], [("pauli", pair) for pair in PAULI2_ERRORS],
    [("meas_flip", ())])], dtype=np.int64)


class _Universe(NamedTuple):
    """A fault universe as columns: per spec its template (an index into
    ``_TEMPLATES``), its gate and its victim (-1 but for a leak spec), and
    the ``FaultSpec`` list it was converted from, if any."""

    template: np.ndarray
    gate: np.ndarray
    victim: np.ndarray
    specs: list | None = None

    def keys(self, index: np.ndarray) -> np.ndarray:
        """Per spec at ``index``, its up to four unit keys ``5·gate + slot``,
        -1 padded."""
        slots = _TEMPLATE_SLOTS[self.template[index]]
        return np.where(slots >= 0, 5 * self.gate[index, None] + slots, -1)

    def view(self, index: np.ndarray) -> list[FaultSpec]:
        """The specs at ``index`` as ``FaultSpec``: the given ones, or new
        ones built from the columns."""
        if self.specs is not None:
            return [self.specs[k] for k in index.tolist()]
        return [FaultSpec(_TEMPLATES[t][0], g, _TEMPLATES[t][1], v) for t, g, v in
                zip(self.template[index].tolist(), self.gate[index].tolist(), self.victim[index].tolist())]


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``counts[k]`` entries per item k: each entry's item and its rank
    among the item's entries."""
    item = np.repeat(np.arange(len(counts)), counts)
    return item, np.arange(len(item)) - (np.cumsum(counts) - counts)[item]


def _enumerated(compiled: CompiledProgram) -> _Universe:
    """The program's universe as columns, in ``enumerate_fault_universe``'s
    order: per gate its kind's Pauli or ``meas_flip`` templates, then per
    leaking gate one leak spec per eligible victim."""
    kind = np.array([_GATE_KINDS.index(layer.kind) for layer in compiled.layers])[compiled.layer]
    victims = compiled.victims  # per gate, -1 padded
    pauli_gate, pauli_rank = _expand((_KIND_TEMPLATES[kind] >= 0).sum(axis=1))
    leak_gate, leak_rank = _expand(np.where(compiled.leak_prob > 0, (victims >= 0).sum(axis=1), 0))
    return _Universe(
        template=np.concatenate([_KIND_TEMPLATES[kind[pauli_gate], pauli_rank],
                                 np.full(len(leak_gate), _LEAK)]),
        gate=np.concatenate([pauli_gate, leak_gate]),
        victim=np.concatenate([np.full(len(pauli_gate), -1), victims[leak_gate, leak_rank]]))


def _template_of(kind, paulis) -> int | None:
    """The template of a spec's kind and Paulis, or None if it has none: a
    leak spec's Paulis are ignored, a meas_flip spec's must be empty, and
    unhashable Paulis have none."""
    try:
        return _TEMPLATE_OF.get((kind, () if kind == "leak" or kind == "meas_flip" and not paulis else paulis))
    except TypeError:
        return None


def _refused(spec: FaultSpec, n_gates: int) -> str | None:
    """Why a spec has no place in a program of ``n_gates`` gates: its kind
    is unknown, its gate or victim is not an integer (the int columns would
    truncate it), or its gate is outside the program.  None if it has one."""
    if spec.kind not in _KINDS:
        return f"unknown fault kind {spec.kind!r}"
    for name, value in (("gate", spec.gate_index), ("victim", spec.victim)):
        if not isinstance(value, _INTS):
            return f"the {name} {value!r} of a {spec.kind} spec is not an integer"
    if not 0 <= spec.gate_index < n_gates:
        return f"gate {spec.gate_index} is not one of the program's {n_gates} gates"
    return None


def _refusal(kind: str, paulis) -> str:
    """Why the Paulis of a Pauli or ``meas_flip`` spec without a template
    name no units: a ``meas_flip`` takes none; a Pauli spec's are a tuple of
    at most two ``(x, z)`` pairs of bits, since no gate has a position past
    1, and a unit key ``5·gate + slot`` names no other gate's unit."""
    if kind == "meas_flip":
        return f"the Pauli {paulis[0]!r} at position 0 is on a meas_flip spec, which takes none"
    if not isinstance(paulis, tuple):
        return f"the Paulis {paulis!r} are not a tuple"
    if len(paulis) > 2:
        return f"no gate has a qubit at position {len(paulis) - 1} for a Pauli"
    pos = next(pos for pos, pauli in enumerate(paulis) if _template_of("pauli", (pauli,)) is None)
    return f"the Pauli {paulis[pos]!r} at position {pos} is not an (x, z) pair of bits"


def _from_specs(compiled: CompiledProgram, specs: list[FaultSpec]) -> _Universe:
    """A ``FaultSpec`` list as columns, converted once.  Before any replay
    the first spec that ``_refused`` refuses is refused, and then the first
    whose Paulis have no template (``_refusal``): a unit key at or above
    ``5·n_gates`` names a readout unit, and gate -1 names no leak
    (``_injections``)."""
    n_gates = len(compiled.labels)
    for spec in specs:
        if refusal := _refused(spec, n_gates):
            raise ValueError(refusal)
    template = [_template_of(s.kind, s.paulis) for s in specs]
    if None in template:
        spec = specs[template.index(None)]
        raise ValueError(_refusal(spec.kind, spec.paulis))
    gate, victim = (np.fromiter((getattr(s, name) for s in specs), dtype=np.int64, count=len(specs))
                    for name in ("gate_index", "victim"))
    return _Universe(np.array(template, dtype=np.int64).reshape(-1), gate, victim, specs)


def enumerate_fault_universe(compiled: CompiledProgram) -> list[FaultSpec]:
    """Deterministic list of all single-fault specs for this program/policy."""
    universe = _enumerated(compiled)
    return universe.view(np.arange(len(universe.gate)))


def spec_location(compiled: CompiledProgram, spec: FaultSpec) -> SpecLocation:
    """Where a spec sits.  A spec that a scan refuses is a ``ValueError``
    with the scan's message: what ``_from_specs`` refuses, then what the
    executor refuses of the spec's replay rows: a leak or a Pauli at a
    position that its gate lacks, or a measurement flip on a gate that is
    no measurement."""
    universe = _from_specs(compiled, [spec])
    keys = universe.keys(np.arange(1))[0]
    if universe.template[0] == _LEAK:
        leaks, keys = np.column_stack([universe.gate, universe.victim]), keys[:1]
    else:
        keys = keys[keys >= 0]
        leaks = np.full((len(keys), 2), -1)
    execute(compiled, len(keys), injections=_injections(len(compiled.labels), leaks, keys))
    return _location(compiled, spec)


def _location(compiled: CompiledProgram, spec: FaultSpec) -> SpecLocation:
    """Where a spec that a scan placed sits."""
    label = compiled.labels[spec.gate_index]
    role = label.roles[spec.victim] if spec.kind == "leak" else "+".join(label.roles)
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


def _replays(compiled: CompiledProgram, leaks: np.ndarray, keys: np.ndarray, trace: bool = False):
    """The judged rows (``judge_rows``) of the replays that ``leaks`` and
    ``keys`` describe (``_injections``), one executor call split only above
    ``_CHUNK_ROWS`` rows.  The executor refuses a unit on a gate, position
    or measurement the program lacks.  Traced, the rows come with the
    generators that their traces open (``_generators``), row by row in
    trace order: per generator, its row and its unit key.  No part's slot
    codes outlive it."""
    n_gates = len(compiled.labels)
    width = (compiled.program.n_rounds + 1) * compiled.lattice.d**2
    rows = np.empty((len(keys), 2, width + 1), dtype=np.uint8)
    owners, units = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(keys), _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, len(keys))
        injections = _injections(n_gates, leaks[lo:hi], keys[lo:hi])
        res = execute(compiled, hi - lo, injections=injections, trace=trace)
        rows[lo:hi] = judge_rows(compiled.lattice, res)
        if trace:
            owner, unit = _generators(res, compiled.program.final_data_carrier, n_gates)
            owners.append(owner + lo)
            units.append(unit)
    return (rows, np.concatenate(owners), np.concatenate(units)) if trace else rows


def _inert(compiled: CompiledProgram, units: np.ndarray) -> np.ndarray:
    """Per pair unit, by sorted key ``5·gate + 2·pos + component``, whether
    its forward light cone proves it inert: the partner's X (component 0)
    or Z (1) after the gate never reaches a qubit in a way that the leaked
    qubit, at position ``1 - pos``, would block before its next measurement
    or preparation.

    One walk over the gate layers carries, per unit, the qubits that its
    Pauli may have reached as an X and as a Z (CNOT spreads a control's X
    to its target and a target's Z to its control, SWAP moves both, H
    exchanges them, a measurement or preparation clears them), and where
    its leaked qubit is, while it is leaked.  A unit meets its leak at a
    CNOT whose leaked control would keep its target's Z from spreading, or
    whose leaked target would keep its control's X, and at a SWAP whose
    leaked qubit would keep its partner's frame.  Reaching a qubit may
    over-approximate the frame, never miss it, so an inert unit's effect
    is exactly its plain replay; a unit that meets its leak may still be
    inert, and is replayed."""
    layers, n_qubits = compiled.layers, compiled.lattice.n_qubits
    gate, slot = np.divmod(units, 5)
    pos, component = slot // 2, slot % 2
    partner, leaked = compiled.qubits[pos, gate], compiled.qubits[1 - pos, gate]
    reach = np.zeros((2, n_qubits, len(units)), dtype=bool)  # [component, qubit, unit]
    held = np.zeros((n_qubits, len(units)), dtype=bool)  # [qubit, unit]: the leaked qubit, while leaked
    met = np.zeros(len(units), dtype=bool)
    opened = np.searchsorted(compiled.layer[gate], np.arange(len(layers)), side="right").tolist()
    for layer, lo, hi in zip(layers, [0] + opened, opened):
        a, b = layer.q0, layer.q1
        if layer.kind == CNOT:
            met |= (held[a] & reach[1, b] | held[b] & reach[0, a]).any(axis=0)
            reach[0, b] |= reach[0, a]
            reach[1, a] |= reach[1, b]
        elif layer.kind == SWAP:
            met |= (held[a] & reach[:, b].any(axis=0) | held[b] & reach[:, a].any(axis=0)).any(axis=0)
            reach[:, a], reach[:, b] = reach[:, b], reach[:, a]
        elif layer.kind == H:
            reach[:, a] = reach[::-1, a]
        else:  # a measurement or preparation clears the frame and the leak
            reach[:, a] = held[a] = False
        # the units of this layer's gates open after it, as their injections land
        unit = np.arange(lo, hi)
        reach[component[lo:hi], partner[lo:hi], unit] = True
        held[leaked[lo:hi], unit] = True
    return ~met


def _unit_table(compiled: CompiledProgram, keys: np.ndarray, generators: np.ndarray) -> tuple:
    """The second replay phase, one executor call: the rows of every unit
    that the Pauli specs' unit keys ``keys`` (-1 padded) or the leak
    generators' keys ``generators`` name, each once, for each pair unit
    that ``_inert`` does not prove inert, its replay on the leak ``(g, 1 -
    pos)`` that its slot implies and, per such leak, that leak alone, and
    last one fault-free replay, whose row is 0 (frame linearity).

    Returns the table, each key's row in it (-1: the zero row), and the
    distinct generator units' effects with each generator's unit among
    them.  An inert unit's effect is its plain row, any other pair unit's
    its leaky replay XOR its leak's."""
    n_gates = len(compiled.labels)
    units, unit_of = np.unique(generators, return_inverse=True)
    gate, slot = np.divmod(units, 5)
    leaky = (units < 5 * n_gates) & (slot < 4)
    leaky[leaky] = ~_inert(compiled, units[leaky])
    plain = np.zeros(5 * n_gates + 2 * compiled.lattice.n_data, dtype=bool)  # per key: its plain row is held
    plain[keys[keys >= 0]] = plain[units[~leaky]] = True
    row = np.cumsum(plain) - 1  # per held key, its row
    plain = np.flatnonzero(plain)
    implied = 2 * gate[leaky] + 1 - slot[leaky] // 2  # the leak (gate, 1 - pos), as 2·gate + position
    alone, partner = np.unique(implied, return_inverse=True)
    leaks = np.concatenate([np.full((len(plain), 2), -1), np.column_stack(np.divmod(implied, 2)),
                            np.column_stack(np.divmod(alone, 2)), np.full((1, 2), -1)])
    table = _replays(compiled, leaks, np.concatenate([plain, units[leaky], np.full(len(alone) + 1, -1)]))
    index = np.where(keys >= 0, row[keys], len(table) - 1)
    first = row[units]
    second = np.full(len(units), len(table) - 1)
    first[leaky] = len(plain) + np.arange(len(implied))
    second[leaky] = len(plain) + len(implied) + partner
    return table, index, table[first] ^ table[second], unit_of


def _pauli_rows(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per Pauli or ``meas_flip`` spec, its rank-0 point as a judged row:
    the XOR of the table rows that its row of ``index`` names (frame
    linearity), an empty slot reading the zero row."""
    points = table[index[:, 0]]
    for column in index.T[1:]:
        points ^= table[column]
    return points


def _cell_ids(rows: np.ndarray) -> np.ndarray:
    """Per check type and row, the rank of the row's cells among the
    distinct ones: rows with equal ids have equal cells."""
    packed = np.packbits(rows[..., :-1], axis=2)
    cells = packed.view(np.dtype((np.void, packed.shape[2])))[..., 0]  # one bytes key per row and type
    return np.array([np.unique(cells[:, ct], return_inverse=True)[1] for ct in (0, 1)])


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


def _sides(base: np.ndarray, effects: np.ndarray, owner: np.ndarray, unit_of: np.ndarray) -> list:
    """Per check type, star then plaquette, the sides of the specs' spans
    as three arrays: each spec's base row, its rank, and the basis rows,
    spec k's at offset ``ranks.cumsum() - ranks``, all judged rows.

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


def _sampled_points(leak: tuple[int, int], base: np.ndarray, vectors: np.ndarray, points: np.ndarray) -> None:
    """Fill ``points`` ``(point, cell)`` in place with an over-budget
    side's ``SAMPLE_COUNT`` random combinations of its basis rows
    ``vectors`` on its base row, seeded by the spec's ``(gate, victim)``
    and the side's rank."""
    rank = len(vectors)
    rng = np.random.default_rng(np.random.SeedSequence([*leak, rank, 1]))
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


def _failing_counts(decoder: Decoder, leaks: np.ndarray, sides: list,
                    stop_early: bool = False) -> np.ndarray:
    """The one judge: per leak spec ``(gate, victim)`` of ``leaks`` and
    check type, how many of that side's span points fail; ``sides`` are
    ``_sides``'s arrays.

    Exact sides go in stages: stage 0 is each side's base point, stage j
    the points ``2^(j-1) .. 2^j - 1`` of the sides of rank j or more, built
    afresh from the sides' arrays (``_stage``), so no point outlives its
    stage.  Stage j's sides go in passes of ``_PASS_ROWS >> (j + 1)`` sides,
    at least one, each judged by one ``_judged`` call: a pass's block holds
    at most ``_PASS_ROWS // 2`` rows, unless it is one side's stage.  An
    over-budget side is judged on its ``_sampled_points``, up to
    ``_PASS_ROWS // 2 // SAMPLE_COUNT`` sides a block, to the same bound.
    With ``stop_early`` a spec leaves after its first failing stage, so
    only whether its counts are zero holds.
    """
    counts = np.zeros((len(leaks), 2), dtype=np.int64)
    firsts = [ranks.cumsum() - ranks for _, ranks, _ in sides]  # each side's first basis row
    for j in range(SPAN_BUDGET_BITS + 1):
        live = ~(stop_early & counts.any(axis=1))  # read over both check types before the stage
        step = max(1, _PASS_ROWS >> (j + 1))
        for ct, (base, ranks, basis) in enumerate(sides):
            owners = np.flatnonzero(live & (ranks >= j) & (ranks <= SPAN_BUDGET_BITS))
            for lo in range(0, len(owners), step):
                part = owners[lo : lo + step]
                counts[part, ct] += _judged(decoder, ct, _stage(base[part], basis, firsts[ct][part], j))
    step = max(1, _PASS_ROWS // 2 // SAMPLE_COUNT)
    for ct, (base, ranks, basis) in enumerate(sides):
        over = np.flatnonzero(ranks > SPAN_BUDGET_BITS).tolist()
        for lo in range(0, len(over), step):
            batch = [k for k in over[lo : lo + step] if not (stop_early and counts[k].any())]
            if batch:  # filled in place side by side, so that no side's block is extra
                stage = np.empty((SAMPLE_COUNT, len(batch), base.shape[1]), dtype=np.uint8)
                for i, k in enumerate(batch):
                    first = firsts[ct][k]
                    _sampled_points(leaks[k].tolist(), base[k], basis[first : first + ranks[k]], stage[:, i])
                counts[batch, ct] = _judged(decoder, ct, stage)
    return counts


def _pauli_verdicts(decoder: Decoder, rows: np.ndarray, max_faults: int) -> tuple:
    """Per Pauli spec, whose rank-0 point is its row of ``rows``, and check
    type, whether its point fails; then, at two faults, the pairs ``(i,
    j)``, ``i < j`` in order, whose point, the XOR of their rows, fails.

    A point's parities depend only on its cells, and a pair's only on the
    ``_cell_ids`` of its two rows.  So each check type's rows are keyed
    once, id 0 for a zero row put before the distinct cell rows, and only
    XORs of two distinct ids reach ``Decoder.parities``, ``_PASS_ROWS`` at
    a time: the pairs ``(0, k)`` first, each distinct row once, and at two
    faults every other pair too, kept in a table per type.  Row i's pairs
    with later rows read both tables (star bits 0-1, plaquette 2-3)."""
    ids, judge = _cell_ids(rows) + 1, rows[..., -1]
    fails, tables = np.zeros((len(rows), 2), dtype=np.uint8), []
    for ct in (0, 1):
        distinct = rows[np.unique(ids[ct], return_index=True)[1], ct, :-1]
        cells = np.pad(distinct, ((1, 0), (0, 0)))  # row k: the cells of id k
        n = len(cells)
        a, b = np.triu_indices(n, 1) if max_faults == 2 else (np.zeros(n - 1, dtype=np.int64), np.arange(1, n))
        parities = np.zeros(len(a), dtype=np.uint8)
        for lo in range(0, len(a), _PASS_ROWS):
            i, j = a[lo : lo + _PASS_ROWS], b[lo : lo + _PASS_ROWS]
            parities[lo : lo + len(i)] = decoder.parities(ct, cells[i] ^ cells[j])
        fails[:, ct] = judge[:, ct] != parities[ids[ct] - 1]  # pair (0, k) is pair k - 1
        if max_faults == 2:
            tables.append(np.zeros((n, n), dtype=np.uint8))  # a row XOR itself has no events
            tables[ct][a, b] = tables[ct][b, a] = parities << 2 * ct
    if max_faults == 1:
        return fails, (np.zeros(0, dtype=np.int64),) * 2
    judge, firsts, seconds = judge[:, 0] | judge[:, 1] << 2, [], []
    for i in range(len(rows) - 1):
        rest = slice(i + 1, None)
        verdict = tables[0][ids[0, i]][ids[0, rest]] | tables[1][ids[1, i]][ids[1, rest]]
        seconds.append(np.flatnonzero(verdict != judge[rest] ^ judge[i]) + i + 1)
        firsts.append(np.full(len(seconds[-1]), i))
    empty = [np.zeros(0, dtype=np.int64)]
    return fails, (np.concatenate(empty + firsts), np.concatenate(empty + seconds))


def _walk(compiled: CompiledProgram, universe: _Universe, decoder: Decoder,
          max_faults: int = 1, stop_early: bool = False) -> tuple:
    """The one walk over a universe: per spec, in order, whether it is a
    leak spec and, per check type, how many points of its side fail and the
    side's rank (a Pauli spec's sides have rank 0 and one point, judged by
    ``_pauli_verdicts``); then, at two faults, the failing Pauli pairs as
    two arrays of spec indices.  Two replay phases, the leak baselines and
    the unit table; the table and the Pauli rows are freed before the leak
    sides are built, and ``stop_early`` drops a spec at its first failing
    stage (``_failing_counts``)."""
    leak = universe.template == _LEAK
    paulis, leaks = np.flatnonzero(~leak), np.column_stack([universe.gate, universe.victim])[leak]
    base, owner, generators = _replays(compiled, leaks, np.full(len(leaks), -1), trace=True)
    table, index, effects, unit_of = _unit_table(compiled, universe.keys(paulis), generators)
    rows = _pauli_rows(table, index)
    del table, index
    judged, (first, second) = _pauli_verdicts(decoder, rows, max_faults)
    del rows  # no unit or Pauli row lives through the stages
    sides = _sides(base, effects, owner, unit_of)
    del base, effects, owner, generators, unit_of  # only the sides live through the stages
    counts, ranks = np.zeros((2, len(leak), 2), dtype=np.int64)
    counts[~leak], counts[leak] = judged, _failing_counts(decoder, leaks, sides, stop_early)
    ranks[leak] = np.stack([side[1] for side in sides], axis=1)
    return leak, counts, ranks, (paulis[first], paulis[second])


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
    _, counts, ranks, _ = _walk(compiled, _from_specs(compiled, specs), Decoder(compiled.lattice))
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
    """Judge every spec in the universe with all other noise off.  Without
    a ``universe`` the program's is judged as columns, and a ``FaultSpec``
    is built only for each spec that the verdict lists, once."""
    if max_faults not in (1, 2):
        raise ValueError("max_faults must be 1 or 2")
    columns = _enumerated(compiled) if universe is None else _from_specs(compiled, universe)
    leak, counts, ranks, (first, second) = _walk(
        compiled, columns, decoder or Decoder(compiled.lattice), max_faults, stop_early=True)
    failing = counts.any(axis=1)
    sampled = (ranks > SPAN_BUDGET_BITS).any(axis=1)
    listed = failing | sampled
    listed[first] = listed[second] = True
    listed = np.flatnonzero(listed)
    spec = dict(zip(listed.tolist(), columns.view(listed)))

    def specs(index: np.ndarray) -> list[FaultSpec]:
        return [spec[k] for k in index.tolist()]

    program = compiled.program
    return ScanVerdict(
        variant=program.variant,
        d=compiled.lattice.d,
        n_rounds=program.n_rounds,
        max_faults=max_faults,
        n_pauli_specs=int((~leak).sum()),
        n_leak_specs=int(leak.sum()),
        pauli_failures=specs(np.flatnonzero(failing & ~leak)),
        leak_failures=specs(np.flatnonzero(failing & leak)),
        pair_index=(first, second),
        pair_specs=spec,
        sampled=specs(np.flatnonzero(sampled)),
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
        loc = _location(compiled, spec)
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
            f"pairs_scanned={verdict.n_pairs} pairs_failing={verdict.n_pair_failures}"
        )
    lines.append(f"sampled={len(verdict.sampled)}")
    lines.append(f"distance_preserving={int(verdict.distance_preserving)}")
    lines.append(f"exhaustive={int(verdict.exhaustive)}")
    return "\n".join(lines) + "\n"
