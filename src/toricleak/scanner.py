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
to (detection events, readout frame) is GF(2)-linear.  Unit effects per
choice are measured by noise-free scripted replays, many specs to one
executor batch, reduced to a basis, and the whole span is enumerated.
The code is CSS and CNOT never mixes X and Z frame sectors, so every unit
effect lands on one check type (``_span_sides`` raises ``ValueError`` if
one does not).  The span therefore splits into a star side (star events +
the two judge bits of the data X frame) and a plaquette side (plaquette
events + the Z frame's two), which the decoder also judges independently.
A side holds only its own check type's event cells, so a span point is
that type's event bits followed by its two judge bits, which keeps ranks
small.  Every point is judged by the production matcher itself,
``Decoder.parities`` on the point's events, with one sub-matching memo per
side, so a verdict is exact with respect to the decoder that the Monte-Carlo
path runs.

One judge serves both questions asked of a leak: ``_failing_points`` yields
the failing bit of each span point of a side.  ``scan`` fails the spec at
its first failing point; ``leak_failure_fractions`` counts them.  A side
whose rank exceeds ``SPAN_BUDGET_BITS`` is judged on ``SAMPLE_COUNT``
seeded random points instead, and the spec is reported as sampled rather
than exact.

Pair scanning (``max_faults=2``) composes cached Pauli-spec effects, which
is exact by frame linearity; leak specs take part only singly because their
worst-case assignment already spans multi-error combinations.

Every verdict is a judge-bit verdict: the scanner does no residual-weight
analysis of the data error a replay leaves behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .circuits import CNOT, H, MEAS_Z, PREP_Z, SWAP
from .decoder import Decoder, extract_events_batch
from .experiments import ConfigError
from .lattice import ToricLattice
from .pauli import PAULI1_ERRORS, PAULI2_ERRORS, PAULI_BY_NAME, PAULI_I, PAULI_X
from .sim import CompiledProgram, Script
from .vector import execute

# read at call time, so tests can patch them
SPAN_BUDGET_BITS = 16  # max basis rank enumerated exhaustively per side
SAMPLE_COUNT = 4096  # assignments drawn when a span exceeds the budget
PAIR_CAP = 1200  # max single-fault specs admitted into pair scanning
_CHUNK_ROWS = 64  # scripted replays per executor batch


@dataclass(frozen=True)
class FaultSpec:
    """One element of the fault universe.

    ``assignment`` fixes the downstream stochastic outcomes of a leak spec:
    a tuple of ``(slot, choice)`` pairs, each slot at most once, where slots
    are the executor's consequence slots and choices are the slot's
    outcome: a partner Pauli "X"/"Y"/"Z" for ``("pair", gate, position)``,
    a junk bit 0/1 for ``("measbit", gate)``, and an erasure component
    "x"/"y"/"z" for ``("readout", edge)``.  A slot left out takes the null
    outcome; an empty assignment means "enumerate".
    """

    kind: str  # "pauli" | "meas_flip" | "leak"
    gate_index: int
    paulis: tuple = ()
    victim: int = -1
    assignment: tuple = ()


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
        role = label.roles[spec.victim]
    else:
        role = "+".join(label.roles)
    phase = "-"
    if label.kind == H:
        first, last = _round_cnot_bounds(compiled)[label.round]
        if label.gate_index < first:
            phase = "pre"
        elif label.gate_index > last:
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


def _round_cnot_bounds(compiled: CompiledProgram) -> dict[int, tuple[int, int]]:
    bounds = getattr(compiled, "_cnot_bounds", None)
    if bounds is None:
        bounds = {}
        for g in compiled.gates:
            if g.kind == CNOT:
                r = g.label.round
                lo, hi = bounds.get(r, (g.label.gate_index, g.label.gate_index))
                bounds[r] = (min(lo, g.label.gate_index), max(hi, g.label.gate_index))
        compiled._cnot_bounds = bounds
    return bounds


# ---------------------------------------------------------------------------
# scripted replays


def script_for(compiled: CompiledProgram, spec: FaultSpec) -> Script:
    """Translate a spec (plus any assignment) into executor injections."""
    if spec.kind == "pauli":
        return Script(paulis={spec.gate_index: spec.paulis})
    if spec.kind == "meas_flip":
        return Script(meas_flips={spec.gate_index})
    script = Script(leaks={(spec.gate_index, spec.victim)})
    for slot, choice in spec.assignment:
        tag = slot[0]
        if tag == "pair":
            _, gi, pos = slot
            g = compiled.gates[gi]
            paulis = [PAULI_I, PAULI_I] if g.q1 >= 0 else [PAULI_I]
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


def _chunks(items: list, size: int):
    for start in range(0, len(items), size):
        yield items[start : start + size]


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
    """One check type's side of a leak location's span.

    A point is that type's event bits, in ``cells`` order, followed by its
    two judge bits; ``base`` is the baseline replay's point.
    """

    check_type: int
    cells: list  # sorted (t, site)
    base: int
    basis: list[int]

    @property
    def exact(self) -> bool:
        """True when the side is small enough to enumerate exhaustively."""
        return len(self.basis) <= SPAN_BUDGET_BITS

    def failing(self, decoder: Decoder, vec: int, memo: dict) -> bool:
        """Whether the span point ``vec`` fails this side's judge bits."""
        vec ^= self.base
        defects = tuple([c for j, c in enumerate(self.cells) if vec >> j & 1])
        return (vec >> len(self.cells)) != decoder.parities(self.check_type, defects, memo)


def _effect_parts(lat: ToricLattice, events, fx, fz) -> list[tuple]:
    """Per row and check type: the event cells, sorted (t, site), and the two
    judge bits of the frame."""
    par = lat.logical_parities(fx, fz).tolist()
    parts = [tuple(([], p[2 * ct] | p[2 * ct + 1] << 1) for ct in (0, 1)) for p in par]
    for ct in (0, 1):
        for row, t, site in zip(*(a.tolist() for a in np.nonzero(events[:, :, ct, :]))):
            parts[row][ct][0].append((t, site))
    return parts


def _unit_generators(slots: list[tuple]) -> list[tuple]:
    """One (slot, choice) per unit outcome choice of each consequence slot."""
    generators = []
    for slot in slots:
        if slot[0] == "pair":
            generators += [(slot, "X"), (slot, "Z")]
        elif slot[0] == "measbit":
            generators.append((slot, 1))
        else:  # readout erasure
            generators += [(slot, "x"), (slot, "z")]
    return generators


def _packed(sizes: list[int], cap: int):
    """Runs of consecutive indices whose sizes sum to at most ``cap``; an
    item larger than ``cap`` runs alone."""
    run, total = [], 0
    for k, size in enumerate(sizes):
        if run and total + size > cap:
            yield run
            run, total = [], 0
        run.append(k)
        total += size
    if run:
        yield run


def _leak_setups(compiled: CompiledProgram, specs: list[FaultSpec]):
    """Per leak spec: ``(spec, sides)``, the span sides of its consequences.

    The baselines of ``_CHUNK_ROWS`` specs share one replay batch; their
    unit-effect generators are then replayed a few whole specs at a time, in
    batches of about ``_CHUNK_ROWS`` rows.
    """
    lat = compiled.lattice
    for group in _chunks(specs, _CHUNK_ROWS):
        if any(spec.kind != "leak" for spec in group):
            raise ValueError("consequence slots exist only for leak specs")
        traces: list[list] = [[] for _ in group]
        scripts = [script_for(compiled, replace(spec, assignment=())) for spec in group]
        base = execute(compiled, len(group), scripts=scripts, traces=traces)
        base_events = extract_events_batch(base.syndromes)
        base_parts = _effect_parts(lat, base_events, base.data_x, base.data_z)
        generators = [_unit_generators(trace) for trace in traces]
        for members in _packed([len(gens) for gens in generators], _CHUNK_ROWS):
            chunk = [(k, gen) for k in members for gen in generators[k]]
            owner = [k for k, _ in chunk]
            scripts = [script_for(compiled, replace(group[k], assignment=(gen,))) for k, gen in chunk]
            effects = execute(compiled, len(chunk), scripts=scripts)
            unit_parts = _effect_parts(
                lat,
                extract_events_batch(effects.syndromes) ^ base_events[owner],
                effects.data_x ^ base.data_x[owner],
                effects.data_z ^ base.data_z[owner],
            )
            first = 0
            for k in members:
                parts = unit_parts[first : first + len(generators[k])]
                first += len(generators[k])
                yield group[k], _span_sides(parts, base_parts[k])


def _span_sides(effects: list, base: tuple) -> list[_SpanSide]:
    """The star side and then the plaquette side of one leak's span, from the
    ``_effect_parts`` of its unit effects and of its baseline."""
    if any(all(cells or par for cells, par in parts) for parts in effects):
        raise ValueError("a unit effect touches both check types")
    sides = []
    for ct, (base_cells, _) in enumerate(base):
        cells = sorted(set(base_cells).union(*(parts[ct][0] for parts in effects)))
        index = {cell: i for i, cell in enumerate(cells)}
        basis = _gf2_basis([_point(parts[ct], index) for parts in effects])
        sides.append(_SpanSide(ct, cells, _point(base[ct], index), basis))
    return sides


def _point(part: tuple, index: dict) -> int:
    """A part's span point on its side: event bits by ``index``, then its
    two judge bits."""
    cells, par = part
    vec = par << len(index)
    for cell in cells:
        vec |= 1 << index[cell]
    return vec


def _failing_points(decoder: Decoder, spec: FaultSpec, side: _SpanSide):
    """The one leak judge: the failing bit of each span point of one side.

    An exact side yields the zero point and then every other point in
    Gray-code order; an over-budget side yields ``SAMPLE_COUNT`` random basis
    combinations, seeded by the spec and the side's rank.  The side's points
    share one sub-matching memo.
    """
    memo: dict = {}
    basis = side.basis
    if side.exact:
        vec = 0
        yield side.failing(decoder, vec, memo)
        for k in range(1, 1 << len(basis)):
            vec ^= basis[(k & -k).bit_length() - 1]
            yield side.failing(decoder, vec, memo)
        return
    rng = np.random.default_rng(np.random.SeedSequence([spec.gate_index, spec.victim, len(basis), 1]))
    for _ in range(SAMPLE_COUNT):
        bits = rng.integers(0, 2, size=len(basis))
        vec = 0
        for j in range(len(basis)):
            if bits[j]:
                vec ^= basis[j]
        yield side.failing(decoder, vec, memo)


def leak_failure_fractions(
    compiled: CompiledProgram, specs: list[FaultSpec]
) -> list[tuple[float, bool]]:
    """Per leak spec, exact P(logical failure | this leak fires) under uniform draws.

    Every consequence draw resolves to independent uniform bits (a partner
    Pauli is two bits, a junk measurement one, a readout erasure two), and
    the map from draw choices to the judged effect is GF(2)-linear, so the
    effect is uniform over the span with equal fibers.  The failing fraction
    is therefore (#failing span points) / 2^rank, with independent sides
    combining as 1 - (1-q_star)(1-q_plaq).  Each spec gives
    ``(fraction, exact)``; an over-budget side falls back to a sampled
    estimate with exact=False.
    """
    decoder = Decoder(compiled.lattice)
    out = []
    for spec, sides in _leak_setups(compiled, specs):
        survive = 1.0
        for side in sides:
            bits = list(_failing_points(decoder, spec, side))
            survive *= 1.0 - sum(bits) / len(bits)
        out.append((1.0 - survive, all(side.exact for side in sides)))
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

    pauli_failures: list[FaultSpec] = []
    cached = []
    for group in _chunks(pauli_specs, _CHUNK_ROWS):
        res = execute(compiled, len(group), scripts=[script_for(compiled, s) for s in group])
        judge = decoder.judge_batch(res.syndromes, res.data_x, res.data_z)
        pauli_failures += [spec for spec, bits in zip(group, judge) if bits.any()]
        if max_faults == 2:
            cached.append((res.syndromes, res.data_x, res.data_z))

    leak_failures: list[FaultSpec] = []
    sampled: list[FaultSpec] = []
    for spec, sides in _leak_setups(compiled, leak_specs):
        if any(any(_failing_points(decoder, spec, side)) for side in sides):
            leak_failures.append(spec)
        if not all(side.exact for side in sides):
            sampled.append(spec)

    pair_failures: list[tuple[FaultSpec, FaultSpec]] = []
    n_pairs = 0
    if max_faults == 2 and cached:
        syn, fx, fz = (np.concatenate(arrays) for arrays in zip(*cached))
        for i in range(len(pauli_specs) - 1):
            judge = decoder.judge_batch(syn[i] ^ syn[i + 1 :], fx[i] ^ fx[i + 1 :], fz[i] ^ fz[i + 1 :])
            n_pairs += len(judge)
            for j in i + 1 + np.flatnonzero(judge.any(axis=1)):
                pair_failures.append((pauli_specs[i], pauli_specs[j]))

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
