"""Fault-universe, span-side, scan-report and residual-weight behavior."""

from __future__ import annotations

import re
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import (
    _match_dp,
    columns_of,
    crossing_parities,
    defect_rows,
    leak_consequences,
    leak_sides,
    random_defects,
    reference_parities,
    replay_spec,
    residual_weight,
    row_defects,
    run_shot,
    script_for,
    support,
    trace_of,
    unit_generators,
    weight_matrix,
)
from toricleak import scanner
from toricleak.circuits import VARIANTS, build_program
from toricleak.decoder import Decoder
from toricleak.lattice import build_lattice
from toricleak.noise import SIDE_POLICIES, NoiseModel
from toricleak.scanner import (
    FaultSpec,
    enumerate_fault_universe,
    leak_failure_fractions,
    scan,
    spec_location,
    verdict_to_text,
)
from toricleak.sim import compile_program
from toricleak.vector import execute

GOLDEN = Path(__file__).parent / "golden"

# the documentary scan policy reproduced by the golden fixtures
DOC_NOISE = NoiseModel(p=1e-3, r=1.0, p_init_leak=1e-3)

# independent arithmetic: Pauli spec multiplicity per gate kind
# (prep: one flip of the prepared basis; H: 3 Paulis; two-qubit: 15
# nonidentity pairs; measurement: one outcome flip)
SPECS_PER_KIND = {"PrepZ": 1, "H": 3, "CNOT": 15, "SWAP": 15, "MeasZ": 1}


def _compiled(variant, noise=DOC_NOISE, d=3, rounds=3):
    return compile_program(build_program(variant, d, rounds), noise)


@lru_cache(maxsize=None)
def _doc_scan(variant):
    """Single-fault scan under DOC_NOISE, shared by the tests that read it."""
    compiled = _compiled(variant)
    return compiled, scan(compiled, decoder=Decoder(compiled.lattice), max_faults=1)


def _first_gate(compiled, **want):
    for gi, g in enumerate(compiled.gates):
        if all(getattr(g, k) == v for k, v in want.items()) and g.leak_prob > 0:
            return gi
    raise AssertionError(f"no leaking gate matching {want}")


def _leak_sides(compiled, specs):
    """The scanner's span sides of leak specs, as its walk builds them: the
    traced baselines, the unit table's effects and the basis step."""
    leaks = np.array([(s.gate_index, s.victim) for s in specs], dtype=np.int64).reshape(-1, 2)
    base, owner, generators = scanner._baselines(compiled, leaks)
    _, _, effects, unit_of = scanner._unit_table(compiled, np.zeros((0, 4), dtype=np.int64), generators)
    return scanner._sides(base, effects, owner, unit_of)


def _pauli_rows(compiled, specs):
    """The scanner's rank-0 rows of Pauli and meas_flip specs, gathered
    from its unit table."""
    universe = scanner._from_specs(compiled, specs)
    keys = universe.keys(np.arange(len(specs)))
    table, index, _, _ = scanner._unit_table(compiled, keys, np.zeros(0, dtype=np.int64))
    return scanner._pauli_rows(table, index)


def _no_leaks(n):
    """``(gate, victim)`` seeds of n leak specs whose sides are never sampled."""
    return np.zeros((n, 2), dtype=np.int64)


@pytest.mark.parametrize("variant", ["standard", "swap_lrc", "gate_biased"])
def test_universe_counts_follow_gate_arithmetic(variant):
    compiled = _compiled(variant)
    universe = enumerate_fault_universe(compiled)
    n_pauli = sum(1 for s in universe if s.kind in ("pauli", "meas_flip"))
    n_leak = sum(1 for s in universe if s.kind == "leak")
    want_pauli = sum(SPECS_PER_KIND[g.kind] for g in compiled.gates)
    want_leak = sum(len(g.leak_victims) for g in compiled.gates if g.leak_prob > 0)
    assert n_pauli == want_pauli
    assert n_leak == want_leak
    assert universe == enumerate_fault_universe(compiled)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("variant", VARIANTS)
def test_column_universe_equals_the_per_gate_enumeration(variant, d):
    """The universe that the scanner builds as columns equals the gate by
    gate reference spec for spec, in order, under every side policy and
    site filter, with initialization leakage on and off: two rounds at
    d=3, so that swap_alt's odd-round SWAPs are in, and one at d=5."""
    program = build_program(variant, d, 2 if d == 3 else 1)
    filters = ["all", "data_only", "ancilla_only"] + [f"cnot_ordinal:{k}" for k in range(1, 5)]
    for side_policy, site_filter, p_init_leak in product(SIDE_POLICIES, filters, (0.0, 1e-3)):
        noise = NoiseModel(p=1e-3, r=1.0, side_policy=side_policy, site_filter=site_filter,
                           p_init_leak=p_init_leak)
        compiled = compile_program(program, noise)
        assert enumerate_fault_universe(compiled) == oracles.reference_universe(compiled), noise


def test_a_scan_builds_fault_specs_only_for_what_it_reports(monkeypatch):
    """Without a universe a scan judges columns: on standard d=3 at three
    rounds it builds one ``FaultSpec`` per failing leak spec, the golden's
    297, not one per spec of the 4,050.  A one-round pair scan builds each
    spec that it lists once: every spec in its failing pairs is one shared
    object."""
    compiled, golden = _doc_scan("standard")
    pair_compiled = _compiled("standard", rounds=1)
    built = []
    construct = FaultSpec.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(FaultSpec, "__init__", counting)
    verdict = scan(compiled)
    assert len(built) == len(verdict.leak_failures) == 297
    assert verdict_to_text(compiled, verdict) == verdict_to_text(compiled, golden)
    built.clear()
    pairs = scan(pair_compiled, max_faults=2)
    shared = {}
    for spec in [spec for pair in pairs.pair_failures for spec in pair] + pairs.leak_failures:
        assert shared.setdefault(spec, spec) is spec
    assert pairs.pair_failures and len(built) == len(shared)


def test_site_filter_prunes_leak_specs_only():
    full = enumerate_fault_universe(_compiled("standard"))
    anc = enumerate_fault_universe(
        _compiled("standard", NoiseModel(p=1e-3, r=1.0, site_filter="ancilla_only",
                                         p_init_leak=1e-3)))
    n_pauli = sum(1 for s in full if s.kind != "leak")
    assert sum(1 for s in anc if s.kind != "leak") == n_pauli
    assert sum(1 for s in anc if s.kind == "leak") < sum(
        1 for s in full if s.kind == "leak")


@pytest.mark.parametrize("variant", VARIANTS)
def test_scan_report_matches_golden(variant):
    compiled, verdict = _doc_scan(variant)
    golden = (GOLDEN / f"scan_{variant}_d3.txt").read_text()
    assert verdict_to_text(compiled, verdict) == golden


def test_all_single_pauli_faults_are_correctable():
    """At d=3 the matcher must fix every single depolarizing fault."""
    _, verdict = _doc_scan("standard")
    assert verdict.pauli_failures == []
    assert not verdict.distance_preserving  # leakage still defeats it
    assert verdict.exhaustive


# exact failing fractions for the standard circuit, distance 3, 3 rounds:
# (gate kind, cnot ordinal, role, round) -> P(logical failure | leak fires)
STANDARD_ANCHORS = [
    ("PrepZ", 0, "ancillaZ", 0, Fraction(7, 32)),
    ("PrepZ", 0, "ancillaX", 1, Fraction(7, 32)),
    ("H", 0, "ancillaX", 0, Fraction(7, 32)),
    ("CNOT", 1, "ancillaZ", 1, Fraction(1, 8)),
    ("CNOT", 1, "ancillaX", 2, Fraction(1, 8)),
    ("CNOT", 1, "data", 2, Fraction(1, 16)),
    ("CNOT", 3, "data", 1, Fraction(1, 32)),
]


@pytest.mark.parametrize("kind,ordinal,role,rnd,want", STANDARD_ANCHORS)
def test_exact_hook_fractions_standard(kind, ordinal, role, rnd, want):
    compiled = _compiled("standard")
    for spec in enumerate_fault_universe(compiled):
        if spec.kind != "leak":
            continue
        loc = spec_location(compiled, spec)
        if (loc.kind, loc.ordinal, loc.role, loc.round) == (kind, ordinal, role, rnd):
            [(q, exact)] = leak_failure_fractions(compiled, [spec])
            assert exact
            assert Fraction(q).limit_denominator(1 << 20) == want
            return
    raise AssertionError("anchor location not found in universe")


def test_swap_reduction_leaves_only_first_cnot_data_hooks():
    """With a per-round data/ancilla swap, a leaked data qubit is retired at
    the round boundary, so only first-CNOT data leaks (and the swap carry
    itself) can still defeat the matcher."""
    compiled = _compiled("swap_lrc")
    specs = {}
    for spec in enumerate_fault_universe(compiled):
        if spec.kind != "leak":
            continue
        loc = spec_location(compiled, spec)
        if loc.role != "data" or loc.kind != "CNOT":
            continue
        specs.setdefault((loc.ordinal, loc.round), spec)
    fractions = dict(zip(specs, leak_failure_fractions(compiled, list(specs.values()))))
    for (ordinal, rnd), (q, exact) in fractions.items():
        assert exact
        if ordinal == 1:
            assert Fraction(q).limit_denominator(1 << 20) == Fraction(1, 16)
        else:
            assert q == 0.0


def test_swap_carry_promotion_fraction():
    """A leak seated at the swap itself rides into the next round's ancilla."""
    compiled = _compiled("swap_lrc")
    gi = _first_gate(compiled, kind="SWAP", round_index=0)
    [(q, exact)] = leak_failure_fractions(compiled, [FaultSpec(kind="leak", gate_index=gi,
                                                               victim=0)])
    assert exact
    assert Fraction(q).limit_denominator(1 << 20) == Fraction(1, 32)


def test_fraction_matches_manual_assignment_enumeration():
    """Dual route: enumerate every draw assignment through the replayer and
    compare the failing fraction against the span-based computation."""
    compiled = _compiled("standard")
    dec = Decoder(compiled.lattice)
    gi = _first_gate(compiled, kind="CNOT", round_index=1)
    spec0 = FaultSpec(kind="leak", gate_index=gi, victim=1)  # ancilla side
    _, slots = leak_consequences(compiled, spec0)
    pair_slots = [s for s in slots if s[0] == "pair"]
    meas_slots = [s for s in slots if s[0] == "measbit"]
    assert len(pair_slots) == 3 and len(meas_slots) == 1

    n_fail = n_tot = 0
    for combo in product("IXYZ", repeat=len(pair_slots)):
        for mbits in product((0, 1), repeat=len(meas_slots)):
            assign = tuple((s, c) for s, c in zip(pair_slots, combo) if c != "I")
            assign += tuple((s, 1) for s, b in zip(meas_slots, mbits) if b)
            _, judge = replay_spec(compiled, dec, spec0, assign)
            n_tot += 1
            n_fail += bool(judge.any())
    [(q, exact)] = leak_failure_fractions(compiled, [spec0])
    assert exact
    assert Fraction(n_fail, n_tot) == Fraction(q).limit_denominator(1 << 20)


def test_hook_spreads_four_x_and_reduces_to_aligned_pair():
    """A leaked plus-state ancilla sprays its whole support: one draw
    assignment leaves raw X on all 4 support edges (the check's own
    stabilizer) while its Y middle carries a weight-2 error parallel to a
    logical line."""
    compiled = _compiled("standard")
    lat = compiled.lattice
    gi = _first_gate(compiled, kind="PrepZ", check_type=1, round_index=1)
    spec0 = FaultSpec(kind="leak", gate_index=gi, victim=0)
    loc = spec_location(compiled, spec0)
    assert loc.role == "ancillaX"
    _, slots = leak_consequences(compiled, spec0)
    pair_slots = [s for s in slots if s[0] == "pair"]
    assert len(pair_slots) == 4  # one partner draw per coupling gate

    assign = tuple(zip(pair_slots, "XYYX"))
    rw = residual_weight(compiled, spec0, assign)
    assert rw.raw_x == 4
    assert set(rw.support_x) == set(support(lat, "X", loc.check[1]).tolist())
    assert rw.reduced_x == 0  # the X spray is the measured stabilizer itself
    assert rw.reduced_z == 2 and rw.aligned_z
    assert rw.joint == 2


def test_pair_scan_is_deterministic_and_flags_uncorrectable_pairs():
    compiled = _compiled("standard", NoiseModel(p=1e-3, r=0.0))
    universe = [s for s in enumerate_fault_universe(compiled)
                if s.kind == "pauli"][:40]
    dec = Decoder(compiled.lattice)
    first = scan(compiled, universe=universe, decoder=dec, max_faults=2)
    again = scan(compiled, universe=universe, decoder=dec, max_faults=2)
    assert first.n_pairs == again.n_pairs == 40 * 39 // 2
    assert [tuple(p) for p in first.pair_failures] == \
        [tuple(p) for p in again.pair_failures]
    assert first.pauli_failures == []


def test_scan_does_not_depend_on_replay_chunk_size(monkeypatch):
    """Replays and pair judgements are batched internally; every batch size
    gives the same scan verdict, the same failure fractions and the same
    pair verdicts."""
    compiled = _compiled("standard", rounds=2)
    universe = enumerate_fault_universe(compiled)[::5]
    mixed = universe[::-1]  # leak specs first, then Pauli specs
    pair_compiled = _compiled("standard", rounds=1)
    pair_universe = [s for s in enumerate_fault_universe(pair_compiled) if s.kind != "leak"][::9]
    dec = Decoder(compiled.lattice)
    reference = scan(compiled, universe=universe, decoder=dec)
    fractions = leak_failure_fractions(compiled, mixed)
    pairs = scan(pair_compiled, universe=pair_universe, decoder=dec, max_faults=2)
    assert reference.leak_failures and reference.n_pauli_specs > 256
    assert pairs.pair_failures and any(q > 0 for q, _ in fractions)
    for rows in (1, 7, 256, 1000):
        monkeypatch.setattr(scanner, "_CHUNK_ROWS", rows)
        verdict = scan(compiled, universe=universe, decoder=dec)
        assert verdict.pauli_failures == reference.pauli_failures
        assert verdict.leak_failures == reference.leak_failures
        assert verdict_to_text(compiled, verdict) == verdict_to_text(compiled, reference)
        assert leak_failure_fractions(compiled, mixed) == fractions
        again = scan(pair_compiled, universe=pair_universe, decoder=dec, max_faults=2)
        assert again.pair_failures == pairs.pair_failures
    for rows in (1, 7, pairs.n_pairs + 1):
        monkeypatch.setattr(scanner, "_PASS_ROWS", rows)
        again = scan(pair_compiled, universe=pair_universe, decoder=dec, max_faults=2)
        assert again.pair_failures == pairs.pair_failures


@pytest.mark.parametrize("budget", [16, 3])
def test_scan_does_not_depend_on_the_judge_pass_bound(budget, monkeypatch):
    """The span judge splits its stages and its sampled blocks to fit
    ``_PASS_ROWS`` rows per pass: with 64, the scan's verdicts and sampled
    specs and the failure fractions of a mixed standard d=3 universe equal
    those of the default bound, on exact spans and, with the budget cut to
    3 bits and 200 samples a side, on sampled ones."""
    monkeypatch.setattr(scanner, "SPAN_BUDGET_BITS", budget)
    monkeypatch.setattr(scanner, "SAMPLE_COUNT", 200)
    compiled = _compiled("standard", rounds=2)
    universe = enumerate_fault_universe(compiled)[::4]
    reference = scan(compiled, universe=universe)
    fractions = leak_failure_fractions(compiled, universe)
    assert reference.leak_failures and bool(reference.sampled) == (budget == 3)
    monkeypatch.setattr(scanner, "_PASS_ROWS", 64)
    verdict = scan(compiled, universe=universe)
    assert (verdict.pauli_failures, verdict.leak_failures, verdict.sampled) == (
        reference.pauli_failures, reference.leak_failures, reference.sampled)
    got = leak_failure_fractions(compiled, universe)
    assert [(q.hex(), exact) for q, exact in got] == [(q.hex(), exact) for q, exact in fractions]


def test_span_stage_blocks_stay_within_the_pass_bound(monkeypatch):
    """On a standard d=3 slice, at ``_PASS_ROWS`` 64 and at the default,
    every exact-stage block the span judge judges holds at most
    ``_PASS_ROWS // 2`` rows unless it is one side's stage, no block is
    alive when the next is judged, and the blocks hold every span point
    once, so the counts do not depend on the bound."""
    compiled = _compiled("standard", rounds=2)
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"][::3]
    sides = _leak_sides(compiled, specs)
    assert max(int(ranks.max()) for _, ranks, _ in sides) in range(7, scanner.SPAN_BUDGET_BITS + 1)
    points = sum(int((1 << ranks).sum()) for _, ranks, _ in sides)
    blocks = []  # per judged block: its shape and a weak reference to it
    judge = scanner._judged

    def recording(decoder, check_type, stage):
        assert all(block() is None for _, block in blocks)
        blocks.append((stage.shape, weakref.ref(stage)))
        return judge(decoder, check_type, stage)

    monkeypatch.setattr(scanner, "_judged", recording)
    counts, calls = [], []
    for rows in (64, scanner._PASS_ROWS):
        monkeypatch.setattr(scanner, "_PASS_ROWS", rows)
        blocks.clear()
        counts.append(scanner._failing_counts(Decoder(compiled.lattice), _no_leaks(len(specs)), sides))
        shapes = [shape for shape, _ in blocks]
        calls.append(len(shapes))
        assert sum(n * k for n, k, _ in shapes) == points
        assert all(n * k <= rows // 2 or k == 1 for n, k, _ in shapes)
        assert any(n * k > rows // 2 for n, k, _ in shapes) == (rows == 64)
    assert calls[0] > calls[1] and (counts[0] == counts[1]).all()


# A slice of the standard d=3, two-round leak specs with the span budget cut
# to 3 bits, judged on their seeded samples: (gate, victim, fraction as
# float.hex, exact).  Any change to the drawn combinations changes these.
SAMPLED_PINS = [
    (3, 0, "0x1.c980000000000p-3", False), (26, 0, "0x1.c600000000000p-3", False),
    (38, 0, "0x1.0a80000000000p-3", False), (49, 1, "0x0.0p+0", True),
    (61, 0, "0x0.0p+0", True), (72, 1, "0x1.d800000000000p-6", False),
    (84, 0, "0x1.0600000000000p-5", False), (95, 1, "0x1.dc00000000000p-6", False),
    (133, 0, "0x1.b600000000000p-3", False), (154, 1, "0x1.0c80000000000p-3", False),
    (166, 0, "0x1.0d80000000000p-3", False), (177, 1, "0x0.0p+0", True),
    (189, 0, "0x0.0p+0", True), (200, 1, "0x0.0p+0", True),
    (212, 0, "0x0.0p+0", True), (223, 1, "0x0.0p+0", True),
]


def test_sampled_spans_keep_their_seeded_combinations(monkeypatch):
    """With the span budget at 3 bits most of these specs have a sampled
    side: their failure fractions equal the pinned values bit for bit, and
    the scan samples and fails exactly the pinned inexact, nonzero ones."""
    monkeypatch.setattr(scanner, "SPAN_BUDGET_BITS", 3)
    compiled = _compiled("standard", rounds=2)
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"][3::23]
    got = [(s.gate_index, s.victim, q.hex(), exact)
           for s, (q, exact) in zip(specs, leak_failure_fractions(compiled, specs))]
    assert got == SAMPLED_PINS
    verdict = scan(compiled, universe=specs)
    assert [(s.gate_index, s.victim) for s in verdict.sampled] == [pin[:2] for pin in SAMPLED_PINS if not pin[3]]
    assert [(s.gate_index, s.victim) for s in verdict.leak_failures] == [
        pin[:2] for pin in SAMPLED_PINS if pin[2] != "0x0.0p+0"]


def _mask(cells):
    """The defect mask of one row of 0/1 event cells."""
    return int.from_bytes(np.packbits(cells, bitorder="little").tobytes(), "little")


@pytest.mark.parametrize("variant", VARIANTS)
def test_composed_pauli_points_equal_their_own_replays(variant):
    """A Pauli or meas_flip spec's rank-0 row is composed from the replays
    of its single-qubit units; it equals the row of the spec's own
    ``script_for`` replay bit for bit, for every such spec at one round and
    a slice at three, and it holds the span point of that replay."""
    for rounds, step in ((1, 1), (3, 7)):
        compiled = _compiled(variant, rounds=rounds)
        specs = [s for s in enumerate_fault_universe(compiled) if s.kind != "leak"][::step]
        width = (rounds + 1) * compiled.lattice.d**2
        injections = columns_of([script_for(compiled, s) for s in specs])
        res = execute(compiled, len(specs), injections=injections)
        own = scanner._rows(compiled.lattice, res)
        composed = _pauli_rows(compiled, specs)
        assert composed.dtype == own.dtype == np.uint8
        np.testing.assert_array_equal(composed, own)
        points = [[_mask(side[:-1]) | int(side[-1]) << width for side in row] for row in composed]
        assert points == oracles.points(compiled.lattice, res)
        assert sum(map(any, points)) > len(specs) // 2


def test_unit_points_are_released_before_the_leak_specs(monkeypatch):
    """No unit row and no Pauli spec row is alive while the leak specs'
    spans are walked, in a single-fault scan, a pair scan and the failure
    fractions: each walk builds one unit table and one pass of Pauli rows,
    and the pair scan the rows of every Pauli spec for its pair tables."""
    compiled = _compiled("standard", rounds=1)
    universe = enumerate_fault_universe(compiled)
    specs = [s for s in universe if s.kind != "leak"][::11] + [s for s in universe if s.kind == "leak"][:3]
    made = []  # weak references to every unit and spec row array built

    def recording(build):
        def wrapped(*args):
            rows = build(*args)
            made.append(weakref.ref(rows))
            return rows
        return wrapped

    for name in ("_unit_rows", "_pauli_rows"):
        monkeypatch.setattr(scanner, name, recording(getattr(scanner, name)))
    alive = []  # per leak walk: how many recorded arrays are alive
    walk = scanner._failing_counts

    def watched(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        return walk(*args, **kwargs)

    monkeypatch.setattr(scanner, "_failing_counts", watched)
    for max_faults in (1, 2):
        scan(compiled, universe=specs, max_faults=max_faults)
    leak_failure_fractions(compiled, specs)
    assert len(made) == 7 and len(alive) == 3 and not any(alive)


_REFERENCE: dict = {}  # (d, check type, cell bytes) -> the reference matcher's parities


def _reference(lat, check_type, cells):
    """``oracles.reference_parities`` of one row of event cells, kept per
    distinct row."""
    key = (lat.d, check_type, cells.tobytes())
    if key not in _REFERENCE:
        _REFERENCE[key] = reference_parities(lat, check_type, row_defects(lat, cells))
    return _REFERENCE[key]


@pytest.mark.parametrize("variant", VARIANTS)
def test_row_verdicts_equal_per_mask_matching_on_every_pauli_spec(variant):
    """On every Pauli and meas_flip spec at one and three rounds, the
    batched row route gives the reference matcher's parities on the spec's
    defect sets, and the scan fails exactly the specs that the reference
    fails."""
    for rounds in (1, 3):
        compiled = _compiled(variant, rounds=rounds)
        lat = compiled.lattice
        specs = [s for s in enumerate_fault_universe(compiled) if s.kind != "leak"]
        decoder = Decoder(lat)
        rows = _pauli_rows(compiled, specs)
        want = np.array([[_reference(lat, ct, cells) for cells in rows[:, ct, :-1]]
                         for ct in (0, 1)], dtype=np.uint8).T
        for ct in (0, 1):
            np.testing.assert_array_equal(decoder.parities(ct, rows[:, ct, :-1]), want[:, ct])
        failing = [spec for spec, row, par in zip(specs, rows, want) if (row[:, -1] != par).any()]
        assert scan(compiled, universe=specs, decoder=decoder).pauli_failures == failing


def test_pair_verdicts_equal_per_mask_matching():
    """On every pair of a slice of the standard d=3, one-round universe,
    failing pairs included, the pair scan fails exactly the pairs whose
    XORed point fails the reference matcher defect set by defect set."""
    compiled = _compiled("standard", rounds=1)
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind != "leak"][::6]
    decoder = Decoder(compiled.lattice)
    rows = _pauli_rows(compiled, specs)
    failing = []
    for i, a in enumerate(specs):
        for j in range(i + 1, len(specs)):
            point = rows[i] ^ rows[j]
            bits = [_reference(compiled.lattice, ct, point[ct, :-1]) for ct in (0, 1)]
            if bits != point[:, -1].tolist():
                failing.append((a, specs[j]))
    verdict = scan(compiled, universe=specs, decoder=decoder, max_faults=2)
    assert verdict.n_pairs == len(specs) * (len(specs) - 1) // 2
    assert failing and verdict.pair_failures == failing


@pytest.mark.parametrize("variant, rounds", [("standard", 1), ("swap_alt", 1)]
                         + [(variant, 3) for variant in VARIANTS])
def test_pair_tables_equal_the_row_by_row_judge(variant, rounds):
    """The pair judge reads each pair's verdict from per-check-type tables
    of cell-row pairs; it lists the same failing pairs, in the same order,
    as the row-by-row reference: on all 683,865 pairs of a d=3, one-round
    Pauli universe, and on every pair of a seeded sample of 201 Pauli specs
    (20,100 pairs) of each d=3, three-round universe."""
    compiled = _compiled(variant, rounds=rounds)
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind != "leak"]
    if rounds == 3:
        rng = np.random.default_rng(28)
        specs = [specs[k] for k in sorted(rng.choice(len(specs), 201, replace=False).tolist())]
    decoder = Decoder(compiled.lattice)
    rows = _pauli_rows(compiled, specs)
    failing = oracles.pair_failures(decoder, specs, rows)
    assert len(specs) * (len(specs) - 1) // 2 == (683865 if rounds == 1 else 20100)
    first, second = scanner._pair_failures(decoder, rows)
    assert failing and [(specs[i], specs[j]) for i, j in zip(first.tolist(), second.tolist())] == failing


def test_failing_pauli_pairs_break_the_distance_from_d5_on():
    """From d=5 on the code must correct two faults, so a failing Pauli pair
    makes a verdict not distance preserving: on the [::5] slice of the
    standard d=5, three-round Pauli universe, no spec fails but 1,500
    pairs do.  At d=3 one fault is all the distance promises, and failing
    pairs leave the verdict distance preserving."""
    compiled = _compiled("standard", d=5)
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind != "leak"][::5]
    decoder = Decoder(compiled.lattice)
    pairs = scan(compiled, universe=specs, decoder=decoder, max_faults=2)
    assert (pairs.pauli_failures, len(pairs.pair_failures)) == ([], 1500)
    assert not pairs.distance_preserving
    assert "distance_preserving=0" in verdict_to_text(compiled, pairs).splitlines()
    assert scan(compiled, universe=specs, decoder=decoder).distance_preserving
    small = _compiled("standard", rounds=1)
    specs = [s for s in enumerate_fault_universe(small) if s.kind != "leak"][::6]
    at_d3 = scan(small, universe=specs, max_faults=2)
    assert at_d3.pair_failures and not at_d3.pauli_failures and at_d3.distance_preserving


@pytest.mark.parametrize("case", ["exhaustive", "sampled"])
def test_scan_verdict_agrees_with_failure_fraction(case, monkeypatch):
    """The scan fails a leak spec exactly when its failure fraction is
    positive, on exact spans and on spans forced over the budget."""
    if case == "exhaustive":
        compiled, verdict = _doc_scan("standard")
        specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"][::3]
    else:
        monkeypatch.setattr(scanner, "SPAN_BUDGET_BITS", 3)
        compiled = _compiled("standard", rounds=2)
        specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"][::5]
        verdict = scan(compiled, universe=specs, decoder=Decoder(compiled.lattice))
        assert verdict.sampled
        assert "exhaustive=0" in verdict_to_text(compiled, verdict).splitlines()
    failing, sampled = set(verdict.leak_failures), set(verdict.sampled)
    for spec, (fraction, exact) in zip(specs, leak_failure_fractions(compiled, specs)):
        assert exact == (spec not in sampled)
        assert (spec in failing) == (fraction > 0), spec


def test_an_unknown_fault_kind_is_refused():
    """A spec of a kind the scanner does not know is a ``ValueError`` that
    names it, alone or among known specs: never a spec the scan drops nor a
    rank-0 point that the failure fractions judge as a Pauli spec's."""
    compiled = _compiled("standard", rounds=1)
    known = enumerate_fault_universe(compiled)[::40]
    for specs in ([FaultSpec("leek", 5, victim=0)], known + [FaultSpec("leek", 5, victim=0)]):
        with pytest.raises(ValueError, match="'leek'"):
            scan(compiled, universe=specs)
        with pytest.raises(ValueError, match="'leek'"):
            leak_failure_fractions(compiled, specs)


@pytest.mark.parametrize("victim", [-1, 2])
def test_a_leak_spec_needs_its_victim_on_the_gate(victim):
    """A victim position outside the gate's qubits is an error, never a
    fault-free replay that passes nor another qubit's reported role.  So is
    a gate or a victim that is not an integer, before any replay: never
    truncated to one, and never a ``TypeError`` where a report locates the
    spec.  Numpy ints and bools pass, as the executor's columns take them."""
    compiled = _compiled("standard")
    for gi in (0, _first_gate(compiled, kind="CNOT")):
        spec = FaultSpec("leak", gi, victim=victim)
        with pytest.raises(ValueError, match="position"):
            scan(compiled, universe=[spec])
        with pytest.raises(ValueError, match="position"):
            leak_failure_fractions(compiled, [spec])
        with pytest.raises(ValueError, match=f"gate {gi} has no qubit at position {victim}"):
            spec_location(compiled, spec)
        for spec, message in ((FaultSpec("leak", gi + 0.5, victim=0), f"the gate {gi + 0.5} of"),
                              (FaultSpec("leak", gi, victim=victim / 2), f"the victim {victim / 2} of")):
            with pytest.raises(ValueError, match=f"{message} a leak spec is not an integer"):
                scan(compiled, universe=[spec])
            with pytest.raises(ValueError, match=f"{message} a leak spec is not an integer"):
                leak_failure_fractions(compiled, [spec])
            with pytest.raises(ValueError, match=f"{message} a leak spec is not an integer"):
                spec_location(compiled, spec)
        numpy_spec = FaultSpec("leak", np.int64(gi), victim=np.False_)
        assert leak_failure_fractions(compiled, [numpy_spec]) == \
            leak_failure_fractions(compiled, [FaultSpec("leak", gi, victim=0)])


def _refusal(compiled, spec):
    """The executor's ``ValueError`` message for a replay of ``spec`` alone."""
    with pytest.raises(ValueError) as refused:
        execute(compiled, 1, injections=columns_of([script_for(compiled, spec)]))
    return str(refused.value)


def test_malformed_pauli_specs_are_refused_as_the_executor_refuses_them():
    """A Pauli on a position the gate lacks, a measurement flip on another
    gate, a gate outside the program and a gate that is not an integer
    are the executor's ``ValueError`` in a scan, a pair scan and the
    failure fractions, never a composed point of some other gate's unit."""
    compiled = _compiled("standard", rounds=1)
    gates = compiled.gates
    h = next(gi for gi, g in enumerate(gates) if g.kind == "H")
    cnot = next(gi for gi, g in enumerate(gates) if g.kind == "CNOT")
    x = (1, 0)
    bad = [FaultSpec("pauli", h, paulis=((0, 0), x)),
           FaultSpec("pauli", h, paulis=((0, 0), (0, 0), x)),  # a third position on a one-qubit gate
           FaultSpec("pauli", cnot, paulis=(x, x, x)),
           FaultSpec("meas_flip", cnot),
           FaultSpec("pauli", len(gates), paulis=(x,)),
           FaultSpec("pauli", -1, paulis=(x,)),
           FaultSpec("meas_flip", len(gates)),
           FaultSpec("pauli", h + 0.5, paulis=(x,)),
           FaultSpec("meas_flip", cnot + 0.5)]
    good = [s for s in enumerate_fault_universe(compiled) if s.kind != "leak"][:5]
    for spec in bad:
        message = _refusal(compiled, spec)
        if len(spec.paulis) > 2:
            message = "qubit at position 2 for a Pauli"  # no gate has one: refused before any replay
        elif isinstance(spec.gate_index, float):  # refused before any replay too, not truncated
            assert message.endswith("entries must be integers, got float64")
            message = f"the gate {spec.gate_index} of a {spec.kind} spec is not an integer"
        for max_faults in (1, 2):
            with pytest.raises(ValueError, match=message):
                scan(compiled, universe=good + [spec], max_faults=max_faults)
        with pytest.raises(ValueError, match=message):
            leak_failure_fractions(compiled, good + [spec])
    assert _refusal(compiled, bad[0]) == f"gate {h} has no qubit at position 1 for a Pauli"


def test_paulis_that_are_not_pairs_of_bits_are_refused(monkeypatch):
    """A Pauli component other than 0 or 1, which the executor refuses as a
    frame bit, or a Pauli that is not an ``(x, z)`` pair is a ``ValueError``
    that names the Pauli and its position in a scan, a pair scan and the
    failure fractions, before any replay: never a component read as 1."""
    compiled = _compiled("standard", rounds=1)
    cnot = next(gi for gi, g in enumerate(compiled.gates) if g.kind == "CNOT")
    good = [s for s in enumerate_fault_universe(compiled) if s.kind != "leak"][:5]
    cases = [(((2, 0), (0, 0)), 0), (((-1, 0), (0, 0)), 0), (((0, 0), (1, 2)), 1),
             (((1,),), 0), (((0, 0), 1), 1)]
    for paulis, _ in cases[:3]:
        assert "by a value other than 0 or 1" in _refusal(compiled, FaultSpec("pauli", cnot, paulis=paulis))

    def replay(*args, **kwargs):
        raise AssertionError("a malformed Pauli reached a replay")

    monkeypatch.setattr(scanner, "execute", replay)
    for paulis, pos in cases:
        message = re.escape(f"the Pauli {paulis[pos]!r} at position {pos} is not an (x, z) pair of bits")
        spec = FaultSpec("pauli", cnot, paulis=paulis)
        for max_faults in (1, 2):
            with pytest.raises(ValueError, match=message):
                scan(compiled, universe=good + [spec], max_faults=max_faults)
        with pytest.raises(ValueError, match=message):
            leak_failure_fractions(compiled, good + [spec])


def test_unhashable_paulis_and_a_meas_flip_with_paulis_are_refused(monkeypatch):
    """Paulis given as a list, a Pauli given as a list and a ``meas_flip``
    spec that carries a Pauli are each a ``ValueError`` that names the
    Pauli and its position (a list of Paulis, the list) in a scan, a pair
    scan and the failure fractions, before any replay: never a bare
    ``TypeError`` from the slot cache, and never Paulis dropped."""
    compiled = _compiled("standard", rounds=1)
    cnot = next(gi for gi, g in enumerate(compiled.gates) if g.kind == "CNOT")
    meas = next(gi for gi, g in enumerate(compiled.gates) if g.kind == "MeasZ")
    good = [s for s in enumerate_fault_universe(compiled) if s.kind != "leak"][:5]
    cases = [
        (FaultSpec("pauli", cnot, paulis=[(1, 0), (0, 0)]), "the Paulis [(1, 0), (0, 0)] are not a tuple"),
        (FaultSpec("pauli", cnot, paulis=((1, 0), [0, 1])),
         "the Pauli [0, 1] at position 1 is not an (x, z) pair of bits"),
        (FaultSpec("pauli", cnot, paulis=((1, [0]),)),
         "the Pauli (1, [0]) at position 0 is not an (x, z) pair of bits"),
        (FaultSpec("meas_flip", meas, paulis=((1, 0),)),
         "the Pauli (1, 0) at position 0 is on a meas_flip spec, which takes none"),
        (FaultSpec("meas_flip", meas, paulis=[(0, 1)]),
         "the Pauli (0, 1) at position 0 is on a meas_flip spec, which takes none"),
    ]

    def replay(*args, **kwargs):
        raise AssertionError("a malformed Pauli reached a replay")

    monkeypatch.setattr(scanner, "execute", replay)
    for spec, message in cases:
        for max_faults in (1, 2):
            with pytest.raises(ValueError, match=re.escape(message)):
                scan(compiled, universe=good + [spec], max_faults=max_faults)
        with pytest.raises(ValueError, match=re.escape(message)):
            leak_failure_fractions(compiled, good + [spec])


def test_empty_and_leak_only_universes_scan_as_before(monkeypatch):
    """With no Pauli spec there is no row to judge and no pair: an empty
    universe fails nothing, and a leak-only one fails the leak specs it
    fails beside Pauli specs, at one and two faults.  A universe without
    leak specs judges one-point stages only: each check type's Pauli rows,
    in passes of ``_PASS_ROWS // 4`` specs."""
    compiled = _compiled("standard", rounds=1)
    universe = enumerate_fault_universe(compiled)
    leaks = [s for s in universe if s.kind == "leak"][::7]
    paulis = [s for s in universe if s.kind != "leak"][::7]
    mixed = scan(compiled, universe=paulis + leaks)
    assert mixed.leak_failures and not mixed.pauli_failures
    judged = []  # every stage the span judge judges
    stage_judge = scanner._judged

    def recording(*args):
        judged.append(args[2].shape)
        return stage_judge(*args)

    monkeypatch.setattr(scanner, "_judged", recording)
    assert leak_failure_fractions(compiled, []) == []
    for max_faults in (1, 2):
        judged.clear()
        empty = scan(compiled, universe=[], max_faults=max_faults)
        assert scan(compiled, universe=paulis, max_faults=max_faults).pauli_failures == []
        assert [shape[:2] for shape in judged] == [(1, 0)] * 2 + [(1, len(paulis))] * 2, judged
        assert (empty.n_pauli_specs, empty.n_leak_specs, empty.n_pairs) == (0, 0, 0)
        assert empty.distance_preserving and empty.exhaustive and not empty.pair_failures
        only = scan(compiled, universe=leaks, max_faults=max_faults)
        assert only.leak_failures == mixed.leak_failures and only.sampled == mixed.sampled
        assert (only.pauli_failures, only.pair_failures, only.n_pairs) == ([], [], 0)
        text = verdict_to_text(compiled, only).splitlines()
        assert ("pairs_scanned=0 pairs_failing=0" in text) == (max_faults == 2)
    monkeypatch.setattr(scanner, "_PASS_ROWS", 64)  # Pauli passes of 16 specs: 32 rows a block
    judged.clear()
    scan(compiled, universe=paulis)
    assert [shape[:2] for shape in judged] == [
        (1, min(16, len(paulis) - lo)) for lo in range(0, len(paulis), 16) for _ in (0, 1)]


class _MisjudgingStars(Decoder):
    """The production matcher, with the parities of every nonempty star
    matching flipped."""

    def parities(self, check_type, cells):
        return super().parities(check_type, cells) ^ ((check_type == 0) & cells.any(axis=1))


@pytest.mark.parametrize("decoder", [Decoder, _MisjudgingStars])
def test_pauli_spec_fractions_are_exactly_zero_or_one(decoder, monkeypatch):
    """A Pauli or meas_flip spec is a rank-0 span: its failure fraction is
    exactly 0 or 1, and 1 exactly for the specs the scan fails.  No single
    Pauli fault fails the production decoder at d=3, so a decoder that
    misjudges star matchings supplies failing specs.  Judged in passes of
    16 specs, the scan fails the same ones."""
    monkeypatch.setattr(scanner, "Decoder", decoder)
    compiled = _compiled("standard", rounds=1)
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind != "leak"][::5]
    verdict = scan(compiled, universe=specs)
    fractions = leak_failure_fractions(compiled, specs)
    assert all(exact and q in (0.0, 1.0) for q, exact in fractions)
    assert [s for s, (q, _) in zip(specs, fractions) if q == 1.0] == verdict.pauli_failures
    assert bool(verdict.pauli_failures) == (decoder is _MisjudgingStars)
    assert len(verdict.pauli_failures) < len(specs)
    monkeypatch.setattr(scanner, "_PASS_ROWS", 64)  # Pauli passes of 16 specs
    assert scan(compiled, universe=specs).pauli_failures == verdict.pauli_failures


def _joint_script(compiled, a, b):
    """One script carrying both Pauli (or meas_flip) specs; two Paulis on
    one gate multiply."""
    script, other = script_for(compiled, a), script_for(compiled, b)
    for gi, paulis in other.paulis.items():
        mine = script.paulis.get(gi, ((0, 0),) * len(paulis))
        script.paulis[gi] = tuple((x1 ^ x2, z1 ^ z2) for (x1, z1), (x2, z2) in zip(mine, paulis))
    script.meas_flips ^= other.meas_flips
    return script


@pytest.mark.parametrize("variant", VARIANTS)
def test_pair_verdicts_equal_joint_replays(variant):
    """A pair is judged at the XOR of its two rank-0 span points; that
    verdict equals the production judge of one replay carrying both faults."""
    compiled = _compiled(variant, rounds=1)
    paulis = [s for s in enumerate_fault_universe(compiled) if s.kind != "leak"]
    rng = np.random.default_rng(41)
    sample = [paulis[i] for i in sorted(rng.choice(len(paulis), 40, replace=False).tolist())]
    verdict = scan(compiled, universe=sample, max_faults=2)
    pairs = [(a, b) for i, a in enumerate(sample) for b in sample[i + 1 :]]
    scripts = [_joint_script(compiled, a, b) for a, b in pairs]
    res = execute(compiled, len(scripts), injections=columns_of(scripts))
    judge = Decoder(compiled.lattice).judge_batch(res.syndromes, res.data_x, res.data_z)
    failing = [pair for pair, bits in zip(pairs, judge) if bits.any()]
    assert verdict.n_pairs == len(pairs)
    assert failing and failing == verdict.pair_failures


def _span_points(base, basis):
    """Every point of an exact side, as rows: point i is the base row XOR
    the basis rows that i's bits select."""
    points = base[None]
    for vec in basis:
        points = np.concatenate([points, points ^ vec])
    return points


def _one_sided(check_type, base, ranks, basis):
    """``_sides`` arrays of specs whose sides of ``check_type`` are the
    given ones and whose other sides are rank-0 zero points."""
    side, empty = (base, ranks, basis), (np.zeros_like(base), np.zeros_like(ranks), basis[:0])
    return [side, empty] if check_type == 0 else [empty, side]


def _judge_bits(decoder, check_type, base, basis):
    """The span judge's failing bit of each of ``_span_points``: each point
    judged alone, as the base of a rank-0 side."""
    points = _span_points(base, basis)
    sides = _one_sided(check_type, points, np.zeros(len(points), dtype=np.int64), basis[:0])
    counts = scanner._failing_counts(decoder, _no_leaks(len(points)), sides)
    return (counts[:, check_type] > 0).tolist()


def _reference_bits(lat, check_type, base, basis):
    """The reference matcher's failing bit of each of ``_span_points``."""
    return [int(point[-1]) != reference_parities(lat, check_type, row_defects(lat, point[:-1]))
            for point in _span_points(base, basis)]


def _spec_sides(sides, k):
    """Spec k's sides in ``_sides``'s arrays: per check type, its base row
    and its basis rows."""
    out = []
    for base, ranks, basis in sides:
        first = int(ranks[:k].sum())
        out.append((base[k], basis[first : first + ranks[k]]))
    return out


def test_span_points_follow_the_production_matcher_above_ten_defects(monkeypatch):
    """The span judge fails a point exactly when the reference matcher does
    (``oracles.match_defects``: its subset DP up to ten defects, networkx's
    blossom above), on every point of hand-built d=3 sides and of two real
    d=5 sides of rank 12.  The points include a 12-defect set where blossom
    and the DP break a tie into different parities, other 12-16-defect rows
    whose ambiguous bit is set, and rows above 16.  Each side's staged
    count, in passes of any size, is its number of failing points, and its
    stop-early verdict is whether there is one."""
    lat = build_lattice(3)
    width = 5 * lat.d**2  # event cells of rounds 0-4
    rng = np.random.default_rng(12)
    for _ in range(200):
        defects = random_defects(rng, 3, 4, 12)
        w = weight_matrix(lat, defects)
        dp = crossing_parities(lat, 0, [(defects[i], defects[j]) for i, j in _match_dp(w)])
        if dp != reference_parities(lat, 0, defects):
            break
    else:
        raise AssertionError("no 12-defect set splits the two matchers")

    def point(found, judge):
        """The row of a defect set's event cells and its judge value."""
        return np.append(defect_rows(lat, [found], width)[0], np.uint8(judge))

    hand = [(0, point((), 0), point(defects, judge)[None]) for judge in range(4)]
    pool = random_defects(rng, 3, 4, 22)

    def spread(m, judge):
        """The point of the pool cells that ``m`` selects."""
        return point([c for j, c in enumerate(pool) if m >> j & 1], judge)

    even = [m for m in rng.integers(0, 1 << 22, size=40).tolist() if m.bit_count() % 2 == 0]
    base = spread((1 << 18) - 1, int(rng.integers(4)))
    hand.append((1, base, np.array([spread(m, int(rng.integers(4))) for m in even[:7]])))
    compiled = _compiled("standard", d=5, rounds=3)
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"][::12]
    sides = _leak_sides(compiled, specs)
    real = [(ct, *side) for k in range(len(specs)) for ct, side in enumerate(_spec_sides(sides, k))
            if len(side[1]) >= 12]
    by_count = {}  # (check type, defect count) -> defect sets of the points judged
    for lat, hand_sides in ((lat, hand), (compiled.lattice, real[:2])):
        decoder = Decoder(lat)
        for ct, base, basis in hand_sides:
            bits = _reference_bits(lat, ct, base, basis)
            assert _judge_bits(decoder, ct, base, basis) == bits
            one = _one_sided(ct, base[None], np.array([len(basis)]), basis)
            for rows in (64, 1 << 15):
                monkeypatch.setattr(scanner, "_PASS_ROWS", rows)
                assert scanner._failing_counts(decoder, _no_leaks(1), one)[0, ct] == sum(bits)
            verdict = scanner._failing_counts(decoder, _no_leaks(1), one, stop_early=True)
            assert verdict[0].any() == any(bits)
            for point in _span_points(base, basis):
                found = row_defects(lat, point[:-1])
                by_count.setdefault((lat.d, ct, len(found)), []).append(found)
    assert len(real) >= 2 and all(len(basis) == 12 for _, _, basis in real[:2])
    ambiguous = 0
    for (d, ct, n), sets in by_count.items():
        if 12 <= n <= 16:
            decoder = Decoder(build_lattice(d))
            n_cells = (1 + max(t for found in sets for t, _ in found)) * d * d
            ambiguous += decoder._match_rows(ct, defect_rows(decoder.lat, sets, n_cells), n)[2].sum()
    counts = {n for _, _, n in by_count}
    assert ambiguous > 1 and max(counts) > 16 and min(counts) <= 10


def _leak_slot(compiled, tag):
    """The first leak spec with a consequence slot of kind ``tag``, and that slot."""
    for spec in enumerate_fault_universe(compiled):
        if spec.kind == "leak":
            slot = next((s for s in leak_consequences(compiled, spec)[1] if s[0] == tag), None)
            if slot is not None:
                return spec, slot
    raise AssertionError(f"no leak spec opens a {tag} slot")


_VALID_CHOICE = {"pair": "Y", "measbit": 1, "readout": "y"}


@pytest.mark.parametrize("tag,choices", [
    ("pair", ["x"]), ("pair", ["W"]), ("pair", ["I"]), ("pair", ["X", "Z"]),
    ("measbit", [2]), ("measbit", ["1"]),
    ("readout", ["q"]), ("readout", ["Y"]), ("readout", ["x", "z"]),
    ("pauli", ["Y"]), ("meas_flip", ["Y"]),
], ids=["pair-x", "pair-W", "pair-I", "pair-twice", "measbit-2", "measbit-str",
        "readout-q", "readout-Y", "readout-twice", "pauli-assigned", "meas_flip-assigned"])
def test_bad_assignments_are_rejected(tag, choices):
    """A choice outside its slot's outcomes, a slot listed twice, or any
    assignment on a spec without a leak is an error rather than a silent
    replay."""
    compiled = _compiled("standard")
    if tag in ("pauli", "meas_flip"):  # a valid leak choice on a leak-free spec
        _, slot = _leak_slot(compiled, "pair")
        good = next(s for s in enumerate_fault_universe(compiled) if s.kind == tag)
        bad = (good, tuple((slot, c) for c in choices))
        good = (good, ())
    else:
        spec, slot = _leak_slot(compiled, tag)
        bad = (spec, tuple((slot, c) for c in choices))
        good = (spec, ((slot, _VALID_CHOICE[tag]),))
    with pytest.raises(ValueError):
        replay_spec(compiled, Decoder(compiled.lattice), *bad)
    with pytest.raises(ValueError):
        residual_weight(compiled, *bad)
    replay_spec(compiled, Decoder(compiled.lattice), *good)
    residual_weight(compiled, *good)


def test_assigned_replay_runs_the_executor_once(monkeypatch):
    """An assigned replay checks its slots against its own trace instead of
    replaying the baseline first."""
    compiled = _compiled("standard")
    spec, slot = _leak_slot(compiled, "pair")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return execute(*args, **kwargs)

    monkeypatch.setattr(oracles, "execute", counting)
    monkeypatch.setattr(scanner, "execute", counting)
    replay_spec(compiled, Decoder(compiled.lattice), spec, ((slot, "Y"),))
    assert calls == [1]


@pytest.mark.parametrize("variant", VARIANTS)
def test_outcome_choices_never_move_a_leak(variant):
    """What the one-replay check rests on: a randomly assigned replay opens
    exactly the consequence slots of its baseline."""
    compiled = _compiled(variant, rounds=1)
    rng = np.random.default_rng(5)
    for spec in [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"][::4]:
        _, slots = leak_consequences(compiled, spec)
        choices = [oracles._CHOICES[slot[0]] for slot in slots]
        assignment = tuple((slot, c[rng.integers(len(c))]) for slot, c in zip(slots, choices))
        trace = []
        run_shot(compiled, script=script_for(compiled, spec, assignment), trace=trace)
        assert tuple(trace) == slots, spec


def test_span_sides_reject_a_unit_effect_on_both_check_types():
    """A spec's units that each touch one check type reduce to one basis
    per type; a unit effect with cells or judge bits on both types is an
    error."""
    lat = build_lattice(3)
    width = 2 * lat.d**2

    def point(cells, judge):
        return np.append(defect_rows(lat, [cells], width)[0], np.uint8(judge))

    zero = point([], 0)
    base = np.array([[point([(0, 3)], 1), zero]])
    star = [point([(0, 1), (1, 1)], 0), zero]
    plaq_parity = [zero, point([], 2)]
    owner, unit_of = np.zeros(2, dtype=np.int64), np.arange(2)
    (star_base, star_ranks, star_basis), (plaq_base, plaq_ranks, plaq_basis) = scanner._sides(
        base, np.array([star, plaq_parity]), owner, unit_of)
    np.testing.assert_array_equal(star_base, [point([(0, 3)], 1)])
    np.testing.assert_array_equal(star_basis, [point([(0, 1), (1, 1)], 0)])
    np.testing.assert_array_equal(plaq_base, [zero])
    np.testing.assert_array_equal(plaq_basis, [point([], 2)])
    assert star_ranks.tolist() == plaq_ranks.tolist() == [1]
    for both in [[point([(0, 1)], 0), point([(0, 2)], 0)], [point([], 1), point([(0, 2), (1, 2)], 0)]]:
        with pytest.raises(ValueError, match="touches both check types"):
            scanner._sides(base, np.array([star, both]), owner, unit_of)


@pytest.mark.parametrize("variant", VARIANTS)
def test_control_only_leaks_split_into_star_and_plaquette_sides(variant):
    """The golden scans cover two_sided leakage; every control_only leak
    spec splits into one star and one plaquette side as well."""
    noise = NoiseModel(p=1e-3, r=1.0, p_init_leak=1e-3, side_policy="control_only")
    compiled = _compiled(variant, noise, rounds=1)
    leaks = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"]
    assert leaks
    width = 2 * compiled.lattice.d**2
    sides = _leak_sides(compiled, leaks)
    assert len(sides) == 2
    for base, ranks, basis in sides:
        assert base.shape == (len(leaks), width + 1) and ranks.shape == (len(leaks),)
        assert basis.shape == (ranks.sum(), width + 1)


def test_assignment_slots_outside_the_program_are_rejected():
    """A slot naming no two-qubit gate position, measurement or data edge is
    a ValueError before any replay, never an IndexError from the executor."""
    compiled = _compiled("standard")
    spec, _ = _leak_slot(compiled, "pair")
    single = next(gi for gi, g in enumerate(compiled.gates) if g.kind == "H")
    cnot = next(gi for gi, g in enumerate(compiled.gates) if g.kind == "CNOT")
    for slot, choice in [(("pair", len(compiled.gates), 0), "X"), (("pair", single, 1), "X"),
                         (("pair", cnot, 2), "X"), (("measbit", cnot), 1),
                         (("readout", compiled.lattice.n_data), "x"), (("swap", cnot), "X")]:
        with pytest.raises(ValueError):
            replay_spec(compiled, Decoder(compiled.lattice), spec, ((slot, choice),))


_POLICIES = [DOC_NOISE, replace(DOC_NOISE, site_filter="data_only"),
             replace(DOC_NOISE, side_policy="control_only")]


def _assert_same_sides(got, want):
    """Two ``_sides`` results are equal bit for bit: per check type, the
    base rows, the ranks and the basis rows in order."""
    assert len(got) == len(want) == 2
    for ct, (ours, theirs) in enumerate(zip(got, want)):
        for name, a, b in zip(("base", "ranks", "basis"), ours, theirs):
            assert a.dtype == b.dtype, (ct, name)
            np.testing.assert_array_equal(a, b, err_msg=f"check type {ct}: {name}")


@pytest.mark.parametrize("variant", VARIANTS)
def test_shared_unit_sides_equal_per_spec_replays(variant):
    """Every leak spec's sides, with unit effects shared between specs,
    equal the per-spec reference bit for bit (check type, base, basis in
    order), under two-sided, data-only and control-only leakage at one and
    three rounds."""
    for noise, rounds in product(_POLICIES, (1, 3)):
        compiled = _compiled(variant, noise, rounds=rounds)
        specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"]
        assert specs
        _assert_same_sides(_leak_sides(compiled, specs), leak_sides(compiled, specs))


def test_shared_unit_sides_equal_per_spec_replays_at_d5():
    """The same on a slice of standard d=5 at three rounds, where sides
    reach rank 9 and more."""
    compiled = _compiled("standard", d=5, rounds=3)
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"][::12]
    sides = _leak_sides(compiled, specs)
    _assert_same_sides(sides, leak_sides(compiled, specs))
    assert max(ranks.max() for _, ranks, _ in sides) > 8


def _pair_units(compiled):
    """The distinct pair unit keys that the program's leak specs open."""
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"]
    leaks = np.array([(s.gate_index, s.victim) for s in specs], dtype=np.int64)
    units = np.unique(scanner._baselines(compiled, leaks)[2])
    return units[(units < 5 * len(compiled.gates)) & (units % 5 < 4)]


def test_pair_units_are_replayed_on_the_leak_their_slot_implies(monkeypatch):
    """In the variants' schedules a partner's Pauli never meets the leaked
    qubit again, and the light cone proves it: at d=3, one round, every
    pair unit of every variant is inert.  Repeating every CNOT makes the
    Pauli meet the still-leaked qubit at once, where only a replay that
    carries the leak blocks it: the cone cannot prove 126 of those 540
    units inert, the unit table replays each of them on its leak, and each
    such leak alone, and the sides equal the per-spec reference bit for
    bit.  Taken as inert, those units would give other sides."""
    for variant in VARIANTS:
        compiled = _compiled(variant, rounds=1)
        units = _pair_units(compiled)
        assert len(units) and scanner._inert(compiled, units).all(), variant
    program = build_program("standard", 3, 1)
    doubled = [[op for op in ops for _ in range(1 + (op.kind == "CNOT"))] for ops in program.rounds]
    compiled = compile_program(replace(program, rounds=doubled), DOC_NOISE)
    units = _pair_units(compiled)
    inert = scanner._inert(compiled, units)
    leaky = []  # per unit table, its rows that carry a leak
    unit_rows = scanner._unit_rows

    def recording(compiled, leaks, keys):
        leaky.append(int((leaks[:, 0] != -1).sum()))
        return unit_rows(compiled, leaks, keys)

    monkeypatch.setattr(scanner, "_unit_rows", recording)
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"]
    want = leak_sides(compiled, specs)
    _assert_same_sides(_leak_sides(compiled, specs), want)
    replayed = units[~inert]
    assert (len(replayed), len(units)) == (126, 540)
    assert leaky == [len(replayed) + len(np.unique(replayed // 5 * 2 + 1 - replayed % 5 // 2))]
    monkeypatch.setattr(scanner, "_inert", lambda compiled, units: np.ones(len(units), dtype=bool))
    with pytest.raises(AssertionError):
        _assert_same_sides(_leak_sides(compiled, specs), want)


def test_each_replay_phase_is_one_executor_call(monkeypatch):
    """The standard d=3, three-round scan replays in two executor calls:
    its 540 leak baselines with their traces, then its unit table of 1,116
    rows: the 1,080 units of its Pauli specs and the 36 readout units of
    its leak specs, every pair unit being inert and every junk measurement
    unit a Pauli spec's too.  With the row bound cut to 500 the phases
    split into 2 and 3 calls and the report is the same."""
    compiled = _compiled("standard")
    rows = []

    def counting(compiled, n_rows, *args, **kwargs):
        rows.append(n_rows)
        return execute(compiled, n_rows, *args, **kwargs)

    monkeypatch.setattr(scanner, "execute", counting)
    report = verdict_to_text(compiled, scan(compiled))
    assert rows == [540, 1116]
    assert report == verdict_to_text(compiled, _doc_scan("standard")[1])
    rows.clear()
    monkeypatch.setattr(scanner, "_CHUNK_ROWS", 500)
    assert verdict_to_text(compiled, scan(compiled)) == report
    assert rows == [500, 40, 500, 500, 116]


def test_leak_walk_replays_each_distinct_unit_once(monkeypatch):
    """On standard d=3 at three rounds, the leak walk of a scan and of the
    failure fractions replays each spec's baseline and each distinct unit
    generator once: not one row per spec and unit.  Every pair unit is
    inert, so none is replayed on its leak and no leak is replayed alone."""
    compiled = _compiled("standard")
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"]
    injections = columns_of([script_for(compiled, s) for s in specs])
    res = execute(compiled, len(specs), injections=injections, trace=True)
    traces = [trace_of(compiled, res, row) for row in range(len(specs))]
    units = {gen for trace in traces for gen in unit_generators(trace)}
    pair_slots = {slot for slot, _ in units if slot[0] == "pair"}
    per_spec = len(specs) + sum(len(unit_generators(trace)) for trace in traces)
    assert (len(specs), len(units), len(pair_slots), per_spec) == (540, 918, 414, 4968)
    rows = []

    def counting(compiled, n_rows, *args, **kwargs):
        rows.append(n_rows)
        return execute(compiled, n_rows, *args, **kwargs)

    monkeypatch.setattr(scanner, "execute", counting)
    for walk in (lambda: scan(compiled, universe=specs), lambda: leak_failure_fractions(compiled, specs)):
        rows.clear()
        walk()
        assert sum(rows) <= len(specs) + len(units) == 1458


def test_leak_fractions_match_the_frozen_fixture():
    """A third of the standard slice of the frozen fractions fixture: each
    leak spec's exact failure fraction, bit for bit, zero where the fixture
    lists none.  ``make_goldens.py --check`` diffs all of it."""
    lines = (GOLDEN / "fractions_d3.txt").read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("variant=standard "))
    header = dict(field.split("=") for field in lines[start].split())
    listed = {}
    for line in lines[start + 1 :]:
        if not line.startswith("gate="):
            break
        f = dict(field.split("=") for field in line.split())
        listed[int(f["gate"]), int(f["victim"])] = (float.fromhex(f["fraction"]), f["exact"] == "1")
    compiled = _compiled("standard")
    specs = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"]
    assert (header["d"], header["rounds"], int(header["leak_specs"])) == ("3", "3", len(specs))
    assert len(listed) + int(header["zero"]) == len(specs)
    keys = [(s.gate_index, s.victim) for s in specs[::3]]
    got = leak_failure_fractions(compiled, specs[::3])
    assert got == [listed.get(key, (0.0, got[k][1])) for k, key in enumerate(keys)]
    assert 0 < sum(q > 0 for q, _ in got) < len(got)


@pytest.mark.parametrize("width", [18, 64, 65, 100])
def test_cell_ids_are_equal_exactly_where_cells_are(width):
    """``_cell_ids`` gives two rows of one check type the same id exactly
    when their cells are equal, also where rows differ only in their first
    or last cell, on either side of a 64-cell word boundary; the judge
    bits and the other type's cells play no part."""
    rng = np.random.default_rng(width)
    pool = rng.integers(0, 2, size=(40, width), dtype=np.uint8)
    pool[1], pool[2] = pool[0], pool[0]
    pool[1, 0] ^= 1
    pool[2, -1] ^= 1
    rows = np.concatenate([pool[rng.integers(0, len(pool), size=(1000, 2))],
                           rng.integers(0, 4, size=(1000, 2, 1), dtype=np.uint8)], axis=2)
    ids = scanner._cell_ids(rows)
    assert ids.shape == (2, 1000)
    for ct in (0, 1):
        cells = rows[:, ct, :-1]
        _, first, inverse = np.unique(ids[ct], return_index=True, return_inverse=True)
        np.testing.assert_array_equal(cells[first][inverse], cells)
        assert len(first) == len({row.tobytes() for row in cells}) == len(pool)
    assert scanner._cell_ids(rows[:0]).shape == (2, 0)
