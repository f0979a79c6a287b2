"""Structural tests for the six syndrome-extraction circuit variants."""

from __future__ import annotations

import hashlib
import pathlib

import numpy as np
import pytest

from oracles import gate_counts, parse_program_text, validate_program, x_check_single_qubit_gates
from toricleak.circuits import (
    CNOT,
    H,
    MEAS_Z,
    PREP_Z,
    SWAP,
    VARIANTS,
    FaultLocation,
    GateOp,
    build_program,
    partner_edges,
    program_to_text,
)
from toricleak.lattice import build_lattice

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("d", [3, 5])
def test_all_variants_validate(variant, d):
    program = build_program(variant, d, n_rounds=3)
    validate_program(program)
    assert program.n_rounds == 3
    assert len(program.rounds) == 3


def test_standard_gate_counts_d3():
    counts = gate_counts(build_program("standard", 3, 1))
    assert counts == {PREP_Z: 18, H: 18, CNOT: 72, MEAS_Z: 18}


def test_swap_variants_swap_counts():
    assert gate_counts(build_program("swap_lrc", 3, 1))[SWAP] == 18
    alt = build_program("swap_alt", 3, 2)
    assert SWAP not in gate_counts(alt, 0)  # standard-first alternation
    assert gate_counts(alt, 1)[SWAP] == 18


def test_gate_biased_single_qubit_overheads():
    base = x_check_single_qubit_gates(build_program("swap_lrc", 3, 1))
    full = x_check_single_qubit_gates(build_program("gate_biased", 3, 1))
    opt = x_check_single_qubit_gates(build_program("gate_biased_opt", 3, 1))
    assert base == 2
    assert full - base == 12
    assert opt - base == 4


def test_gate_biased_cnot_directions():
    # full variant: data controls every X-check CNOT; optimized: only the 1st two
    for variant, reversed_ordinals in [("gate_biased", {1, 2, 3, 4}), ("gate_biased_opt", {1, 2})]:
        program = build_program(variant, 3, 1)
        for g in program.rounds[0]:
            if g.kind == CNOT and g.label.check[0] == "X":
                expect = ("data", "ancillaX") if g.label.cnot_ordinal in reversed_ordinals else ("ancillaX", "data")
                assert g.label.roles == expect
            if g.kind == CNOT and g.label.check[0] == "Z":
                assert g.label.roles == ("data", "ancillaZ")


def test_mixed_lrc_gate_counts_d3():
    counts = gate_counts(build_program("mixed_lrc", 3, 1))
    assert counts == {PREP_Z: 36, H: 18, CNOT: 72, SWAP: 36, MEAS_Z: 18}


@pytest.mark.parametrize("variant", VARIANTS)
def test_cnot_ordinals_per_check(variant):
    program = build_program(variant, 3, 1)
    seen: dict[tuple[str, int], list[int]] = {}
    for g in program.rounds[0]:
        if g.kind == CNOT:
            seen.setdefault(g.label.check, []).append(g.label.cnot_ordinal)
    assert len(seen) == 18
    for ordinals in seen.values():
        assert ordinals == [1, 2, 3, 4]  # time order


@pytest.mark.parametrize("d", [3, 5, 7])
def test_each_data_edge_uses_every_layer_once(d):
    program = build_program("standard", d, 1)
    per_edge: dict[int, list[int]] = {}
    for g in program.rounds[0]:
        if g.kind == CNOT:
            data_qubit = g.qubits[g.label.roles.index("data")]
            per_edge.setdefault(data_qubit, []).append(g.label.cnot_ordinal)
    assert len(per_edge) == 2 * d * d
    for ordinals in per_edge.values():
        assert sorted(ordinals) == [1, 2, 3, 4]


def test_partner_edges_form_perfect_pairing():
    lat = build_lattice(3)
    z_partner, x_partner = partner_edges(lat)
    assert sorted(np.concatenate([z_partner, x_partner])) == list(range(lat.n_data))


def test_collision_detection_catches_reuse():
    program = build_program("standard", 3, 1)
    bad = GateOp(H, (0,), 0, FaultLocation(0, 99, H, 0, ("data",), ("X", 0)))
    program.rounds[0].append(bad)
    program.rounds[0].append(bad)
    with pytest.raises(AssertionError, match="used twice"):
        validate_program(program)


def _touched(program, r):
    """Which qubit each check's MeasZ and each of its CNOTs touches in round ``r``."""
    return {(g.kind, g.label.check, g.label.cnot_ordinal): g.qubits
            for g in program.rounds[r] if g.kind in (MEAS_Z, CNOT)}


def test_swap_lrc_roles_follow_swaps():
    program = build_program("swap_lrc", 3, 3)
    for r in range(2):
        before, after = _touched(program, r), _touched(program, r + 1)
        for t, data_pos in (("Z", 0), ("X", 1)):
            for s in range(9):
                # whoever measured the check is the partner edge's data carrier
                # next round; the partner (N) is the check's 1st CNOT
                measured = before[MEAS_Z, (t, s), 0]
                assert after[CNOT, (t, s), 1][data_pos] == measured[0]
    # and the exchange is an involution: round 2 touches round 0's qubits
    assert _touched(program, 2) == _touched(program, 0)


def test_swap_alt_holds_roles_in_even_rounds():
    program = build_program("swap_alt", 3, 4)
    assert _touched(program, 1) == _touched(program, 0)
    assert _touched(program, 2) != _touched(program, 1)
    assert _touched(program, 3) == _touched(program, 2)


def test_mixed_lrc_rotation_has_period_three():
    program = build_program("mixed_lrc", 3, 7)
    rounds = [_touched(program, r) for r in range(7)]
    assert rounds[1] != rounds[0]
    assert rounds[2] != rounds[0]
    assert rounds[3] == rounds[0]
    assert rounds[4] == rounds[1]
    assert rounds[6] == rounds[0]


def test_mixed_lrc_measures_the_swapped_in_qubit():
    program = build_program("mixed_lrc", 3, 1)
    lat = program.lattice
    mid_swaps = {}
    for g in program.rounds[0]:
        if g.kind == SWAP and g.label.roles == ("ancillaZ", "spare"):
            mid_swaps[g.label.check] = g.qubits[1]
        if g.kind == SWAP and g.label.roles == ("ancillaX", "spare"):
            mid_swaps[g.label.check] = g.qubits[1]
        if g.kind == MEAS_Z:
            assert g.qubits[0] == mid_swaps[g.label.check]
    # in round 0 the swapped-in qubit is the dedicated spare site
    assert mid_swaps[("Z", 0)] == lat.z_spare(0)
    assert mid_swaps[("X", 4)] == lat.x_spare(4)


def test_unknown_variant_and_bad_rounds_raise():
    with pytest.raises(ValueError, match="unknown variant"):
        build_program("fancy", 3, 1)
    with pytest.raises(ValueError, match="n_rounds"):
        build_program("standard", 3, 0)


def test_program_text_round_trip():
    program = build_program("swap_lrc", 3, 2)
    text = program_to_text(program)
    assert text.startswith("toricleak-circuit v1 variant=swap_lrc d=3 rounds=2 qubits=36\n")
    parsed = parse_program_text(text)
    assert parsed["variant"] == "swap_lrc"
    assert len(parsed["rounds"]) == 2
    flat = [g for r, g in program.all_gates()]
    parsed_flat = [g for rnd in parsed["rounds"] for g in rnd]
    assert len(flat) == len(parsed_flat)
    for g, p in zip(flat, parsed_flat):
        assert g.kind == p["kind"]
        assert g.qubits == p["qubits"]
        assert g.step == p["step"]
        assert g.label.cnot_ordinal == p["ordinal"]
        assert g.label.roles == p["roles"]
        assert g.label.check == p["check"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_emitted_text_matches_golden(variant):
    program = build_program(variant, 3, 1)
    golden = (GOLDEN / f"circuit_{variant}_d3_r1.txt").read_text()
    assert program_to_text(program) == golden


# sha256 of ``program_to_text`` for multi-round builds: these cover swap_alt's
# alternation, mixed_lrc's three-round rotation and d=5, which the d=3
# one-round goldens above do not.
MULTI_ROUND_SHA256 = {
    (3, 3): {
        "standard": "dc15b6eaee4b63e126203ec32dcf067641790042ebf76eee337df02a7644c502",
        "swap_lrc": "ee65011100a19d2a16a7d62cf727b0bf6262e0cf3c03e0f75e668c358a6d24c7",
        "swap_alt": "953b53bf5be30d560c4838c18fd42cdd81c8b1d70bd0cb414dc31b43c49d686d",
        "gate_biased": "c6502b72b3532403a347a6c568ea7c8dd5f50dabe7ecea990779b7a04fda302e",
        "gate_biased_opt": "76c9fed013fc9840ea942d3ed42ba76b54a3da81f2024a3ee7c4fd4bd7c292f5",
        "mixed_lrc": "92231500612587e455c30ee795f2a121ec72b278eac8eb0b263eee7fe304bb54",
    },
    (5, 2): {
        "standard": "f9302cc7b4f7e73e7066e517193a329980a6244d2df04eba06eda7353d881651",
        "swap_lrc": "cceb54e6aedce97791bd9ad418aa4927abb6d6c1511530e90d5f2a5519972788",
        "swap_alt": "fa1964d571e8040b5788697a51878c0b70925a59e30b5283fcc615fe1fb9f4df",
        "gate_biased": "3551fdf8e793d17f6c39bc0630fb36d8db2cf93cf01c9e4ff1f71b580bff925c",
        "gate_biased_opt": "f16d3f8fd493182c3a9b4d06b5fc52762e9eb5af691a21856c7b40b2bdde817a",
        "mixed_lrc": "b609953acc736ba4f1e76f167d9ba2899cce45975b588a75532a1f0999a0b98c",
    },
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("d, rounds", sorted(MULTI_ROUND_SHA256))
def test_multi_round_text_is_pinned(variant, d, rounds):
    text = program_to_text(build_program(variant, d, rounds))
    assert hashlib.sha256(text.encode()).hexdigest() == MULTI_ROUND_SHA256[d, rounds][variant]
