"""Acceptance gate: eleven behavioral criteria, one test (and one verdict
line) each.

Every Monte-Carlo criterion runs a frozen configuration at the frozen
master seed 7 — chosen before any acceptance statistic was observed — and
reports its measured value in the assertion message.  Grids are placed
where each arm's leading power law dominates (calibrated against the exact
single-fault coefficients of the scanner); windows are the stated
tolerances.  Worker counts only affect wall clock, never results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct

import pytest

import test_decoder
import test_pauli
from oracles import gate_records, leak_consequences, residual_weight, support, x_check_single_qubit_gates
from toricleak.circuits import build_program
from toricleak.decoder import Decoder
from toricleak.experiments import (
    ExperimentConfig,
    compare_variants,
    fit_exponent,
    rows_to_csv,
    run_sweep,
)
from toricleak.noise import NoiseModel
from toricleak.scanner import (
    FaultSpec,
    enumerate_fault_universe,
    leak_failure_fractions,
    scan,
    spec_location,
)
from toricleak.sim import compile_program

SEED = 7
WORKERS = 4

LOW_GRID = (0.8e-4, 1.2e-4, 1.8e-4, 2.8e-4)  # where degraded lines stay linear
MAIN_GRID = (1e-3, 2e-3, 3e-3, 5e-3)

_SWEEPS: dict[tuple, list] = {}


def _sweep(**fields):
    """Session-cached sweep at the frozen acceptance seed."""
    fields.setdefault("master_seed", SEED)
    key = tuple(sorted(fields.items()))
    if key not in _SWEEPS:
        _SWEEPS[key] = run_sweep(ExperimentConfig(**fields), workers=WORKERS)
    return _SWEEPS[key]


def _slope(rows, window, label):
    fit = fit_exponent(rows)
    lo, hi = window
    assert lo <= fit.exponent <= hi, (
        f"{label}: slope {fit.exponent:.3f} (stderr {fit.stderr:.3f}, "
        f"{fit.points_used} points) outside [{lo}, {hi}]")
    return fit


def _scan(variant, noise, d=3, rounds=3):
    compiled = compile_program(build_program(variant, d, rounds), noise)
    return compiled, scan(compiled, decoder=Decoder(compiled.lattice), max_faults=1)


def _first_order_coefficient(compiled):
    """Exact A1 with P_L = A1*p + O(p^2): the sum over leak specs of
    (rate / p) * P(failure | the leak fires), every span enumerated."""
    p = compiled.noise.p
    a1 = 0.0
    specs = [spec for spec in enumerate_fault_universe(compiled) if spec.kind == "leak"]
    gates = gate_records(compiled)
    for spec, (fraction, exact) in zip(specs, leak_failure_fractions(compiled, specs)):
        assert exact, spec
        gate = gates[spec.gate_index]
        a1 += fraction * gate.leak_prob / len(gate.leak_victims) / p
    return a1


def test_criterion_01_ancilla_leakage_degrades_the_effective_distance():
    """Persistent ancilla-side leakage halves the distance-3 exponent.

    The degraded exponent is that of the single-fault term A1*p, so the
    grid must sit where that term leads.  No single Pauli fault fails here
    (the standard d=3 golden scan), so A1 sums the leak specs alone; it is
    783/32 ~ 24.5, from 135 failing leak specs out of 324.  At p >= 1e-3
    fault pairs that include a leak add ~1.27e4 p^2 (of which ~2.7e3 p^2 is
    leak-free), and A1*p falls to 0.49 of P_L at 2e-3, so MAIN_GRID
    measures the quadratic mix.  On LOW_GRID A1*p is 0.90-1.09 of P_L.
    """
    rows = _sweep(variant="standard", d=(3,), p=LOW_GRID,
                  side_policy="two_sided", site_filter="ancilla_only",
                  p_init_leak="r*p", shots=None, target_failures=300,
                  max_shots=4_000_000)
    p0 = LOW_GRID[0]
    noise = NoiseModel(p=p0, r=1.0, site_filter="ancilla_only", p_init_leak=p0)
    a1 = _first_order_coefficient(
        compile_program(build_program("standard", 3, 3), noise))
    for row in rows:
        assert a1 * row.p > row.p_logical / 2, (
            f"p={row.p:g}: A1*p = {a1 * row.p:.3g} is not the leading part "
            f"of P_L = {row.p_logical:.3g} (A1 = {a1:.3f})")
    _slope(rows, (0.8, 1.3), "standard/ancilla_only")


def test_criterion_02_per_round_swap_restores_the_power_law():
    """With the per-round data/ancilla swap, data leakage keeps the
    ceil(d/2) scaling at d=3 and d=5."""
    rows3 = _sweep(variant="swap_lrc", d=(3,), p=MAIN_GRID, r=0.2,
                   site_filter="data_only", shots=None, target_failures=300,
                   max_shots=2_000_000)
    _slope(rows3, (1.7, 2.4), "swap_lrc d=3")
    rows5 = _sweep(variant="swap_lrc", d=(5,), p=(2e-3, 3e-3, 5e-3, 8e-3),
                   r=0.2, site_filter="data_only", shots=None,
                   target_failures=300, max_shots=4_000_000)
    _slope(rows5, (2.5, 3.6), "swap_lrc d=5")


def test_criterion_03_swapped_data_leakage_beats_bare_ancilla_leakage():
    swap = _sweep(variant="swap_lrc", d=(3,), p=(2e-3,),
                  site_filter="data_only", shots=20_000)[0]
    bare = _sweep(variant="standard", d=(3,), p=(2e-3,),
                  site_filter="ancilla_only", p_init_leak="r*p",
                  shots=20_000)[0]
    assert swap.interval[1] < bare.interval[0], (
        f"P_L {swap.p_logical:.4f} {swap.interval} vs "
        f"{bare.p_logical:.4f} {bare.interval} not disjoint")


def test_criterion_04_every_round_swapping_beats_alternate_rounds():
    report = compare_variants(
        _sweep(variant="swap_lrc", d=(3,), p=(3e-3,),
               site_filter="data_only", shots=20_000),
        _sweep(variant="swap_alt", d=(3,), p=(3e-3,),
               site_filter="data_only", shots=20_000))
    assert "lower=swap_lrc significant=yes" in report, report


def test_criterion_05_only_first_cnot_leakage_is_critical():
    rows = _sweep(variant="swap_lrc", d=(3,), p=LOW_GRID,
                  site_filter="cnot_ordinal:1", shots=None,
                  target_failures=300, max_shots=4_000_000)
    _slope(rows, (0.8, 1.3), "cnot_ordinal:1")
    for k in (2, 3, 4):
        rows = _sweep(variant="swap_lrc", d=(3,), p=MAIN_GRID,
                      site_filter=f"cnot_ordinal:{k}", shots=None,
                      target_failures=300, max_shots=2_000_000)
        _slope(rows, (1.7, 2.4), f"cnot_ordinal:{k}")


def test_criterion_06_gate_bias_protects_against_control_leakage():
    rows = _sweep(variant="gate_biased", d=(3,),
                  p=(0.8e-3, 1.2e-3, 1.8e-3, 2.8e-3),
                  side_policy="control_only", shots=None,
                  target_failures=3200, max_shots=2_000_000)
    _slope(rows, (1.7, 2.4), "gate_biased")
    rows = _sweep(variant="gate_biased_opt", d=(3,),
                  p=(0.8e-3, 1.1e-3, 1.5e-3, 2.0e-3, 2.8e-3),
                  side_policy="control_only", shots=None,
                  target_failures=12_800, max_shots=2_000_000)
    _slope(rows, (1.7, 2.4), "gate_biased_opt")
    rows = _sweep(variant="standard", d=(3,), p=LOW_GRID,
                  side_policy="control_only", shots=None,
                  target_failures=300, max_shots=4_000_000)
    _slope(rows, (0.8, 1.3), "standard/control_only")
    # structural price: single-qubit gates per plus-ancilla circuit
    base = x_check_single_qubit_gates(build_program("standard", 3, 1))
    assert x_check_single_qubit_gates(build_program("gate_biased", 3, 1)) - base == 12
    assert x_check_single_qubit_gates(build_program("gate_biased_opt", 3, 1)) - base == 4


def test_criterion_07_combined_reduction_keeps_effective_distance():
    rows = _sweep(variant="mixed_lrc", d=(3,), p=MAIN_GRID,
                  p_init_leak="r*p", shots=None, target_failures=300,
                  max_shots=2_000_000)
    _slope(rows, (1.7, 2.4), "mixed_lrc")


def test_criterion_08a_standard_failing_leaks_sit_at_known_locations():
    noise = NoiseModel(p=1e-3, r=1.0, site_filter="ancilla_only",
                       p_init_leak=1e-3)
    compiled, verdict = _scan("standard", noise)
    assert verdict.exhaustive
    failing = verdict.leak_failures
    assert len(failing) == 135, f"{len(failing)} failing leak specs"
    for spec in failing:
        loc = spec_location(compiled, spec)
        at_init = loc.kind == "PrepZ"
        at_first_h = loc.kind == "H" and loc.role == "ancillaX" and loc.phase == "pre"
        at_first_cnot = loc.kind == "CNOT" and loc.ordinal == 1
        assert at_init or at_first_h or at_first_cnot, loc


def test_criterion_08b_reduction_variants_scan_clean():
    cases = [
        ("mixed_lrc", NoiseModel(p=1e-3, r=0.0, p_init_leak=1e-3)),
        ("gate_biased", NoiseModel(p=1e-3, r=1.0, side_policy="control_only",
                                   site_filter="ancilla_only")),
        ("gate_biased_opt", NoiseModel(p=1e-3, r=1.0, side_policy="control_only",
                                       site_filter="ancilla_only")),
    ]
    for variant, noise in cases:
        _, verdict = _scan(variant, noise)
        assert verdict.exhaustive
        assert verdict.pauli_failures == [], variant
        assert verdict.leak_failures == [], (
            f"{variant}: {len(verdict.leak_failures)} failing leak specs")


def test_criterion_09_hook_spreads_to_four_errors_with_aligned_pair():
    noise = NoiseModel(p=1e-3, r=1.0, p_init_leak=1e-3)
    compiled = compile_program(build_program("standard", 3, 3), noise)
    gi = next(i for i, g in enumerate(gate_records(compiled))
              if g.kind == "PrepZ" and g.check_type == 1
              and g.round_index == 1 and g.leak_prob > 0)
    spec0 = FaultSpec(kind="leak", gate_index=gi, victim=0)
    loc = spec_location(compiled, spec0)
    _, slots = leak_consequences(compiled, spec0)
    pair_slots = [s for s in slots if s[0] == "pair"]
    rw = residual_weight(compiled, spec0, tuple(zip(pair_slots, "XYYX")))
    assert rw.raw_x == 4, rw
    assert set(rw.support_x) == set(support(compiled.lattice, "X", loc.check[1]).tolist())
    assert rw.reduced_z == 2 and rw.aligned_z, rw


def test_criterion_10_propagation_and_matching_oracles():
    for name, gate, qubits in test_pauli._GATES:
        test_pauli.test_propagation_matches_unitary_conjugation(name, gate, qubits)
    test_decoder.test_exact_matching_against_brute_force_oracle()


def test_criterion_11_csv_is_byte_identical_across_worker_counts():
    fields = dict(variant="standard", d=(3,), p=(3e-3, 5e-3),
                  p_init_leak="r*p", shots=6_000, master_seed=SEED)
    one = rows_to_csv(run_sweep(ExperimentConfig(**fields), workers=1))
    eight = rows_to_csv(run_sweep(ExperimentConfig(**fields), workers=8))
    assert one == eight
