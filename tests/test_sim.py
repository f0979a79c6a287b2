"""Behavioral tests for single shots run through ``oracles.run_shot``."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import NULL_NOISE, Script, find_gates, run_shot, shot_uniforms, site
from toricleak.circuits import CNOT, MEAS_Z, PREP_Z, SWAP, VARIANTS, build_program
from toricleak.noise import NoiseModel
from toricleak.sim import DRAWS_PER_KIND, compile_program


def _compiled(variant="standard", d=3, rounds=3, noise=NULL_NOISE):
    return compile_program(build_program(variant, d, rounds), noise)


@pytest.mark.parametrize("variant", VARIANTS)
def test_noiseless_run_is_all_zero(variant):
    result = run_shot(_compiled(variant))
    assert not result.syndromes.any()
    assert not result.data_x.any() and not result.data_z.any()
    assert not result.logical_parities.any()
    assert not result.leak_final.any()


def test_all_variants_measure_identical_syndromes_noiselessly():
    """Role swapping, CNOT reversal and ancilla replacement are all transparent."""
    compiled = {v: _compiled(v) for v in VARIANTS}
    rng = np.random.default_rng(7)
    for _ in range(20):
        ix = rng.integers(0, 2, 18).astype(np.uint8)
        iz = rng.integers(0, 2, 18).astype(np.uint8)
        reference = run_shot(compiled["standard"], initial_x=ix, initial_z=iz)
        for variant in VARIANTS[1:]:
            result = run_shot(compiled[variant], initial_x=ix, initial_z=iz)
            np.testing.assert_array_equal(result.syndromes, reference.syndromes)
            np.testing.assert_array_equal(result.logical_parities, reference.logical_parities)


def test_static_data_error_fires_same_defects_every_round():
    compiled = _compiled(rounds=3)
    lat = compiled.lattice
    ix = np.zeros(18, dtype=np.uint8)
    ix[lat.h(0, 0)] = 1
    result = run_shot(compiled, initial_x=ix)
    for t in range(4):  # 3 measured rounds + the perfect readout round
        assert sorted(np.flatnonzero(result.syndromes[t, 0])) == [site(lat, 0, 0), site(lat, 0, 1)]
        assert not result.syndromes[t, 1].any()
    np.testing.assert_array_equal(result.logical_parities, [1, 0, 0, 0])


def test_preparation_clears_injected_ancilla_errors():
    compiled = _compiled()
    ix = np.zeros(compiled.lattice.n_qubits, dtype=np.uint8)
    ix[compiled.lattice.z_ancilla(0)] = 1
    ix[compiled.lattice.x_ancilla(5)] = 1
    result = run_shot(compiled, initial_x=ix)
    assert not result.syndromes.any()


def test_scripted_pauli_injection_after_last_layer():
    compiled = _compiled(rounds=2)
    assert not run_shot(compiled, script=Script()).syndromes.any()
    cnot = find_gates(compiled, kind=CNOT, round_index=0, check=("Z", 0), ordinal=4)[0]
    g = compiled.gates[cnot]
    assert g.label.roles == ("data", "ancillaZ")
    # X on the data side lands after every round-0 CNOT touching that edge,
    # so round 0 stays clean and the defect pair appears from round 1 on
    result = run_shot(compiled, script=Script(paulis={cnot: ((1, 0), (0, 0))}))
    assert not result.syndromes[0].any()
    assert len(np.flatnonzero(result.syndromes[1, 0])) == 2
    np.testing.assert_array_equal(result.syndromes[2], result.syndromes[1])


def test_leaked_measurement_policies():
    compiled = _compiled(rounds=1)
    prep = find_gates(compiled, kind=PREP_Z, round_index=0, check=("Z", 4))[0]
    script = Script(leaks={(prep, 0)})
    # scripted run resolves the junk bit (and all partner draws) to null
    assert not run_shot(compiled, script=script).syndromes.any()
    # with draws, the leaked check's own bit is a fair coin
    hits = 0
    for shot in range(400):
        u = shot_uniforms(11, shot, compiled.n_draws)
        res = run_shot(compiled, uniforms=u, script=script)
        hits += res.syndromes[0, 0, 4]
    assert 140 < hits < 260


def test_leak_lifetime_standard_data_is_permanent():
    compiled = _compiled(rounds=3)
    lat = compiled.lattice
    cnot = find_gates(compiled, kind=CNOT, round_index=0, check=("Z", 0), ordinal=2)[0]
    g = compiled.gates[cnot]
    data_pos = g.label.roles.index("data")
    data_qubit = (g.q0, g.q1)[data_pos]
    result = run_shot(compiled, script=Script(leaks={(cnot, data_pos)}))
    assert result.leak_final[data_qubit]
    assert result.leak_final.sum() == 1


def test_leak_lifetime_ancilla_cleared_at_its_measurement():
    # measure-and-reset reinitializes the ancilla, so a leak acquired during
    # the round is gone before the end-of-round swap can move or block on it
    for variant in ("standard", "swap_lrc"):
        compiled = _compiled(variant, rounds=1)
        cnot = find_gates(compiled, kind=CNOT, round_index=0, check=("Z", 0), ordinal=1)[0]
        result = run_shot(compiled, script=Script(leaks={(cnot, 1)}))
        assert not result.leak_final.any()


def test_leak_lifetime_swap_lrc_data_cleared_next_round():
    # a leaked data qubit is swapped against an unleaked ancilla: the exchange
    # blocks, the qubit becomes next round's ancilla and preparation clears it
    compiled = _compiled("swap_lrc", rounds=2)
    lat = compiled.lattice
    partner_edge = lat.z_support[0][0]  # the N data neighbour of Z check 0
    cnot = find_gates(compiled, kind=CNOT, round_index=0, check=("Z", 0), ordinal=1)[0]
    g = compiled.gates[cnot]
    assert (g.q0, g.q1)[0] == partner_edge  # N is the 1st CNOT in canonical order
    result = run_shot(compiled, script=Script(leaks={(cnot, 0)}))
    assert not result.leak_final.any()
    one_round = _compiled("swap_lrc", rounds=1)
    cnot1 = find_gates(one_round, kind=CNOT, round_index=0, check=("Z", 0), ordinal=1)[0]
    res1 = run_shot(one_round, script=Script(leaks={(cnot1, 0)}))
    assert res1.leak_final[partner_edge]


def test_measurement_reset_unblocks_the_end_of_round_swap():
    # a leak acquired at preparation is cleared by the ancilla's measurement,
    # so the end-of-round swap proceeds and the stored data state survives
    compiled = _compiled("swap_lrc", rounds=2)
    lat = compiled.lattice
    partner_edge = lat.z_support[0][0]
    ix = np.zeros(18, dtype=np.uint8)
    ix[partner_edge] = 1
    clean = run_shot(compiled, initial_x=ix)
    assert clean.data_x[partner_edge] == 1  # error survives two swaps
    prep = find_gates(compiled, kind=PREP_Z, round_index=0, check=("Z", 0))[0]
    res = run_shot(compiled, initial_x=ix, script=Script(leaks={(prep, 0)}))
    assert not res.leak_final.any()
    assert res.data_x[partner_edge] == 1  # state rode the swap unharmed


def test_swap_onset_leak_occupies_the_data_role_for_one_round():
    # a leak landing on the ancilla side of the end-of-round swap itself
    # arrives after measure-and-reset and after the exchange, so it rides the
    # role rotation into the data carrier for one full round; the next swap
    # then blocks, stranding the carried state on the qubit that rotates back
    compiled = _compiled("swap_lrc", rounds=2)
    lat = compiled.lattice
    partner_edge = lat.z_support[0][0]
    ix = np.zeros(18, dtype=np.uint8)
    ix[partner_edge] = 1
    swap = find_gates(compiled, kind=SWAP, round_index=0, check=("Z", 0))[0]
    g = compiled.gates[swap]
    assert g.label.roles[0] == "ancillaZ"
    res = run_shot(compiled, initial_x=ix, script=Script(leaks={(swap, 0)}))
    assert res.leak_final.sum() == 1  # never reprepared within the window
    assert res.data_x[partner_edge] == 0  # stored X lost with the stranded state


def test_leaked_data_randomizes_neighbour_checks():
    """Partner draws at the 2 CNOTs of each adjacent check give 50/50 defects."""
    compiled = _compiled(rounds=1)
    lat = compiled.lattice
    edge = lat.h(0, 0)
    onset = find_gates(compiled, kind=CNOT, round_index=0, check=("X", 0), ordinal=1)[0]
    g = compiled.gates[onset]
    assert (g.q0, g.q1)[1] == edge  # h(0,0) is the N target of X check 0
    script = Script(leaks={(onset, 1)})
    fires = np.zeros((2, 9))
    shots = 600
    for shot in range(shots):
        u = shot_uniforms(23, shot, compiled.n_draws)
        res = run_shot(compiled, uniforms=u, script=script)
        fires += res.syndromes[0]
    # the two stars touching h(0,0) see it at ordinals 2 and 3 (after onset)
    stars = (site(lat, 0, 0), site(lat, 0, 1))
    for star in stars:
        assert 0.4 < fires[0, star] / shots < 0.6
    # the other plaquette sees it at ordinal 4; its bit is also scrambled
    assert 0.4 < fires[1, site(lat, 2, 0)] / shots < 0.6
    untouched = [s for s in range(9) if s not in stars]
    assert fires[0, untouched].sum() == 0


def test_depolarizing_rates_match_nominal():
    noise = NoiseModel(p=0.3)
    compiled = compile_program(build_program("standard", 3, 1), noise)
    nonzero = 0
    shots = 200
    for shot in range(shots):
        u = shot_uniforms(17, shot, compiled.n_draws)
        if run_shot(compiled, uniforms=u).syndromes.any():
            nonzero += 1
    assert nonzero > 190  # at p=0.3 essentially every shot trips a detector


def test_shot_replay_is_deterministic():
    noise = NoiseModel(p=0.05, r=1.0)
    compiled = compile_program(build_program("swap_lrc", 3, 3), noise)
    u = shot_uniforms(99, 3, compiled.n_draws)
    a = run_shot(compiled, uniforms=u)
    b = run_shot(compiled, uniforms=u)
    np.testing.assert_array_equal(a.syndromes, b.syndromes)
    np.testing.assert_array_equal(a.data_x, b.data_x)
    np.testing.assert_array_equal(a.leak_final, b.leak_final)
    c = run_shot(compiled, uniforms=shot_uniforms(99, 4, compiled.n_draws))
    assert not np.array_equal(a.syndromes, c.syndromes)


def test_draw_layout_is_static():
    base = _compiled("swap_lrc", rounds=2)
    other = compile_program(
        build_program("swap_lrc", 3, 2), NoiseModel(p=0.1, r=5.0, site_filter="data_only")
    )
    assert base.n_draws == other.n_draws
    assert [g.draw_offset for g in base.gates] == [g.draw_offset for g in other.gates]
    with pytest.raises(ValueError, match="uniform draws"):
        run_shot(base, uniforms=np.zeros(3))


def test_site_filter_restricts_leak_victims():
    program = build_program("standard", 3, 1)
    data_only = NoiseModel(p=0.01, r=1.0, site_filter="data_only")
    anc_only = NoiseModel(p=0.01, r=1.0, site_filter="ancilla_only")
    ordinal2 = NoiseModel(p=0.01, r=1.0, site_filter="cnot_ordinal:2")
    control_only = NoiseModel(p=0.01, r=1.0, side_policy="control_only")
    for g in program.rounds[0]:
        label = g.label
        if g.kind == CNOT:
            data_pos = label.roles.index("data")
            anc_pos = 1 - data_pos
            assert data_only.leak_victims(label) == (data_pos,)
            assert anc_only.leak_victims(label) == (anc_pos,)
            assert control_only.leak_victims(label) == (0,)
            expected = (0, 1) if label.cnot_ordinal == 2 else ()
            assert ordinal2.leak_victims(label) == expected
        if g.kind == "H":
            assert data_only.leak_victims(label) == ()
            assert anc_only.leak_victims(label) == (0,)
            assert ordinal2.leak_victims(label) == ()
        if g.kind == MEAS_Z:
            assert data_only.leak_victims(label) == ()
            assert anc_only.leak_victims(label) == ()


def test_control_only_restricts_leakage_to_cnot_controls():
    # the one-sided mechanism lives in the two-qubit gate: H and SWAP
    # locations carry no leakage, preparations stay on the p_init_leak knob
    control_only = NoiseModel(p=0.01, r=1.0, side_policy="control_only")
    program = build_program("swap_lrc", 3, 1)
    seen = set()
    for g in program.rounds[0]:
        seen.add(g.kind)
        victims = control_only.leak_victims(g.label)
        if g.kind == CNOT:
            assert victims == (0,)
        elif g.kind == PREP_Z:
            assert victims == (0,)
        elif g.kind in ("H", SWAP):
            assert victims == ()
    assert SWAP in seen and "H" in seen


def test_noise_model_validation():
    with pytest.raises(ValueError, match="side_policy"):
        NoiseModel(p=0.1, side_policy="left_only")
    with pytest.raises(ValueError, match="site_filter"):
        NoiseModel(p=0.1, site_filter="everywhere")
    with pytest.raises(ValueError, match="cnot_ordinal"):
        NoiseModel(p=0.1, site_filter="cnot_ordinal:7")
    with pytest.raises(ValueError, match="outside"):
        NoiseModel(p=1.5)
    with pytest.raises(ValueError, match="p_leak"):
        NoiseModel(p=0.2, r=10)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("noise", [
    NoiseModel(p=1e-3, r=1.0, side_policy="control_only", p_init_leak=1e-3),
    NoiseModel(p=1e-3, r=1.0, site_filter="data_only"),
    NoiseModel(p=1e-3, r=1.0, site_filter="cnot_ordinal:2"),
], ids=["control_only", "data_only", "cnot_ordinal:2"])
def test_layers_partition_the_gates_into_commuting_runs(variant, d, noise):
    """Layers cover gates 0..n-1 once and in order; each holds one kind and
    one leak-victim tuple on pairwise-disjoint qubits, copies its gates'
    fields, and steps its draw offsets by the kind's draw count.  Each is
    maximal: the next gate would break one of these rules."""
    compiled = compile_program(build_program(variant, d, d), noise)
    gates, n_sites = compiled.gates, d * d
    covered = []
    for layer, after in zip(compiled.layers, compiled.layers[1:] + [None]):
        run = gates[layer.start : layer.start + len(layer.q0)]
        covered += range(layer.start, layer.start + len(run))
        assert {(g.kind, g.leak_victims) for g in run} == {(layer.kind, layer.leak_victims)}
        qubits = [q for g in run for q in (g.q0, g.q1) if q >= 0]
        assert len(qubits) == len(set(qubits))
        assert layer.q0.tolist() == [g.q0 for g in run]
        assert layer.q1.tolist() == [g.q1 for g in run]
        assert layer.leak_prob.tolist() == [g.leak_prob for g in run]
        width = DRAWS_PER_KIND[layer.kind]
        assert [g.draw_offset for g in run] == [layer.draw_offset + width * j for j in range(len(run))]
        if layer.kind == MEAS_Z:
            slots = [(g.round_index * 2 + g.check_type) * n_sites + g.check_site for g in run]
            assert layer.slot.tolist() == slots and len(set(slots)) == len(slots)
        if after is not None:
            nxt = gates[after.start]
            assert ((nxt.kind, nxt.leak_victims) != (layer.kind, layer.leak_victims)
                    or {nxt.q0, nxt.q1} & set(qubits))
    assert covered == list(range(len(gates)))
