"""Batched shots must equal the same shots run alone and a gate-by-gate reference."""

from __future__ import annotations

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from oracles import Script, columns_of, leak_consequences, run_shot, script_for, shot_uniforms, trace_of
from toricleak import vector
from toricleak.circuits import CNOT, MEAS_Z, SWAP, VARIANTS, build_program
from toricleak.noise import NoiseModel
from toricleak.pauli import batch_uniforms
from toricleak.scanner import enumerate_fault_universe
from toricleak.sim import Injections, compile_program
from toricleak.vector import execute, run_batch

from scalar_reference import reference_shot

RESULT_FIELDS = ("syndromes", "data_x", "data_z", "leak_final")

# The scripted-replay tests run one noise model each, labelled as the scan
# report labels it: a leaked measurement reads out a fair coin ("random_bit").
SCRIPTED_NOISE = NoiseModel(p=1e-3, r=1.0, p_init_leak=1e-3)
REFERENCE_NOISE = NoiseModel(p=0.05, r=2.0, p_init_leak=0.05)

CASES = [
    ("standard", 3, 2, NoiseModel(p=0.1, r=2.0)),
    ("standard", 3, 3, NoiseModel(p=0.3, r=1.0, p_init_leak=0.2)),
    ("swap_lrc", 3, 3, NoiseModel(p=0.2, r=3.0)),
    ("swap_alt", 3, 4, NoiseModel(p=0.05, r=10.0, site_filter="data_only")),
    ("gate_biased", 3, 2, NoiseModel(p=0.1, r=4.0, side_policy="control_only")),
    ("gate_biased_opt", 3, 2, NoiseModel(p=0.15, r=2.0, site_filter="cnot_ordinal:1")),
    ("mixed_lrc", 3, 3, NoiseModel(p=0.1, r=2.0, p_init_leak=0.1)),
    ("mixed_lrc", 3, 4, NoiseModel(p=0.08, r=5.0, site_filter="ancilla_only")),
    ("swap_lrc", 5, 3, NoiseModel(p=0.12, r=1.5)),
]


@pytest.mark.parametrize("variant,d,rounds,noise", CASES)
def test_batch_matches_scalar_bitwise(variant, d, rounds, noise):
    compiled = compile_program(build_program(variant, d, rounds), noise)
    master_seed, n_shots = 424242, 40
    batch = run_batch(compiled, master_seed, 0, n_shots)
    for shot in range(n_shots):
        u = shot_uniforms(master_seed, shot, compiled.n_draws)
        ref = run_shot(compiled, uniforms=u)
        np.testing.assert_array_equal(batch.syndromes[shot], ref.syndromes, err_msg=f"shot {shot}")
        np.testing.assert_array_equal(batch.data_x[shot], ref.data_x)
        np.testing.assert_array_equal(batch.data_z[shot], ref.data_z)
        np.testing.assert_array_equal(batch.leak_final[shot], ref.leak_final)


@pytest.mark.parametrize("variant", VARIANTS)
def test_draw_layout_does_not_change_results(variant):
    """The executor reads the same draws alike from a row-major matrix and
    from ``batch_uniforms``' column-major one."""
    compiled = compile_program(build_program(variant, 3, 2), REFERENCE_NOISE)
    draws = batch_uniforms(31, 0, 64, compiled.n_draws)
    assert draws.flags.f_contiguous
    rows_major = np.ascontiguousarray(draws)
    assert rows_major.flags.c_contiguous and not rows_major.flags.f_contiguous
    by_rows = execute(compiled, 64, uniforms=rows_major)
    by_columns = execute(compiled, 64, uniforms=draws)
    assert by_rows.leak_final.any()
    for name in RESULT_FIELDS:
        np.testing.assert_array_equal(getattr(by_columns, name), getattr(by_rows, name),
                                      err_msg=name)


def test_batch_rows_independent_of_chunking():
    noise = NoiseModel(p=0.1, r=2.0)
    compiled = compile_program(build_program("swap_lrc", 3, 3), noise)
    whole = run_batch(compiled, 7, 0, 12)
    parts = [run_batch(compiled, 7, start, 4) for start in (0, 4, 8)]
    merged = np.concatenate([p.syndromes for p in parts])
    np.testing.assert_array_equal(whole.syndromes, merged)
    single = run_batch(compiled, 7, 5, 1)
    np.testing.assert_array_equal(whole.syndromes[5], single.syndromes[0])


def test_batch_shapes():
    compiled = compile_program(build_program("mixed_lrc", 3, 2), NoiseModel(p=0.01))
    for n_shots in (5, 0):  # an empty batch keeps its shapes
        batch = run_batch(compiled, 1, 0, n_shots)
        assert batch.syndromes.shape == (n_shots, 3, 2, 9)
        assert batch.data_x.shape == batch.data_z.shape == (n_shots, 18)
        assert batch.leak_final.shape == (n_shots, 54)


def test_chunked_batch_equals_one_whole_batch_execution(monkeypatch):
    """Chunks of 3 rows, from shot 5: three full chunks and a partial last
    one give the rows of one execution over the whole batch's draws.  No
    call is traced, so neither result carries consequence slots."""
    compiled = compile_program(build_program("mixed_lrc", 3, 2), REFERENCE_NOISE)
    monkeypatch.setattr(vector, "_CHUNK_ROWS", 3)
    chunked = run_batch(compiled, 7, 5, 10)
    whole = execute(compiled, 10, uniforms=batch_uniforms(7, 5, 10, compiled.n_draws))
    assert whole.leak_final.any() and whole.syndromes.any()
    assert chunked.slots is None and whole.slots is None
    for name in RESULT_FIELDS:
        np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name), err_msg=name)


def test_draws_into_the_leading_rows_of_a_larger_buffer():
    n_draws = 37
    buf = np.full((8, n_draws), np.nan, order="F")
    drawn = batch_uniforms(3, 11, 5, n_draws, out=buf[:5])
    assert np.shares_memory(drawn, buf)
    np.testing.assert_array_equal(buf[:5].view(np.uint64),
                                  batch_uniforms(3, 11, 5, n_draws).view(np.uint64))
    assert np.isnan(buf[5:]).all()


@pytest.mark.parametrize("out", [np.empty((4, 6), order="F"), np.empty((5, 7), order="F"),
                                 np.empty((5, 6), dtype=np.float32, order="F")],
                         ids=["rows", "draws", "dtype"])
def test_draws_into_a_mismatched_buffer_are_refused(out):
    with pytest.raises(ValueError, match="not float64 of shape"):
        batch_uniforms(3, 11, 5, 6, out=out)


def test_a_batch_draws_at_most_one_chunk_at_a_time(monkeypatch):
    """Four chunks of mixed_lrc d=3: no draw call asks for more than a chunk
    of rows, and the traced peak stays below half of the whole batch's draw
    matrix (one chunk's draws are a quarter of it)."""
    compiled = compile_program(build_program("mixed_lrc", 3, 3), NoiseModel(p=3e-3, r=1.0))
    n_shots = 4 * vector._CHUNK_ROWS
    asked = []

    def spy(master_seed, shot_start, n_shots, n_draws, **kwargs):
        asked.append(n_shots)
        return batch_uniforms(master_seed, shot_start, n_shots, n_draws, **kwargs)

    monkeypatch.setattr(vector, "batch_uniforms", spy)
    tracemalloc.start()
    try:
        run_batch(compiled, 5, 0, n_shots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(asked) == n_shots and max(asked) <= vector._CHUNK_ROWS
    assert peak < n_shots * compiled.n_draws * 8 / 2, peak


def _mixed_scripts(compiled, n_each=10, seed=3):
    """Pauli, bare-leak and assigned-leak scripts, plus a row with none."""
    rng = np.random.default_rng(seed)
    universe = enumerate_fault_universe(compiled)
    paulis = [s for s in universe if s.kind != "leak"]
    leaks = [s for s in universe if s.kind == "leak"]
    specs = [(paulis[i], ()) for i in rng.choice(len(paulis), n_each, replace=False)]
    for i in rng.choice(len(leaks), n_each, replace=False):
        spec = leaks[i]
        _, slots = leak_consequences(compiled, spec)
        choices = {"pair": "XYZ", "measbit": (1,), "readout": "xyz"}
        assignment = tuple(
            (slot, choices[slot[0]][rng.integers(len(choices[slot[0]]))]) for slot in slots[::2]
        )
        specs += [(spec, ()), (spec, assignment)]
    rng.shuffle(specs)
    return [script_for(compiled, spec, assignment) for spec, assignment in specs] + [None]


@pytest.mark.parametrize("variant", ["standard", "swap_lrc", "mixed_lrc"])
@pytest.mark.parametrize("noise", [SCRIPTED_NOISE], ids=["random_bit"])
def test_scripted_batch_rows_match_single_replays(variant, noise):
    compiled = compile_program(build_program(variant, 3, 2), noise)
    scripts = _mixed_scripts(compiled)
    batch = execute(compiled, len(scripts), injections=columns_of(scripts), trace=True)
    traces = [trace_of(compiled, batch, row) for row in range(len(scripts))]
    assert any(traces) and not all(traces)
    for row, script in enumerate(scripts):
        trace = []
        alone = run_shot(compiled, script=script, trace=trace)
        for name in RESULT_FIELDS:
            np.testing.assert_array_equal(
                getattr(batch, name)[row], getattr(alone, name), err_msg=f"row {row} {name}"
            )
        assert traces[row] == trace


def test_scripted_batches_do_not_depend_on_chunk_boundaries():
    """Split anywhere, a traced batch gives the same rows and the same
    consequence slot codes."""
    compiled = compile_program(build_program("swap_lrc", 3, 2), NoiseModel(p=1e-3, r=1.0))
    scripts = _mixed_scripts(compiled, seed=11)
    whole = execute(compiled, len(scripts), injections=columns_of(scripts), trace=True)
    assert whole.slots.shape == (len(scripts), len(compiled.gates)) and whole.slots.any()
    for cut in (1, 9, len(scripts) - 2):
        parts = [execute(compiled, hi - lo, injections=columns_of(scripts[lo:hi]), trace=True)
                 for lo, hi in ((0, cut), (cut, len(scripts)))]
        for name in RESULT_FIELDS + ("slots",):
            merged = np.concatenate([getattr(part, name) for part in parts])
            np.testing.assert_array_equal(merged, getattr(whole, name), err_msg=f"cut {cut}")


def test_a_measurement_flip_on_another_gate_is_refused():
    compiled = compile_program(build_program("standard", 3, 1), NoiseModel(p=1e-3))
    gi = next(gi for gi, g in enumerate(compiled.gates) if g.kind == CNOT)
    with pytest.raises(ValueError, match=f"gate {gi} is no measurement"):
        execute(compiled, 1, injections=columns_of([Script(meas_flips={gi})]))


def test_a_pauli_beyond_the_gates_qubits_is_refused():
    compiled = compile_program(build_program("standard", 3, 1), NoiseModel(p=1e-3))
    gi = next(gi for gi, g in enumerate(compiled.gates) if g.kind == MEAS_Z)
    with pytest.raises(ValueError, match=f"gate {gi} has no qubit at position 1"):
        execute(compiled, 1, injections=columns_of([Script(paulis={gi: ((1, 0), (0, 1))})]))


@pytest.mark.parametrize("field,index", [
    ("leaks", -1), ("leaks", "n"),
    ("paulis", -2), ("paulis", "n"),
    ("meas_flips", -1), ("meas_flips", "n"),
    ("readout_flips", -1), ("readout_flips", "n_data"),
])
def test_an_index_outside_the_program_is_refused(field, index):
    """Negative indices would wrap onto the last gates or edges, and the
    first index past the end would raise an ``IndexError``."""
    compiled = compile_program(build_program("standard", 3, 1), NoiseModel(p=1e-3))
    index = {"n": len(compiled.gates), "n_data": compiled.lattice.n_data}.get(index, index)
    script = {
        "leaks": Script(leaks={(index, 0)}),
        "paulis": Script(paulis={index: ((1, 0),)}),
        "meas_flips": Script(meas_flips={index}),
        "readout_flips": Script(readout_flips={index: (1, 0)}),
    }[field]
    what = "edge" if field == "readout_flips" else "gate"
    with pytest.raises(ValueError, match=f"{what} {index} is not one of the"):
        execute(compiled, 1, injections=columns_of([script]))


def _stub_entry(compiled, field, row):
    """One valid entry of each injection kind, landing in ``row``."""
    cnot = next(gi for gi, g in enumerate(compiled.gates) if g.kind == CNOT)
    meas = next(gi for gi, g in enumerate(compiled.gates) if g.kind == MEAS_Z)
    return {"leaks": (row, cnot, 1), "paulis": (row, cnot, 0, 1, 0),
            "meas_flips": (row, meas), "readout_flips": (row, 0, 1, 0)}[field]


@pytest.mark.parametrize("field", ["leaks", "paulis", "meas_flips", "readout_flips"])
@pytest.mark.parametrize("row", [-1, 2, 3])
def test_an_injection_row_outside_the_call_is_refused(field, row):
    """A negative row would land on another shot and a row past the last
    would raise an ``IndexError`` partway through the run."""
    compiled = compile_program(build_program("standard", 3, 1), NoiseModel(p=1e-3))
    entries = [_stub_entry(compiled, field, 0), _stub_entry(compiled, field, row)]
    injections = Injections(**{field: entries})
    with pytest.raises(ValueError, match=f"row {row} is not one of the call's 2 rows"):
        execute(compiled, 2, injections=injections)


def test_scripts_for_more_rows_than_the_call_are_refused():
    compiled = compile_program(build_program("standard", 3, 1), NoiseModel(p=1e-3))
    scripts = [Script(meas_flips={_stub_entry(compiled, "meas_flips", 0)[1]})] * 3
    with pytest.raises(ValueError, match="row 2 is not one of the call's 2 rows"):
        execute(compiled, 2, injections=columns_of(scripts))


@pytest.mark.parametrize("field", ["paulis", "readout_flips"])
def test_frame_bits_other_than_0_or_1_are_refused(field):
    compiled = compile_program(build_program("standard", 3, 1), NoiseModel(p=1e-3))
    entry = _stub_entry(compiled, field, 0)[:-2] + (2, 0)
    with pytest.raises(ValueError, match="row 0 flips a frame bit by a value other than 0 or 1"):
        execute(compiled, 1, injections=Injections(**{field: [entry]}))


def test_injection_columns_of_the_wrong_width_are_refused():
    with pytest.raises(ValueError, match="leaks entries have 3 columns"):
        Injections(leaks=[(0, 1)])
    with pytest.raises(ValueError, match="paulis entries have 5 columns"):
        Injections(paulis=(0, 1, 0, 1, 0))
    assert Injections().leaks.shape == (0, 3) and Injections(meas_flips=[]).meas_flips.shape == (0, 2)


def test_injection_entries_that_are_not_integers_are_refused():
    """A kind whose entries are not integers is refused by name, never
    truncated to other ints; empty kinds, int entries and bool entries
    convert to int columns."""
    for kind, entries in (("leaks", [(0, 1.5, 0)]), ("paulis", [(0, 4, 0, 1.0, 0)]),
                          ("meas_flips", np.array([[0.0, 2.0]])), ("readout_flips", [("0", 1, 1, 0)])):
        with pytest.raises(ValueError, match=f"{kind} entries must be integers"):
            Injections(**{kind: entries})
    given = Injections(leaks=[(0, 1, 0)], paulis=[(0, 4, 1, True, False)], meas_flips=[],
                       readout_flips=np.zeros((0, 4)))
    assert given.leaks.tolist() == [[0, 1, 0]] and given.paulis.tolist() == [[0, 4, 1, 1, 0]]
    assert given.meas_flips.shape == (0, 2) and given.readout_flips.shape == (0, 4)
    assert {getattr(given, f.name).dtype for f in fields(Injections)} == {np.dtype(np.int64)}


def test_repeated_entries_on_one_target_apply_each_time():
    """Two X entries on one qubit of one row and layer cancel, three act as
    one, and an X and a Z make a Y; repeated measurement and readout flips
    cancel alike.  A plain fancy ``^=`` would apply only one of each."""
    compiled = compile_program(build_program("standard", 3, 2), NoiseModel(p=1e-3))
    cnot = next(gi for gi, g in enumerate(compiled.gates) if g.kind == CNOT)
    meas = next(gi for gi, g in enumerate(compiled.gates) if g.kind == MEAS_Z)
    x, z = (0, cnot, 0, 1, 0), (0, cnot, 0, 0, 1)
    rows = [Injections(),  # 0: nothing
            Injections(paulis=[x, x], meas_flips=[(0, meas)] * 2, readout_flips=[(0, 4, 1, 1)] * 2),
            Injections(paulis=[x]), Injections(paulis=[x, x, x]),  # 2, 3: one X
            Injections(paulis=[(0, cnot, 0, 1, 1)]), Injections(paulis=[x, z])]  # 4, 5: one Y
    results = [execute(compiled, 1, injections=injections) for injections in rows]
    assert results[2].syndromes.any() and results[4].syndromes.any()
    for a, b in ((0, 1), (2, 3), (4, 5)):
        for name in RESULT_FIELDS:
            np.testing.assert_array_equal(getattr(results[a], name), getattr(results[b], name),
                                          err_msg=f"rows {a} and {b}: {name}")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("noise", [SCRIPTED_NOISE], ids=["random_bit"])
def test_batch_traces_match_leak_consequences(variant, noise):
    compiled = compile_program(build_program(variant, 3, 2), noise)
    leaks = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"][::3]
    injections = columns_of([script_for(compiled, s) for s in leaks])
    batch = execute(compiled, len(leaks), injections=injections, trace=True)
    kinds = set()
    for row, spec in enumerate(leaks):
        base, slots = leak_consequences(compiled, spec)
        assert tuple(trace_of(compiled, batch, row)) == slots
        np.testing.assert_array_equal(batch.syndromes[row], base.syndromes)
        np.testing.assert_array_equal(batch.leak_final[row], base.leak_final)
        kinds.update(slot[0] for slot in slots)
    assert "measbit" in kinds and "pair" in kinds


def _random_script(compiled, rng):
    paulis = [(0, 0), (1, 0), (0, 1), (1, 1)]
    script = Script()
    for _ in range(rng.integers(0, 3)):
        gi = int(rng.integers(len(compiled.gates)))
        script.leaks.add((gi, int(rng.integers(2)) if compiled.gates[gi].q1 >= 0 else 0))
    for _ in range(rng.integers(0, 4)):
        gi = int(rng.integers(len(compiled.gates)))
        width = 2 if compiled.gates[gi].q1 >= 0 else 1
        script.paulis[gi] = tuple(paulis[k] for k in rng.integers(4, size=width))
    meas = [gi for gi, g in enumerate(compiled.gates) if g.kind == MEAS_Z]
    script.meas_flips.update(meas[k] for k in rng.integers(len(meas), size=2))
    script.readout_flips[int(rng.integers(compiled.lattice.n_data))] = paulis[rng.integers(4)]
    return script


def _layer_neighbour_script(compiled, rng):
    """Injections on neighbouring gates of one layer: a leak on gate j and a
    Pauli on gate j+1 of a two-qubit layer, and flips of two neighbouring
    measurements of a measurement layer."""
    paulis = [(0, 0), (1, 0), (0, 1), (1, 1)]
    two = [layer for layer in compiled.layers if layer.kind in (CNOT, SWAP)]
    meas = [layer for layer in compiled.layers if layer.kind == MEAS_Z]
    layer, flips = two[rng.integers(len(two))], meas[rng.integers(len(meas))]
    j = layer.start + int(rng.integers(len(layer.q0) - 1))
    k = flips.start + int(rng.integers(len(flips.q0) - 1))
    return Script(leaks={(j, int(rng.integers(2)))},
                  paulis={j + 1: (paulis[rng.integers(1, 4)], paulis[rng.integers(4)])},
                  meas_flips={k, k + 1})


def _check_against_reference(compiled, scripts):
    """Stochastic and noise-free rows of ``execute``, with scripts and
    traces, equal the gate-by-gate reference row for row."""
    draws = np.stack([shot_uniforms(5, shot, compiled.n_draws) for shot in range(len(scripts))])
    for uniforms in (draws, None):
        batch = execute(compiled, len(scripts), uniforms=uniforms, injections=columns_of(scripts),
                        trace=True)
        traces = [trace_of(compiled, batch, row) for row in range(len(scripts))]
        for row, script in enumerate(scripts):
            ref = reference_shot(compiled, None if uniforms is None else uniforms[row], script)
            got = (batch.syndromes[row], batch.data_x[row], batch.data_z[row],
                   batch.leak_final[row])
            for name, a, b in zip(("syndromes", "data_x", "data_z", "leak_final"), got, ref):
                np.testing.assert_array_equal(a, b, err_msg=f"row {row} {name}")
            assert traces[row] == ref[4]
        assert any(traces)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("noise", [REFERENCE_NOISE], ids=["random_bit"])
def test_execute_matches_gate_by_gate_reference(variant, noise):
    """Stochastic and noise-free rows, with scripts and traces, against an
    independent per-gate executor."""
    compiled = compile_program(build_program(variant, 3, 2), noise)
    rng = np.random.default_rng(17)
    scripts = [_random_script(compiled, rng) for _ in range(16)]
    _check_against_reference(compiled, scripts + [_layer_neighbour_script(compiled, rng)])


@pytest.mark.parametrize("variant", VARIANTS)
def test_execute_matches_reference_at_d5_on_layer_neighbours(variant):
    """At d=5 a CNOT layer holds 50 gates; injections on neighbouring gates
    of one layer land after the whole layer, which the per-gate reference
    must not be able to tell."""
    compiled = compile_program(build_program(variant, 5, 2), REFERENCE_NOISE)
    assert max(len(layer.q0) for layer in compiled.layers if layer.kind == CNOT) == 50
    rng = np.random.default_rng(23)
    scripts = [_layer_neighbour_script(compiled, rng) for _ in range(12)]
    _check_against_reference(compiled, scripts + [_random_script(compiled, rng) for _ in range(4)])
