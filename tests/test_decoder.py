"""Decoder tests: exact matching oracle, correction soundness, hook physics.

The decoder judges shots from the logical-crossing parities of its matched
pairs.  The tests keep the frame route as its reference: build each shot's
correction frame from the reference matcher's pairs (``oracles.match_defects``)
and ``oracles.path_edges``, apply it, and read the logical parities of the
corrected frame.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    NULL_NOISE,
    _match_dp,
    crossing_parities,
    defect_mask,
    defect_rows,
    edge_parities,
    match_defects,
    path_edges,
    random_defects,
    reference_parities,
    run_shot,
    torus_distance,
    weight_matrix,
)
import toricleak
import toricleak.decoder as decoder_module
from toricleak.blossom import min_weight_perfect_matching
from toricleak.circuits import build_program
from toricleak.decoder import _CERTIFY_LIMIT, _DP_LIMIT, Decoder, _dp_layers, extract_events_batch
from toricleak.lattice import build_lattice
from toricleak.noise import NoiseModel
from toricleak.sim import compile_program
from toricleak.vector import execute, run_batch


def _defects(events: np.ndarray, check_type: int) -> tuple[tuple[int, int], ...]:
    """Sorted (t, site) defects of one check type in one shot's events."""
    times, sites = np.nonzero(events[:, check_type, :])
    return tuple(zip(times.tolist(), sites.tolist()))


def _reference_frames(lat, syndromes, data_x, data_z):
    """The frame route, per shot: corrected X and Z frames and their 4 judge
    bits, from reference-matcher pairs repaired along ``path_edges``."""
    corrected_x, corrected_z = data_x.copy(), data_z.copy()
    for shot, events in enumerate(extract_events_batch(syndromes)):
        for check_type, frame in ((0, corrected_x[shot]), (1, corrected_z[shot])):
            for a, b in match_defects(lat, _defects(events, check_type)):
                for e in path_edges(lat, check_type, a[1], b[1]):
                    frame[e] ^= 1
    return corrected_x, corrected_z, lat.logical_parities(corrected_x, corrected_z)


def _judge_frames(compiled, frames_x=None, frames_z=None):
    """Judge bits of noiseless shots seeded with one data frame per row."""
    n_rows = len(frames_x if frames_x is not None else frames_z)
    res = execute(compiled, n_rows, initial_x=frames_x, initial_z=frames_z)
    return Decoder(compiled.lattice).judge_batch(res.syndromes, res.data_x, res.data_z)


def _brute_min_weight(w: np.ndarray) -> int:
    """Minimum perfect-matching weight by exhaustive pairing enumeration."""
    idx = list(range(w.shape[0]))

    def rec(rest):
        if not rest:
            return 0
        first, tail = rest[0], rest[1:]
        return min(
            w[first, other] + rec(tail[:k] + tail[k + 1 :])
            for k, other in enumerate(tail)
        )

    return rec(idx)


def _all_matchings(idx):
    """Every perfect matching of ``idx``, as pair lists: the first index
    pairs with each later one in turn, the rest recursively."""
    if not idx:
        yield []
    for k in range(1, len(idx)):
        for tail in _all_matchings(idx[1:k] + idx[k + 1 :]):
            yield [(idx[0], idx[k])] + tail


def _judge_defect_sets(decoder, sets, n_times):
    """``judge_batch`` of noiseless-frame shots whose events are exactly the
    given (star defects, plaquette defects) per row, and the judge bits that
    the reference matcher gives each row's defect sets."""
    lat = decoder.lat
    want = np.zeros((len(sets), 4), dtype=np.uint8)
    for row, per_type in enumerate(sets):
        for check_type, defects in enumerate(per_type):
            par = reference_parities(lat, check_type, defects)
            want[row, 2 * check_type : 2 * check_type + 2] = par & 1, par >> 1
    return _judge_quiet_frames(decoder, sets, n_times), want


def _judge_quiet_frames(decoder, sets, n_times):
    """``judge_batch`` of noiseless-frame shots whose events are exactly the
    given (star defects, plaquette defects) per row."""
    lat = decoder.lat
    events = np.zeros((len(sets), n_times, 2, lat.d**2), dtype=np.uint8)
    for row, per_type in enumerate(sets):
        for check_type, defects in enumerate(per_type):
            for t, s in defects:
                events[row, t, check_type, s] = 1
    syndromes = np.bitwise_xor.accumulate(events, axis=1)  # events are XORs of consecutive rows
    frames = np.zeros((len(sets), lat.n_data), dtype=np.uint8)
    return decoder.judge_batch(syndromes, frames, frames)


def test_extract_events_static_and_flipped():
    syn = np.zeros((4, 2, 9), dtype=np.uint8)
    syn[:, 0, 3] = 1  # defect present from round 0 on
    syn[1, 1, 5] = 1  # one-round blip: a measurement error
    ev = extract_events_batch(syn[None])[0]
    assert ev[0, 0, 3] == 1 and not ev[1:, 0, 3].any()
    assert ev[1, 1, 5] == 1 and ev[2, 1, 5] == 1 and ev[0, 1, 5] == 0
    assert _defects(ev, 1) == ((1, 5), (2, 5))


@pytest.mark.parametrize(
    "variant,noise",
    [
        ("standard", NoiseModel(p=0.05)),
        ("swap_lrc", NoiseModel(p=0.03, r=3.0)),
        ("mixed_lrc", NoiseModel(p=0.05, r=2.0, p_init_leak=0.05)),
    ],
)
def test_detection_event_parity_is_even(variant, noise):
    compiled = compile_program(build_program(variant, 3, 3), noise)
    batch = run_batch(compiled, 31, 0, 200)
    events = extract_events_batch(batch.syndromes)
    counts = events.sum(axis=(1, 3))  # per shot, per check type
    assert not (counts % 2).any()


def test_exact_matching_against_brute_force_oracle():
    """1000 random spacetime defect sets of up to 10 defects: the decoder's
    DP weight is the brute-force minimum, and its crossing parities, by the
    DP and by ``Decoder.parities``, are those of the reference subset DP's
    pairs (same pivot, same tie-break)."""
    rng = np.random.default_rng(2024)
    decoders = {d: Decoder(build_lattice(d)) for d in (3, 5)}
    for trial in range(1000):
        decoder = decoders[5 if trial % 2 else 3]
        lat, check_type = decoder.lat, trial // 2 % 2
        n = int(rng.choice([2, 4, 6, 8, 10]))
        defects = random_defects(rng, lat.d, 4, n)
        w = weight_matrix(lat, defects)
        [(weight, parities, _)] = _dp_rows(decoder, check_type, [defects])
        assert weight == _brute_min_weight(w), f"trial {trial}: {defects}"
        pairs = [(defects[i], defects[j]) for i, j in _match_dp(w)]
        assert parities == crossing_parities(lat, check_type, pairs), f"trial {trial}: {defects}"
        assert decoder.parities(check_type, defect_rows(lat, [defects], 5 * lat.d**2))[0] == parities


def test_blossom_route_agrees_with_dp_route():
    rng = np.random.default_rng(5)
    lat = build_lattice(5)
    for _ in range(25):
        n = int(rng.choice([8, 12, 14]))
        w = weight_matrix(lat, random_defects(rng, 5, 5, n))
        weight_dp = sum(w[i, j] for i, j in _match_dp(w))
        mate = min_weight_perfect_matching(w.tolist())
        assert weight_dp == sum(w[i, j] for i, j in enumerate(mate) if i < j)


def test_match_rejects_odd_defects():
    decoder = Decoder(build_lattice(3))
    with pytest.raises(ValueError, match="odd"):
        decoder.parities(0, defect_rows(decoder.lat, [((0, 0),)], 9))


def test_judge_batch_rejects_odd_defects():
    """A batch with one odd row is refused, not judged with parity 0."""
    syndromes = np.zeros((3, 4, 2, 9), dtype=np.uint8)
    syndromes[1, 3, 1, 4] = 1  # one plaquette event in the last round
    frames = np.zeros((3, 18), dtype=np.uint8)
    with pytest.raises(ValueError, match="odd number of defects cannot be matched"):
        Decoder(build_lattice(3)).judge_batch(syndromes, frames, frames)


@pytest.mark.parametrize("n", range(2, _DP_LIMIT + 1, 2))
def test_perfect_matching_tables_list_the_dp_order(n):
    """The batched DP's table holds each sub-mask the top-down DP reaches
    once, with its steps in the DP's order: walked from the full state, each
    state taking its steps in turn, it lists the (n-1)!! perfect matchings
    of n indices in ``_all_matchings``'s order, each once."""
    n_states, layers = _dp_layers(n)
    first, second = np.triu_indices(n, 1)
    steps = {0: []}  # state number -> its (pivot pair, sub-state) steps
    for lo, hi, sub, pivot_pair in layers:
        per_state = len(sub) // (hi - lo)
        for k in range(hi - lo):
            part = slice(k * per_state, (k + 1) * per_state)
            steps[lo + k] = list(zip(pivot_pair[part].tolist(), sub[part].tolist()))
    rests = {}

    def listing(state, rest):
        assert rests.setdefault(state, rest) == rest
        if not rest:
            yield []
        for pair in steps[state]:
            i, j = first[pair[0]], second[pair[0]]
            assert i == min(rest) and j in rest
            for tail in listing(pair[1], rest - {i, j}):
                yield [(i, j)] + tail

    got = list(listing(n_states - 1, frozenset(range(n))))
    assert len(steps) == n_states == len(rests) == len(set(rests.values()))
    assert len(got) == math.prod(range(n - 1, 0, -2))
    assert got == list(_all_matchings(list(range(n))))
    assert len({frozenset(m) for m in got}) == len(got)


def test_decoder_import_builds_no_matching_table():
    src = Path(toricleak.__file__).parents[1]
    code = ("from toricleak.decoder import Decoder, _dp_layers; "
            "from toricleak.lattice import build_lattice; Decoder(build_lattice(3)); "
            "print(_dp_layers.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_judge_batch_equals_per_mask_matching_on_random_sets():
    """About 1,000 random defect sets of 0 to 10 defects, both check types,
    at d=3 and d=5: the batched route's parities are the reference matcher's."""
    rng = np.random.default_rng(19)
    for d in (3, 5):
        decoder = Decoder(build_lattice(d))
        sets = [tuple(random_defects(rng, d, 4, 2 * int(rng.integers(0, 6))) for _ in range(2))
                for _ in range(250)]
        got, want = _judge_defect_sets(decoder, sets, 5)
        np.testing.assert_array_equal(got, want)


def _tie_sets(lat, candidates):
    """The 4-defect single-round sets among ``candidates`` whose minimum-weight
    matchings tie with different crossing parities, per check type."""
    ties = []
    for sites in candidates:
        defects = tuple((0, s) for s in sites)
        w = weight_matrix(lat, defects)
        weights = {tuple(m): sum(w[i, j] for i, j in m) for m in _all_matchings([0, 1, 2, 3])}
        best = min(weights.values())
        for check_type in (0, 1):
            parities = {crossing_parities(lat, check_type, [(defects[i], defects[j]) for i, j in m])
                        for m, weight in weights.items() if weight == best}
            if len(parities) > 1:
                ties.append((check_type, defects))
    return ties


@pytest.mark.parametrize("d", [3, 5])
def test_judge_batch_keeps_the_dp_tie_choice(d):
    """Sets whose tied minimum matchings cross the logicals differently: the
    batched route picks the DP's matching.  At d=3 every single-round set of
    four checks is tried, at d=5 every one holding two neighbours at (0, 0)
    and (0, 1); each tie also sits twice in one 8-defect set, far apart in time."""
    lat = build_lattice(d)
    if d == 3:
        candidates = itertools.combinations(range(9), 4)
    else:
        candidates = ((0, 1) + rest for rest in itertools.combinations(range(2, 25), 2))
    ties = _tie_sets(lat, candidates)
    assert len(ties) > 20
    sets = []
    for check_type, defects in ties:
        for group in (defects, defects + tuple((t + 2 * d, s) for t, s in defects)):
            sets.append((group, ()) if check_type == 0 else ((), group))
    got, want = _judge_defect_sets(Decoder(lat), sets, 2 * d + 1)
    np.testing.assert_array_equal(got, want)


def test_judge_batch_mixes_both_routes_in_one_batch():
    """Rows above ``_CERTIFY_LIMIT`` defects go to blossom beside batched
    rows of every small and certified count, in one call, and all get the
    reference matcher's parities."""
    rng = np.random.default_rng(23)
    decoder = Decoder(build_lattice(5))
    sets = [tuple(random_defects(rng, 5, 5, int(rng.choice([0, 4, 10, 12, 16, 20]))) for _ in range(2))
            for _ in range(60)]
    assert any(len(star) > _CERTIFY_LIMIT for star, _ in sets)
    got, want = _judge_defect_sets(decoder, sets, 6)
    np.testing.assert_array_equal(got, want)


# --- the certified route: 12 to 16 defects ----------------------------------


_PAD_TIMES = (_CERTIFY_LIMIT - 4) // 2 + 1  # slots of a padded tie of up to 16 defects


@functools.cache
def _matching_table(n):
    """Every perfect matching of ``range(n)`` as rows of n/2 ``(i, j)``
    pairs, in ``_all_matchings``'s order (the subset DP's), built in numpy."""
    if n == 0:
        return np.zeros((1, 0, 2), dtype=np.intp)
    tail = _matching_table(n - 2)
    parts = []
    for k in range(1, n):
        others = np.array([i for i in range(1, n) if i != k], dtype=np.intp)
        head = np.broadcast_to(np.array([0, k]), (len(tail), 1, 2))
        parts.append(np.concatenate([head, others[tail]], axis=1))
    return np.concatenate(parts)


def _brute_force(lat, check_type, defects):
    """Over all (n-1)!! perfect matchings: the minimum weight, the parities
    of the first minimum-weight matching in the DP's order, and whether the
    minimum-weight matchings disagree in parity."""
    table = _matching_table(len(defects))
    w = weight_matrix(lat, defects)
    par = np.array([[crossing_parities(lat, check_type, [(a, b)]) for b in defects] for a in defects])
    total = w[table[..., 0], table[..., 1]].sum(axis=1)
    parities = np.bitwise_xor.reduce(par[table[..., 0], table[..., 1]], axis=1)
    best = total.min()
    return int(best), int(parities[total.argmin()]), len(set(parities[total == best].tolist())) > 1


def _padded_ties(lat, n, rng, count):
    """Rows of n defects of one check type whose minimum-weight matchings tie
    with different crossing parities: a tied 4-check set (``_tie_sets``),
    placed at a random time among (n-4)/2 pads, each a time-like pair far in
    time from the rest, which every minimum-weight matching keeps."""
    d = lat.d
    if d == 3:
        candidates = itertools.combinations(range(9), 4)
    else:
        candidates = ((0, 1) + rest for rest in itertools.combinations(range(2, 25), 2))
    ties = _tie_sets(lat, candidates)
    rows = []
    for k in rng.choice(len(ties), count, replace=False):
        check_type, group = ties[k]
        slots = (n - 4) // 2 + 1
        at = int(rng.integers(0, slots))
        defects = []
        for slot in range(slots):
            t = slot * (d + 1)  # a slot apart is farther than any torus distance
            if slot == at:
                defects += [(t, s) for _, s in group]
            else:
                s = int(rng.integers(0, d * d))
                defects += [(t, s), (t + 1, s)]
        rows.append((check_type, tuple(sorted(defects))))
    return rows


def _dp_rows(decoder, check_type, rows):
    """``Decoder._match_rows`` on same-size defect sets: per row its weight,
    parities and ambiguous bit."""
    lat = decoder.lat
    n_cells = (max(t for defects in rows for t, _ in defects) + 1) * lat.d**2
    cells = defect_rows(lat, rows, n_cells)
    weight, par, ambiguous = decoder._match_rows(check_type, cells, len(rows[0]))
    return list(zip(weight.tolist(), par.tolist(), ambiguous.tolist()))


@pytest.mark.parametrize("d", [3, 5])
def test_ambiguous_bit_equals_brute_force(d):
    """Random rows of 12 defects, a few of 14, and padded ties of 12 and 14,
    against every one of their perfect matchings: the DP's weight is the
    minimum, its parities are those of the first minimum-weight matching in
    the DP's order, and its ambiguous bit is set exactly when the
    minimum-weight matchings disagree in parity."""
    rng = np.random.default_rng(100 + d)
    lat = build_lattice(d)
    decoder = Decoder(lat)
    cases = [(trial % 2, random_defects(rng, d, 4, 12)) for trial in range(30)]
    cases += [(trial % 2, random_defects(rng, d, 4, 14)) for trial in range(3)]
    cases += _padded_ties(lat, 12, rng, 6) + _padded_ties(lat, 14, rng, 2)
    seen = set()
    for check_type, defects in cases:
        want = _brute_force(lat, check_type, defects)
        assert _dp_rows(decoder, check_type, [defects]) == [want], defects
        seen.add(want[2])
    assert seen == {False, True}


def _certified_sets(lat, rng):
    """Rows of 12, 14 and 16 defects for both check types: random ones and
    padded ties, each as a (star, plaquette) pair of defect sets."""
    sets = [tuple(random_defects(rng, lat.d, 5, n) for _ in range(2))
            for n in (12, 14, 16) for _ in range(15)]
    for n in (12, 14, 16):
        for check_type, defects in _padded_ties(lat, n, rng, 12):
            sets.append((defects, ()) if check_type == 0 else ((), defects))
    return sets


@pytest.mark.parametrize("d", [3, 5])
def test_judge_batch_equals_per_mask_matching_on_certified_rows(d):
    """On rows of 12 to 16 defects, ambiguous ones included, the batched
    route gives the reference matcher's parities, and the DP's weight is
    blossom's.  Some ambiguous rows have DP parities other than blossom's,
    so a judge that trusted the DP there would differ."""
    rng = np.random.default_rng(40 + d)
    lat = build_lattice(d)
    decoder = Decoder(lat)
    sets = _certified_sets(lat, rng)
    got, want = _judge_defect_sets(decoder, sets, _PAD_TIMES * (d + 1))
    np.testing.assert_array_equal(got, want)
    overruled = 0
    for check_type in (0, 1):
        for n in (12, 14, 16):
            rows = [per_type[check_type] for per_type in sets if len(per_type[check_type]) == n]
            for defects, (weight, par, ambiguous) in zip(rows, _dp_rows(decoder, check_type, rows)):
                pairs = match_defects(lat, defects)  # networkx's blossom matching above 10 defects
                w = weight_matrix(lat, defects)
                blossom_weight = sum(w[defects.index(a), defects.index(b)] for a, b in pairs)
                blossom_par = crossing_parities(lat, check_type, pairs)
                assert weight == blossom_weight, defects
                assert ambiguous or par == blossom_par, defects
                overruled += par != blossom_par
    assert overruled > 0


def test_judge_batch_is_the_same_in_passes_of_one_row(monkeypatch):
    """The DP's passes bound memory, not results: with room for one row per
    pass, every row of every count, ambiguous ones included, is judged as
    in one pass."""
    rng = np.random.default_rng(53)
    decoder = Decoder(build_lattice(5))
    sets = _certified_sets(decoder.lat, rng)
    sets += [tuple(random_defects(rng, 5, 5, n) for _ in range(2)) for n in (2, 6, 10, 20)]
    whole = _judge_quiet_frames(decoder, sets, _PAD_TIMES * 6)
    monkeypatch.setattr(decoder_module, "_PASS_CELLS", 1)
    np.testing.assert_array_equal(_judge_quiet_frames(decoder, sets, _PAD_TIMES * 6), whole)


def test_only_ambiguous_rows_and_rows_above_the_limit_reach_blossom(monkeypatch):
    """``judge_batch`` calls blossom once for each ambiguous row of 12 to 16
    defects and each row above ``_CERTIFY_LIMIT``, and for no other row."""
    rng = np.random.default_rng(47)
    lat = build_lattice(5)
    decoder = Decoder(lat)
    sets = _certified_sets(lat, rng)
    sets += [tuple(random_defects(rng, 5, 5, n) for _ in range(2)) for n in (2, 8, 10, 18, 20)]
    expected = []
    for check_type in (0, 1):
        for n in (12, 14, 16, 18, 20):
            rows = [per_type[check_type] for per_type in sets if len(per_type[check_type]) == n]
            flags = [n > _CERTIFY_LIMIT or row[2] for row in _dp_rows(decoder, check_type, rows)]
            expected += [(check_type, defect_mask(lat, r)) for r, flag in zip(rows, flags) if flag]
    assert 0 < sum(mask.bit_count() <= _CERTIFY_LIMIT for _, mask in expected) < len(expected)
    called = []
    blossom = Decoder._blossom

    def counted(self, check_type, cells):
        called.append((check_type, sum(1 << int(c) for c in np.flatnonzero(cells))))
        return blossom(self, check_type, cells)

    monkeypatch.setattr(Decoder, "_blossom", counted)
    _judge_quiet_frames(decoder, sets, _PAD_TIMES * 6)
    assert sorted(called) == sorted(expected)


@pytest.mark.parametrize("d", [3, 5])
def test_path_edges_flip_exactly_the_endpoints(d):
    lat = build_lattice(d)
    rng = np.random.default_rng(d)
    for _ in range(50):
        s1, s2 = rng.integers(0, d * d, 2)
        for check_type in (0, 1):
            flips = np.zeros(lat.n_data, dtype=np.uint8)
            for e in path_edges(lat, check_type, int(s1), int(s2)):
                flips[e] ^= 1
            if check_type == 0:
                syn, other = lat.syndrome_of(flips, np.zeros_like(flips))
            else:
                other, syn = lat.syndrome_of(np.zeros_like(flips), flips)
            assert not other.any()
            expected = np.zeros(d * d, dtype=np.uint8)
            expected[s1] ^= 1
            expected[s2] ^= 1
            np.testing.assert_array_equal(syn, expected)
            assert len(path_edges(lat, check_type, int(s1), int(s2))) == torus_distance(
                lat, int(s1), int(s2)
            )


@pytest.mark.parametrize("d", [3, 5, 7])
def test_pair_table_is_the_rows_first_repair_path(d):
    """The closed-form table, against the rows-first repair path of every
    site pair, for both check types: its length and the parities of the
    frame it flips."""
    lat = build_lattice(d)
    decoder = Decoder(lat)
    for check_type in (0, 1):
        for s1 in range(d * d):
            for s2 in range(d * d):
                dist, par = decoder._pairs[check_type][s1][s2]
                assert dist == len(path_edges(lat, check_type, s1, s2)), (check_type, s1, s2)
                assert par == crossing_parities(lat, check_type, [((0, s1), (0, s2))]), (
                    check_type, s1, s2)


def _reordered_path(lat, check_type, s1, s2, rng):
    """A shortest repair path from ``s1`` to ``s2`` that takes its column
    steps first (``rng`` None) or its row and column steps shuffled."""
    d = lat.d

    def walk(a, b):  # the unit steps of the shorter walk a -> b on one axis
        ahead = (b - a) % d
        return [1] * ahead if ahead <= d // 2 else [-1] * (d - ahead)

    (r, c), (r2, c2) = divmod(s1, d), divmod(s2, d)
    moves = [(0, step) for step in walk(c, c2)] + [(step, 0) for step in walk(r, r2)]
    if rng is not None:
        rng.shuffle(moves)
    edges, site = [], s1
    for dr, dc in moves:
        r, c = (r + dr) % d, (c + dc) % d
        edges += path_edges(lat, check_type, site, r * d + c)  # the one edge between neighbours
        site = r * d + c
    assert site == s2
    return edges


@pytest.mark.parametrize("order", ["columns_first", "shuffled"])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_pair_table_parities_hold_for_any_shortest_path(d, order):
    """The table rests on every shortest path having the same crossing
    parities: repaired along a path that takes its steps in another order,
    each pair leaves the table's parities."""
    lat = build_lattice(d)
    decoder = Decoder(lat)
    rng = np.random.default_rng(d) if order == "shuffled" else None
    for check_type in (0, 1):
        for s1 in range(d * d):
            for s2 in range(d * d):
                dist, par = decoder._pairs[check_type][s1][s2]
                edges = _reordered_path(lat, check_type, s1, s2, rng)
                assert len(edges) == dist
                assert edge_parities(lat, check_type, edges) == par, (check_type, s1, s2)


def test_blossom_route_on_a_fresh_decoder():
    """Each decoder's first call is a blossom matching, with nothing kept
    from earlier calls: its parities are those of networkx's pairs repaired
    along ``path_edges``."""
    rng = np.random.default_rng(31)
    lat = build_lattice(5)
    for trial in range(20):
        check_type = trial % 2
        defects = random_defects(rng, 5, 4, 16)
        pairs = match_defects(lat, defects)
        got = Decoder(lat)._blossom(check_type, defect_rows(lat, [defects], 5 * lat.d**2)[0])
        assert got == crossing_parities(lat, check_type, pairs), defects


@pytest.mark.parametrize("d", [3, 5])
def test_every_single_data_error_is_corrected(d):
    compiled = compile_program(build_program("standard", d, 2), NULL_NOISE)
    singles = np.eye(compiled.lattice.n_data, dtype=np.uint8)
    assert not _judge_frames(compiled, frames_x=singles).any()
    assert not _judge_frames(compiled, frames_z=singles).any()


def test_every_weight2_error_is_corrected_at_d5():
    compiled = compile_program(build_program("standard", 5, 2), NULL_NOISE)
    n_data = compiled.lattice.n_data
    e1, e2 = np.triu_indices(n_data, k=1)
    frames = np.zeros((len(e1), n_data), dtype=np.uint8)
    frames[np.arange(len(e1)), e1] = frames[np.arange(len(e1)), e2] = 1
    failing = _judge_frames(compiled, frames_x=frames).any(axis=1)
    assert not failing.any(), [(e1[k], e2[k]) for k in np.flatnonzero(failing)]


def test_undetectable_logical_error_is_judged():
    compiled = compile_program(build_program("standard", 3, 2), NULL_NOISE)
    lat = compiled.lattice
    decoder = Decoder(lat)
    frame = np.zeros(18, dtype=np.uint8)
    for c in range(3):
        frame[lat.h(0, c)] = 1  # a full horizontal X logical: zero syndrome
    res = run_shot(compiled, initial_x=frame)
    assert not res.syndromes.any()
    judge = decoder.judge_batch(res.syndromes[None], res.data_x[None], res.data_z[None])[0]
    np.testing.assert_array_equal(judge, [1, 0, 0, 0])
    assert judge.any()


def test_judge_batch_matches_per_shot_decode_and_handles_quiet_shots():
    noise = NoiseModel(p=0.04, r=1.0)
    compiled = compile_program(build_program("swap_lrc", 3, 3), noise)
    lat = compiled.lattice
    decoder = Decoder(lat)
    batch = run_batch(compiled, 77, 0, 150)
    # two event-free shots: a clean frame and an undetectable X logical
    quiet_x = np.zeros((2, lat.n_data), dtype=np.uint8)
    quiet_x[1, [lat.h(0, c) for c in range(3)]] = 1
    syndromes = np.concatenate([batch.syndromes, np.zeros_like(batch.syndromes[:2])])
    data_x = np.concatenate([batch.data_x, quiet_x])
    data_z = np.concatenate([batch.data_z, np.zeros_like(quiet_x)])
    judges = decoder.judge_batch(syndromes, data_x, data_z)
    np.testing.assert_array_equal(judges[150:], [[0, 0, 0, 0], [1, 0, 0, 0]])
    for shot in range(152):
        one = slice(shot, shot + 1)
        _, _, ref = _reference_frames(lat, syndromes[one], data_x[one], data_z[one])
        np.testing.assert_array_equal(judges[shot], ref[0])


@pytest.mark.parametrize(
    "variant,d,noise,n_shots",
    [
        ("mixed_lrc", 3, NoiseModel(p=0.02, r=2.0, p_init_leak=0.02), 200),
        ("standard", 5, NoiseModel(p=0.006, r=1.0), 60),
    ],
    ids=["d3", "d5"],
)
def test_judge_batch_equals_reference_frame_route(variant, d, noise, n_shots):
    """Crossing parities and corrected frames give the same verdict bit for
    bit, on both matcher routes (d=5 shots exceed the DP's 10 defects)."""
    compiled = compile_program(build_program(variant, d, d), noise)
    batch = run_batch(compiled, 2025, 0, n_shots)
    judges = Decoder(compiled.lattice).judge_batch(batch.syndromes, batch.data_x, batch.data_z)
    _, _, ref = _reference_frames(compiled.lattice, batch.syndromes, batch.data_x, batch.data_z)
    np.testing.assert_array_equal(judges, ref)
    assert ref.any(axis=1).any() and not ref.any(axis=1).all()
    if d == 5:
        defects = extract_events_batch(batch.syndromes).sum(axis=(1, 3))
        assert (defects > 10).any()


@pytest.mark.parametrize(
    "variant,noise",
    [
        ("standard", NoiseModel(p=0.05)),
        ("mixed_lrc", NoiseModel(p=0.04, r=2.0, p_init_leak=0.04)),
    ],
)
def test_corrected_frame_has_zero_syndrome(variant, noise):
    compiled = compile_program(build_program(variant, 3, 3), noise)
    batch = run_batch(compiled, 13, 0, 120)
    corrected_x, corrected_z, _ = _reference_frames(
        compiled.lattice, batch.syndromes, batch.data_x, batch.data_z)
    for shot in range(120):
        z_syn, x_syn = compiled.lattice.syndrome_of(corrected_x[shot], corrected_z[shot])
        assert not z_syn.any() and not x_syn.any()


def test_pure_measurement_error_needs_no_data_correction():
    lat = build_lattice(3)
    decoder = Decoder(lat)
    syn = np.zeros((1, 4, 2, 9), dtype=np.uint8)
    syn[0, 1, 0, 4] = 1  # single-round blip
    frames = np.zeros((1, 18), dtype=np.uint8)
    corrected_x, corrected_z, _ = _reference_frames(lat, syn, frames, frames)
    assert not corrected_x.any() and not corrected_z.any()
    assert not decoder.judge_batch(syn, frames, frames).any()


def test_collinear_adjacent_pair_wraps_into_a_logical_at_d3_only():
    """Two X errors on same-row neighbouring edges: defects 2 apart, which at
    d=3 wraps to distance 1, so the correction completes a logical row."""
    for d, expect_failure in [(3, True), (5, False)]:
        compiled = compile_program(build_program("standard", d, 2), NULL_NOISE)
        lat = compiled.lattice
        frame = np.zeros((1, lat.n_data), dtype=np.uint8)
        frame[0, lat.h(0, 0)] = frame[0, lat.h(0, 1)] = 1
        assert _judge_frames(compiled, frames_x=frame)[0].any() == expect_failure, d


def test_decode_is_deterministic_across_decoder_instances():
    noise = NoiseModel(p=0.08, r=2.0)
    compiled = compile_program(build_program("swap_lrc", 3, 3), noise)
    batch = run_batch(compiled, 3, 0, 60)
    a = Decoder(compiled.lattice).judge_batch(batch.syndromes, batch.data_x, batch.data_z)
    b = Decoder(compiled.lattice).judge_batch(batch.syndromes, batch.data_x, batch.data_z)
    np.testing.assert_array_equal(a, b)
