"""The blossom port against networkx, its oracle.

``blossom.min_weight_perfect_matching`` must return networkx's matching on
every input, equal-weight tie choices included, because the decoder's
verdicts (and so every frozen CSV and golden) follow those choices.  The
oracle is ``oracles._match_blossom``, networkx on the graph the decoder
once built.
"""

from __future__ import annotations

import numpy as np
import pytest

import toricleak.decoder as decoder_module
from oracles import _match_blossom, random_defects, weight_matrix
from toricleak.blossom import _check_optimum, _solve, min_weight_perfect_matching
from toricleak.circuits import build_program
from toricleak.lattice import build_lattice
from toricleak.noise import NoiseModel
from toricleak.sim import compile_program
from toricleak.vector import run_batch


def _pairs(mate: list[int]) -> list[tuple[int, int]]:
    return [(i, j) for i, j in enumerate(mate) if i < j]


def _tie_heavy(rng, n: int) -> list[list[int]]:
    w = np.triu(rng.integers(0, 5, (n, n)), 1)
    return (w + w.T).tolist()


def test_same_matching_as_networkx_on_tie_heavy_complete_graphs():
    """Random complete graphs, n in 12..50, weights in 0..4: many optimal
    matchings per graph, and the port picks networkx's."""
    rng = np.random.default_rng(11)
    for n in range(12, 51, 2):
        for _ in range(2):
            w = _tie_heavy(rng, n)
            assert _pairs(min_weight_perfect_matching(w)) == _match_blossom(w), (n, w)


def test_same_matching_as_networkx_on_positive_tie_heavy_graphs():
    """Weights in 1..3: every off-diagonal weight is positive, so stage 1 is
    taken in bulk, and ties are everywhere, so its argmins must be the first
    ones."""
    rng = np.random.default_rng(13)
    for n in range(2, 41, 2):
        for _ in range(3):
            w = np.triu(rng.integers(1, 4, (n, n)), 1)
            w = (w + w.T).tolist()
            assert _pairs(min_weight_perfect_matching(w)) == _match_blossom(w), (n, w)


def test_same_matching_as_networkx_with_some_zero_weights():
    """A few zero-weight edges among positive ones: stage 1 runs as a loop and
    meets tight edges at its first scans."""
    rng = np.random.default_rng(14)
    for n in range(4, 41, 4):
        for zeros in (1, 3, n):
            w = np.triu(rng.integers(1, 5, (n, n)), 1)
            for _ in range(zeros):
                i, j = sorted(rng.choice(n, 2, replace=False))
                w[i, j] = 0
            w = (w + w.T).tolist()
            assert _pairs(min_weight_perfect_matching(w)) == _match_blossom(w), (n, w)


@pytest.mark.parametrize("n", [0, 2, 4])
def test_same_matching_as_networkx_on_the_smallest_graphs(n):
    """Every weight assignment in 0..2 of the complete graph on n vertices;
    at n = 0 the one empty graph, whose matching is empty."""
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for code in range(3 ** len(cells)):
        w = [[0] * n for _ in range(n)]
        for i, j in cells:
            code, w[i][j] = divmod(code, 3)
            w[j][i] = w[i][j]
        assert _pairs(min_weight_perfect_matching(w)) == _match_blossom(w), w


def test_same_matching_as_networkx_on_torus_defect_sets():
    """Spacetime defect sets on the d=5 torus: the weights the decoder builds."""
    rng = np.random.default_rng(12)
    lat = build_lattice(5)
    for n in (12, 16, 20, 24, 30, 36, 40, 50):
        for _ in range(4):
            w = weight_matrix(lat, random_defects(rng, 5, 5, n)).tolist()
            assert _pairs(min_weight_perfect_matching(w)) == _match_blossom(w), w


def test_same_matching_as_networkx_on_recorded_sweep_d5_instances(monkeypatch):
    """Every blossom call the decoder's blossom route makes on the event
    rows above ``_DP_LIMIT`` defects of shots 0..499 of the standard d=5
    sweep at p = 3e-3, r = 1, master seed 7 (the ``sweep_d5`` benchmark's
    first shots)."""
    recorded = []

    def record(w):
        recorded.append((w, min_weight_perfect_matching(w)))
        return recorded[-1][1]

    monkeypatch.setattr(decoder_module, "min_weight_perfect_matching", record)
    compiled = compile_program(build_program("standard", 5, 5), NoiseModel(p=3e-3, r=1.0))
    res = run_batch(compiled, 7, 0, 500)
    decoder = decoder_module.Decoder(compiled.program.lattice)
    for rows in decoder_module.event_rows(res.syndromes):
        for check_type, cells in enumerate(rows):
            if cells.sum() > decoder_module._DP_LIMIT:
                decoder._blossom(check_type, cells)
    assert len(recorded) > 500
    for w, mate in recorded:
        assert _pairs(mate) == _match_blossom(w), w


def _solved(seed: int, n: int = 20):
    w = _tie_heavy(np.random.default_rng(seed), n)
    return w, _solve(w)


def test_optimality_check_passes_the_untampered_state():
    for seed in range(20):
        w, state = _solved(seed)
        _check_optimum(w, *state)


@pytest.mark.parametrize("step", [-2, 2])
def test_optimality_check_raises_on_a_tampered_dual(step):
    """Moving one vertex dual breaks the tightness of its matched edge, or
    makes it negative."""
    w, (mate, dualvar, *rest) = _solved(1)
    dualvar[3] += step
    with pytest.raises(RuntimeError, match="slack|tight"):
        _check_optimum(w, mate, dualvar, *rest)


def test_optimality_check_raises_on_a_tampered_mate():
    w, (mate, *rest) = _solved(2)
    pairs = _pairs(mate)
    broken = list(mate)
    broken[pairs[0][0]] = pairs[1][0]  # two vertices claim one partner
    with pytest.raises(RuntimeError, match="not perfect"):
        _check_optimum(w, broken, *rest)
    # a perfect but heavier matching: swap partners across two pairs
    weight = sum(w[i][j] for i, j in pairs)
    for (a, b), (c, e) in zip(pairs, pairs[1:]):
        if w[a][c] + w[b][e] > w[a][b] + w[c][e]:
            break
    else:
        pytest.fail("no heavier swap")
    swapped = list(mate)
    swapped[a], swapped[c], swapped[b], swapped[e] = c, a, e, b
    assert sum(w[i][j] for i, j in _pairs(swapped)) > weight
    with pytest.raises(RuntimeError, match="tight|full"):
        _check_optimum(w, swapped, *rest)


def test_optimality_check_raises_on_a_negative_blossom_dual():
    for seed in range(200):
        w, (mate, dualvar, parent, blossomdual, edges) = _solved(seed, 30)
        if blossomdual:
            break
    else:
        pytest.fail("no instance keeps a blossom")
    b = next(iter(blossomdual))
    blossomdual[b] = -1
    with pytest.raises(RuntimeError, match="negative"):
        _check_optimum(w, mate, dualvar, parent, blossomdual, edges)
