"""Spacetime minimum-weight perfect matching decoder for the torus.

Detection events are differences of consecutive syndrome rounds (round -1 is
the all-zero baseline; the last row is the noiseless readout round).  Events
of each check type are matched in spacetime with weight = torus Manhattan
distance + time separation, exactly: a memoised top-down subset DP for up to
10 defects, an exact blossom matching (``blossom``, a port of NetworkX's)
beyond that.  Matched pairs are repaired along deterministic shortest torus
paths, rows before columns, wrapping toward the shorter side (odd distance
leaves no axis ties).
The decoder is the one matcher and returns verdicts, not corrections:
``Decoder.parities`` is the crossing-parity rule that the Monte-Carlo judge
and the scanner both read.
"""

from __future__ import annotations

import numpy as np

from .blossom import min_weight_perfect_matching
from .lattice import ToricLattice

_DP_LIMIT = 10  # top-down subset DP up to here, blossom matching above


def path_edges(lat: ToricLattice, check_type: int, s1: int, s2: int) -> list[int]:
    """Shortest torus path between two same-type check sites, as edge ids.

    Rows are traversed before columns; each axis wraps toward the shorter
    side.  For Z checks the path lives on the primal lattice (edges flip the
    two endpoint stars); for X checks on the dual (endpoint plaquettes).
    """
    d = lat.d
    r, c = divmod(s1, d)
    r2, c2 = divmod(s2, d)
    edges = []

    def signed_step(a, b):
        delta = (b - a) % d
        return 1 if 0 < delta <= d // 2 else (-1 if delta else 0)

    while r != r2:
        step = signed_step(r, r2)
        if check_type == 0:  # stars: vertical edge between (r, c) and (r+1, c)
            edges.append(lat.v(r if step == 1 else r - 1, c))
        else:  # plaquettes: shared horizontal edge
            edges.append(lat.h(r + 1 if step == 1 else r, c))
        r = (r + step) % d
    while c != c2:
        step = signed_step(c, c2)
        if check_type == 0:
            edges.append(lat.h(r, c if step == 1 else c - 1))
        else:
            edges.append(lat.v(r, c + 1 if step == 1 else c))
        c = (c + step) % d
    return edges


class Decoder:
    """Judges shots by the logical-crossing parities of their matchings.

    A correction flips a logical parity exactly when an odd number of its
    repair paths cross that logical's support, so a shot's verdict is its raw
    readout parities XOR those crossings; no correction frame is built.
    """

    def __init__(self, lat: ToricLattice):
        self.lat = lat
        # star repairs flip X frames, read by the Z logicals; plaquette repairs Z, by X
        self._crossed = tuple(tuple(map(frozenset, ls)) for ls in (lat.z_logicals, lat.x_logicals))
        # [check type][s1][s2] -> (torus distance, crossing parities), filled on first use
        self._pairs = [[[None] * lat.d**2 for _ in range(lat.d**2)] for _ in (0, 1)]
        self._cache: dict = {}

    def _pair(self, check_type: int, s1: int, s2: int) -> tuple[int, int]:
        """Torus distance and the two logical-crossing parities of the repair
        path from ``s1`` to ``s2``."""
        row = self._pairs[check_type][s1]
        hit = row[s2]
        if hit is None:
            path = path_edges(self.lat, check_type, s1, s2)
            par = sum((sum(e in support for e in path) & 1) << bit
                      for bit, support in enumerate(self._crossed[check_type]))
            hit = row[s2] = (len(path), par)
        return hit

    def matching(self, check_type: int, defects: tuple[tuple[int, int], ...],
                 memo: dict | None = None) -> tuple[int, int]:
        """Weight and crossing parities of the minimum-weight perfect matching
        of one check type's sorted (t, site) defects, a pair weighing its
        torus distance plus its time separation.

        Up to ``_DP_LIMIT`` defects a top-down subset DP decides: the first
        defect is the pivot, its partners are tried in order, and only a
        strictly lower weight replaces the incumbent.  Larger sets go to
        blossom matching.  ``memo`` keeps the matchings of defect tuples
        across the calls that share it (by default, one call); it is a cache
        scope and never changes a result.
        """
        if len(defects) % 2:
            raise ValueError("odd number of defects cannot be matched")
        scope = ({} if memo is None else memo).setdefault(check_type, {(): (0, 0)})
        hit = scope.get(defects)
        if hit is None:
            if len(defects) <= _DP_LIMIT:
                hit = self._subset_match(check_type, defects, scope)
            else:
                hit = scope[defects] = self._blossom(check_type, defects)
        return hit

    def _subset_match(self, check_type: int, defects: tuple, scope: dict) -> tuple[int, int]:
        """The DP step for a tuple missing from ``scope``; fills ``scope``."""
        (t0, s0), rest = defects[0], defects[1:]
        row = self._pairs[check_type][s0]
        best = None
        for k, (t, s) in enumerate(rest):
            sub = rest[:k] + rest[k + 1 :]
            weight, sub_par = scope.get(sub) or self._subset_match(check_type, sub, scope)
            dist, par = row[s] or self._pair(check_type, s0, s)
            weight += dist + abs(t - t0)
            if best is None or weight < best[0]:
                best = (weight, sub_par ^ par)
        scope[defects] = best
        return best

    def _blossom(self, check_type: int, defects: tuple) -> tuple[int, int]:
        pairs = self._pairs[check_type]
        n = len(defects)
        w = [[0] * n for _ in range(n)]
        for i, (t1, s1) in enumerate(defects):
            row = pairs[s1]
            for j in range(i + 1, n):
                t2, s2 = defects[j]
                w[i][j] = w[j][i] = (row[s2] or self._pair(check_type, s1, s2))[0] + abs(t1 - t2)
        weight = par = 0
        for i, j in enumerate(min_weight_perfect_matching(w)):
            if i < j:  # the earlier defect leads its path
                weight += w[i][j]
                par ^= pairs[defects[i][1]][defects[j][1]][1]
        return weight, par

    def parities(self, check_type: int, defects: tuple[tuple[int, int], ...],
                 memo: dict | None = None) -> int:
        """Crossing parities of the matching of one check type's sorted (t, site)
        defects: judge bits 0-1 for stars, 2-3 for plaquettes.  A call
        without ``memo`` is also cached decoder-wide."""
        if memo is not None:
            return self.matching(check_type, defects, memo)[1]
        key = (check_type, defects)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self.matching(check_type, defects)[1]
        return hit

    def judge_batch(self, syndromes: np.ndarray, data_x: np.ndarray, data_z: np.ndarray) -> np.ndarray:
        """Per-shot judge bits (X_L1, X_L2, Z_L1, Z_L2) for a stacked batch."""
        judge = self.lat.logical_parities(data_x, data_z)
        # defects in (shot, check type, t, site) order: each (shot, check
        # type) is one contiguous run, already sorted by (t, site)
        events = extract_events_batch(syndromes).transpose(0, 2, 1, 3)
        shots, types, times, sites = np.nonzero(events)
        starts = np.flatnonzero(np.diff(shots * 2 + types, prepend=-1))
        bounds = np.append(starts, len(shots)).tolist()
        cells = list(zip(times.tolist(), sites.tolist()))
        shot_of_run, type_of_run = shots[starts], types[starts]
        runs = zip(type_of_run.tolist(), bounds, bounds[1:])
        par = np.array([self.parities(ct, tuple(cells[a:b])) for ct, a, b in runs], dtype=np.uint8)
        judge[shot_of_run, 2 * type_of_run] ^= par & 1
        judge[shot_of_run, 2 * type_of_run + 1] ^= par >> 1
        return judge


def extract_events_batch(syndromes: np.ndarray) -> np.ndarray:
    """Per shot, the XOR of consecutive syndrome rows from the zero baseline."""
    events = syndromes.copy()
    events[:, 1:] ^= syndromes[:, :-1]
    return events
