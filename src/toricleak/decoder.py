"""Spacetime minimum-weight perfect matching decoder for the torus.

Detection events are differences of consecutive syndrome rounds (round -1 is
the all-zero baseline; the last row is the noiseless readout round).  Events
of each check type are matched in spacetime with weight = torus Manhattan
distance + time separation, exactly: a bitmask dynamic program for up to 10
defects, an exact blossom matching (networkx) beyond that.  Matched pairs are
repaired along deterministic shortest torus paths, rows before columns,
wrapping toward the shorter side (odd distance leaves no axis ties).
The decoder returns verdicts, not corrections: ``Decoder.parities`` is the
one crossing-parity rule that the Monte-Carlo judge and the scanner read.
"""

from __future__ import annotations

import numpy as np

from .lattice import ToricLattice

_DP_LIMIT = 10  # subset DP below, blossom matching above


def _pair_weight(lat: ToricLattice, a: tuple[int, int], b: tuple[int, int]) -> int:
    return lat.torus_distance(a[1], b[1]) + abs(a[0] - b[0])


def _subset_dp(w: list[list[int]]) -> list[int]:
    """Minimum-weight perfect matchings of every even subset, as a choice table.

    ``choice[mask]`` is the partner of the pivot — the lowest set bit — in
    the matching chosen for the cells in ``mask``.  Partners are tried in
    ascending order and only a strictly lower weight replaces the incumbent,
    so ties go to the lowest partner.
    """
    n = len(w)
    INF = 1 << 60
    dp = [INF] * (1 << n)
    choice = [0] * (1 << n)
    dp[0] = 0
    for mask in range(1, 1 << n):
        if mask.bit_count() & 1:
            continue
        low = mask & -mask
        rest = mask ^ low
        wi = w[low.bit_length() - 1]
        best, best_j = INF, -1
        bits = rest
        while bits:
            bit = bits & -bits
            bits ^= bit
            j = bit.bit_length() - 1
            cand = dp[rest ^ bit] + wi[j]
            if cand < best:
                best, best_j = cand, j
        dp[mask] = best
        choice[mask] = best_j
    return choice


def _match_dp(w: np.ndarray) -> list[tuple[int, int]]:
    """Exact minimum-weight perfect matching by subset DP (deterministic)."""
    choice = _subset_dp(w.tolist())
    pairs = []
    mask = (1 << w.shape[0]) - 1
    while mask:
        i = (mask & -mask).bit_length() - 1
        j = choice[mask]
        pairs.append((i, j))
        mask ^= (1 << i) | (1 << j)
    return pairs


def _match_blossom(w: np.ndarray) -> list[tuple[int, int]]:
    import networkx as nx

    n = w.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j, weight=-int(w[i, j]))
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    return [tuple(sorted(edge)) for edge in sorted(map(sorted, matching))]


def match_defects(
    lat: ToricLattice, defects: tuple[tuple[int, int], ...]
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Exact minimum-weight perfect matching of spacetime defects."""
    n = len(defects)
    if n % 2:
        raise ValueError("odd number of defects cannot be matched")
    if n == 0:
        return []
    w = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = _pair_weight(lat, defects[i], defects[j])
    pairs = _match_dp(w) if n <= _DP_LIMIT else _match_blossom(w)
    return [(defects[i], defects[j]) for i, j in pairs]


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
        self._pair_cache: dict = {}
        self._cache: dict = {}

    def pair_parity(self, check_type: int, s1: int, s2: int) -> int:
        """The two logical-crossing parities of the repair path between two sites."""
        key = (check_type, s1, s2)
        if key not in self._pair_cache:
            path = path_edges(self.lat, check_type, s1, s2)
            self._pair_cache[key] = sum((sum(e in support for e in path) & 1) << bit
                                        for bit, support in enumerate(self._crossed[check_type]))
        return self._pair_cache[key]

    def parities(self, check_type: int, defects: tuple[tuple[int, int], ...]) -> int:
        """Crossing parities of the matching of one check type's sorted (t, site)
        defects: judge bits 0-1 for stars, 2-3 for plaquettes."""
        key = (check_type, defects)
        hit = self._cache.get(key)
        if hit is None:
            hit = 0
            for a, b in match_defects(self.lat, defects):
                hit ^= self.pair_parity(check_type, a[1], b[1])
            self._cache[key] = hit
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
        run_shots, run_types = shots[starts], types[starts]
        runs = zip(run_types.tolist(), bounds, bounds[1:])
        par = np.array([self.parities(ct, tuple(cells[a:b])) for ct, a, b in runs], dtype=np.uint8)
        judge[run_shots, 2 * run_types] ^= par & 1
        judge[run_shots, 2 * run_types + 1] ^= par >> 1
        return judge


def extract_events_batch(syndromes: np.ndarray) -> np.ndarray:
    """Per shot, the XOR of consecutive syndrome rows from the zero baseline."""
    events = syndromes.copy()
    events[:, 1:] ^= syndromes[:, :-1]
    return events
