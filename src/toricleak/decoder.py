"""Spacetime minimum-weight perfect matching decoder for the torus.

Detection events are differences of consecutive syndrome rounds (round -1 is
the all-zero baseline; the last row is the noiseless readout round).  One
check type's events are one int, its defect mask: bit ``t * d*d + site`` is
the event of the check at ``site`` in round ``t``, so ascending bits are
ascending ``(t, site)``.  Events of each check type are matched in spacetime
with weight = torus Manhattan distance + time separation, exactly: a
memoised top-down subset DP on sub-masks for up to 10 defects, an exact
blossom matching (``blossom``, a port of NetworkX's) of the mask's cells in
bit order beyond that.  Matched pairs are repaired along deterministic
shortest torus paths, rows before columns, wrapping toward the shorter side
(odd distance leaves no axis ties).
The decoder is the one matcher and returns verdicts, not corrections: the
crossing parities of ``Decoder.matching`` are the rule that the Monte-Carlo
judge and the scanner both read.  The decoder keeps no matching cache; a
memo belongs to the caller that passes it.
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
        self._sites = lat.d**2
        # [s1, s2] -> torus distance, the length of either check type's repair path
        row, col = np.divmod(np.arange(lat.d**2), lat.d)
        gap_r = np.abs(row[:, None] - row)
        gap_c = np.abs(col[:, None] - col)
        self._site_dist = np.minimum(gap_r, lat.d - gap_r) + np.minimum(gap_c, lat.d - gap_c)

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

    def matching(self, check_type: int, mask: int, memo: dict | None = None) -> tuple[int, int]:
        """Weight and crossing parities of the minimum-weight perfect matching
        of one check type's defect mask, a pair weighing its torus distance
        plus its time separation; bits 0-1 of the parities are the check
        type's two judge bits.

        Up to ``_DP_LIMIT`` defects a top-down subset DP decides: the lowest
        defect is the pivot, its partners are tried in ascending bit order,
        and only a strictly lower weight replaces the incumbent.  Larger
        sets go to blossom matching.  ``memo`` keeps the matchings of masks
        across the calls that share it (by default, one call); it is a cache
        scope and never changes a result.
        """
        n = mask.bit_count()
        if n % 2:
            raise ValueError("odd number of defects cannot be matched")
        scope = ({} if memo is None else memo).setdefault(check_type, {0: (0, 0)})
        hit = scope.get(mask)
        if hit is None:
            if n <= _DP_LIMIT:
                hit = self._subset_match(check_type, mask, scope)
            else:
                hit = scope[mask] = self._blossom(check_type, mask)
        return hit

    def _subset_match(self, check_type: int, mask: int, scope: dict) -> tuple[int, int]:
        """The DP step for a mask missing from ``scope``; fills ``scope``."""
        low = mask & -mask
        rest = bits = mask ^ low
        t0, s0 = divmod(low.bit_length() - 1, self._sites)
        row = self._pairs[check_type][s0]
        best = None
        while bits:
            bit = bits & -bits
            bits ^= bit
            t, s = divmod(bit.bit_length() - 1, self._sites)
            sub = rest ^ bit
            weight, sub_par = scope.get(sub) or self._subset_match(check_type, sub, scope)
            dist, par = row[s] or self._pair(check_type, s0, s)
            weight += dist + abs(t - t0)
            if best is None or weight < best[0]:
                best = (weight, sub_par ^ par)
        scope[mask] = best
        return best

    def _blossom(self, check_type: int, mask: int) -> tuple[int, int]:
        cells = []
        while mask:
            low = mask & -mask
            mask ^= low
            cells.append(low.bit_length() - 1)
        times, sites = np.divmod(np.array(cells), self._sites)
        w = (self._site_dist[sites[:, None], sites] + np.abs(times[:, None] - times)).tolist()
        sites = sites.tolist()
        weight = par = 0
        for i, j in enumerate(min_weight_perfect_matching(w)):
            if i < j:  # the earlier defect leads its path
                weight += w[i][j]
                par ^= self._pair(check_type, sites[i], sites[j])[1]
        return weight, par

    def judge_batch(self, syndromes: np.ndarray, data_x: np.ndarray, data_z: np.ndarray) -> np.ndarray:
        """Per-shot judge bits (X_L1, X_L2, Z_L1, Z_L2) for a stacked batch;
        the batch's matchings share one memo."""
        judge = self.lat.logical_parities(data_x, data_z)
        memo: dict = {}
        par = np.array([[self.matching(ct, mask, memo)[1] if mask else 0
                         for ct, mask in enumerate(masks)]
                        for masks in event_masks(syndromes)], dtype=np.uint8).reshape(-1, 2)
        judge[:, 0::2] ^= par & 1
        judge[:, 1::2] ^= par >> 1
        return judge


def extract_events_batch(syndromes: np.ndarray) -> np.ndarray:
    """Per shot, the XOR of consecutive syndrome rows from the zero baseline."""
    events = syndromes.copy()
    events[:, 1:] ^= syndromes[:, :-1]
    return events


def event_masks(syndromes: np.ndarray) -> list[tuple[int, int]]:
    """Per shot, the star and the plaquette defect masks of its events."""
    shots, times, types, sites = syndromes.shape
    events = extract_events_batch(syndromes).transpose(0, 2, 1, 3)
    packed = np.packbits(events.reshape(shots * types, times * sites), axis=-1, bitorder="little")
    size = packed.shape[1]
    blob = packed.tobytes()
    masks = iter([int.from_bytes(blob[k : k + size], "little") for k in range(0, len(blob), size)])
    return list(zip(masks, masks))
