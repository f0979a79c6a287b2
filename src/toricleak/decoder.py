"""Spacetime minimum-weight perfect matching decoder for the torus.

Detection events are differences of consecutive syndrome rounds (round -1 is
the all-zero baseline; the last row is the noiseless readout round).  One
check type's events are one int, its defect mask: bit ``t * d*d + site`` is
the event of the check at ``site`` in round ``t``, so ascending bits are
ascending ``(t, site)``.  Events of each check type are matched in spacetime
with weight = torus Manhattan distance + time separation, exactly: a
memoised top-down subset DP on sub-masks for up to 10 defects, an exact
blossom matching (``blossom``, a port of NetworkX's) of the mask's cells in
bit order beyond that.

A matched pair is repaired along a shortest torus path, of which the decoder
needs only the length and the two logical-crossing parities: one pair table
holds them for every site pair, built in closed form.  On one axis the
shorter walk from ``a`` to ``b`` is unique (odd ``d`` leaves no tie between
the two directions), so its length is ``min(delta, d - delta)`` and it steps
over the boundary between ``k`` and ``k + 1`` exactly when that boundary
lies on the chosen side.  A logical's support cuts across one such boundary:
star repairs cross Z_L1 between columns 0 and 1 and Z_L2 between rows 0 and
1, plaquette repairs X_L1 between rows d-1 and 0 and X_L2 between columns
d-1 and 0.  All shortest paths between two checks take the same steps per
axis, in some order, so any two differ by a homologically trivial cycle,
which meets every logical's support evenly: they all have the table's
parities.

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


class Decoder:
    """Judges shots by the logical-crossing parities of their matchings.

    A correction flips a logical parity exactly when an odd number of its
    repair paths cross that logical's support, so a shot's verdict is its raw
    readout parities XOR those crossings; no correction frame is built.
    """

    def __init__(self, lat: ToricLattice):
        self.lat = lat
        d = lat.d
        self._sites = d * d
        # one axis, a -> b: the shorter walk's length, and whether it steps over
        # the boundary k | k + 1, for k = 0 (low) and k = d - 1 (high)
        a, b = np.arange(d)[:, None], np.arange(d)
        ahead = (b - a) % d
        steps = np.minimum(ahead, d - ahead)
        low, high = ((((k - a) % d < ahead) == (ahead <= d // 2)).astype(int) for k in (0, d - 1))
        row, col = np.divmod(np.arange(d * d), d)
        rows, cols = np.ix_(row, row), np.ix_(col, col)
        dist = steps[rows] + steps[cols]
        # bits (Z_L1, Z_L2) of star repairs, (X_L1, X_L2) of plaquette ones, as the docstring says
        parities = (low[cols] | low[rows] << 1, high[rows] | high[cols] << 1)
        # [check type, s1, s2] -> (torus distance, crossing parities); the DP reads its list form
        self._table = np.stack([np.stack((dist, par), axis=-1) for par in parities])
        self._pairs = self._table.tolist()

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
            dist, par = row[s]
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
        dist = self._table[check_type, sites[:, None], sites, 0]
        w = (dist + np.abs(times[:, None] - times)).tolist()
        sites, pairs = sites.tolist(), self._pairs[check_type]
        weight = par = 0
        for i, j in enumerate(min_weight_perfect_matching(w)):
            if i < j:
                weight += w[i][j]
                par ^= pairs[sites[i]][sites[j]][1]
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
