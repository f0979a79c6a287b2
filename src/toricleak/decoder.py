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

The decoder returns verdicts, not corrections: the crossing parities of the
minimum-weight matching, with one tie rule, are what the Monte-Carlo judge
and the scanner both read.  The scanner asks ``Decoder.matching`` one mask
at a time; a memo belongs to the caller that passes it, and the decoder
keeps no matching cache.  The Monte-Carlo judge, ``Decoder.judge_batch``,
matches every row of at most 10 defects of a batch at once, one numpy pass
per defect count n: it weighs all (n-1)!! perfect matchings of the row's
cells, listed as the DP tries them (the lowest index pairs with each
partner in ascending order, the rest listed so recursively), and takes the
first of minimum weight.  That is the DP's matching: at each pivot the DP
keeps the first partner that reaches the minimum (only a strictly lower
weight replaces its incumbent), then the sub-mask's own matching; the
listing groups matchings by the pivot's partner in that order, so its
first minimal matching has the same partner followed by the first minimal
matching of the rest, which is by induction the DP's.  Larger rows go to
``Decoder.matching``; tests pin the two routes equal.
"""

from __future__ import annotations

import functools

import numpy as np

from .blossom import min_weight_perfect_matching
from .lattice import ToricLattice

_DP_LIMIT = 10  # subset DP (batched in judge_batch) up to here, blossom matching above
_PASS_SUMS = 1 << 16  # matching weights summed per batched pass (rows x matchings)


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
        """Per-shot judge bits (X_L1, X_L2, Z_L1, Z_L2) for a stacked batch.

        Rows of at most ``_DP_LIMIT`` defects are matched together, one numpy
        pass per defect count n: every perfect matching of the row's n cells
        (ascending bits, the DP's defect order) is weighed from ``_table``,
        and the first of minimum weight in ``_perfect_matchings(n)`` order
        decides: the subset DP's matching, as the module docstring argues.
        Larger rows go to ``matching`` one at a time, with no memo shared
        across the batch.  A row with an odd number of defects raises
        ``ValueError``.
        """
        judge = self.lat.logical_parities(data_x, data_z)
        events = _event_rows(syndromes)
        shots, types, _ = events.shape
        counts = events.sum(axis=2)
        if (counts % 2).any():
            raise ValueError("odd number of defects cannot be matched")
        par = np.zeros((shots, types), dtype=np.uint8)
        for ct in range(types):
            for n in range(2, _DP_LIMIT + 1, 2):
                rows = np.flatnonzero(counts[:, ct] == n)
                step = _PASS_SUMS // len(_perfect_matchings(n))
                for lo in range(0, len(rows), step):
                    part = rows[lo : lo + step]
                    par[part, ct] = self._match_rows(ct, events[part, ct], n)
            large = np.flatnonzero(counts[:, ct] > _DP_LIMIT)
            for row, mask in zip(large, _masks(events[large, ct])):
                par[row, ct] = self.matching(ct, mask)[1]
        judge[:, 0::2] ^= par & 1
        judge[:, 1::2] ^= par >> 1
        return judge

    def _match_rows(self, check_type: int, cells: np.ndarray, n: int) -> np.ndarray:
        """Crossing parities of the DP's matchings of rows of n events each."""
        times, sites = np.divmod(np.nonzero(cells)[1].reshape(-1, n), self._sites)
        i, j = np.triu_indices(n, 1)
        pair = self._table[check_type, sites[:, i], sites[:, j]]
        weight = (pair[..., 0] + np.abs(times[:, i] - times[:, j])).astype(np.int32)
        table = _perfect_matchings(n)
        total = weight[:, table[:, 0]]
        for k in range(1, n // 2):
            total += weight[:, table[:, k]]
        chosen = table[total.argmin(axis=1)]
        return np.bitwise_xor.reduce(np.take_along_axis(pair[..., 1], chosen, axis=1), axis=1)


@functools.cache
def _perfect_matchings(n: int) -> np.ndarray:
    """Every perfect matching of n indices, one row of n/2 pair numbers each
    (pair ``(i, j)``, ``i < j``, numbered in ``np.triu_indices(n, 1)``
    order), listed as the subset DP tries them: the lowest index pairs with
    each partner in ascending order, and the rest are listed so recursively."""
    number = np.zeros((n, n), dtype=np.intp)
    number[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)

    def listing(rest):
        if not rest:
            yield ()
        for k in range(1, len(rest)):
            for tail in listing(rest[1:k] + rest[k + 1 :]):
                yield (number[rest[0], rest[k]],) + tail

    table = np.array(list(listing(tuple(range(n)))), dtype=np.intp).reshape(-1, n // 2)
    table.flags.writeable = False
    return table


def _masks(rows: np.ndarray) -> list[int]:
    """One int per row of 0/1 cells: bit k is the row's cell k."""
    packed = np.packbits(rows, axis=-1, bitorder="little")
    size = packed.shape[1]
    blob = packed.tobytes()
    return [int.from_bytes(blob[k : k + size], "little") for k in range(0, len(blob), size)]


def extract_events_batch(syndromes: np.ndarray) -> np.ndarray:
    """Per shot, the XOR of consecutive syndrome rows from the zero baseline."""
    events = syndromes.copy()
    events[:, 1:] ^= syndromes[:, :-1]
    return events


def _event_rows(syndromes: np.ndarray) -> np.ndarray:
    """Per shot and check type, its events as one row of cells in mask bit order."""
    shots, times, types, sites = syndromes.shape
    return extract_events_batch(syndromes).transpose(0, 2, 1, 3).reshape(shots, types, times * sites)


def event_masks(syndromes: np.ndarray) -> list[tuple[int, int]]:
    """Per shot, the star and the plaquette defect masks of its events."""
    events = _event_rows(syndromes)
    masks = iter(_masks(events.reshape(-1, events.shape[2])))
    return list(zip(masks, masks))
