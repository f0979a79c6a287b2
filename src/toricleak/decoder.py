"""Spacetime minimum-weight perfect matching decoder for the torus.

Detection events are differences of consecutive syndrome rounds (round -1 is
the all-zero baseline; the last row is the noiseless readout round).  One
check type's events are one row of cells: cell ``t * d*d + site`` is the
event of the check at ``site`` in round ``t``, so ascending cells are
ascending ``(t, site)``.  Events of each check type are matched in
spacetime with weight = torus Manhattan distance + time separation,
exactly: a subset DP for up to 16 defects, an exact blossom matching
(``blossom``, a port of NetworkX's) of the row's cells in order where the
DP cannot decide.

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
and the scanner both read, and ``Decoder.parities`` is their one route.  It
takes rows of event cells (the shots of ``judge_batch``, the scanner's span
points) and runs every row of at most 16 defects through a subset DP laid
out in layers (``_dp_layers``).  The DP is top down: a state's pivot is its
lowest defect, which pairs with each other defect in ascending order, and
only a strictly lower weight replaces the incumbent, so ties go to the
lowest partner.  Its states are the sub-masks it reaches from a row's n
cells, and one numpy pass per state size settles every state of that size
for all rows of n defects at once.  Each state keeps its minimum weight,
the parities of the DP's own choice, and an ambiguous bit: set when a tied
partner leads to other parities or to an ambiguous sub-state, so by
induction on the state size it is clear exactly when all the state's
minimum-weight matchings have one parity.  Up to 10 defects a row takes the
DP's parities.  Above, the rule is blossom's matching, which is of minimum
weight (``blossom._check_optimum`` proves it), so when the bit is clear it
has the DP's parities; only ambiguous rows and rows above 16 go to blossom.
The decoder keeps no matching cache.
"""

from __future__ import annotations

import functools

import numpy as np

from .blossom import min_weight_perfect_matching
from .lattice import ToricLattice

_DP_LIMIT = 10  # the subset DP's parities up to here, blossom's matching above
_CERTIFY_LIMIT = 16  # the batched DP takes rows up to here; partner ranks fit 4 key bits
_PASS_CELLS = 1 << 18  # (row, step) cells of one DP layer pass: memory follows the pass, not the batch


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
        # [check type, s1, s2] -> (torus distance, crossing parities); blossom reads its list form
        self._table = np.stack([np.stack((dist, par), axis=-1) for par in parities])
        self._pairs = self._table.tolist()

    def _blossom(self, check_type: int, cells: np.ndarray) -> int:
        """The crossing parities of blossom's matching of one row of cells."""
        times, sites = np.divmod(np.flatnonzero(cells), self._sites)
        dist = self._table[check_type, sites[:, None], sites, 0]
        w = (dist + np.abs(times[:, None] - times)).tolist()
        sites, pairs = sites.tolist(), self._pairs[check_type]
        par = 0
        for i, j in enumerate(min_weight_perfect_matching(w)):
            if i < j:
                par ^= pairs[sites[i]][sites[j]][1]
        return par

    def judge_batch(self, syndromes: np.ndarray, data_x: np.ndarray, data_z: np.ndarray) -> np.ndarray:
        """Per-shot judge bits (X_L1, X_L2, Z_L1, Z_L2) for a stacked batch:
        the readout parities XOR each check type's ``parities`` of the
        shots' event rows."""
        judge = self.lat.logical_parities(data_x, data_z)
        events = event_rows(syndromes)
        par = np.stack([self.parities(ct, events[:, ct]) for ct in range(events.shape[1])], axis=1)
        judge[:, 0::2] ^= par & 1
        judge[:, 1::2] ^= par >> 1
        return judge

    def parities(self, check_type: int, cells: np.ndarray) -> np.ndarray:
        """The crossing parities of the minimum-weight perfect matching of
        each row of 0/1 event cells of one check type, a pair weighing its
        torus distance plus its time separation; bits 0-1 are the check
        type's two judge bits.

        Rows of at most ``_CERTIFY_LIMIT`` defects run through the layered
        subset DP (``_match_rows``) per defect count, as many per pass as
        fit ``_PASS_CELLS`` (row, step) cells, and take its parities up to
        ``_DP_LIMIT`` defects, above when their ambiguous bit is clear; the
        rest go to blossom one at a time.  An odd row raises ``ValueError``.
        """
        counts = cells.sum(axis=1)
        if (counts % 2).any():
            raise ValueError("odd number of defects cannot be matched")
        par = np.zeros(len(cells), dtype=np.uint8)
        one_by_one = [np.flatnonzero(counts > _CERTIFY_LIMIT)]
        for n in range(2, _CERTIFY_LIMIT + 1, 2):
            rows = np.flatnonzero(counts == n)
            if not len(rows):
                continue
            widest = max(len(sub) for _, _, sub, _ in _dp_layers(n)[1])
            step = max(1, _PASS_CELLS // widest)
            for lo in range(0, len(rows), step):
                part = rows[lo : lo + step]
                _, par[part], ambiguous = self._match_rows(check_type, cells[part], n)
                if n > _DP_LIMIT:
                    one_by_one.append(part[ambiguous])
        one_by_one = np.concatenate(one_by_one)
        for row in one_by_one:
            par[row] = self._blossom(check_type, cells[row])
        return par

    def _match_rows(self, check_type: int, cells: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
        """For rows of n events each: the minimum matching weight, the subset
        DP's crossing parities, and whether the row's minimum-weight
        matchings disagree in parity (its ambiguous bit)."""
        times, sites = np.divmod(np.nonzero(cells)[1].reshape(-1, n).T, self._sites)
        i, j = np.triu_indices(n, 1)
        pair = self._table[check_type, sites[i], sites[j]]  # (pairs, rows, 2)
        pair_weight = (pair[..., 0] + np.abs(times[i] - times[j])).astype(np.int32)
        pair_par = pair[..., 1].astype(np.uint8)
        n_states, layers = _dp_layers(n)
        # per state and row: minimum weight, and the first minimum's parity | ambiguous << 2
        weight = np.zeros((n_states, len(cells)), dtype=np.int32)
        state = np.zeros((n_states, len(cells)), dtype=np.uint8)
        for lo, hi, sub, pivot_pair in layers:
            shape = (hi - lo, -1, len(cells))
            cand = (weight[sub] + pair_weight[pivot_pair]).reshape(shape)
            # strict < keeps the first minimum: the lowest partner rank breaks ties
            key = (cand << 4 | np.arange(cand.shape[1], dtype=np.int32)[:, None]).min(axis=1)
            best = key >> 4
            steps = (state[sub] ^ pair_par[pivot_pair]).reshape(shape)
            chosen = np.take_along_axis(steps, (key & 15)[:, None], axis=1)[:, 0]
            # a tied step with another parity, or with an ambiguous sub-state, splits the state
            split = ((cand == best[:, None]) & (steps != chosen[:, None])).any(axis=1)
            weight[lo:hi] = best
            state[lo:hi] = chosen | split << np.uint8(2)
        return weight[-1], state[-1] & 3, state[-1] >> 2 != 0


@functools.cache
def _dp_layers(n: int) -> tuple[int, list[tuple[int, int, np.ndarray, np.ndarray]]]:
    """The states and steps of the top-down subset DP on n indices, by layer.

    The states are the sub-masks the DP reaches from all n indices: a
    state's pivot is its lowest index, which pairs with each other index in
    ascending order (its steps), leaving a sub-state two smaller.  States
    are numbered by size, the empty one 0 and the full one last.  Each layer
    (one state size) is ``(lo, hi, sub, pivot_pair)``: its states are numbers
    ``lo .. hi - 1`` and its steps run state by state, partner by partner,
    giving each step's sub-state number and the number of its pivot pair
    ``(i, j)``, ``i < j``, in ``np.triu_indices(n, 1)`` order.
    """
    number = np.zeros((n, n), dtype=np.intp)
    number[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    steps = {}  # state mask -> its (sub-state mask, pivot pair number) steps, in order
    by_size = [[(1 << n) - 1]]
    while len(by_size) <= n // 2:
        for mask in by_size[-1]:
            pivot = (mask & -mask).bit_length() - 1
            steps[mask] = [(mask ^ 1 << pivot ^ 1 << k, number[pivot, k])
                           for k in range(pivot + 1, n) if mask >> k & 1]
        by_size.append(sorted({sub for mask in by_size[-1] for sub, _ in steps[mask]}))
    by_size.reverse()
    index = {mask: k for k, mask in enumerate(m for size in by_size for m in size)}
    layers = []
    for masks in by_size[1:]:
        subs, pairs = zip(*(step for mask in masks for step in steps[mask]))
        lo = index[masks[0]]
        layers.append((lo, lo + len(masks), np.array([index[m] for m in subs]), np.array(pairs)))
    return len(index), layers


def extract_events_batch(syndromes: np.ndarray) -> np.ndarray:
    """Per shot, the XOR of consecutive syndrome rows from the zero baseline."""
    events = syndromes.copy()
    events[:, 1:] ^= syndromes[:, :-1]
    return events


def event_rows(syndromes: np.ndarray) -> np.ndarray:
    """Per shot and check type, its events as one row of cells."""
    shots, times, types, sites = syndromes.shape
    return extract_events_batch(syndromes).transpose(0, 2, 1, 3).reshape(shots, types, times * sites)
