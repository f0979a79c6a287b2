"""Noise model: depolarizing circuit noise plus a leakage channel.

Every gate consumes a fixed number of uniform draws from the shot's stream
whether or not anything fires, so a single (master_seed, shot_index) pair
pins the entire shot regardless of which events occur.

Leakage semantics
-----------------
* A gate leaks one of its eligible participants with total probability
  ``r * p`` (preparations instead use ``p_init_leak``); the victim is chosen
  uniformly among eligible participants.  The leak lands *after* the gate's
  ideal action, so the onset gate itself adds no extra Pauli.
* A leaked qubit is classical junk: single-qubit gates on it do nothing, and
  a two-qubit gate with exactly one leaked participant skips its ideal action
  and instead applies a uniformly random Pauli to the unleaked partner.
  A SWAP with a leaked participant therefore *fails to exchange* the states.
* A measurement outcome flips with probability ``p``.  Measuring a leaked
  qubit returns a fair coin instead.  Mid-circuit measurement is
  measure-and-reset: the qubit is reinitialized afterwards, so measurement
  clears leakage just like a preparation does.
* At final data readout a leaked carrier is an erasure: both frame bits are
  replaced by fair coin flips.

``side_policy`` chooses where gate leakage can land.  ``two_sided`` exposes
every gate participant; ``control_only`` models leakage intrinsic to the
two-qubit gate's control side, so only CNOT controls leak (single-qubit
gates and SWAPs carry none; preparations stay governed by ``p_init_leak``).
``site_filter`` further restricts victims by role (``all``, ``data_only``,
``ancilla_only``) or to a single CNOT layer (``cnot_ordinal:K``).  Filters
restrict leakage only, never depolarizing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import CNOT, H, PREP_Z, SWAP, FaultLocation

SIDE_POLICIES = ("two_sided", "control_only")
ANCILLA_ROLES = frozenset({"ancillaZ", "ancillaX", "spare"})


@dataclass(frozen=True)
class NoiseModel:
    p: float
    r: float = 0.0
    side_policy: str = "two_sided"
    site_filter: str = "all"
    p_init_leak: float = 0.0

    def __post_init__(self):
        if self.side_policy not in SIDE_POLICIES:
            raise ValueError(f"side_policy must be one of {SIDE_POLICIES}")
        _parse_site_filter(self.site_filter)
        if self.r < 0:
            raise ValueError("r must be >= 0")
        for name in ("p", "p_leak", "p_init_leak"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")

    @property
    def p_leak(self) -> float:
        return self.r * self.p

    def leak_victims(self, label: FaultLocation) -> tuple[int, ...]:
        """Positions within the gate eligible to receive the leak."""
        kind = label.kind
        one_sided = self.side_policy == "control_only"
        if kind in (PREP_Z, H):
            # the one-sided mechanism is intrinsic to two-qubit gates; under
            # control_only the single-qubit locations carry no leakage
            candidates = () if one_sided and kind == H else (0,)
        elif kind == CNOT:
            candidates = (0,) if one_sided else (0, 1)
        elif kind == SWAP:
            candidates = () if one_sided else (0, 1)
        else:  # measurement locations do not leak
            return ()
        if not candidates:
            return ()
        mode, ordinal = _parse_site_filter(self.site_filter)
        if mode == "cnot_ordinal":
            if kind != CNOT or label.cnot_ordinal != ordinal:
                return ()
            return candidates
        if mode == "data_only":
            return tuple(i for i in candidates if label.roles[i] == "data")
        if mode == "ancilla_only":
            return tuple(i for i in candidates if label.roles[i] in ANCILLA_ROLES)
        return candidates

    def leak_prob(self, label: FaultLocation) -> float:
        if label.kind == PREP_Z:
            return self.p_init_leak
        if label.kind in (H, CNOT, SWAP):
            return self.p_leak
        return 0.0


def _parse_site_filter(site_filter: str) -> tuple[str, int]:
    if site_filter in ("all", "data_only", "ancilla_only"):
        return site_filter, 0
    if site_filter.startswith("cnot_ordinal:"):
        ordinal = int(site_filter.split(":", 1)[1])
        if ordinal not in (1, 2, 3, 4):
            raise ValueError("cnot_ordinal filter requires K in 1..4")
        return "cnot_ordinal", ordinal
    raise ValueError(f"unrecognized site_filter {site_filter!r}")

