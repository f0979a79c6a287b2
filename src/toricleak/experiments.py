"""Monte-Carlo experiment harness: configs, sweeps, fits, comparisons.

A sweep runs one circuit variant over a (d, p) grid, counting logical
failures with the vectorized simulator and the exact matching decoder.
Determinism contract: every shot draws its randomness from
``(master_seed, shot_index)`` alone and the stopping rule is evaluated on
cumulative counts at fixed batch boundaries, so the emitted CSV is
byte-identical for any worker count.  The legs of one distance share a
program and so the draws of each shot: they run as one group on common
draws (``vector.run_group``), each chunk drawn once for every active leg.
Their estimates are therefore positively correlated, which
``fit_exponent`` does not model.

The logical error rate of a distance-d memory follows ``P_L = A * p**s``
with ``s = ceil(d/2)`` when every single fault is correctable and a
degraded exponent when leakage introduces critical single-fault
locations; ``fit_exponent`` estimates ``s`` by variance-weighted least
squares on log-log points, using only points with ``p > 0`` (a log-log
point exists), at least 100 failures and ``P_L < 0.3`` (below saturation).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .circuits import VARIANTS, build_program
from .decoder import Decoder
from .noise import NoiseModel
from .sim import compile_program
from .vector import run_group

CONFIG_VERSION = "toricleak-config v1"
COMPARE_VERSION = "toricleak-compare v1"
FIT_VERSION = "toricleak-fit v1"

TABLE_COLUMNS = (
    "variant",
    "d",
    "rounds",
    "p",
    "r",
    "side_policy",
    "site_filter",
    "p_init_leak",
    "shots",
    "failures",
    "p_logical",
    "ci_low",
    "ci_high",
    "master_seed",
)

BATCH_SHOTS = 10_000  # stopping rule is checked only at these boundaries

MIN_FIT_POINTS = 3
FIT_MIN_FAILURES = 100
FIT_MAX_RATE = 0.3


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class InsufficientData(ValueError):
    """Too few qualifying points, or distinct p, for a fit (CLI exit code 3)."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    variant: str
    d: tuple[int, ...] = (3,)
    rounds: int | None = None  # None -> d noisy rounds per leg
    p: tuple[float, ...] = (1e-3, 2e-3, 3e-3, 5e-3)
    r: float = 1.0
    side_policy: str = "two_sided"
    site_filter: str = "all"
    p_init_leak: float | str = 0.0  # float or "r*p" (scales with each point)
    shots: int | None = None
    target_failures: int | None = None
    max_shots: int = 1_000_000
    master_seed: int = 0
    out: str | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant: unknown {self.variant!r}")
        if not self.d or any(dd < 3 or dd % 2 == 0 for dd in self.d):
            raise ConfigError("d: each distance must be odd and >= 3")
        if self.rounds is not None and self.rounds < 1:
            raise ConfigError("rounds: must be >= 1")
        if not self.p or any(not 0.0 <= pp <= 0.2 for pp in self.p):
            raise ConfigError("p: each rate must lie in [0, 0.2]")
        if self.r < 0:
            raise ConfigError("r: must be >= 0")
        if isinstance(self.p_init_leak, str):
            if self.p_init_leak != "r*p":
                raise ConfigError("p_init_leak: float or the literal r*p")
        elif not 0.0 <= self.p_init_leak <= 1.0:
            raise ConfigError("p_init_leak: must lie in [0, 1]")
        if (self.shots is None) == (self.target_failures is None):
            raise ConfigError("exactly one of shots / target_failures is required")
        if self.shots is not None and self.shots < 1:
            raise ConfigError("shots: must be >= 1")
        if self.target_failures is not None and self.target_failures < 1:
            raise ConfigError("target_failures: must be >= 1")
        if self.max_shots < 1:
            raise ConfigError("max_shots: must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed: must fit in an unsigned 64-bit int")
        # eager validation of every grid point via the noise model's own checks
        try:
            for p in self.p:
                self.noise_at(p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def init_leak_at(self, p: float) -> float:
        if self.p_init_leak == "r*p":
            return self.r * p
        return float(self.p_init_leak)

    def noise_at(self, p: float) -> NoiseModel:
        """The noise model of grid point ``p``."""
        return NoiseModel(p=p, r=self.r, side_policy=self.side_policy,
                          site_filter=self.site_filter, p_init_leak=self.init_leak_at(p))


_INT_KEYS = {"rounds", "shots", "target_failures", "max_shots", "master_seed"}
_FLOAT_KEYS = {"r"}
_LIST_KEYS = {"d", "p"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the versioned key-value config format (unknown keys are errors)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != CONFIG_VERSION:
        raise ConfigError(f"first line must be {CONFIG_VERSION!r}")
    fields: dict = {}
    valid = set(ExperimentConfig.__dataclass_fields__)
    for ln in lines[1:]:
        if "=" not in ln:
            raise ConfigError(f"expected key = value, got {ln!r}")
        key, _, raw = ln.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in valid:
            raise ConfigError(f"unknown key {key!r}")
        if key in fields:
            raise ConfigError(f"duplicate key {key!r}")
        try:
            if key in _LIST_KEYS:
                parts = [s.strip() for s in raw.split(",") if s.strip()]
                fields[key] = tuple(
                    int(s) if key == "d" else float(s) for s in parts
                )
            elif key in _INT_KEYS:
                fields[key] = int(raw)
            elif key in _FLOAT_KEYS:
                fields[key] = float(raw)
            elif key == "p_init_leak":
                fields[key] = raw if raw == "r*p" else float(raw)
            else:
                fields[key] = raw
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if "variant" not in fields:
        raise ConfigError("missing key 'variant'")
    return ExperimentConfig(**fields)


def _fmt(value) -> str:
    # repr of a float is its shortest exact decimal form, so every text
    # format round-trips losslessly
    return repr(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# statistics


def wilson_interval(failures: int, shots: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate."""
    if shots == 0:
        return 0.0, 1.0
    z, phat = 1.96, failures / shots  # z: the two-sided 95% normal quantile
    denom = 1.0 + z * z / shots
    center = (phat + z * z / (2 * shots)) / denom
    half = z * math.sqrt(phat * (1 - phat) / shots + z * z / (4 * shots * shots)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    variant: str
    d: int
    rounds: int
    p: float
    r: float
    side_policy: str
    site_filter: str
    p_init_leak: float
    shots: int
    failures: int
    master_seed: int
    # per-logical-parity counts (ZH, ZV, XH, XV); not part of the CSV schema
    failures_by_logical: tuple[int, int, int, int] | None = None

    @property
    def p_logical(self) -> float:
        return self.failures / self.shots if self.shots else 0.0

    @property
    def interval(self) -> tuple[float, float]:
        return wilson_interval(self.failures, self.shots)


@lru_cache(maxsize=8)
def _built(variant: str, d: int, rounds: int):
    """The program and the decoder that every leg of ``(variant, d, rounds)`` shares."""
    program = build_program(variant, d, rounds)
    return program, Decoder(program.lattice)


@lru_cache(maxsize=32)
def _compiled_leg(variant: str, d: int, rounds: int, noise: NoiseModel):
    program, decoder = _built(variant, d, rounds)
    return compile_program(program, noise), decoder


def _count_failures(legs: tuple, master_seed: int, start: int, n_shots: int) -> np.ndarray:
    """Per leg of ``legs``, each ``(variant, d, rounds, noise)`` of one
    program, one row of counts in one part of a batch: its failures, then
    its failures per logical parity.  All legs run on common draws, in one
    ``run_group`` call."""
    compiled = [_compiled_leg(*leg) for leg in legs]
    rows = run_group([program for program, _ in compiled], master_seed, start, n_shots)
    judges = [decoder.judge_batch(leg_rows) for (_, decoder), leg_rows in zip(compiled, rows)]
    return np.array([[judge.any(axis=1).sum(), *(judge[..., None] >> np.arange(2) & 1).sum(axis=0).ravel()]
                     for judge in judges], dtype=np.int64)


def _chunks(start: int, n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous split of [start, start+n) — identical union for any count."""
    base, extra = divmod(n, workers)
    out = []
    offset = start
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        if size:
            out.append((offset, size))
        offset += size
    return out


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[SweepRow]:
    """Run every (d, p) leg of the sweep; deterministic for fixed seed.

    The legs of one distance share a program, so they run as one group:
    batch by batch in lockstep, each batch's draws made once for all of its
    legs (``run_group``), until each leg's own stopping rule ends it.  The
    shots of each batch split into ``workers`` parts; the pool that runs
    them holds at most one process per CPU.
    """
    if workers < 1:
        raise ConfigError("workers: must be >= 1")
    budget = config.shots if config.shots is not None else config.max_shots
    rows = []
    pool = None
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which a one-process sweep never needs
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1))
    try:
        for d in config.d:
            rounds = config.rounds if config.rounds is not None else d
            legs = [(config.variant, d, rounds, config.noise_at(p)) for p in config.p]
            counts = np.zeros((len(legs), 5), dtype=np.int64)  # per leg: failures, then per logical
            shots = np.zeros(len(legs), dtype=np.int64)
            active = np.arange(len(legs))
            done = 0  # shots every active leg has run
            while len(active) and done < budget:
                batch = min(BATCH_SHOTS, budget - done)
                group = tuple(legs[k] for k in active)
                parts = _chunks(done, batch, workers)
                if pool is None:
                    counted = [_count_failures(group, config.master_seed, s, n) for s, n in parts]
                else:
                    counted = pool.map(
                        _count_failures,
                        *zip(*((group, config.master_seed, s, n) for s, n in parts)),
                    )
                counts[active] += sum(counted)
                done += batch
                shots[active] = done
                if config.target_failures is not None:
                    active = active[counts[active, 0] < config.target_failures]
            rows += [SweepRow(config.variant, d, rounds, p, config.r, config.side_policy,
                              config.site_filter, config.init_leak_at(p), int(shots[k]),
                              int(counts[k, 0]), config.master_seed,
                              tuple(int(c) for c in counts[k, 1:]))
                     for k, p in enumerate(config.p)]
    finally:
        if pool is not None:
            pool.shutdown()
    return rows


# ---------------------------------------------------------------------------
# result tables


def rows_to_csv(rows: list[SweepRow]) -> str:
    out = [",".join(TABLE_COLUMNS)]
    for row in rows:
        lo, hi = row.interval
        out.append(",".join((
            row.variant,
            str(row.d),
            str(row.rounds),
            _fmt(row.p),
            _fmt(row.r),
            row.side_policy,
            row.site_filter,
            _fmt(row.p_init_leak),
            str(row.shots),
            str(row.failures),
            _fmt(row.p_logical),
            _fmt(lo),
            _fmt(hi),
            str(row.master_seed),
        )))
    return "\n".join(out) + "\n"


def csv_to_rows(text: str) -> list[SweepRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or tuple(lines[0].split(",")) != TABLE_COLUMNS:
        raise ConfigError("result CSV header does not match the schema")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != len(TABLE_COLUMNS):
            raise ConfigError(f"malformed CSV row: {ln!r}")
        try:
            shots, failures = int(f[8]), int(f[9])
            if not 0 <= failures <= shots:  # counts that no sweep produces
                raise ValueError(f"{failures} failures in {shots} shots")
            rows.append(SweepRow(
                variant=f[0], d=int(f[1]), rounds=int(f[2]), p=float(f[3]),
                r=float(f[4]), side_policy=f[5], site_filter=f[6],
                p_init_leak=float(f[7]), shots=shots, failures=failures,
                master_seed=int(f[13]),
            ))
        except ValueError as exc:
            raise ConfigError(f"malformed CSV row: {ln!r} ({exc})") from exc
    return rows


# ---------------------------------------------------------------------------
# exponent fits


@dataclass(frozen=True)
class FitResult:
    variant: str
    d: int
    exponent: float
    stderr: float
    amplitude: float  # P_L ~ amplitude * p**exponent
    points_used: int
    window: tuple[float, float]  # p range actually fitted


def _qualifying(rows: list[SweepRow]) -> list[SweepRow]:
    return [r for r in rows
            if r.p > 0 and r.failures >= FIT_MIN_FAILURES and r.p_logical < FIT_MAX_RATE]


def fit_exponent(rows: list[SweepRow], variant: str | None = None,
                 d: int | None = None) -> FitResult:
    """Variance-weighted log-log slope over the qualifying points."""
    sel = [r for r in rows
           if (variant is None or r.variant == variant)
           and (d is None or r.d == d)]
    variants = {r.variant for r in sel}
    dists = {r.d for r in sel}
    if len(variants) > 1 or len(dists) > 1:
        raise ConfigError("fit selection spans multiple variants or distances")
    pts = _qualifying(sel)
    if len(pts) < MIN_FIT_POINTS:
        raise InsufficientData(
            f"{len(pts)} qualifying points "
            f"(need >= {MIN_FIT_POINTS}: p > 0, failures >= {FIT_MIN_FAILURES} "
            f"and P_L < {FIT_MAX_RATE})")
    if len({r.p for r in pts}) < 2:
        raise InsufficientData(f"{len(pts)} qualifying points share one p, so no slope is defined")
    xs = np.array([math.log(r.p) for r in pts])
    ys = np.array([math.log(r.p_logical) for r in pts])
    ws = []
    for r in pts:
        lo, hi = r.interval
        sigma_log = (hi - lo) / (2 * r.p_logical)
        ws.append(1.0 / (sigma_log * sigma_log))
    ws = np.array(ws)
    xm = float(np.average(xs, weights=ws))
    ym = float(np.average(ys, weights=ws))
    sxx = float(np.sum(ws * (xs - xm) ** 2))
    slope = float(np.sum(ws * (xs - xm) * (ys - ym))) / sxx
    stderr = math.sqrt(1.0 / sxx)
    amplitude = math.exp(ym - slope * xm)
    return FitResult(pts[0].variant, pts[0].d, slope, stderr, amplitude,
                     len(pts), (min(r.p for r in pts), max(r.p for r in pts)))


def fit_report(fits: list[FitResult]) -> str:
    out = [FIT_VERSION]
    for f in fits:
        out.append(
            f"variant={f.variant} d={f.d} exponent={f.exponent:.4f} "
            f"stderr={f.stderr:.4f} amplitude={f.amplitude:.6g} "
            f"points={f.points_used} window={_fmt(f.window[0])}..{_fmt(f.window[1])}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# comparisons and plot data


def compare_variants(rows_a: list[SweepRow], rows_b: list[SweepRow]) -> str:
    """Per-p ordering of two one-series tables; significance = disjoint 95% Wilson intervals."""
    by_p_a = {r.p: r for r in rows_a}
    by_p_b = {r.p: r for r in rows_b}
    if len(by_p_a) < len(rows_a) or len(by_p_b) < len(rows_b):
        raise ConfigError("a compared table has more than one row per p")
    if sorted(by_p_a) != sorted(by_p_b):
        raise ConfigError("compared tables have mismatched p grids")
    name_a = rows_a[0].variant if rows_a else "a"
    name_b = rows_b[0].variant if rows_b else "b"
    if name_a == name_b:
        name_a, name_b = f"{name_a}[a]", f"{name_b}[b]"
    out = [COMPARE_VERSION]
    for p in sorted(by_p_a):
        ra, rb = by_p_a[p], by_p_b[p]
        lo_a, hi_a = ra.interval
        lo_b, hi_b = rb.interval
        if ra.p_logical < rb.p_logical:
            lower, significant = name_a, hi_a < lo_b
        elif rb.p_logical < ra.p_logical:
            lower, significant = name_b, hi_b < lo_a
        else:
            lower, significant = "tie", False
        out.append(
            f"p={_fmt(p)} {name_a}={_fmt(ra.p_logical)}"
            f"[{_fmt(lo_a)},{_fmt(hi_a)}] {name_b}={_fmt(rb.p_logical)}"
            f"[{_fmt(lo_b)},{_fmt(hi_b)}] lower={lower} "
            f"significant={'yes' if significant else 'no'}")
    return "\n".join(out) + "\n"


def emit_plot_data(rows: list[SweepRow], prefix: str) -> list[str]:
    """One series CSV per (variant, d), plus a fit overlay when fittable."""
    groups: dict[tuple[str, int], list[SweepRow]] = {}
    for row in rows:
        groups.setdefault((row.variant, row.d), []).append(row)
    if not groups:
        raise ConfigError("empty result table")
    paths = []
    for (variant, d), grp in sorted(groups.items()):
        grp = sorted(grp, key=lambda r: r.p)
        series = f"{prefix}-{variant}-d{d}.csv"
        with open(series, "w") as fh:
            fh.write(rows_to_csv(grp))
        paths.append(series)
        try:
            fit = fit_exponent(grp)
        except InsufficientData:
            continue
        overlay = f"{prefix}-{variant}-d{d}-fit.csv"
        with open(overlay, "w") as fh:
            fh.write("p,p_logical_fit\n")
            for row in grp:
                fh.write(f"{_fmt(row.p)},{_fmt(fit.amplitude * row.p ** fit.exponent)}\n")
        paths.append(overlay)
    return paths
