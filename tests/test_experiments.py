"""Config parsing, sweeps, interval statistics and power-law fits."""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import serialize_config
from toricleak import experiments
from toricleak.experiments import (
    BATCH_SHOTS,
    ConfigError,
    ExperimentConfig,
    InsufficientData,
    SweepRow,
    compare_variants,
    csv_to_rows,
    emit_plot_data,
    fit_exponent,
    parse_config,
    rows_to_csv,
    run_sweep,
    wilson_interval,
)

GOLDEN = Path(__file__).parent / "golden"

BASE_CONFIG = """toricleak-config v1
variant = standard
d = 3
p = 0.003
shots = 2000
master_seed = 9
"""


def _cfg(**overrides) -> ExperimentConfig:
    fields = dict(variant="standard", d=(3,), p=(3e-3,), shots=2000, master_seed=9)
    fields.update(overrides)
    return ExperimentConfig(**fields)


def _fake_row(p, shots, failures, variant="standard", d=3) -> SweepRow:
    return SweepRow(variant, d, d, p, 1.0, "two_sided", "all", 0.0,
                    shots, failures, 0)


# --- configuration ---------------------------------------------------------


def test_config_round_trips_through_text():
    cfg = _cfg(d=(3, 5), p=(1e-3, 2e-3, 5e-3), r=0.25, site_filter="data_only",
               p_init_leak="r*p", shots=None, target_failures=300,
               max_shots=50_000, out="res.csv")
    assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=40, deadline=None)
@given(
    d=st.lists(st.sampled_from([3, 5, 7]), min_size=1, max_size=2, unique=True),
    p=st.lists(st.floats(1e-5, 0.2), min_size=1, max_size=4, unique=True),
    r=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**64 - 1),
    shots=st.integers(1, 10**6),
)
def test_config_round_trip_property(d, p, r, seed, shots):
    cfg = ExperimentConfig(variant="swap_lrc", d=tuple(d), p=tuple(p), r=r,
                           shots=shots, master_seed=seed)
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("mutation,needle", [
    ("bogus = 1", "unknown key"),
    ("p = 0.5", "duplicate"),
    ("shots = none", "shots"),
])
def test_config_rejects_bad_lines(mutation, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(BASE_CONFIG + mutation + "\n")


def test_config_rejects_wrong_version_line():
    with pytest.raises(ConfigError, match="toricleak-config v1"):
        parse_config("toricleak-config v2\nvariant = standard\nshots = 1\n")


@pytest.mark.parametrize("overrides", [
    dict(variant="nope"),
    dict(d=(4,)),
    dict(p=(0.3,)),
    dict(p=(-1e-3,)),
    dict(r=-0.5),
    dict(p_init_leak="p*r"),
    dict(shots=0),
    dict(shots=None),  # neither budget mode set
    dict(shots=100, target_failures=10),  # both budget modes set
    dict(master_seed=2**64),
    dict(side_policy="sideways"),
    dict(site_filter="cnot_ordinal:9"),
])
def test_config_validates_fields(overrides):
    with pytest.raises(ConfigError):
        _cfg(**overrides)


# --- statistics ------------------------------------------------------------


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo <= 1e-12 and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1 and hi >= 1 - 1e-12
    lo, hi = wilson_interval(10, 100)
    assert lo < 0.1 < hi
    assert wilson_interval(10, 100)[1] - wilson_interval(10, 100)[0] > \
        wilson_interval(100, 1000)[1] - wilson_interval(100, 1000)[0]


@pytest.mark.parametrize("seed,p_true,n", [(999, 0.1, 500), (12345, 0.1, 500)])
def test_wilson_interval_coverage(seed, p_true, n):
    """Empirical 95% coverage stays in the 93-97% band over 1000 draws."""
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(1000):
        k = rng.binomial(n, p_true)
        lo, hi = wilson_interval(k, n)
        hits += lo <= p_true <= hi
    assert 0.93 <= hits / 1000 <= 0.97


# --- fits ------------------------------------------------------------------


def test_fit_recovers_exact_power_law():
    rows = [_fake_row(p, 10**7, round(0.5 * p**2 * 10**7))
            for p in (0.01, 0.02, 0.04, 0.08)]
    fit = fit_exponent(rows)
    assert math.isclose(fit.exponent, 2.0, abs_tol=1e-6)
    assert math.isclose(fit.amplitude, 0.5, rel_tol=1e-4)
    assert fit.points_used == 4
    assert fit.window == (0.01, 0.08)


def test_fit_drops_saturated_and_starved_points():
    rows = [
        _fake_row(1e-4, 1000, 20),      # < 100 failures: excluded
        _fake_row(0.01, 10**6, 50_000),
        _fake_row(0.02, 10**6, 200_000),
        _fake_row(0.04, 10**6, 800_000),  # P_L = 0.8: excluded
        _fake_row(0.03, 10**6, 250_000),
    ]
    fit = fit_exponent(rows)
    assert fit.points_used == 3
    assert fit.window == (0.01, 0.03)


def test_fit_needs_three_qualifying_points():
    rows = [_fake_row(0.01, 10**6, 50_000), _fake_row(0.02, 10**6, 200_000)]
    with pytest.raises(InsufficientData):
        fit_exponent(rows)


def test_fit_needs_two_distinct_p():
    """Three qualifying rows at one p (two seeds' tables joined, say) leave
    the slope to float noise in the spread of log p; no fit is made."""
    rows = [_fake_row(1e-3, 10**5, failures) for failures in (200, 201, 202)]
    with pytest.raises(InsufficientData, match="share one p"):
        fit_exponent(rows)
    fit = fit_exponent(rows + [_fake_row(2e-3, 10**5, 800)])
    assert fit.points_used == 4 and fit.window == (1e-3, 2e-3)


def test_fit_refuses_mixed_series():
    rows = [_fake_row(0.01, 10**6, 1000, d=3), _fake_row(0.01, 10**6, 1000, d=5)]
    with pytest.raises(ConfigError):
        fit_exponent(rows)
    with pytest.raises(InsufficientData):
        fit_exponent(rows, d=3)  # the d filter leaves a single point


# --- sweeps ----------------------------------------------------------------


def test_zero_rate_sweep_never_fails():
    row = run_sweep(_cfg(p=(0.0,), shots=500))[0]
    assert row.failures == 0
    assert row.p_logical == 0.0
    assert row.failures_by_logical == (0, 0, 0, 0)


def test_saturated_sweep_hits_the_random_guess_ceiling():
    """At p = 0.2 the matcher output is uncorrelated with the 4 logical
    parities, so the overall fail flag saturates at 1 - 2**-4."""
    row = run_sweep(_cfg(p=(0.2,), r=0.0, shots=2000, master_seed=3))[0]
    lo, hi = row.interval
    assert lo <= 1 - 2**-4 <= hi
    assert all(c > 0 for c in row.failures_by_logical)


def test_overall_flag_bounded_by_logical_breakdown():
    row = run_sweep(_cfg(p=(0.01,), shots=3000))[0]
    assert max(row.failures_by_logical) <= row.failures <= sum(row.failures_by_logical)


def test_target_failures_stops_at_batch_boundary():
    # the first batch already holds the target (P_L ~ 0.14 at p = 3e-3)
    cfg = _cfg(shots=None, target_failures=30, max_shots=100_000)
    row = run_sweep(cfg)[0]
    assert row.failures >= 30
    assert row.shots <= 100_000
    assert row.shots == BATCH_SHOTS


def test_shot_cap_wins_over_unreachable_target():
    cfg = _cfg(p=(0.0,), shots=None, target_failures=5, max_shots=600)
    row = run_sweep(cfg)[0]
    assert row.shots == 600 and row.failures == 0


def test_sweep_is_deterministic_across_worker_counts():
    cfg = _cfg(p=(3e-3, 5e-3), shots=4000)
    assert rows_to_csv(run_sweep(cfg, workers=1)) == \
        rows_to_csv(run_sweep(cfg, workers=3))


def test_sweep_pool_holds_at_most_one_process_per_cpu(monkeypatch):
    """``workers`` above the CPU count still splits every batch that many
    ways, but the pool is capped, so no idle interpreters are forked."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = _cfg(p=(3e-3, 5e-3), shots=4000)
    assert rows_to_csv(run_sweep(cfg, workers=8)) == rows_to_csv(run_sweep(cfg, workers=1))
    assert pools == [2]


def test_importing_experiments_imports_no_multiprocessing():
    """The process pool is imported only by a sweep that runs one, so a
    one-process sweep pays no ``multiprocessing`` import."""
    src = Path(experiments.__file__).parents[1]
    code = "import sys, toricleak.experiments; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("workers", [0, -1])
def test_sweep_rejects_a_worker_count_below_one(workers):
    """No count below 1 runs: 0 would split nothing, and -1 would report the
    full budget with no shot run."""
    with pytest.raises(ConfigError, match="workers"):
        run_sweep(_cfg(shots=500), workers=workers)


def test_smaller_distance_fails_more_without_leakage():
    cfg = _cfg(d=(3, 5), p=(1e-3,), r=0.0, shots=12_000, master_seed=3)
    by_d = {row.d: row for row in run_sweep(cfg, workers=2)}
    assert by_d[5].p_logical < by_d[3].p_logical
    assert by_d[5].interval[1] < by_d[3].interval[0]


# --- tables, comparisons, plot data ----------------------------------------


def test_sweep_legs_are_keyed_on_the_config_noise_model():
    """A grid point becomes its noise model in ``noise_at`` alone, and the
    sweep compiles each leg for exactly that model."""
    config = ExperimentConfig(variant="standard", d=(3,), rounds=1, p=(1e-3, 2e-3), r=2.0,
                              p_init_leak="r*p", shots=20)
    experiments._compiled_leg.cache_clear()
    run_sweep(config)
    for p in config.p:
        noise = config.noise_at(p)
        assert (noise.p, noise.r, noise.p_init_leak) == (p, 2.0, 2.0 * p)
        compiled, _ = experiments._compiled_leg("standard", 3, 1, noise)
        assert compiled.noise == noise
    assert experiments._compiled_leg.cache_info().hits == len(config.p)


def test_sweep_reproduces_golden_csv():
    """Frozen Monte-Carlo verdicts: 10,000 mixed_lrc d=3 shots at seed 7,
    rebuilt byte for byte (``scripts/make_goldens.py`` writes the file)."""
    config = ExperimentConfig(variant="mixed_lrc", d=(3,), p=(1e-3, 2e-3, 3e-3, 5e-3),
                              r=1.0, shots=2500, master_seed=7)
    golden = (GOLDEN / "sweep_mixed_lrc_d3_seed7.csv").read_text()
    assert rows_to_csv(run_sweep(config)) == golden


def test_sweep_reproduces_the_frozen_d5_benchmark_csv():
    """Frozen d=5 verdicts, where most decodes take 12 or more defects: the
    ``sweep_d5`` benchmark's 2,000 standard d=5 shots at master seed 7,
    rebuilt byte for byte against ``perfbench/reference.json``, which this
    test only reads."""
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())
    table = reference["sweep_d5"]
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in table["config"].items()}
    config = ExperimentConfig(**fields, master_seed=7)
    assert config.d == (5,)
    assert rows_to_csv(run_sweep(config)) == table["7"]


def test_csv_round_trip_is_lossless():
    rows = run_sweep(_cfg(p=(2e-3, 4e-3), shots=1000, p_init_leak="r*p"))
    text = rows_to_csv(rows)
    back = csv_to_rows(text)
    assert rows_to_csv(back) == text
    assert [(r.p, r.shots, r.failures) for r in back] == \
        [(r.p, r.shots, r.failures) for r in rows]


def test_csv_reader_rejects_foreign_header():
    with pytest.raises(ConfigError):
        csv_to_rows("a,b,c\n1,2,3\n")


def test_compare_identical_runs_ties_everywhere():
    rows = run_sweep(_cfg(p=(0.01, 0.02), shots=1500))
    report = compare_variants(rows, rows)
    lines = report.splitlines()
    assert lines[0] == "toricleak-compare v1"
    assert all("lower=tie" in ln and "significant=no" in ln for ln in lines[1:])


def test_compare_rejects_mismatched_grids():
    with pytest.raises(ConfigError, match="mismatched"):
        compare_variants([_fake_row(0.01, 100, 1)], [_fake_row(0.02, 100, 1)])


@pytest.mark.parametrize("side", ["a", "b"])
def test_compare_rejects_tables_with_repeated_p(side):
    """Rows of several distances share a p; comparing them by p alone would
    keep only the last row of each p, so such a table is an error."""
    single = [_fake_row(0.01, 10_000, 100)]
    mixed = [_fake_row(0.01, 10_000, 500, d=3), _fake_row(0.01, 10_000, 50, d=5)]
    a, b = (mixed, single) if side == "a" else (single, mixed)
    with pytest.raises(ConfigError, match="more than one row"):
        compare_variants(a, b)


def test_compare_flags_disjoint_intervals():
    a = [_fake_row(0.01, 10_000, 100)]
    b = [_fake_row(0.01, 10_000, 500, variant="swap_alt")]
    report = compare_variants(a, b)
    assert "lower=standard" in report and "significant=yes" in report


def test_plot_data_emits_series_and_overlay(tmp_path):
    rows = []
    for variant in ("standard", "swap_lrc"):
        rows += [_fake_row(p, 10**6, round(0.5 * p**2 * 10**6), variant=variant)
                 for p in (0.01, 0.02, 0.03, 0.05, 0.08)]
    paths = emit_plot_data(rows, str(tmp_path / "fig"))
    assert len(paths) == 4  # 2 series + 2 overlays
    overlay = next(p for p in paths if p.endswith("standard-d3-fit.csv"))
    fit = fit_exponent([r for r in rows if r.variant == "standard"])
    lines = open(overlay).read().splitlines()
    assert lines[0] == "p,p_logical_fit"
    for ln in lines[1:]:
        p, val = (float(tok) for tok in ln.split(","))
        assert math.isclose(val, fit.amplitude * p**fit.exponent, rel_tol=1e-9)


def test_plot_data_rejects_empty_table(tmp_path):
    with pytest.raises(ConfigError):
        emit_plot_data([], str(tmp_path / "fig"))
