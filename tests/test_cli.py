"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

from pathlib import Path

import pytest

from toricleak import cli
from toricleak.cli import main
from toricleak.experiments import TABLE_COLUMNS, SweepRow, rows_to_csv

GOLDEN = Path(__file__).parent / "golden"

GOOD_CONFIG = """toricleak-config v1
variant = standard
d = 3
p = 0.05
shots = 300
master_seed = 21
"""


def _quadratic_csv(tmp_path, name="quad.csv", variant="standard"):
    rows = [SweepRow(variant, 3, 3, p, 1.0, "two_sided", "all", 0.0,
                     10**7, round(0.5 * p**2 * 10**7), 0)
            for p in (0.01, 0.02, 0.04, 0.08)]
    path = tmp_path / name
    path.write_text(rows_to_csv(rows))
    return path


def test_emit_reproduces_golden_circuit(tmp_path, capsys):
    assert main(["emit", "--variant", "standard", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "circuit_standard_d3_r1.txt").read_text()


def test_run_writes_schema_csv_and_honors_seed_override(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "res.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert tuple(lines[0].split(",")) == TABLE_COLUMNS
    assert lines[1].split(",")[-1] == "21"

    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--seed", "99"]) == 0
    assert out.read_text().splitlines()[1].split(",")[-1] == "99"


def test_run_is_identical_across_worker_flag(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(GOOD_CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(a), "--workers", "1"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(b), "--workers", "2"]) == 0
    assert a.read_text() == b.read_text()


def test_run_rejects_a_zero_worker_count_with_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(GOOD_CONFIG)
    assert main(["run", "--config", str(cfg), "--workers", "0"]) == 2
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "toricleak-config v2\nvariant = standard\nshots = 1\n",
    GOOD_CONFIG + "mystery = 4\n",
    GOOD_CONFIG.replace("variant = standard", "variant = nope"),
    GOOD_CONFIG.replace("p = 0.05", "p = 0.2\nr = 10"),
    GOOD_CONFIG.replace("p = 0.05", "p = 0.1, 0.2\nr = 6\np_init_leak = r*p"),
])
def test_run_rejects_bad_configs_with_exit_2(tmp_path, text, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_missing_config_file_is_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2


@pytest.mark.parametrize("argv", [
    "emit --variant standard --d 4",
    "emit --variant standard --d 3 --rounds 0",
    "scan --variant standard --d 4",
    "scan --variant standard --d 3 --rounds 0",
])
def test_bad_emit_and_scan_inputs_are_exit_2(argv, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1


def test_pair_scan_of_every_three_round_pair_reproduces_golden(capsys):
    """``--max-faults 2`` judges all 6,158,295 Pauli pairs of standard d=3
    at its default three rounds, with no cap on the Pauli specs."""
    assert main("scan --variant standard --d 3 --max-faults 2".split()) == 0
    assert capsys.readouterr().out == (GOLDEN / "scan_standard_d3_pairs.txt").read_text()


def test_fit_reports_slope(tmp_path, capsys):
    csv = _quadratic_csv(tmp_path)
    assert main(["fit", str(csv)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("toricleak-fit v1\n")
    assert "variant=standard d=3 exponent=2.0000" in out


def test_fit_with_too_few_points_is_exit_3(tmp_path, capsys):
    csv = _quadratic_csv(tmp_path)
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(lines[:3]) + "\n")  # header + 2 points
    assert main(["fit", str(csv)]) == 3
    assert "insufficient data" in capsys.readouterr().err


def test_fit_at_a_single_p_is_exit_3(tmp_path, capsys):
    rows = [SweepRow("standard", 3, 3, 1e-3, 1.0, "two_sided", "all", 0.0, 10**5, failures, 0)
            for failures in (200, 201, 202)]
    csv = tmp_path / "one_p.csv"
    csv.write_text(rows_to_csv(rows))
    assert main(["fit", str(csv)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "insufficient data: 3 qualifying points share one p" in captured.err


def test_fit_with_no_matching_rows_is_exit_2(tmp_path):
    csv = _quadratic_csv(tmp_path)
    assert main(["fit", str(csv), "--d", "5"]) == 2


def test_compare_same_table_ties(tmp_path, capsys):
    csv = _quadratic_csv(tmp_path)
    assert main(["compare", str(csv), str(csv)]) == 0
    report = capsys.readouterr().out
    assert report.startswith("toricleak-compare v1\n")
    assert report.count("lower=tie") == 4


def test_compare_mismatched_grids_is_exit_2(tmp_path):
    a = _quadratic_csv(tmp_path, "a.csv")
    b = tmp_path / "b.csv"
    lines = a.read_text().splitlines()
    b.write_text("\n".join(lines[:4]) + "\n")
    assert main(["compare", str(a), str(b)]) == 2


def test_compare_table_with_two_distances_is_exit_2(tmp_path, capsys):
    a = _quadratic_csv(tmp_path, "a.csv")
    rows = [SweepRow("standard", d, d, p, 1.0, "two_sided", "all", 0.0,
                     10**7, round(0.5 * p**2 * 10**7), 0)
            for d in (3, 5) for p in (0.01, 0.02, 0.04, 0.08)]
    b = tmp_path / "b.csv"
    b.write_text(rows_to_csv(rows))
    assert main(["compare", str(a), str(b)]) == 2
    assert main(["compare", str(b), str(a)]) == 2
    assert "config error" in capsys.readouterr().err


def test_fit_ignores_a_p_zero_row(tmp_path, capsys):
    csv = _quadratic_csv(tmp_path)
    zero = SweepRow("standard", 3, 3, 0.0, 1.0, "two_sided", "all", 1e-3,
                    10**5, 200, 0)  # failures from preparation leakage alone
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(lines + rows_to_csv([zero]).splitlines()[1:]) + "\n")
    assert main(["fit", str(csv)]) == 0
    assert "points=4 window=0.01..0.08" in capsys.readouterr().out

    csv.write_text("\n".join(lines[:3] + rows_to_csv([zero]).splitlines()[1:]) + "\n")
    assert main(["fit", str(csv)]) == 3  # 2 good points remain
    assert main(["plot-data", str(csv), "--out", str(tmp_path / "fig")]) == 0


def test_non_numeric_csv_field_is_exit_2(tmp_path, capsys):
    csv = _quadratic_csv(tmp_path)
    lines = csv.read_text().splitlines()
    lines[2] = lines[2].replace("standard,3,", "standard,three,", 1)
    csv.write_text("\n".join(lines) + "\n")
    assert main(["fit", str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed CSV row: 'standard,three,")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["emit", "plot-data", "run", "scan"])
def test_unwritable_output_is_exit_2(tmp_path, capsys, monkeypatch, command):
    """A missing output directory is refused, and a scan is refused before
    it runs."""
    missing = str(tmp_path / "absent" / "out")
    scans = []
    monkeypatch.setattr(cli, "scan", lambda *args, **kwargs: scans.append(args))
    if command == "emit":
        argv = ["emit", "--variant", "standard", "--d", "3", "--out", missing]
    elif command == "plot-data":
        argv = ["plot-data", str(_quadratic_csv(tmp_path)), "--out", missing]
    elif command == "scan":
        argv = ["scan", "--variant", "standard", "--d", "3", "--out", missing]
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(GOOD_CONFIG)
        argv = ["run", "--config", str(cfg), "--out", missing]
    assert main(argv) == 2
    assert scans == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write ")
    assert captured.err.count("\n") == 1


def test_plot_data_writes_series_files(tmp_path, capsys):
    csv = _quadratic_csv(tmp_path)
    assert main(["plot-data", str(csv), "--out", str(tmp_path / "fig")]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert len(listed) == 2  # one series + one overlay
    for path in listed:
        assert Path(path).exists()


def test_scan_cli_matches_golden(tmp_path):
    out = tmp_path / "scan.txt"
    assert main(["scan", "--variant", "mixed_lrc", "--d", "3",
                 "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "scan_mixed_lrc_d3.txt").read_text()


def _scan_config(tmp_path, p_grid):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(f"toricleak-config v1\nvariant = standard\np = {p_grid}\nshots = 10\n")
    return cfg


def test_scan_config_takes_its_policy_from_a_nonzero_grid_point(tmp_path):
    """A grid that starts at p = 0 scans the same gate leaks as its first
    point with p > 0, not an empty leak universe."""
    reports = []
    for grid in ("0, 0.001", "0.001"):
        out = tmp_path / "scan.txt"
        assert main(["scan", "--variant", "standard", "--d", "3",
                     "--config", str(_scan_config(tmp_path, grid)), "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    assert "leak=486" in reports[0].split() and "leak_failing=243" in reports[0].split()


def test_scan_config_without_a_nonzero_rate_is_exit_2(tmp_path, capsys):
    cfg = _scan_config(tmp_path, "0")
    assert main(["scan", "--variant", "standard", "--d", "3", "--config", str(cfg)]) == 2
    assert "p > 0" in capsys.readouterr().err
