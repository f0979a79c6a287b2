"""Regenerate, or check, the versioned golden fixtures under tests/golden/.

Five families:
  * circuit_<variant>_d3_r1.txt  -- one-round circuit text dumps
  * scan_<variant>_d3.txt        -- single-fault scan reports at d=3,
    rounds=3, with the documentary policy (two-sided leakage at every
    site, p = p_leak = p_init_leak = 1e-3); matches the CLI defaults of
    ``toricleak scan``.
  * scan_standard_d3_r1_pairs.txt, scan_standard_d3_pairs.txt -- fault-pair
    scan reports (``max_faults=2``) of standard d=3 at one and at three
    rounds, same policy, which pin the pair verdicts.
  * fractions_d3.txt -- exact ``leak_failure_fractions`` of every leak
    spec of each variant at d=3, rounds=3, same policy: per variant a
    header with its count of zero-fraction specs, then one line per spec
    with a nonzero fraction (gate, victim, ``float.hex`` fraction, exact);
    ``--which scans`` builds it with the scan reports.
  * sweep_mixed_lrc_d3_seed7.csv -- a Monte-Carlo sweep CSV (mixed_lrc,
    d=3, four p, 2500 shots each, master seed 7), which pins the decoder's
    verdicts on stochastic shots; only ``--which all`` builds it.

Run from any directory:
  python3 scripts/make_goldens.py [--which all]          # rewrite fixtures
  python3 scripts/make_goldens.py --check [--which all]  # diff, write nothing
  python3 scripts/make_goldens.py --check-reference      # diff the benchmark's CSVs

The package is imported from ``src/`` of this checkout, so no install is
needed.

``--check`` rebuilds every selected fixture in memory, prints each one's
build seconds beside ``same`` or ``DIFFERS``, prints a unified diff for each
one that differs from its file, and exits 1 on any mismatch.

``--check-reference`` rebuilds every frozen sweep CSV of the benchmark
(each workload's config at each master seed in ``perfbench/reference.json``,
32 seeds of ``sweep_d3`` and ``sweep_d5`` today), compares them with the
file, which it only reads, prints each workload's time and how many differ,
and exits 1 on any difference.  It takes one to two minutes.
"""
from __future__ import annotations

import argparse
import difflib
import json
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from toricleak.circuits import VARIANTS, build_program, program_to_text
from toricleak.cli import SCAN_INIT_LEAK, SCAN_P, SCAN_R
from toricleak.decoder import Decoder
from toricleak.experiments import ExperimentConfig, rows_to_csv, run_sweep
from toricleak.noise import NoiseModel
from toricleak.scanner import enumerate_fault_universe, leak_failure_fractions, scan, verdict_to_text
from toricleak.sim import compile_program

GOLDEN = ROOT / "tests" / "golden"
REFERENCE = ROOT / "perfbench" / "reference.json"
SWEEP = ExperimentConfig(variant="mixed_lrc", d=(3,), p=(1e-3, 2e-3, 3e-3, 5e-3), r=1.0,
                         shots=2500, master_seed=7)


def circuits() -> dict[Path, Callable[[], str]]:
    return {
        GOLDEN / f"circuit_{variant}_d3_r1.txt": partial(_circuit, variant)
        for variant in VARIANTS
    }


def _circuit(variant: str) -> str:
    return program_to_text(build_program(variant, 3, 1))


def scans() -> dict[Path, Callable[[], str]]:
    out = {GOLDEN / f"scan_{variant}_d3.txt": partial(_scan, variant, 3, 1) for variant in VARIANTS}
    out[GOLDEN / "scan_standard_d3_r1_pairs.txt"] = partial(_scan, "standard", 1, 2)
    out[GOLDEN / "scan_standard_d3_pairs.txt"] = partial(_scan, "standard", 3, 2)
    out[GOLDEN / "fractions_d3.txt"] = _fractions
    return out


def _compiled(variant: str, rounds: int):
    noise = NoiseModel(p=SCAN_P, r=SCAN_R, p_init_leak=SCAN_INIT_LEAK)
    return compile_program(build_program(variant, 3, rounds), noise)


def _scan(variant: str, rounds: int, max_faults: int) -> str:
    compiled = _compiled(variant, rounds)
    verdict = scan(compiled, decoder=Decoder(compiled.lattice), max_faults=max_faults)
    return verdict_to_text(compiled, verdict)


def _fractions() -> str:
    lines = ["toricleak-fractions v1"]
    for variant in VARIANTS:
        compiled = _compiled(variant, 3)
        leaks = [s for s in enumerate_fault_universe(compiled) if s.kind == "leak"]
        rows = list(zip(leaks, leak_failure_fractions(compiled, leaks)))
        zero = sum(q == 0 for _, (q, _) in rows)
        lines.append(f"variant={variant} d=3 rounds=3 leak_specs={len(leaks)} zero={zero}")
        lines += [f"gate={s.gate_index} victim={s.victim} fraction={q.hex()} exact={int(exact)}"
                  for s, (q, exact) in rows if q]
    return "\n".join(lines) + "\n"


def sweeps() -> dict[Path, Callable[[], str]]:
    return {GOLDEN / "sweep_mixed_lrc_d3_seed7.csv": lambda: rows_to_csv(run_sweep(SWEEP, workers=1))}


def build(builders: dict[Path, Callable[[], str]]):
    """Yield ``(path, text, seconds)`` per fixture, building one at a time."""
    for path, make in builders.items():
        start = time.perf_counter()
        text = make()
        yield path, text, time.perf_counter() - start


def check(builders: dict[Path, Callable[[], str]]) -> int:
    mismatched = 0
    for path, text, seconds in build(builders):
        on_disk = path.read_text() if path.exists() else ""
        if on_disk == text:
            print(f"same    {seconds:7.2f} s  {path.name}")
            continue
        mismatched += 1
        print(f"DIFFERS {seconds:7.2f} s  {path.name}")
        sys.stdout.writelines(difflib.unified_diff(
            on_disk.splitlines(keepends=True), text.splitlines(keepends=True),
            fromfile=f"tests/golden/{path.name}", tofile="rebuilt"))
    print(f"{mismatched} of {len(builders)} fixtures differ")
    return 1 if mismatched else 0


def check_reference() -> int:
    differing = total = 0
    for workload, table in json.loads(REFERENCE.read_text()).items():
        fields = {k: tuple(v) if isinstance(v, list) else v for k, v in table.pop("config").items()}
        start, bad = time.perf_counter(), []
        for seed, csv in table.items():
            config = ExperimentConfig(**fields, master_seed=int(seed))
            if rows_to_csv(run_sweep(config, workers=1)) != csv:
                bad.append(seed)
        print(f"{workload}: {len(bad)} of {len(table)} differ {time.perf_counter() - start:7.2f} s"
              + (f"  (seeds {', '.join(bad)})" if bad else ""))
        differing += len(bad)
        total += len(table)
    print(f"{differing} of {total} reference CSVs differ")
    return 1 if differing else 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--which", choices=("circuits", "scans", "all"), default="all")
    ap.add_argument("--check", action="store_true",
                    help="diff rebuilt fixtures against tests/golden/ and write nothing")
    ap.add_argument("--check-reference", action="store_true",
                    help="diff rebuilt sweep CSVs against perfbench/reference.json")
    args = ap.parse_args()
    if args.check_reference:
        return check_reference()
    fixtures: dict[Path, Callable[[], str]] = {}
    if args.which in ("circuits", "all"):
        fixtures.update(circuits())
    if args.which in ("scans", "all"):
        fixtures.update(scans())
    if args.which == "all":
        fixtures.update(sweeps())
    if args.check:
        return check(fixtures)
    for path, text, seconds in build(fixtures):
        path.write_text(text)
        print(f"wrote {seconds:7.2f} s  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
