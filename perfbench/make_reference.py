"""Freeze the reference CSVs that the sweep workloads are checked against.

Run from the checkout root at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It runs every sweep workload for each master seed 0..REFERENCE_SEEDS-1 with
``workers=1`` (two seeds at a time in separate processes) and rewrites
``perfbench/reference.json``.  The scan workload needs no entry: it is
checked against ``tests/golden/scan_standard_d3.txt`` in place.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from workloads import REFERENCE_PATH, REFERENCE_SEEDS, SWEEPS, config_record

ROOT = Path(__file__).resolve().parent.parent


def _init() -> None:
    sys.path.insert(0, str(ROOT / "src"))


def sweep_csv(workload: str, seed: int) -> str:
    from toricleak import experiments

    config = experiments.ExperimentConfig(**SWEEPS[workload], master_seed=seed)
    return experiments.rows_to_csv(experiments.run_sweep(config, workers=1))


def main() -> None:
    tasks = [(w, s) for w in SWEEPS for s in range(REFERENCE_SEEDS)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx, initializer=_init) as pool:
        csvs = list(pool.map(sweep_csv, *zip(*tasks)))
    table: dict = {w: {"config": config_record(w)} for w in SWEEPS}
    for (workload, seed), csv in zip(tasks, csvs):
        table[workload][str(seed)] = csv
    REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH} ({len(tasks)} sweeps)")


if __name__ == "__main__":
    main()
