"""Workload definitions shared by the runner, the job and the reference maker.

Every workload is one closed-loop batch job from a single process
(``workers=1``).  Sweeps take their master seed from ``--seed``, folded into
the range whose outputs are frozen in ``reference.json``; the scan has no
random input and ignores the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
SCAN_GOLDEN = Path("tests") / "golden" / "scan_standard_d3.txt"  # relative to the checkout

REFERENCE_SEEDS = 32  # master seeds 0..31 have frozen reference CSVs
REFERENCE_SEED = 7

# keyword arguments of ``experiments.ExperimentConfig`` (master_seed added per run)
SWEEPS = {
    # mixed_lrc: SWAP gates and spare qubits make the gate sweep heaviest;
    # small defect sets keep the DP matcher busy and the correction cache hot
    "sweep_d3": dict(variant="mixed_lrc", d=(3,), p=(1e-3, 2e-3, 3e-3, 5e-3),
                     r=1.0, shots=2500),
    # most decodes exceed 10 defects, so blossom matching dominates and
    # nearly every correction-cache lookup misses
    "sweep_d5": dict(variant="standard", d=(5,), p=(3e-3,), r=1.0, shots=2000),
}

# single-fault scan under the CLI's documentary noise; matches the golden
SCANS = {
    "scan_d3": dict(variant="standard", d=3, rounds=3),
}

WORKLOADS = tuple(SWEEPS) + tuple(SCANS)


def master_seed(seed: int) -> int:
    """The sweep master seed a benchmark ``--seed`` selects."""
    return seed % REFERENCE_SEEDS


def config_record(workload: str) -> dict:
    """JSON form of a sweep's config, stored beside its reference CSVs."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in SWEEPS[workload].items()}


def reference_output(workload: str, seed: int, root: Path) -> str:
    """Bytes the seed commit produces for this workload and seed."""
    if workload in SCANS:
        return (root / SCAN_GOLDEN).read_text()
    table = json.loads(REFERENCE_PATH.read_text())[workload]
    if table["config"] != config_record(workload):
        raise ValueError(f"{REFERENCE_PATH.name} was made for another {workload} config")
    return table[str(master_seed(seed))]


def sweep_shots(workload: str) -> int:
    """Shots judged by one run of a sweep workload (all legs)."""
    cfg = SWEEPS[workload]
    return cfg["shots"] * len(cfg["d"]) * len(cfg["p"])


def operations(workload: str) -> int:
    """Operations one job attempts: a sweep leg each, or one scan."""
    if workload in SCANS:
        return 1
    cfg = SWEEPS[workload]
    return len(cfg["d"]) * len(cfg["p"])
