"""Self-test of the benchmark's trace: counts repeat and the profile has its shape.

Run from the checkout root:  python3 perfbench/selftest.py [--seed 7]

For every workload it runs two traced jobs, each in a fresh interpreter, and
checks that

* every count metric (calls, draws, gate-shots, batches, cache entries,
  ratios) is identical between the two jobs;
* both outputs equal the reference bytes, and the wrapped attributes were
  restored;
* the profile has the expected shape: no scalar ``sim.run_shot`` replays in
  the sweeps, no uniform draws in the scan, ``decoder.match_large_s`` the
  largest self time on ``sweep_d5`` and ``sim.run_shot_s`` the largest on
  ``scan_d3``.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from run import Runner, unit_of
from workloads import REFERENCE_SEED, SCANS, SWEEPS, WORKLOADS

LARGEST_SELF_TIME = {"sweep_d5": "decoder.match_large_s", "scan_d3": "sim.run_shot_s"}


def check_workload(workload: str, seed: int) -> list[str]:
    r = Runner(workload, seed)
    jobs = [r.job("trace") for _ in range(2)]
    problems = []
    counts = [{k: v for k, v in j["layers"].items() if unit_of(k) != "s"} for j in jobs]
    for key in counts[0]:
        if counts[0][key] != counts[1][key]:
            problems.append(f"{key}: {counts[0][key]} then {counts[1][key]}")
    for j in jobs:
        if j["output"] != r.reference:
            problems.append("output differs from the reference")
        if j["changed_attributes"]:
            problems.append(f"attributes left wrapped: {j['changed_attributes']}")
    layers = jobs[0]["layers"]
    if workload in SWEEPS and layers["sim.run_shot_calls"] != 0:
        problems.append("a sweep made scalar run_shot replays")
    if workload in SCANS and layers["pauli.draws"] != 0:
        problems.append("the scan drew uniforms")
    if workload in LARGEST_SELF_TIME:
        self_times = {k: v for k, v in layers.items()
                      if unit_of(k) == "s" and not k.startswith("trace.")}
        top = max(self_times, key=self_times.get)
        if top != LARGEST_SELF_TIME[workload]:
            problems.append(f"largest self time is {top}, expected {LARGEST_SELF_TIME[workload]}")
    shown = ", ".join(f"{k}={v}" for k, v in counts[0].items())
    print(f"{workload}: {shown}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    args = ap.parse_args()
    failures = 0
    for workload in WORKLOADS:
        problems = check_workload(workload, args.seed)
        for p in problems:
            print(f"  FAIL {p}")
        print(f"  {'FAIL' if problems else 'ok'}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
