"""Record the benchmark of this checkout in ``BENCH_<n>.json`` at its root.

Runs ``python3 perfbench/run.py --workload all --seed 7 --seconds 25``
with ``--trace 0`` and then with ``--trace 1``, and writes one JSON file:

* ``machine``: the machine facts that ``run.py`` records;
* ``runs``: per run, its command and its final JSON line;
* ``workloads``: per workload, the untraced run's end-to-end metrics (the
  slowdown-scaled median, its quartiles ``q1`` and ``q3``, the sample
  count ``n`` and the unscaled ``wall_median``) and the traced run's
  layers, both read from the records that ``run.py`` leaves in
  ``.perfbench-out/``.

n is one past the highest n of an existing ``BENCH_<n>.json`` (1 if there
is none) unless ``--number`` gives it.  An existing file is never
overwritten, and nothing is written if a run fails.

Usage, from any directory:
  python3 scripts/bench_record.py [--number N]
"""
from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SEED, SECONDS = 7, 25


def command(trace: int) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]


def run(trace: int) -> tuple[dict, dict]:
    """One benchmark run: its final JSON line and, per workload, the record
    it left in ``.perfbench-out/``.  Its report is echoed to stdout."""
    proc = subprocess.run(command(trace), cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command(trace))} exited {proc.returncode}:\n{proc.stderr}")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    names = dict.fromkeys(key.split(".", 1)[0] for key in final["metrics"])
    records = {name: json.loads((OUT_DIR / f"{name}-seed{SEED}-trace{trace}.json").read_text())
               for name in names}
    return final, records


def assemble(finals: list[dict], records: list[dict]) -> dict:
    """The BENCH record of an untraced and a traced run: ``finals[t]`` is
    the final JSON line of the run with ``--trace t``, and ``records[t]``
    its per-workload records.  A record whose metrics are not the ones its
    run's final line reports, a stale one, is refused."""
    for trace, (final, recs) in enumerate(zip(finals, records)):
        for name, rec in recs.items():
            reported = {key.split(".", 1)[1]: value for key, value in final["metrics"].items()
                        if key.split(".", 1)[0] == name}
            if rec["trace"] != trace or rec["metrics"] != reported:
                raise ValueError(f"the {name} record is not the one the --trace {trace} run reported")
    if records[0].keys() != records[1].keys():
        raise ValueError("the untraced and traced runs measured different workloads")
    workloads = {}
    for name, rec in records[0].items():
        end_to_end = {metric: {"median": m["value"], "unit": m["unit"], **rec["spread"][metric]}
                      for metric, m in rec["metrics"].items()}
        workloads[name] = {"end_to_end": end_to_end, "layers": records[1][name]["metrics"]}
    return {"machine": next(iter(records[0].values()))["machine"],
            "runs": [{"command": command(trace), "final": final} for trace, final in enumerate(finals)],
            "workloads": workloads}


def next_number(root: Path) -> int:
    """One past the highest n of a ``BENCH_<n>.json`` in ``root``, 1 if none."""
    taken = [int(m[1]) for p in root.iterdir() if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return max(taken, default=0) + 1


def write(root: Path, record: dict, number: int | None = None) -> Path:
    """Write ``record`` to ``BENCH_<number>.json``; an existing file is refused."""
    path = root / f"BENCH_{next_number(root) if number is None else number}.json"
    with path.open("x") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--number", type=int, help="n of BENCH_<n>.json (default: the next free one)")
    args = ap.parse_args(argv)
    path = ROOT / f"BENCH_{args.number}.json"
    if args.number is not None and path.exists():
        raise SystemExit(f"{path.name} exists")  # refused before the runs, not after
    untraced, traced = run(0), run(1)
    record = assemble([untraced[0], traced[0]], [untraced[1], traced[1]])
    print(f"wrote {write(ROOT, record, args.number)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
