"""Benchmark for toricleak: Monte-Carlo sweep throughput and exhaustive-scan time.

Usage (from the checkout root):

    python3 perfbench/run.py --workload sweep_d3 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

Every measured job runs in a fresh interpreter (``job.py``), so no job sees a
warm compiled-leg or correction cache.  Jobs run in two lanes side by side,
each pinned to its own CPU.  With ``--trace 0`` each lane repeats (two
set-up-only jobs, one measured job) until ``--seconds`` have passed, while a
``speedometer.py`` process on each CPU samples how fast the host runs.  Each
time is divided by the host slowdown sampled on its CPU during its job, and
the median of each end-to-end metric is reported; raw wall times are kept in
the result record.  With ``--trace 1`` each lane alternates traced and
untraced jobs for ``--seconds``, and the per-layer metrics of the traced job
with the median traced wall time are reported.  Each job's output is compared byte for byte with the reference
(``reference.json`` for sweeps, the scan golden for the scan) and, when
traced, with the untraced output.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib.metadata import PackageNotFoundError, version

from workloads import (BENCH_DIR, SCAN_GOLDEN, SCANS, WORKLOADS, master_seed,
                       operations, reference_output)

ROOT = BENCH_DIR.parent
JOB = BENCH_DIR / "job.py"
SPEEDOMETER = BENCH_DIR / "speedometer.py"
OUT_DIR = ROOT / ".perfbench-out"
RUN_LIMIT_S = 165.0  # no job starts unless it should end before this
SETUPS_PER_JOB = 2  # set-up-only jobs before each measured job
LANES = sorted(os.sched_getaffinity(0))[:2]  # CPUs that run jobs side by side
SPEED_PERIOD_S = 0.25  # speedometer sampling period
NOMINAL_BURST_S = 0.0025  # speedometer burst CPU time on an uncontended core

END_TO_END = {"shots_per_s": "1/s", "run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
COUNT_SUFFIXES = ("_calls", ".draws", ".gate_shots", ".batches", ".cache_entries")


class JobFailed(RuntimeError):
    pass


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_ratio"):
        return "ratio"
    return "count" if metric.endswith(COUNT_SUFFIXES) else "s"


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return "missing"

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": pkg("numpy"),
            "networkx": pkg("networkx")}


class Runner:
    """Spawns jobs for one workload run and keeps the time budget."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.reference = reference_output(workload, seed, ROOT)
        self.ops = operations(workload)
        self.measure_start = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def job(self, mode: str, **extra) -> dict:
        spec = dict(root=str(ROOT), workload=self.workload, seed=self.seed, mode=mode, **extra)
        timeout = RUN_LIMIT_S + 10 - self.elapsed()
        try:
            proc = subprocess.run([sys.executable, str(JOB), json.dumps(spec)], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise JobFailed(f"{mode} job timed out") from exc
        if proc.returncode != 0:
            raise JobFailed(f"{mode} job exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def failed_ops(self, output: str, other: str | None = None) -> int:
        """Operations whose output bytes differ from the reference (or ``other``)."""
        want = self.reference.splitlines(keepends=True)
        got = output.splitlines(keepends=True)
        if self.workload in SCANS:
            return int(output != self.reference or (other is not None and output != other))
        if got[:1] != want[:1]:
            return self.ops  # header differs: no leg can be trusted
        alt = other.splitlines(keepends=True) if other is not None else got
        bad = sum(1 for i in range(1, self.ops + 1)
                  if got[i:i + 1] != want[i:i + 1] or got[i:i + 1] != alt[i:i + 1])
        return max(bad, int(output != self.reference))

    def can_start(self, seconds: float, typical: float) -> bool:
        return self.elapsed() - self.measure_start < seconds \
            and self.elapsed() + 1.5 * typical < RUN_LIMIT_S


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def in_lanes(r: Runner, seconds: float, iteration) -> list[dict]:
    """Repeat ``iteration(cpu)`` on every CPU lane until the window closes.

    Each lane is pinned to one CPU and runs its jobs one after another; the
    lanes run side by side.  An iteration returns a dict that holds
    ``"result"`` when its measured job succeeded.
    """
    r.measure_start = r.elapsed()

    def lane(cpu: int) -> list[dict]:
        out: list[dict] = []
        typical = 0.0
        while not any("result" in o for o in out) or r.can_start(seconds, typical):
            t0 = r.elapsed()
            out.append(iteration(cpu))
            if "result" in out[-1]:
                typical = max(typical, r.elapsed() - t0)
            elif len(out) >= 2 and not any("result" in o for o in out):
                break
        return out

    with ThreadPoolExecutor(max_workers=len(LANES)) as pool:
        futures = [pool.submit(lane, cpu) for cpu in LANES]
        return [o for f in futures for o in f.result()]


@contextlib.contextmanager
def speedometers(cpus: list[int]):
    """Run one host-speed sampler per CPU; fill the yielded dict on exit."""
    procs = {cpu: subprocess.Popen([sys.executable, str(SPEEDOMETER), str(cpu), str(SPEED_PERIOD_S)],
                                   cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                   text=True)
             for cpu in cpus}
    samples: dict[int, list] = {}
    try:
        yield samples
    finally:
        for cpu, proc in procs.items():
            try:
                out, _ = proc.communicate(timeout=10)
                samples[cpu] = json.loads(out)
            except (subprocess.TimeoutExpired, ValueError):
                proc.kill()
                proc.wait()


def slowdown(samples: list, window: list[float]) -> float:
    """Host slowdown during ``window``: mean burst time over the nominal one."""
    start, end = window
    costs = [c for t, c in samples if start - SPEED_PERIOD_S <= t <= end]
    if not costs:
        costs = [min(samples, key=lambda s: abs(s[0] - start))[1]]
    return statistics.fmean(costs) / NOMINAL_BURST_S


def run_untraced(r: Runner, seconds: float) -> dict:
    def iteration(cpu: int) -> dict:
        out = {"setups": [dict(r.job("setup", cpu=cpu), cpu=cpu) for _ in range(SETUPS_PER_JOB)],
               "attempted": r.ops, "failed": 0, "errors": []}
        try:
            res = r.job("run", cpu=cpu)
        except JobFailed as exc:
            out.update(failed=r.ops, errors=[str(exc)])
            return out
        if res["cold_start"]:
            out["failed"] = r.failed_ops(res.pop("output"))
        else:
            out.update(failed=r.ops, errors=["measured job started with a warm compiled-leg cache"])
        res["cpu"] = cpu
        out["setups"].append(res)
        out["result"] = res
        return out

    with speedometers(LANES) as speed:
        its = in_lanes(r, seconds, iteration)
    done = [o["result"] for o in its if "result" in o]
    setups = [s for o in its for s in o["setups"]]
    if len(speed) < len(LANES):
        raise JobFailed("a speedometer did not report")
    wall = {"shots_per_s": [res["shots_per_s"] for res in done],
            "run_s": [res["run_s"] for res in done],
            "setup_s": [s["setup_s"] for s in setups],
            "peak_rss_mb": [res["peak_rss_mb"] for res in done]}
    run_slow = [slowdown(speed[res["cpu"]], res["run_window"]) for res in done]
    setup_slow = [slowdown(speed[s["cpu"]], s["setup_window"]) for s in setups]
    samples = {"shots_per_s": [v * f for v, f in zip(wall["shots_per_s"], run_slow)],
               "run_s": [v / f for v, f in zip(wall["run_s"], run_slow)],
               "setup_s": [v / f for v, f in zip(wall["setup_s"], setup_slow)],
               "peak_rss_mb": wall["peak_rss_mb"]}
    return dict(samples=samples, wall=wall, slowdown={"run": run_slow, "setup": setup_slow},
                attempted=sum(o["attempted"] for o in its),
                failed=sum(o["failed"] for o in its),
                errors=[e for o in its for e in o["errors"]], jobs=len(done))


def trace_problems(tr: dict, plain: dict) -> list[str]:
    """Integrity checks of one traced job against its untraced partner."""
    problems = []
    if tr["output"] != plain["output"]:
        problems.append("traced output differs from untraced output")
    if not (tr["cold_start"] and plain["cold_start"]):
        problems.append("measured job started with a warm compiled-leg cache")
    if tr["changed_attributes"]:
        problems.append(f"tracer left attributes changed: {tr['changed_attributes']}")
    layers = tr["layers"]
    wall = layers["trace.wall_s"]
    covered = sum(v for k, v in layers.items() if unit_of(k) == "s" and k != "trace.wall_s")
    if abs(covered - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"layer self times sum to {covered} s, traced wall is {wall} s")
    return problems


def run_traced(r: Runner, seconds: float) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    numbers = itertools.count()

    def iteration(cpu: int) -> dict:
        spans = OUT_DIR / f"{r.workload}-seed{r.seed}-job{next(numbers)}.spans.json"
        out = {"attempted": 2 * r.ops, "failed": 0, "errors": []}
        try:
            tr = r.job("trace", cpu=cpu, spans_path=str(spans))
            plain = r.job("run", cpu=cpu)
        except JobFailed as exc:
            spans.unlink(missing_ok=True)
            out.update(failed=2 * r.ops, errors=[str(exc)])
            return out
        failed = r.failed_ops(plain["output"]) if plain["cold_start"] else r.ops
        problems = trace_problems(tr, plain)
        failed += r.ops if problems else r.failed_ops(tr["output"], other=plain["output"])
        tr["spans_path"] = spans
        out.update(failed=failed, errors=problems, result=tr,
                   overhead=tr["run_s"] - plain["run_s"])
        return out

    its = in_lanes(r, seconds, iteration)
    attempted = sum(o["attempted"] for o in its)
    failed = sum(o["failed"] for o in its)
    errors = [e for o in its for e in o["errors"]]
    traced = [o["result"] for o in its if "result" in o]
    if not traced:
        return dict(attempted=attempted, failed=failed, errors=errors, jobs=0)
    counts = [{k: v for k, v in t["layers"].items() if unit_of(k) != "s"} for t in traced]
    if any(c != counts[0] for c in counts[1:]):
        failed += r.ops
        errors.append("count metrics differ between traced jobs of one seed")
    traced.sort(key=lambda t: t["layers"]["trace.wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    for t in traced:
        if t is chosen:
            t["spans_path"].replace(OUT_DIR / f"{r.workload}-seed{r.seed}.spans.json")
        else:
            t["spans_path"].unlink(missing_ok=True)
    layers = dict(chosen["layers"])
    # traced minus untraced run_s of the same lane's adjacent jobs
    layers["trace.overhead_s"] = statistics.median(o["overhead"] for o in its if "result" in o)
    return dict(layers=layers, attempted=attempted, failed=min(failed, attempted),
                errors=errors, jobs=len(traced))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """One benchmark run; returns the result record, or None if nothing was measured."""
    r = Runner(workload, seed)
    r.job("warmup")  # byte-compiles the package so no set-up pays for it
    body = run_traced(r, seconds) if trace else run_untraced(r, seconds)
    if not body["jobs"]:
        for e in body["errors"]:
            print(e, file=sys.stderr)
        return None
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in body["layers"].items()}
        spread = {}
    else:
        metrics, spread = {}, {}
        for m, values in body["samples"].items():
            q1, med, q3 = _quartiles(values)
            metrics[m] = {"value": med, "unit": unit_of(m)}
            spread[m] = {"q1": q1, "q3": q3, "n": len(values),
                         "wall_median": statistics.median(body["wall"][m])}
    record = {"workload": workload, "seed": seed,
              "master_seed": None if workload in SCANS else master_seed(seed),
              "trace": int(trace), "seconds": seconds, "jobs": body["jobs"],
              "machine": machine_facts(), "metrics": metrics, "spread": spread,
              "samples": body.get("samples", {}), "wall": body.get("wall", {}),
              "slowdown": body.get("slowdown", {}),
              "attempted": body["attempted"], "failed": body["failed"],
              "errors": body["errors"], "wall_s": r.elapsed()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def print_record(rec: dict) -> None:
    seed_note = "no random input" if rec["master_seed"] is None \
        else f"master seed {rec['master_seed']}"
    kind = "traced" if rec["trace"] else "untraced"
    print(f"{rec['workload']}: seed {rec['seed']} ({seed_note}), {kind}, "
          f"{rec['jobs']} jobs in {rec['wall_s']:.1f} s")
    for name, m in rec["metrics"].items():
        value = m["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        line = f"  {name:32s} {shown} {m['unit']}"
        if name in rec["spread"]:
            s = rec["spread"][name]
            line += f"   (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g}"
            if unit_of(name) in ("s", "1/s"):
                line += f"; unscaled {s['wall_median']:.6g}"
            line += ")"
        print(line)
    ratio = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"  {'ops_failed_ratio':32s} {ratio:>14.6g} ratio   "
          f"({rec['failed']} of {rec['attempted']} operations failed)")
    print(f"  correct: {'yes' if rec['failed'] == 0 else 'NO'}")
    for e in rec["errors"]:
        print(f"  error: {e}")
    print(f"  machine: {json.dumps(rec['machine'])}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "toricleak" / "__init__.py").is_file():
        print(f"no toricleak source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / SCAN_GOLDEN).is_file():
        print(f"missing scan reference {SCAN_GOLDEN}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except JobFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        if rec is None:
            return 1
        print_record(rec)
        records.append(rec)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{rec['workload']}.{k}": v for rec in records for k, v in rec["metrics"].items()}
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
