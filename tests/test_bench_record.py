"""``scripts/bench_record.py``: record assembly and file numbering, on canned
records, without running the benchmark."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).parent.parent / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

MACHINE = {"nproc": 2, "cpu_model": "test cpu", "python": "3.x", "numpy": "1.x", "networkx": "3.x"}


def _untraced(name, run_s):
    """A canned untraced ``run.py`` record of one workload."""
    return {"workload": name, "trace": 0, "machine": MACHINE,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mb": {"value": 40.0, "unit": "MiB"}},
            "spread": {"run_s": {"q1": run_s - 0.1, "q3": run_s + 0.1, "n": 5, "wall_median": 2 * run_s},
                       "peak_rss_mb": {"q1": 39.0, "q3": 41.0, "n": 5, "wall_median": 40.0}}}


def _traced(name, wall_s):
    """A canned traced ``run.py`` record of one workload."""
    return {"workload": name, "trace": 1, "machine": MACHINE, "spread": {},
            "metrics": {"trace.wall_s": {"value": wall_s, "unit": "s"},
                        "sim.run_shot_calls": {"value": 12, "unit": "count"}}}


def _final(records):
    """The final JSON line ``run.py --workload all`` prints for its records."""
    return {"correct": True, "attempted": 9, "failed": 0,
            "metrics": {f"{name}.{k}": v for name, rec in records.items() for k, v in rec["metrics"].items()}}


def test_a_record_holds_each_workloads_medians_quartiles_and_layers():
    untraced = {"sweep_d3": _untraced("sweep_d3", 1.5), "scan_d3": _untraced("scan_d3", 0.04)}
    traced = {"sweep_d3": _traced("sweep_d3", 1.7), "scan_d3": _traced("scan_d3", 0.05)}
    finals = [_final(untraced), _final(traced)]
    record = bench_record.assemble(finals, [untraced, traced])
    assert record["machine"] == MACHINE
    assert [run["final"] for run in record["runs"]] == finals
    assert [run["command"][-2:] for run in record["runs"]] == [["--trace", "0"], ["--trace", "1"]]
    assert list(record["workloads"]) == ["sweep_d3", "scan_d3"]
    sweep = record["workloads"]["sweep_d3"]
    assert sweep["end_to_end"]["run_s"] == {"median": 1.5, "unit": "s", "q1": 1.4, "q3": 1.6,
                                            "n": 5, "wall_median": 3.0}
    assert sweep["layers"] == traced["sweep_d3"]["metrics"]
    assert json.loads(json.dumps(record)) == record


def test_a_stale_or_missing_record_is_refused():
    untraced = {"scan_d3": _untraced("scan_d3", 0.04)}
    traced = {"scan_d3": _traced("scan_d3", 0.05)}
    stale = {"scan_d3": _untraced("scan_d3", 0.03)}
    with pytest.raises(ValueError, match="scan_d3 record is not the one the --trace 0 run"):
        bench_record.assemble([_final(untraced), _final(traced)], [stale, traced])
    with pytest.raises(ValueError, match="--trace 1 run"):
        bench_record.assemble([_final(untraced), _final(traced)], [untraced, untraced])
    more = dict(untraced, sweep_d5=_untraced("sweep_d5", 9.0))
    with pytest.raises(ValueError, match="different workloads"):
        bench_record.assemble([_final(more), _final(traced)], [more, traced])


def test_records_take_the_next_free_number_and_never_overwrite(tmp_path):
    assert bench_record.next_number(tmp_path) == 1
    (tmp_path / "BENCH_3.json").write_text("{}\n")
    (tmp_path / "BENCH_x.json").write_text("{}\n")
    path = bench_record.write(tmp_path, {"a": 1})
    assert path.name == "BENCH_4.json" and json.loads(path.read_text()) == {"a": 1}
    with pytest.raises(FileExistsError):
        bench_record.write(tmp_path, {"a": 2}, number=3)
    assert (tmp_path / "BENCH_3.json").read_text() == "{}\n"
