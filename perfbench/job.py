"""One benchmark job, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/job.py '<json spec>'

The spec names the checkout ``root``, the ``workload``, the ``seed`` and the
``mode``: ``warmup`` (import only), ``setup`` (import, build and compile
every leg), ``run`` (setup, then the measured call) or ``trace`` (the same,
with every layer wrapped by the span tracer).  The job prints one JSON object
on stdout.  It drives the package only through ``experiments.run_sweep``,
``scanner.scan``, ``circuits.build_program`` and ``sim.compile_program``,
looked up as module attributes at call time so that wrappers take effect.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import SCANS, SWEEPS, master_seed, sweep_shots

MATCH_BUCKET = 10  # matcher calls with more defects count as "large"

# (module, attribute, span name): every binding of the attribute's function
# in any loaded toricleak module is wrapped under the same span name
FUNCTION_LAYERS = (
    ("circuits", "build_program", "circuits.build_program"),
    ("sim", "compile_program", "sim.compile_program"),
    ("pauli", "batch_uniforms", "pauli.batch_uniforms"),
    ("vector", "run_batch", "vector.run_batch"),
    ("decoder", "match_defects", None),  # span name depends on defect count
    ("sim", "run_shot", "sim.run_shot"),
    ("scanner", "analyze_leak", "scanner.analyze_leak"),
    ("scanner", "scan", "scanner.scan"),
    ("scanner", "verdict_to_text", "scanner.verdict_to_text"),
    ("experiments", "run_sweep", "experiments.run_sweep"),
    ("experiments", "rows_to_csv", "experiments.rows_to_csv"),
)
DECODER_METHODS = ("correction", "decode", "judge_batch")
ROOT_SPAN = "trace"

# span name -> per-layer metric holding its self seconds
SELF_METRICS = {
    "circuits.build_program": "circuits.build_program_s",
    "sim.compile_program": "sim.compile_program_s",
    "pauli.batch_uniforms": "pauli.batch_uniforms_s",
    "vector.run_batch": "vector.run_batch_self_s",
    "decoder.match_small": "decoder.match_small_s",
    "decoder.match_large": "decoder.match_large_s",
    "decoder.correction": "decoder.correction_self_s",
    "decoder.decode": "decoder.decode_self_s",
    "decoder.judge_batch": "decoder.judge_batch_self_s",
    "sim.run_shot": "sim.run_shot_s",
    "scanner.analyze_leak": "scanner.analyze_leak_self_s",
    "scanner.scan": "scanner.scan_self_s",
    "scanner.verdict_to_text": "scanner.verdict_to_text_s",
    "experiments.run_sweep": "experiments.run_sweep_self_s",
    "experiments.rows_to_csv": "experiments.rows_to_csv_s",
    ROOT_SPAN: "trace.uncovered_s",
}
# span name -> per-layer metric holding its call count
CALL_METRICS = {
    "decoder.match_small": "decoder.match_small_calls",
    "decoder.match_large": "decoder.match_large_calls",
    "decoder.correction": "decoder.correction_calls",
    "decoder.decode": "decoder.decode_calls",
    "sim.run_shot": "sim.run_shot_calls",
    "scanner.analyze_leak": "scanner.analyze_leak_calls",
    "vector.run_batch": "experiments.batches",
}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _match_span(*args, **kwargs) -> str:
    n = len(_arg(args, kwargs, 1, "defects"))
    return "decoder.match_large" if n > MATCH_BUCKET else "decoder.match_small"


COUNTERS = {
    "pauli.batch_uniforms": lambda *a, **k: {
        "pauli.draws": _arg(a, k, 2, "n_shots") * _arg(a, k, 3, "n_draws")},
    "vector.run_batch": lambda *a, **k: {
        "vector.gate_shots": len(_arg(a, k, 0, "compiled").gates) * _arg(a, k, 3, "n_shots")},
    "decoder.judge_batch": lambda *a, **k: {
        "decoder.shots_judged": _arg(a, k, 1, "syndromes").shape[0]},
}


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every layer of the loaded package."""
    loaded = [m for name, m in sorted(sys.modules.items())
              if name == "toricleak" or name.startswith("toricleak.")]
    for mod_name, attr, span in FUNCTION_LAYERS:
        target = getattr(modules[mod_name], attr, None)
        if target is None:
            continue  # the layer no longer exists
        name = span or _match_span
        for module in loaded:
            for binding, value in list(vars(module).items()):
                if value is target:
                    tracer.wrap(module, binding, name, COUNTERS.get(span))
    cls = modules["decoder"].Decoder
    for method in DECODER_METHODS:
        span = f"decoder.{method}"
        tracer.wrap(cls, method, span, COUNTERS.get(span))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    seconds, calls = tracer.self_times()
    out = {metric: seconds.get(span, 0.0) for span, metric in SELF_METRICS.items()}
    out.update({metric: calls.get(span, 0) for span, metric in CALL_METRICS.items()})
    out["pauli.draws"] = tracer.counts["pauli.draws"]
    out["vector.gate_shots"] = tracer.counts["vector.gate_shots"]
    # a correction-cache miss is exactly one matcher call made by correction
    misses = tracer.children_of("decoder.correction", "decoder.match_")
    out["decoder.cache_entries"] = misses
    corrections = out["decoder.correction_calls"]
    out["decoder.cache_hit_ratio"] = (corrections - misses) / corrections if corrections else 0.0
    judged = tracer.counts["decoder.shots_judged"]
    decoded = tracer.children_of("decoder.judge_batch", "decoder.decode")
    out["decoder.event_free_ratio"] = (judged - decoded) / judged if judged else 0.0
    root = next(s for s in tracer.spans if s[0] == ROOT_SPAN)
    out["trace.wall_s"] = root[2] - root[1]
    return out


def _import_package(root: Path) -> dict:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import toricleak
    from toricleak import circuits, cli, decoder, experiments, noise, pauli, scanner, sim, vector

    if not Path(toricleak.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"toricleak imported from {toricleak.__file__}, not {src}")
    return dict(circuits=circuits, cli=cli, decoder=decoder, experiments=experiments,
                noise=noise, pauli=pauli, scanner=scanner, sim=sim, vector=vector)


def _setup(m: dict, workload: str, seed: int):
    """Build and compile every leg; return what the measured call needs."""
    circuits, sim, noise = m["circuits"], m["sim"], m["noise"]
    if workload in SWEEPS:
        cfg = m["experiments"].ExperimentConfig(**SWEEPS[workload],
                                                master_seed=master_seed(seed))
        for d in cfg.d:
            rounds = cfg.rounds if cfg.rounds is not None else d
            for p in cfg.p:
                model = noise.NoiseModel(p=p, r=cfg.r, side_policy=cfg.side_policy,
                                         site_filter=cfg.site_filter,
                                         p_init_leak=cfg.init_leak_at(p))
                sim.compile_program(circuits.build_program(cfg.variant, d, rounds), model)
        return cfg
    cli, spec = m["cli"], SCANS[workload]
    model = noise.NoiseModel(p=cli.SCAN_P, r=cli.SCAN_R, p_init_leak=cli.SCAN_INIT_LEAK)
    program = circuits.build_program(spec["variant"], spec["d"], spec["rounds"])
    return sim.compile_program(program, model)


def _measured_call(m: dict, workload: str, prepared) -> dict:
    """The timed user-facing call; returns its output and timings."""
    experiments, scanner = m["experiments"], m["scanner"]
    m0, t0 = time.monotonic(), time.perf_counter()
    if workload in SWEEPS:
        rows = experiments.run_sweep(prepared, workers=1)
        t1 = time.perf_counter()
        output = experiments.rows_to_csv(rows)
    else:
        verdict = scanner.scan(prepared, decoder=m["decoder"].Decoder(prepared.lattice),
                               max_faults=1)
        t1 = time.perf_counter()
        output = scanner.verdict_to_text(prepared, verdict)
    t2, m2 = time.perf_counter(), time.monotonic()
    if workload in SWEEPS:
        items = sweep_shots(workload)
    else:
        items = verdict.n_pauli_specs + verdict.n_leak_specs  # fault specs judged
    return {"output": output, "run_s": t2 - t0, "shots_per_s": items / (t1 - t0),
            "run_window": [m0, m2]}


def _cold(experiments) -> bool:
    """True when no compiled leg (and so no decoder cache) is held."""
    cache = getattr(experiments, "_compiled_leg", None)
    return cache is None or cache.cache_info().currsize == 0


def main(spec: dict) -> dict:
    if "cpu" in spec:
        os.sched_setaffinity(0, {spec["cpu"]})
    m0, t0 = time.monotonic(), time.perf_counter()
    modules = _import_package(Path(spec["root"]))
    if spec["mode"] == "warmup":
        return {"ok": True}
    workload, seed = spec["workload"], spec["seed"]
    tracer = Tracer() if spec["mode"] == "trace" else None
    result: dict = {}
    if tracer is None:
        prepared = _setup(modules, workload, seed)
        result["setup_s"] = time.perf_counter() - t0
        result["setup_window"] = [m0, time.monotonic()]
        if spec["mode"] == "run":
            result["cold_start"] = _cold(modules["experiments"])
            result.update(_measured_call(modules, workload, prepared))
    else:
        install(tracer, modules)
        try:
            with tracer.root(ROOT_SPAN):
                prepared = _setup(modules, workload, seed)
                result["cold_start"] = _cold(modules["experiments"])
                result.update(_measured_call(modules, workload, prepared))
        finally:
            result["changed_attributes"] = tracer.unwrap_all()
        result["layers"] = layer_metrics(tracer)
        if spec.get("spans_path"):
            _write_spans(tracer, spec["spans_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def _write_spans(tracer: Tracer, path: str) -> None:
    base = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[name, round(s - base, 7), round(e - base, 7), parent]
            for name, s, e, parent in tracer.spans]
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh,
                  separators=(",", ":"))


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
