"""Command-line interface.

Subcommands: ``emit`` (circuit text), ``run`` (Monte-Carlo sweep to CSV),
``scan`` (exhaustive fault scan report), ``fit`` (power-law exponent),
``compare`` (per-p variant ordering), ``plot-data`` (per-series CSVs).

Exit codes: 0 success, 2 configuration error, 3 insufficient data.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .circuits import VARIANTS, build_program, program_to_text
from .experiments import (
    ConfigError,
    ExperimentConfig,
    InsufficientData,
    compare_variants,
    csv_to_rows,
    emit_plot_data,
    fit_exponent,
    fit_report,
    parse_config,
    rows_to_csv,
    run_sweep,
)
from .noise import NoiseModel
from .scanner import scan, verdict_to_text
from .sim import compile_program

# defaults reproduced by the versioned golden scan reports
SCAN_P = 1e-3
SCAN_R = 1.0
SCAN_INIT_LEAK = 1e-3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="toricleak")
    subs = ap.add_subparsers(dest="command", required=True)

    em = subs.add_parser("emit", help="emit a circuit in the versioned text form")
    em.add_argument("--variant", required=True, choices=VARIANTS)
    em.add_argument("--d", type=int, required=True)
    em.add_argument("--rounds", type=int, default=1)
    _add_common(em)

    rn = subs.add_parser("run", help="run a Monte-Carlo sweep from a config file")
    rn.add_argument("--config", metavar="PATH", required=True)
    rn.add_argument("--seed", type=int, metavar="U64", help="override master_seed")
    rn.add_argument("--workers", type=int, default=1, metavar="N")
    rn.add_argument("--variant", choices=VARIANTS, help="override the config variant")
    rn.add_argument("--d", type=int, help="override the config distance list")
    _add_common(rn)

    sc = subs.add_parser("scan", help="exhaustively judge single (or pair) faults")
    sc.add_argument("--variant", required=True, choices=VARIANTS)
    sc.add_argument("--d", type=int, required=True)
    sc.add_argument("--rounds", type=int, help="default: d")
    sc.add_argument("--max-faults", type=int, choices=(1, 2), default=1,
                    help="2 also judges every pair of Pauli faults")
    sc.add_argument("--config", metavar="PATH",
                    help="take the leakage policy from this config file")
    _add_common(sc)

    ft = subs.add_parser("fit", help="fit P_L ~ A * p**s on a result CSV")
    ft.add_argument("csv", metavar="CSV")
    ft.add_argument("--variant", choices=VARIANTS, help="restrict to one variant")
    ft.add_argument("--d", type=int, help="restrict to one distance")
    _add_common(ft)

    cp = subs.add_parser("compare", help="order two result CSVs point by point")
    cp.add_argument("csv_a", metavar="CSV_A")
    cp.add_argument("csv_b", metavar="CSV_B")
    _add_common(cp)

    pd = subs.add_parser("plot-data", help="split a result CSV into plot series")
    pd.add_argument("csv", metavar="CSV")
    pd.add_argument("--out", metavar="PREFIX", required=True,
                    help="prefix for the emitted series files")
    return ap


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out!r}: {exc}") from exc


def _check_out_dir(out: str | None) -> None:
    """Refuse an output path whose directory is missing, before any work."""
    if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ConfigError(f"cannot write {out!r}: no such directory")


def _read_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _read_rows(path: str):
    try:
        with open(path) as fh:
            return csv_to_rows(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read table {path!r}: {exc}") from exc


def _build(variant: str, d: int, rounds: int):
    """``build_program``, whose every refusal (distance, rounds) is a
    configuration error."""
    try:
        return build_program(variant, d, rounds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_emit(args) -> int:
    program = _build(args.variant, args.d, args.rounds)
    _write(program_to_text(program), args.out)
    return 0


def _cmd_run(args) -> int:
    config = _read_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.variant is not None:
        config = replace(config, variant=args.variant)
    if args.d is not None:
        config = replace(config, d=(args.d,))
    out = args.out if args.out is not None else config.out
    _check_out_dir(out)  # before the sweep
    rows = run_sweep(config, workers=args.workers)
    _write(rows_to_csv(rows), out)
    return 0


def _cmd_scan(args) -> int:
    _check_out_dir(args.out)  # before the scan
    rounds = args.rounds if args.rounds is not None else args.d
    if args.config is not None:
        config = _read_config(args.config)
        # the universe depends only on which rates are nonzero, which every
        # grid point with p > 0 shares
        p = next((p for p in config.p if p > 0), None)
        if p is None:
            raise ConfigError("scan --config needs a grid point with p > 0")
        noise = config.noise_at(p)
    else:
        noise = NoiseModel(p=SCAN_P, r=SCAN_R, p_init_leak=SCAN_INIT_LEAK)
    compiled = compile_program(_build(args.variant, args.d, rounds), noise)
    verdict = scan(compiled, max_faults=args.max_faults)
    _write(verdict_to_text(compiled, verdict), args.out)
    return 0


def _cmd_fit(args) -> int:
    rows = _read_rows(args.csv)
    sel = [r for r in rows
           if (args.variant is None or r.variant == args.variant)
           and (args.d is None or r.d == args.d)]
    groups = sorted({(r.variant, r.d) for r in sel})
    if not groups:
        raise ConfigError("no rows match the requested variant / distance")
    fits = [fit_exponent(sel, variant=v, d=d) for v, d in groups]
    _write(fit_report(fits), args.out)
    return 0


def _cmd_compare(args) -> int:
    report = compare_variants(_read_rows(args.csv_a), _read_rows(args.csv_b))
    _write(report, args.out)
    return 0


def _cmd_plot_data(args) -> int:
    rows = _read_rows(args.csv)
    try:
        paths = emit_plot_data(rows, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write plot data {args.out!r}: {exc}") from exc
    sys.stdout.write("\n".join(paths) + "\n")
    return 0


_COMMANDS = {
    "emit": _cmd_emit,
    "run": _cmd_run,
    "scan": _cmd_scan,
    "fit": _cmd_fit,
    "compare": _cmd_compare,
    "plot-data": _cmd_plot_data,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InsufficientData as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
