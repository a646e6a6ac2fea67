"""Command-line interface.

Exit codes: 0 on success, 2 for invalid input or configuration, 3 for a
runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io
from .configs import aggregate_iv, synthesize_config
from .charts import emit_chart
from .curve import fit_logistic_curve, guideline_table
from .engine import DEFAULT_RATES, STUDY_SIZES, RunSpec, run_grid, summarize
from .errors import (
    DegeneratePlan,
    EmptyCell,
    InsufficientEvents,
    InsufficientPoints,
    WoesimError,
)
from .rng import RngStream

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_RUNTIME = 3

# ConfigError and SchemaError are ValueErrors; OSError covers a path that
# is missing, is a directory or cannot be written
_INPUT_ERRORS = (
    DegeneratePlan,
    InsufficientEvents,
    InsufficientPoints,
    OSError,
    ValueError,
)


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="woesim",
        description="Scorecard class-imbalance simulation lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a config JSON file")
    p.add_argument("config", help="path to a config JSON file")

    p = sub.add_parser("run", help="run the Monte Carlo grid")
    p.add_argument("--config", action="append", required=True,
                   help="built-in id (A..D) or config JSON path; repeatable")
    p.add_argument("--rates", type=_float_list, default=list(DEFAULT_RATES),
                   help="comma-separated event rates (default 0.01,0.05,0.10)")
    p.add_argument("--sizes", default="paper",
                   help="comma-separated sample sizes, or 'paper' for the default grid")
    p.add_argument("--iters", type=int, default=500, help="Monte Carlo iterations per cell")
    p.add_argument("--seed", type=int, default=0, help="master seed, 0 <= seed < 2**64")
    p.add_argument("--theta-adj", type=float, default=0.5,
                   help="WoE adjustment factor, finite and nonnegative")
    p.add_argument("--fixed-events", type=int, default=None,
                   help="fix the event count per sample, ignoring --rates")
    p.add_argument("--no-clamp", action="store_true",
                   help="refuse cells where floor(rate*n) = 0 instead of clamping to 1 event")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="results CSV path")

    p = sub.add_parser("summarize", help="aggregate results into quantile summaries")
    p.add_argument("--in", dest="inp", required=True, help="results CSV path")
    p.add_argument("--out", required=True, help="summary CSV path")

    p = sub.add_parser("guideline", help="fit curves and tabulate attainable scores")
    p.add_argument("--in", dest="inp", required=True, help="summary CSV path")
    p.add_argument("--n", type=int, default=2500, help="sample size to read medians at")
    p.add_argument("--metric", default="f1", choices=("f1", "p4"), help="metric to tabulate")
    p.add_argument("--out", required=True, help="guideline CSV path")

    p = sub.add_parser("synth", help="synthesize a config hitting a target AIV")
    p.add_argument("--d", type=int, required=True, help="number of predictors")
    p.add_argument("--bins", type=_int_list, required=True,
                   help="comma-separated bin counts, one per predictor")
    p.add_argument("--aiv", type=float, required=True, help="target aggregate information value")
    p.add_argument("--tol", type=float, default=0.05, help="acceptable AIV deviation")
    p.add_argument("--seed", type=int, default=0, help="master seed, 0 <= seed < 2**64")
    p.add_argument("--id", default=None, help="config id to embed (default derived)")
    p.add_argument("--out", required=True, help="config JSON path")

    p = sub.add_parser("report", help="render one summary cell as an SVG chart")
    p.add_argument("--in", dest="inp", required=True, help="summary CSV path")
    p.add_argument("--cell", required=True, help="selector config:metric:split, e.g. B:f1:test")
    p.add_argument("--out", required=True, help="SVG output path")

    return parser


def _cmd_validate(args) -> int:
    config = io.load_config(args.config)
    report = aggregate_iv(config)
    print(f"{config.id}: {config.n_predictors} predictors, bins {config.bin_counts}, "
          f"aiv {report.aiv:.4f}")
    return EXIT_OK


def _cmd_run(args) -> int:
    configs = tuple(io.resolve_config(spec) for spec in args.config)
    sizes = STUDY_SIZES if args.sizes == "paper" else tuple(_int_list(args.sizes))
    spec = RunSpec(
        configs=configs,
        sizes=sizes,
        rates=tuple(args.rates),
        iterations=args.iters,
        master_seed=args.seed,
        theta_adj=args.theta_adj,
        clamp=not args.no_clamp,
        fixed_events=args.fixed_events,
    )
    out = Path(args.out)
    # refused before the grid runs, not once its records are ready to write
    if out.is_dir() or not out.parent.is_dir():
        raise ValueError(f"--out {args.out!r} must name a file in an existing directory")
    records = run_grid(spec, workers=args.workers)
    io.save_results_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _cmd_summarize(args) -> int:
    records = io.load_results_csv(args.inp)
    summary = summarize(records)
    io.save_summary_csv(summary, args.out)
    print(f"wrote {len(summary)} summary rows to {args.out}")
    return EXIT_OK


def _cmd_guideline(args) -> int:
    summary = io.load_summary_csv(args.inp)
    rows = [
        r for r in summary
        if r.n == args.n and r.metric == args.metric and r.split == "test"
    ]
    if not rows:
        raise EmptyCell(f"summary has no {args.metric}/test rows at n={args.n}")
    fits = {}
    for rate in sorted({r.event_rate for r in rows}):
        points = sorted(
            {(r.aiv, r.median) for r in rows if r.event_rate == rate}
        )
        fit = fit_logistic_curve(points)
        print(
            f"curve fit: rate {rate:g} L {fit.L:.6g} k {fit.k:.6g} x0 {fit.x0:.6g}"
            f" rss {fit.rss:.3g} points {len(points)}",
            file=sys.stderr,
        )
        fits[rate] = fit
    table = guideline_table(fits)
    io.save_guideline_csv(table, args.out)
    print(table.render())
    print(f"wrote guideline table to {args.out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    config = synthesize_config(
        d=args.d,
        bins=args.bins,
        target_aiv=args.aiv,
        tol=args.tol,
        rng=RngStream(args.seed, 0, "synth"),
        config_id=args.id,
    )
    io.save_config(config, args.out)
    achieved = aggregate_iv(config).aiv
    print(f"wrote {config.id} (aiv {achieved:.4f}) to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    parts = args.cell.split(":")
    if len(parts) != 3:
        raise ValueError(f"--cell must look like CONFIG:METRIC:SPLIT, got {args.cell!r}")
    config_id, metric, split = parts
    summary = io.load_summary_csv(args.inp)
    svg = emit_chart(summary, config_id, metric, split)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote chart to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "summarize": _cmd_summarize,
    "guideline": _cmd_guideline,
    "synth": _cmd_synth,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except WoesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        # e.g. a sample size whose draw cannot be allocated
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
