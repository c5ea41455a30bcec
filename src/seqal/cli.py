"""Command-line front end.

Subcommands: gen (synthesize a pool directory), run (execute an
experiment), metrics (CAR/PAR sweeps over a finished run), bounds
(theoretical cost envelopes for a pool), analyze (cost correlation table),
stats (flow-statistic cache). All outputs are plot-ready CSVs with floats
at six decimals; identical inputs produce identical bytes.

Exit codes: 0 success, 1 runtime failure, 2 bad config/usage, 3 data that
fails validation.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import config as config_mod
from . import flowproxy, metrics, runner
from .config import convert, float_list, int_list
from .costing import theoretical_cost_bounds
from .errors import (
    ConfigError,
    ContinuityError,
    DomainError,
    GenError,
    LineFormatError,
    ManifestError,
    MissingRasterError,
    NameFormatError,
    PoolExhaustedError,
    SeqalError,
    ShapeError,
    TraceError,
)
from .pool import load_pool, write_pool
from .synth import generate_pool
from .tables import cell, write_table

_VALIDATION_ERRORS = (
    NameFormatError,
    LineFormatError,
    ManifestError,
    ContinuityError,
    GenError,
    ShapeError,
    MissingRasterError,
    DomainError,
    TraceError,
)


def _cmd_gen(args: argparse.Namespace) -> None:
    parser = config_mod.read_config(args.config)
    cfg = config_mod.gen_config(parser)
    pool = generate_pool(cfg)
    write_pool(pool, args.out)


def _cmd_run(args: argparse.Namespace) -> None:
    parser = config_mod.read_config(args.config)
    seeds = None if args.seed is None else convert(args.seed, int_list, "--seed")
    cfg = config_mod.run_config(parser, args.strategy, seeds)
    try:
        runner.run_experiment(cfg, out_dir=args.out)
    except PoolExhaustedError as exc:
        raise ConfigError(str(exc)) from exc


def _budgets(raw: str, name: str, high: float) -> tuple[float, ...]:
    """A budget list whose every value lies in [0, high]."""
    budgets = convert(raw, float_list, name)
    for budget in budgets:
        if not 0.0 <= budget <= high:
            raise ConfigError(f"{name} value {budget} outside [0, {high}]")
    return budgets


def _cmd_metrics(args: argparse.Namespace) -> None:
    car_budgets = _budgets(args.car_budgets, "--car-budgets", math.inf)
    par_budgets = _budgets(args.par_budgets, "--par-budgets", 1.0)
    run_dir = Path(args.run)
    curves = runner.read_curves(run_dir)
    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    # Each metrics.par warning (a budget past the best mAP) is one stderr line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name, header, budgets, area in (
            ("car_sweep.csv", ["seed", "budget_hours", "car"], car_budgets, metrics.car),
            ("par_sweep.csv", ["seed", "budget_map", "par"], par_budgets, metrics.par),
        ):
            rows = (
                [seed, cell(budget), cell(area(curve, budget))]
                for seed, curve in curves.items()
                for budget in budgets
            )
            write_table(out_dir / name, header, rows)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)


def _cmd_bounds(args: argparse.Namespace) -> None:
    if args.rounds < 1:
        raise ConfigError(f"--rounds must be at least 1, got {args.rounds}")
    pool = load_pool(args.pool)
    costs = [pool.sequences[s].meta.cost_hours for s in pool.train_ids]
    try:
        lower, upper = theoretical_cost_bounds(costs, args.rounds)
    except PoolExhaustedError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table(
        out,
        ["bound"] + [f"round_{i + 1}" for i in range(args.rounds)],
        [["lower"] + [cell(v) for v in lower], ["upper"] + [cell(v) for v in upper]],
    )


def _cmd_analyze(args: argparse.Namespace) -> None:
    pool = load_pool(args.pool)
    ids = sorted(pool.sequences)
    flow = {sid: flowproxy.compute_flow_stats(pool.sequences[sid]) for sid in ids}
    costs = [pool.sequences[s].meta.cost_hours for s in ids]

    def column(getter) -> list[float]:
        return [float(getter(pool.sequences[s])) for s in ids]

    pairs = {
        "cost_vs_length": column(lambda q: q.n_frames),
        "cost_vs_total_boxes": column(lambda q: q.total_boxes()),
        "cost_vs_occluded": column(lambda q: q.occluded_boxes()),
        "cost_vs_mean_motion": column(
            lambda q: sum(flow[q.sequence_id].motion_scores) / q.n_frames
        ),
        "cost_vs_mean_box_estimate": column(
            lambda q: sum(flow[q.sequence_id].box_estimates) / q.n_frames
        ),
        "cost_vs_season": column(lambda q: int(q.meta.season)),
        "cost_vs_time_of_day": column(lambda q: int(q.meta.time_of_day)),
    }
    report = metrics.CorrelationReport(
        entries={
            name: metrics.correlations(costs, values)
            for name, values in pairs.items()
        }
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    metrics.write_correlation_csv(report, out)


def _cmd_stats(args: argparse.Namespace) -> None:
    try:
        flowproxy.check_params(args.threshold, args.min_area)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    pool = load_pool(args.pool)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for sid in sorted(pool.sequences):
        stats = flowproxy.compute_flow_stats(
            pool.sequences[sid], args.threshold, args.min_area
        )
        flowproxy.write_flow_cache(stats, sid, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqal",
        description="Cost-aware sequence acquisition simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic pool directory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run an acquisition experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", help="comma-separated seed override")
    p.add_argument("--strategy", help="strategy kind override")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("metrics", help="CAR/PAR sweeps for a finished run")
    p.add_argument("--run", required=True)
    p.add_argument("--car-budgets", required=True)
    p.add_argument("--par-budgets", required=True)
    p.add_argument("--out", help="output directory (default: the run directory)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("bounds", help="theoretical cost envelopes for a pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("analyze", help="cost correlation table for a pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("stats", help="write a flow-statistic cache for a pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=int, default=flowproxy.DEFAULT_THRESHOLD)
    p.add_argument("--min-area", type=int, default=flowproxy.DEFAULT_MIN_AREA)
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SeqalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
