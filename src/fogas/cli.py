"""Command-line interface.

Subcommands: generate, validate, collect, solve, sweep, diagnose.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time

from . import diagnostics, harness, linmdp, solver
from .data import SAMPLING_MODES, collect_dataset, load_dataset, save_dataset


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first ``main`` call and kept
    for the process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="fogas",
        description="Feature-occupancy gradient ascent for offline RL in linear MDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random linear MDP")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--actions", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="MDP file (.npz archive)")

    p = sub.add_parser("validate", help="check an MDP file against all invariants")
    p.add_argument("--mdp", required=True)

    p = sub.add_parser("collect", help="collect an offline transition dataset")
    p.add_argument("--mdp", required=True)
    p.add_argument("--behavior", default="uniform", help="uniform or eps:<v>")
    p.add_argument("--mode", choices=SAMPLING_MODES, default="uniform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset file (.npz archive)")

    p = sub.add_parser("solve", help="run the solver on an offline dataset")
    p.add_argument("--mdp", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--auto-tune", action="store_true")
    p.add_argument("--rates", help="alpha,rho,eta,beta (manual mode)")
    p.add_argument("--d-theta", type=float,
                   help="theta ball radius (default sqrt(d)/(1-gamma))")
    p.add_argument("--T", type=int)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--record-trajectory", action="store_true")
    p.add_argument("--out", required=True, help="run file (.npz archive)")
    p.add_argument("--results", help="append an experiment record to this CSV")

    p = sub.add_parser("sweep", help="run a full (n x seed) experiment grid")
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--out", required=True, help="results CSV")

    p = sub.add_parser("diagnose", help="duality-gap report for a recorded run")
    p.add_argument("--mdp", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--out", required=True, help="gap-report CSV")
    return parser


def _cmd_generate(args) -> int:
    try:
        mdp = linmdp.generate_linear_mdp(
            args.states, args.actions, args.dim, args.gamma, args.seed
        )
    except ValueError as e:  # a flag out of range
        print(str(e), file=sys.stderr)
        return 2
    linmdp.save_mdp(mdp, args.out)
    print(f"R = {mdp.feature_bound:.6g}, d = {mdp.dim}")
    return 0


def _cmd_validate(args) -> int:
    mdp = linmdp.load_mdp(args.mdp)
    report = linmdp.validate_linear_mdp(mdp)
    if report:
        for line in report:
            print(line)
        return 1
    print("ok")
    return 0


def _cmd_collect(args) -> int:
    mdp = linmdp.load_mdp(args.mdp)
    try:
        behavior = harness.behavior_policy(mdp, args.behavior)
        dataset = collect_dataset(mdp, behavior, args.n, args.mode, args.seed)
    except ValueError as e:  # a flag out of range: --behavior, --n or --seed
        print(str(e), file=sys.stderr)
        return 2
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} transitions to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    rates = {}
    if args.rates is not None:
        try:
            alpha, rho, eta, beta = (float(v) for v in args.rates.split(","))
        except ValueError:
            print("--rates expects four comma-separated values: alpha,rho,eta,beta",
                  file=sys.stderr)
            return 2
        rates = {"alpha": alpha, "rho": rho, "eta": eta, "beta": beta}
    try:
        config = solver.FogasConfig(
            T=args.T, seed=args.seed, auto_tune=args.auto_tune, delta=args.delta,
            d_theta=args.d_theta, record_trajectory=args.record_trajectory, **rates,
        )
    except ValueError as e:  # a flag out of range or missing: T, delta, seed, rates, d_theta
        print(str(e), file=sys.stderr)
        return 2
    mdp = linmdp.load_mdp(args.mdp)
    dataset = load_dataset(args.data, mdp)
    if args.results:
        harness.check_results_file(args.results)
    start = time.perf_counter()
    run = solver.run_fogas(mdp, dataset, config)
    # Only the --results row reads the mean-iterate suboptimality; scoring
    # every iterate costs more than the rest of the record.
    scored = run if args.results else dataclasses.replace(run, trajectory=None)
    record = harness.score_run(mdp, dataset, scored, start)
    solver.save_run(run, args.out)
    if args.results:
        harness.write_records([record], args.results, append=True)
    print(
        f"J = {run.chosen_index}, suboptimality = {record.suboptimality:.6g}, "
        f"coverage ratio = {record.coverage_ratio:.6g}"
    )
    return 0


def _cmd_sweep(args) -> int:
    try:
        config = harness.ExperimentConfig.from_json(args.config)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if os.path.isdir(args.out):  # os.replace would fail only after the grid
        print(f"{args.out}: Is a directory", file=sys.stderr)
        return 1
    # Rows go to a sibling that replaces --out at the end; creating it fails before any cell.
    partial = f"{args.out}.{os.getpid()}.tmp"
    open(partial, "w").close()
    try:
        records = harness.run_sweep(config)
        harness.write_records(records, partial)
        os.replace(partial, args.out)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    for rec in records:
        if rec.status != "ok":
            print(f"n={rec.n} seed={rec.seed} {rec.status}: {rec.message}",
                  file=sys.stderr)
    summary = harness.summarize_by_n(records)
    print("n,median_mean_suboptimality")
    for n, med in summary.items():
        print(f"{n},{med:.6g}")
    return 1 if any(r.status != "ok" for r in records) else 0


def _cmd_diagnose(args) -> int:
    mdp = linmdp.load_mdp(args.mdp)
    dataset = load_dataset(args.data, mdp)
    run = solver.load_run(args.run, mdp)
    if run.trajectory is None:
        print(
            "run file has no trajectory; re-run solve with --record-trajectory",
            file=sys.stderr,
        )
        return 1
    report = diagnostics.duality_gap_report(run, mdp, dataset, check_identities=False)
    with open(args.out, "w") as f:
        f.write(f"{diagnostics.GapReport.CSV_COLUMNS}\n{report.csv_row()}\n")
    print(
        f"gap = {report.gap:.6g}, decomposition residual = "
        f"{report.decomposition_residual:.3e}, identity residual = "
        f"{report.identity_residual:.3e}"
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "collect": _cmd_collect,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as e:
        print(f"file not found: {e.filename}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"{e.filename}: {e.strerror}", file=sys.stderr)
        return 1
    except (FloatingPointError, ValueError, RuntimeError) as e:
        print(str(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
