"""Command-line interface.

Subcommands: generate, validate, collect, solve, sweep, diagnose.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from . import diagnostics, harness, linmdp, solver
from .data import collect_dataset, load_dataset, save_dataset


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--mode", choices=["occupancy", "uniform"], default="uniform")
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
    if args.dim < 1:
        print("dim must be ≥ 1", file=sys.stderr)
        return 2
    if args.states < 1 or args.actions < 1:
        print("states and actions must be ≥ 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be ≥ 0", file=sys.stderr)
        return 2
    try:
        mdp = linmdp.generate_linear_mdp(
            args.states, args.actions, args.dim, args.gamma, args.seed
        )
    except ValueError as e:
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
    if args.n < 1:
        print("n must be ≥ 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be ≥ 0", file=sys.stderr)
        return 2
    mdp = linmdp.load_mdp(args.mdp)
    try:
        behavior = harness.behavior_policy(mdp, args.behavior)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    dataset = collect_dataset(
        mdp, behavior, n=args.n, sampling_mode=args.mode, seed=args.seed
    )
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} transitions to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    if args.T is not None and args.T < 1:
        print("T must be ≥ 1", file=sys.stderr)
        return 2
    mdp = linmdp.load_mdp(args.mdp)
    dataset = load_dataset(args.data, mdp)

    fogas_spec: dict = {"auto_tune": args.auto_tune, "delta": args.delta}
    if args.T is not None:
        fogas_spec["T"] = args.T
    if args.d_theta is not None:
        fogas_spec["d_theta"] = args.d_theta
    if args.rates is not None:
        try:
            alpha, rho, eta, beta = (float(v) for v in args.rates.split(","))
        except ValueError:
            print("--rates expects four comma-separated values: alpha,rho,eta,beta",
                  file=sys.stderr)
            return 2
        fogas_spec.update({"alpha": alpha, "rho": rho, "eta": eta, "beta": beta})
        fogas_spec.setdefault("d_theta", solver.canonical_d_theta(mdp))
    elif not args.auto_tune:
        print("either --auto-tune or --rates is required", file=sys.stderr)
        return 2

    try:
        config = harness.fogas_config_from_spec(
            mdp, len(dataset), args.seed, fogas_spec,
            record_trajectory=args.record_trajectory,
        )
    except ValueError as e:  # a flag out of range: delta, seed, a rate or d_theta
        print(str(e), file=sys.stderr)
        return 2
    start = time.perf_counter()
    run = solver.run_fogas(mdp, dataset, config)
    # Only the --results row reads the mean-iterate suboptimality; scoring
    # every iterate costs more than the rest of the record.
    scored = run if args.results else dataclasses.replace(run, trajectory=None)
    record = harness.score_run(mdp, dataset, scored, start)
    solver.save_run(run, args.out)
    if args.results:
        _append_record(args.results, record)
    print(
        f"J = {run.chosen_index}, suboptimality = {record.suboptimality:.6g}, "
        f"coverage ratio = {record.coverage_ratio:.6g}"
    )
    return 0


def _append_record(path, record) -> None:
    new_file = not os.path.exists(path)
    with open(path, "a") as f:
        if new_file:
            f.write(harness.RESULTS_HEADER + "\n")
        f.write(record.csv_row() + "\n")


def _cmd_sweep(args) -> int:
    try:
        config = harness.ExperimentConfig.from_json(args.config)
    except (ValueError, KeyError, TypeError) as e:
        print(str(e), file=sys.stderr)
        return 2
    records = harness.run_sweep(config)
    harness.write_records(records, args.out)
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
        f.write(diagnostics.GapReport.CSV_COLUMNS + "\n")
        f.write(report.csv_row() + "\n")
    asserted = "asserted" if report.identity_asserted else "not asserted (manual d_theta)"
    print(
        f"gap = {report.gap:.6g}, decomposition residual = "
        f"{report.decomposition_residual:.3e}, identity residual = "
        f"{report.identity_residual:.3e} ({asserted})"
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
    except (FloatingPointError, ValueError, RuntimeError) as e:
        print(str(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
