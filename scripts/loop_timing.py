#!/usr/bin/env python3
"""Time the FOGAS ascent loop in microseconds per iteration.

Runs ``run_fogas`` at three fixed shapes with one BLAS thread, each shape
without and with its trajectory recorded; a shape of S seeds is S
``run_fogas`` calls, one per seed's dataset, timed together. The loop's time
per iteration is a T-iteration run's time less a one-iteration run's, over
T - 1, which takes the set-up (the estimator, the covariance, the output
policy) out.

With one tree (the package on PYTHONPATH), each of the two runs is timed as
the minimum wall time over ``--repeats`` runs, and the one-iteration run is
reported as the set-up:

    PYTHONPATH=src python scripts/loop_timing.py --label change --out BENCH_loop.json

With ``--against TREE`` the package of another source tree (TREE/src/fogas)
is imported beside this one, under the name ``fogas_against``, and the two
are timed in one process: after a warm-up run of each, every round times
each side once in CPU time (``time.process_time``), in alternating order,
and records the ratio this / against. Both sides share one numpy and one
allocator, so this compares the two versions' code, not their installs:

    PYTHONPATH=src python scripts/loop_timing.py --against ../parent --rounds 9 \\
        --label kernel-vs-parent --out BENCH_loop.json

The numbers go to the ``--label`` entry of ``--out`` (under ``interleaved``
with ``--against``); other labels already in the file are kept.
``--iterations`` (at least 2) replaces every shape's T, for a quick run.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
import warnings

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# S seeds (one run each) on an (X, A, d) MDP with n uniform samples each, T iterations.
SHAPES = {
    "S4_X5_A3_d4": dict(seeds=4, states=5, actions=3, dim=4, n=16384, T=2000),
    "S1_X100_A4_d8": dict(seeds=1, states=100, actions=4, dim=8, n=50000, T=2000),
    "S1_X10000_A4_d8": dict(seeds=1, states=10000, actions=4, dim=8, n=20000, T=200),
}
MODES = (("plain", False), ("recorded", True))


def prepare(fogas, shape: dict):
    """The shape's MDP and datasets, built by ``fogas``, after a warm-up run
    that fills the datasets' cached next-state groups (and builds whatever
    the package builds on first use)."""
    mdp = fogas.generate_linear_mdp(shape["states"], shape["actions"], shape["dim"],
                                    gamma=0.9, seed=0)
    behavior = fogas.uniform_policy(mdp.num_states, mdp.num_actions)
    datasets = [fogas.collect_dataset(mdp, behavior, n=shape["n"],
                                      sampling_mode="uniform", seed=s)
                for s in range(shape["seeds"])]
    for dataset in datasets:
        fogas.run_fogas(mdp, dataset, fogas.FogasConfig(T=1, auto_tune=True))
    return fogas, mdp, datasets


def timed_run(side, T: int, record: bool, clock) -> float:
    """Seconds of ``clock`` the shape's runs of T iterations take, one per seed."""
    fogas, mdp, datasets = side
    configs = [fogas.FogasConfig(T=T, seed=s, auto_tune=True, record_trajectory=record)
               for s in range(len(datasets))]
    start = clock()
    for dataset, config in zip(datasets, configs):
        fogas.run_fogas(mdp, dataset, config)
    return clock() - start


def time_shape(side, T: int, repeats: int) -> dict:
    """One tree: the best of ``repeats`` wall times of each run."""
    timings = {}
    for mode, record in MODES:
        best = {iterations: min(timed_run(side, iterations, record, time.perf_counter)
                                for _ in range(repeats))
                for iterations in (1, T)}
        timings[mode] = {"setup_us": 1e6 * best[1],
                         "us_per_iter": 1e6 * (best[T] - best[1]) / (T - 1)}
    return timings


def interleave(sides: dict, T: int, rounds: int) -> dict:
    """Two trees: per round, each side's CPU microseconds per iteration, the
    order reversed every round, and the ratio this / against."""
    def us_per_iter(side, record):
        return 1e6 * (timed_run(side, T, record, time.process_time)
                      - timed_run(side, 1, record, time.process_time)) / (T - 1)

    timings = {}
    for mode, record in MODES:
        for side in sides.values():
            us_per_iter(side, record)  # warm-up
        rounds_us = {name: [] for name in sides}
        for r in range(rounds):
            for name in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                rounds_us[name].append(us_per_iter(sides[name], record))
        ratios = [a / b for a, b in zip(rounds_us["this"], rounds_us["against"])]
        timings[mode] = {**{f"{name}_us_per_iter": values for name, values in rounds_us.items()},
                         "ratios": ratios, "median_ratio": statistics.median(ratios)}
    return timings


def import_tree(tree: str):
    """The fogas package of the source tree ``tree``, as ``fogas_against``."""
    package = os.path.join(tree, "src", "fogas")
    spec = importlib.util.spec_from_file_location(
        "fogas_against", os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its relative imports resolve under this name
    spec.loader.exec_module(module)
    return module


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="BENCH_loop.json")
    parser.add_argument("--label", default="change")
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--against", default=None,
                        help="a source tree to time against, in one process")
    parser.add_argument("--rounds", type=int, default=9,
                        help="interleaved rounds with --against")
    parser.add_argument("--iterations", type=int, default=None,
                        help="T for every shape (default: each shape's own)")
    args = parser.parse_args()
    if args.iterations is not None and args.iterations < 2:
        parser.error("--iterations must be at least 2")
    if args.repeats < 1 or args.rounds < 1:
        parser.error("--repeats and --rounds must be at least 1")
    if args.against is not None and not os.path.isfile(
            os.path.join(args.against, "src", "fogas", "__init__.py")):
        parser.error(f"no src/fogas package under {args.against}")

    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    import numpy as np

    import fogas

    warnings.filterwarnings("ignore", message="auto-tuned run with T=")
    against = None if args.against is None else import_tree(args.against)
    results = {}
    for name, shape in SHAPES.items():
        T = args.iterations or shape["T"]
        this = prepare(fogas, shape)
        results[name] = {**shape, "T": T,
                         "next_states": len(np.unique(np.concatenate(
                             [ds.x_nexts for ds in this[2]])))}
        if against is None:
            results[name].update(time_shape(this, T, args.repeats))
            for mode, _ in MODES:
                timing = results[name][mode]
                print(f"{name} {mode}: {timing['us_per_iter']:.1f} us per iteration (T={T}), "
                      f"set-up {timing['setup_us']:.0f} us")
        else:
            results[name].update(interleave({"this": this, "against": prepare(against, shape)},
                                            T, args.rounds))
            for mode, _ in MODES:
                timing = results[name][mode]
                print(f"{name} {mode}: this / against median {timing['median_ratio']:.3f} "
                      f"({statistics.median(timing['this_us_per_iter']):.1f} vs "
                      f"{statistics.median(timing['against_us_per_iter']):.1f} us per "
                      f"iteration, T={T}, {args.rounds} rounds)")

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
    }
    if against is None:
        doc["method"] = ("scripts/loop_timing.py: us_per_iter = (best T-iteration run - best "
                         "one-iteration run) / (T - 1), best of `repeats` wall times, one "
                         "BLAS thread; `plain` runs record no trajectory, `recorded` runs "
                         "record it")
        doc.setdefault("runs", {})[args.label] = {
            "env": {**env, "repeats": args.repeats}, "shapes": results}
    else:
        section = doc.setdefault("interleaved", {})
        section["method"] = (
            "scripts/loop_timing.py --against: this tree's fogas and another tree's, "
            "imported as two packages in one process that share one numpy; after a warm-up "
            "run of each, every round times each side once, in an order reversed every "
            "round, as (T-iteration run - one-iteration run) / (T - 1) in CPU time "
            "(time.process_time), one BLAS thread; `ratios` are this / against per round")
        section.setdefault("runs", {})[args.label] = {
            "env": {**env, "rounds": args.rounds}, "shapes": results}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
