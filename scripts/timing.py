#!/usr/bin/env python3
"""Time one layer of the fogas package in CPU time, by rounds.

Suites, each at fixed shapes:
- loop: ``run_fogas`` without (plain) and with (recorded) the trajectory; S
  seeds are S calls, timed together. ``setup_us`` is a one-iteration run, and
  ``us_per_iter`` a T-iteration run less it, over T - 1.
- io: ``collect_dataset`` at the round's seed, and the save and load of each
  file the CLI writes (named as the benchmark names them, whatever their
  format). Each file's size and one load's tracemalloc peak are taken once.
- score: ``diagnostics.score_iterates`` of one recorded run.

One side is the package on PYTHONPATH, "this". ``--against TREE`` imports the
package of another source tree (TREE/src/fogas) beside it as
``fogas_against``; both share one numpy and one allocator, so this compares
the two versions' code, not their installs. After a warm-up of each side,
every round measures each side once in CPU time (``time.process_time``), in
an order reversed every round, with one BLAS thread. Each quantity reports
per side its rounds, minimum and median, and with two sides the per-round
ratio this / against the same way. With two sides the io suite raises unless
both draw equal datasets at each round's seed, and the score suite records
the largest relative difference of rho(pi_t) between them.

The numbers go to the ``--label`` entry of the ``timing`` section of ``--out``
(default BENCH_<suite>.json); the rest of the file is kept as it is.
``--tiny`` shrinks every shape, for a quick run.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
import warnings

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
METHOD = (
    "scripts/timing.py SUITE: this tree's fogas and, with --against, another tree's in one "
    "process; after a warm-up of each side, every round measures each side once in CPU time "
    "(time.process_time), in an order reversed every round, one BLAS thread; per side each "
    "quantity gives its `rounds`, `min` and `median`, and `ratio` this / against per round; "
    "quantities without rounds are taken once per side")


def timed(func, *args):
    """``func(*args)`` and the CPU seconds it took."""
    start = time.process_time()
    result = func(*args)
    return result, time.process_time() - start


def sampler(fogas, shape: dict):
    """The shape's MDP, built by ``fogas``, and a call that collects its dataset
    at a given seed (uniform behavior and sampling unless the shape names them)."""
    from fogas.harness import behavior_policy  # this tree's, for both sides: only
                                               # the collection itself is compared

    mdp = fogas.generate_linear_mdp(shape["states"], shape["actions"], shape["dim"],
                                    gamma=0.9, seed=0)
    behavior = behavior_policy(mdp, shape.get("behavior", "uniform"))
    return mdp, lambda seed: fogas.collect_dataset(
        mdp, behavior, n=shape["n"], sampling_mode=shape.get("sampling_mode", "uniform"),
        seed=seed)


def loop_side(fogas, shape: dict, workdir: str):
    """The loop suite's measure of one side, and its next-state count."""
    mdp, collect = sampler(fogas, shape)
    datasets = [collect(s) for s in range(shape["seeds"])]

    def runs(T: int, record: bool) -> float:
        configs = [fogas.FogasConfig(T=T, seed=s, auto_tune=True, record_trajectory=record)
                   for s in range(len(datasets))]
        return timed(lambda: [fogas.run_fogas(mdp, dataset, config)
                              for dataset, config in zip(datasets, configs)])[1]

    def measure(seed):
        out, T = {}, shape["T"]
        for mode, record in (("plain", False), ("recorded", True)):
            setup = runs(1, record)
            out[f"{mode}.setup_us"] = 1e6 * setup
            out[f"{mode}.us_per_iter"] = 1e6 * (runs(T, record) - setup) / (T - 1)
        return out, None

    next_states = set().union(*(ds.x_nexts.tolist() for ds in datasets))
    return measure, {"next_states": len(next_states)}


def io_side(fogas, shape: dict, workdir: str):
    """The io suite's measure of one side, and its file sizes and load peaks."""
    mdp, collect = sampler(fogas, shape)
    # kind: (save, load, object, file name, extra load arguments)
    files = {"mdp": (fogas.save_mdp, fogas.load_mdp, mdp, "mdp.json", ())}
    if "n" in shape:
        dataset = collect(0)
        files["dataset"] = (fogas.save_dataset, fogas.load_dataset, dataset, "data.csv",
                            (mdp,))
    if "T" in shape:
        run = fogas.run_fogas(mdp, dataset, fogas.FogasConfig(
            T=shape["T"], auto_tune=True, record_trajectory=True))
        files["run"] = (fogas.save_run, fogas.load_run, run, "run.json", (mdp,))

    def measure(seed):
        out, drawn = {}, None
        if "n" in shape:
            dataset, seconds = timed(collect, seed)
            out["collect_ms"] = 1e3 * seconds
            # Hashes, not the dataset: a dataset kept to the round's end would
            # leave the side measured next in the round another heap to allocate from.
            drawn = {column: hashlib.sha256(getattr(dataset, column).astype(float).tobytes())
                     .hexdigest() for column in ("xs", "actions", "rewards", "x_nexts")}
        for kind, (save, load, obj, name, extra) in files.items():
            path = os.path.join(workdir, name)
            out[f"{kind}.save_ms"] = 1e3 * timed(save, obj, path)[1]
            out[f"{kind}.load_ms"] = 1e3 * timed(load, path, *extra)[1]
        return out, drawn

    measure(0)  # writes the files, and keeps first-use allocations out of the peaks
    once = {}
    for kind, (_, load, _, name, extra) in files.items():
        path = os.path.join(workdir, name)
        tracemalloc.start()
        try:
            load(path, *extra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        once[f"{kind}.bytes"] = os.path.getsize(path)
        once[f"{kind}.load_peak_mib"] = peak / 2**20
    return measure, once


def equal_datasets(this, against, seed: int) -> dict:
    """Raises unless both sides drew the same dataset (None for no dataset)."""
    for column in this or ():
        if this[column] != against[column]:
            raise AssertionError(f"the two trees drew different {column} at seed {seed}")
    return {}


def score_side(fogas, shape: dict, workdir: str):
    """The score suite's measure of one side, on its own recorded run."""
    mdp, collect = sampler(fogas, shape)
    run = fogas.run_fogas(mdp, collect(0), fogas.FogasConfig(
        T=shape["T"], auto_tune=True, record_trajectory=True))

    def measure(seed):
        scores, seconds = timed(fogas.diagnostics.score_iterates, mdp, run.trajectory,
                                run.config.alpha)
        return {"score_ms": 1e3 * seconds}, scores[1]

    return measure, {}


def rho_difference(this, against, seed: int) -> dict:
    return {"rho_max_rel_diff": float((abs(this - against) / abs(against)).max())}


# Per suite: the side builder, the check of two sides' round outputs, and the
# shapes: an (X, A, d) MDP with n samples, S seeds and T iterations where the
# suite uses them. --tiny caps the TINY keys of every shape.
SUITES = {
    "loop": (loop_side, None, {
        "S4_X5_A3_d4": dict(seeds=4, states=5, actions=3, dim=4, n=16384, T=2000),
        "S1_X100_A4_d8": dict(seeds=1, states=100, actions=4, dim=8, n=50000, T=2000),
        "S1_X10000_A4_d8": dict(seeds=1, states=10000, actions=4, dim=8, n=20000, T=200),
    }),
    "io": (io_side, equal_datasets, {
        "cli_chain": dict(states=100, actions=4, dim=8, n=50000, T=2000),
        "large_state": dict(states=1000, actions=4, dim=8, n=20000, behavior="eps:0.5",
                            sampling_mode="occupancy"),
        "large_mdp": dict(states=100000, actions=4, dim=8),
    }),
    "score": (score_side, rho_difference, {
        "X5_A3_d4": dict(states=5, actions=3, dim=4, n=16384, T=7235),
        "X100_A4_d8": dict(states=100, actions=4, dim=8, n=50000, T=2000),
        "X1000_A4_d8": dict(states=1000, actions=4, dim=8, n=20000, T=20),
    }),
}
TINY = {"states": 30, "n": 256, "T": 10}


def summary(values: list) -> dict:
    return {"rounds": values, "min": min(values), "median": statistics.median(values)}


def run_rounds(sides: dict, rounds: int, check=None) -> dict:
    """Per quantity, each side's rounds summarized (and their ratio this /
    against), and the largest value of each disagreement that ``check(this
    output, against output, seed)`` returns. ``sides`` maps "this" (and
    "against") to a call that takes the round's seed and returns its
    quantities and its output."""
    for measure in sides.values():
        measure(0)  # warm-up
    series, worst, names = {}, {}, list(sides)
    for r in range(rounds):
        outputs = {}
        for name in (names if r % 2 == 0 else names[::-1]):
            values, outputs[name] = sides[name](r)
            for quantity, value in values.items():
                series.setdefault(quantity, {}).setdefault(name, []).append(value)
        if check is not None and len(sides) == 2:
            for key, value in check(outputs["this"], outputs["against"], r).items():
                worst[key] = max(worst.get(key, value), value)
    for by_side in series.values():
        if len(by_side) == 2:
            by_side["ratio"] = [a / b for a, b in zip(by_side["this"], by_side["against"])]
    return {**{quantity: {name: summary(values) for name, values in by_side.items()}
               for quantity, by_side in series.items()}, **worst}


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


def report(name: str, result: dict) -> None:
    for quantity, value in result.items():
        if isinstance(value, dict) and isinstance(value.get("this"), dict):
            value = "median " + ", ".join(f"{side} {stats['median']:.4g}"
                                          for side, stats in value.items())
        print(f"{name} {quantity}: {value}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--out", help="default: BENCH_<suite>.json")
    parser.add_argument("--label", default="change")
    parser.add_argument("--against", default=None,
                        help="a source tree to time against, in one process")
    # Even, so that each side goes first in half the rounds: at small shapes the
    # side measured second can read slower, its data no longer in cache.
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--tiny", action="store_true", help="shrink every shape")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.against is not None and not os.path.isfile(
            os.path.join(args.against, "src", "fogas", "__init__.py")):
        parser.error(f"no src/fogas package under {args.against}")
    out_path = args.out or f"BENCH_{args.suite}.json"

    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    import numpy as np

    import fogas

    warnings.filterwarnings("ignore", message="auto-tuned run with T=")
    packages = {"this": fogas}
    if args.against is not None:
        packages["against"] = import_tree(args.against)
    side, check, shapes = SUITES[args.suite]
    results = {}
    for name, shape in shapes.items():
        if args.tiny:
            shape = {key: min(value, TINY.get(key, value)) for key, value in shape.items()}
        with tempfile.TemporaryDirectory() as workdir:
            sides, once = {}, {}
            for side_name, package in packages.items():
                sides[side_name], values = side(package, shape, tempfile.mkdtemp(dir=workdir))
                for quantity, value in values.items():
                    once.setdefault(quantity, {})[side_name] = value
            results[name] = {"shape": shape, **once, **run_rounds(sides, args.rounds, check)}
        report(name, results[name])

    doc = {"timing": {}}  # first, so that no line of the entries already there changes
    if os.path.exists(out_path):
        with open(out_path) as f:
            doc.update(json.load(f))
    doc["timing"]["method"] = METHOD
    doc["timing"].setdefault("runs", {})[args.label] = {
        "env": {"suite": args.suite, "python": platform.python_version(),
                "numpy": np.__version__, "machine": platform.machine(),
                "cpus": os.cpu_count(), "blas_threads": 1, "rounds": args.rounds,
                "tiny": args.tiny},
        "shapes": results}
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
