#!/usr/bin/env python3
"""Time dataset collection, and the save and load of the three files the CLI
writes and reads back.

For each shape it reports the best ``collect_dataset`` time over ``--repeats``
calls and, for the MDP, the dataset and the run file, the best save and load
time, the file's size and the tracemalloc peak of one load. The shapes are
the benchmark's cli-chain (X=100, A=4, d=8, n=50000 uniform samples, T=2000
with the trajectory), sweep-large-state's collection (X=1000, A=4, d=8,
n=20000 samples from the occupancy of the eps:0.5 behavior) and an MDP at
X=100000, A=4, d=8. The files are named as the benchmark names them
(mdp.json, data.csv, run.json), whatever their format. One BLAS thread.

The numbers go to the ``--label`` entry of ``--out``; other labels already in
the file are kept, so one file can hold the timings of two versions of the
package (run the script once with each on PYTHONPATH):

    PYTHONPATH=src python scripts/io_timing.py --label change --out BENCH_io.json

With ``--against TREE`` the package of another source tree is imported beside
this one (``loop_timing.import_tree``) and only collection is timed, in one
process: after a warm-up call of each side, every round times one
``collect_dataset`` call of each side in CPU time (``time.process_time``), in
an order reversed every round, and records the ratio this / against. Both
sides must draw the same dataset. Both share one numpy and one allocator, so
this compares the two versions' code, not their installs. The rounds go under
``interleaved``:

    PYTHONPATH=src python scripts/io_timing.py --against ../parent --rounds 15 \\
        --label sampler-vs-parent --out BENCH_io.json

``--tiny`` shrinks every shape, for a quick run.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from loop_timing import import_tree  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# An (X, A, d) MDP; with n, n samples of the behavior (uniform pairs unless
# sampled from its occupancy), and with T, a T-iteration run.
SHAPES = {
    "cli_chain": dict(states=100, actions=4, dim=8, n=50000, T=2000),
    "large_state": dict(states=1000, actions=4, dim=8, n=20000, behavior="eps:0.5",
                        sampling_mode="occupancy"),
    "large_mdp": dict(states=100000, actions=4, dim=8),
}
TINY_SHAPES = {
    "cli_chain": dict(states=10, actions=4, dim=8, n=200, T=20),
    "large_state": dict(states=30, actions=4, dim=8, n=200, behavior="eps:0.5",
                        sampling_mode="occupancy"),
    "large_mdp": dict(states=1000, actions=4, dim=8),
}


def best_of(repeats: int, func, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def collection(fogas, shape: dict):
    """The shape's MDP, built by ``fogas``, and a call that collects its
    dataset at a given seed (None for a shape without n)."""
    from fogas.harness import behavior_policy  # this tree's, for both sides: only
                                               # the collection itself is compared

    mdp = fogas.generate_linear_mdp(shape["states"], shape["actions"], shape["dim"],
                                    gamma=0.9, seed=0)
    if "n" not in shape:
        return mdp, None
    behavior = behavior_policy(mdp, shape.get("behavior", "uniform"))
    mode = shape.get("sampling_mode", "uniform")
    return mdp, lambda seed: fogas.collect_dataset(mdp, behavior, n=shape["n"],
                                                   sampling_mode=mode, seed=seed)


def time_shape(shape: dict, repeats: int, workdir: str) -> dict:
    import fogas

    out = {"shape": shape}
    mdp, collect = collection(fogas, shape)
    # kind: (save, load, object, file name, extra load arguments)
    kinds = {"mdp": (fogas.save_mdp, fogas.load_mdp, mdp, "mdp.json", ())}
    if collect is not None:
        out["collect_ms"] = 1e3 * best_of(repeats, collect, 0)
        print(f"collect  {out['collect_ms']:9.2f} ms")
        dataset = collect(0)
        kinds["dataset"] = (fogas.save_dataset, fogas.load_dataset, dataset, "data.csv",
                            (mdp,))
    if "T" in shape:
        run = fogas.run_fogas(mdp, dataset, fogas.FogasConfig(
            T=shape["T"], auto_tune=True, record_trajectory=True))
        kinds["run"] = (fogas.save_run, fogas.load_run, run, "run.json", (mdp,))
    for kind, (save, load, obj, name, extra) in kinds.items():
        path = os.path.join(workdir, name)
        save_s = best_of(repeats, save, obj, path)
        load_s = best_of(repeats, load, path, *extra)
        tracemalloc.start()
        try:
            load(path, *extra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[kind] = {"save_ms": 1e3 * save_s, "load_ms": 1e3 * load_s,
                     "bytes": os.path.getsize(path), "load_peak_mib": peak / 2**20}
        print(f"{kind:8s} save {1e3 * save_s:9.2f} ms  load {1e3 * load_s:9.2f} ms  "
              f"{os.path.getsize(path) / 2**20:8.2f} MiB  load peak {peak / 2**20:7.2f} MiB")
    return out


def interleave_collect(sides: dict, rounds: int) -> dict:
    """Two trees: per round, each side's CPU milliseconds for one collection,
    the order reversed every round, and the ratio this / against. Round r
    collects at seed r on both sides, and the two datasets must be equal."""
    import numpy as np

    def collect(name, seed):
        start = time.process_time()
        dataset = sides[name](seed)
        return 1e3 * (time.process_time() - start), dataset

    for name in sides:
        collect(name, 0)  # warm-up
    rounds_ms = {name: [] for name in sides}
    for r in range(rounds):
        drawn = {}
        for name in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            ms, drawn[name] = collect(name, r)
            rounds_ms[name].append(ms)
        this, against = drawn["this"], drawn["against"]
        for column in ("xs", "actions", "rewards", "x_nexts"):
            if not np.array_equal(getattr(this, column), getattr(against, column)):
                raise AssertionError(f"the two trees drew different {column} at seed {r}")
    ratios = [a / b for a, b in zip(rounds_ms["this"], rounds_ms["against"])]
    return {**{f"{name}_collect_ms": values for name, values in rounds_ms.items()},
            "ratios": ratios, "median_ratio": statistics.median(ratios)}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="BENCH_io.json")
    parser.add_argument("--label", default="change")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--against", default=None,
                        help="a source tree to time collection against, in one process")
    parser.add_argument("--rounds", type=int, default=15,
                        help="interleaved rounds with --against")
    parser.add_argument("--tiny", action="store_true", help="shrink every shape")
    args = parser.parse_args()
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
    for name, shape in (TINY_SHAPES if args.tiny else SHAPES).items():
        if against is None:
            print(f"{name}: {shape}")
            with tempfile.TemporaryDirectory() as workdir:
                results[name] = time_shape(shape, args.repeats, workdir)
        elif "n" in shape:
            sides = {"this": collection(fogas, shape)[1],
                     "against": collection(against, shape)[1]}
            results[name] = {"shape": shape, **interleave_collect(sides, args.rounds)}
            timing = results[name]
            print(f"{name} collect: this / against median {timing['median_ratio']:.3f} "
                  f"({statistics.median(timing['this_collect_ms']):.2f} vs "
                  f"{statistics.median(timing['against_collect_ms']):.2f} ms, "
                  f"{args.rounds} rounds)")

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
        doc["method"] = ("scripts/io_timing.py: best of `repeats` collect_dataset calls, and "
                         "of `repeats` save and load calls per file kind, file size, "
                         "tracemalloc peak of one load; one BLAS thread")
        doc.setdefault("runs", {})[args.label] = {
            "env": {**env, "repeats": args.repeats}, "shapes": results}
    else:
        section = doc.setdefault("interleaved", {})
        section["method"] = (
            "scripts/io_timing.py --against: this tree's fogas and another tree's, imported "
            "as two packages in one process that share one numpy; after a warm-up call of "
            "each, every round times one collect_dataset call of each side at the round's "
            "seed, in an order reversed every round, in CPU time (time.process_time), one "
            "BLAS thread; both sides drew equal datasets; `ratios` are this / against per "
            "round")
        section.setdefault("runs", {})[args.label] = {
            "env": {**env, "rounds": args.rounds}, "shapes": results}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
