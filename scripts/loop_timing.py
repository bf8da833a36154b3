#!/usr/bin/env python3
"""Time the FOGAS ascent loop in microseconds per iteration.

Runs ``run_fogas_batch`` at three fixed shapes with one BLAS thread. Per shape,
each of a T-iteration run and a one-iteration run is timed as the minimum over
``--repeats`` runs; their difference over T - 1 is the loop's time per
iteration with the set-up (the estimator, the covariance, the output policy)
taken out, and the one-iteration run is reported as the set-up. The numbers go
to the ``--label`` entry of ``--out``; other labels already in the file are
kept, so one file can hold the timings of two versions of the package (run the
script once with each on PYTHONPATH):

    PYTHONPATH=src python scripts/loop_timing.py --label change --out BENCH_loop.json

``--iterations`` (at least 2) replaces every shape's T, for a quick run.
"""

import argparse
import json
import os
import platform
import time
import warnings

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# S seeds on an (X, A, d) MDP with n uniform samples each, T iterations.
SHAPES = {
    "S4_X5_A3_d4": dict(seeds=4, states=5, actions=3, dim=4, n=16384, T=2000),
    "S1_X100_A4_d8": dict(seeds=1, states=100, actions=4, dim=8, n=50000, T=2000),
    "S1_X10000_A4_d8": dict(seeds=1, states=10000, actions=4, dim=8, n=20000, T=200),
}


def time_shape(shape: dict, T: int, repeats: int) -> dict:
    import numpy as np

    import fogas

    mdp = fogas.generate_linear_mdp(shape["states"], shape["actions"], shape["dim"],
                                    gamma=0.9, seed=0)
    behavior = fogas.uniform_policy(mdp.num_states, mdp.num_actions)
    datasets = [fogas.collect_dataset(mdp, behavior, n=shape["n"],
                                      sampling_mode="uniform", seed=s)
                for s in range(shape["seeds"])]
    fogas.run_fogas_batch(mdp, datasets, [fogas.FogasConfig(T=1, auto_tune=True)] * len(datasets))
    best = {}  # after a warm-up run, which fills the datasets' cached next-state groups
    for iterations in (1, T):
        configs = [fogas.FogasConfig(T=iterations, seed=s, auto_tune=True)
                   for s in range(shape["seeds"])]
        best[iterations] = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            runs = fogas.run_fogas_batch(mdp, datasets, configs)
            best[iterations] = min(best[iterations], time.perf_counter() - start)
            for run in runs:
                if isinstance(run, Exception):
                    raise run
    sites = np.unique(np.concatenate([ds.x_nexts for ds in datasets]))
    return {**shape, "T": T, "next_states": len(sites), "setup_us": 1e6 * best[1],
            "us_per_iter": 1e6 * (best[T] - best[1]) / (T - 1)}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="BENCH_loop.json")
    parser.add_argument("--label", default="change")
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--iterations", type=int, default=None,
                        help="T for every shape (default: each shape's own)")
    args = parser.parse_args()
    if args.iterations is not None and args.iterations < 2:
        parser.error("--iterations must be at least 2")

    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    import numpy as np

    warnings.filterwarnings("ignore", message="auto-tuned run with T=")
    results = {}
    for name, shape in SHAPES.items():
        T = args.iterations or shape["T"]
        results[name] = time_shape(shape, T, args.repeats)
        print(f"{name}: {results[name]['us_per_iter']:.1f} us per iteration (T={T}), "
              f"set-up {results[name]['setup_us']:.0f} us")

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["method"] = ("scripts/loop_timing.py: us_per_iter = (best T-iteration run - best "
                     "one-iteration run) / (T - 1), best of `repeats`, one BLAS thread")
    doc.setdefault("runs", {})[args.label] = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
            "repeats": args.repeats,
        },
        "shapes": results,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
