#!/usr/bin/env python3
"""Time the save and load of the three files the CLI writes and reads back.

For the MDP, the dataset and the run file it reports, per shape, the best
save and load time over ``--repeats`` calls, the file's size and the
tracemalloc peak of one load. The shapes are the benchmark's cli-chain
(X=100, A=4, d=8, n=50000, T=2000 with the trajectory) and an MDP at
X=100000, A=4, d=8. The files are named as the benchmark names them
(mdp.json, data.csv, run.json), whatever their format. One BLAS thread.

The numbers go to the ``--label`` entry of ``--out``; other labels already in
the file are kept, so one file can hold the timings of two versions of the
package (run the script once with each on PYTHONPATH):

    PYTHONPATH=src python scripts/io_timing.py --label change --out BENCH_io.json

``--tiny`` shrinks every shape, for a quick run.
"""

import argparse
import json
import os
import platform
import tempfile
import time
import tracemalloc
import warnings

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# An (X, A, d) MDP and, when n is given, n uniform samples and a T-iteration run.
SHAPES = {
    "cli_chain": dict(states=100, actions=4, dim=8, n=50000, T=2000),
    "large_mdp": dict(states=100000, actions=4, dim=8),
}
TINY_SHAPES = {
    "cli_chain": dict(states=10, actions=4, dim=8, n=200, T=20),
    "large_mdp": dict(states=1000, actions=4, dim=8),
}


def best_of(repeats: int, func, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def time_shape(shape: dict, repeats: int, workdir: str) -> dict:
    import fogas

    mdp = fogas.generate_linear_mdp(shape["states"], shape["actions"], shape["dim"],
                                    gamma=0.9, seed=0)
    # kind: (save, load, object, file name, extra load arguments)
    kinds = {"mdp": (fogas.save_mdp, fogas.load_mdp, mdp, "mdp.json", ())}
    if "n" in shape:
        dataset = fogas.collect_dataset(mdp, fogas.uniform_policy(mdp.num_states,
                                                                  mdp.num_actions),
                                        n=shape["n"], sampling_mode="uniform", seed=0)
        run = fogas.run_fogas(mdp, dataset, fogas.FogasConfig(
            T=shape["T"], auto_tune=True, record_trajectory=True))
        kinds["dataset"] = (fogas.save_dataset, fogas.load_dataset, dataset, "data.csv",
                            (mdp,))
        kinds["run"] = (fogas.save_run, fogas.load_run, run, "run.json", (mdp,))
    out = {"shape": shape}
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


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="BENCH_io.json")
    parser.add_argument("--label", default="change")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--tiny", action="store_true", help="shrink every shape")
    args = parser.parse_args()

    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    import numpy as np

    warnings.filterwarnings("ignore", message="auto-tuned run with T=")
    results = {}
    for name, shape in (TINY_SHAPES if args.tiny else SHAPES).items():
        print(f"{name}: {shape}")
        with tempfile.TemporaryDirectory() as workdir:
            results[name] = time_shape(shape, args.repeats, workdir)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["method"] = ("scripts/io_timing.py: best of `repeats` save and load calls per "
                     "file kind, file size, tracemalloc peak of one load; one BLAS thread")
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
