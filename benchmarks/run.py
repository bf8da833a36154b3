#!/usr/bin/env python3
"""fogas benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep-small --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from spans around the public functions of
each module (plus the tracing overhead). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it, prefixed with "# ", hold the environment and a report with
the per-stage times, the error rate and every failure message. Spans of the
last traced pass are written to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The import is timed in fresh interpreters spread over the run (see
# workloads.measure); a single in-process import is too noisy to stand alone.
IMPORT_CODE = ("import time; start = time.perf_counter(); "
               "from fogas import cli, diagnostics, harness, linmdp; "
               "print(time.perf_counter() - start)")

END_TO_END_UNITS = {"pass_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB", "mean_subopt": "return"}
STAGE_UNITS = {"sweep_s": "s", "collect_cmd_s": "s", "solve_cmd_s": "s", "diagnose_cmd_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith(".bytes_computed") or name == "solver.run_file_bytes":
        return "bytes"
    if name.endswith((".us_per_call", ".us_per_iter")):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def fresh_import(src: str) -> float:
    """Import time of the fogas modules, numpy and scipy with them, in a fresh
    interpreter with the same environment."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE],
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    out = {}
    maps = _read("/proc/self/maps", "").splitlines()
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                out[os.path.basename(path)] = func()
                break
    return out or {var: os.environ.get(var) for var in BLAS_THREAD_VARS}


def _read(path: str, default: str = "unknown") -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return default


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo", "").splitlines()
                      if line.startswith("model name")), "unknown")
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip(),
    }


def metrics_for(run: dict, trace: bool) -> dict:
    """The end-to-end metrics, or with ``trace`` the per-layer metrics."""
    import workloads

    plain, traced = run["plain"], run["traced"]
    if not trace:
        values = {
            "pass_ref": workloads.median([p.ref for p in plain]),
            "setup_s": (workloads.median(run["import_times"] or [0.0])
                        + workloads.median(run["setup_times"])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mean_subopt": workloads.pass_subopt(plain[0]),
        }
        return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    metrics = {}
    for name in run["layers"][0]:
        unit = layer_unit(name)
        # exact counts repeat in every pass; keep them whole numbers
        pick = statistics.median_low if unit in ("count", "bytes") else workloads.median
        metrics[name] = {"value": pick([m[name] for m in run["layers"]]), "unit": unit}
    overhead = (workloads.median([p.elapsed for p in traced])
                - workloads.median([p.elapsed for p in plain]))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def report_for(name: str, run: dict, import_s: float) -> dict:
    """Stage times under the names users know, the error rate and every failure."""
    import workloads

    plain, checker = run["plain"], run["checker"]
    return {
        "workload": name,
        "sample_seeds": run["seeds"],
        "passes": len(plain),
        "traced_passes": len(run["traced"]),
        "pass_times_s": [p.elapsed for p in plain],
        "pass_refs": [p.ref for p in plain],
        "setup_times_s": run["setup_times"],
        "import_s": import_s,
        "fresh_import_times_s": run["import_times"],
        "stages": {
            key: {"value": workloads.median([p.stages[key] for p in plain]),
                  "unit": STAGE_UNITS[key]}
            for key in plain[0].stages
        },
        "error_rate": len(checker.errors) / checker.attempted,
        "errors": checker.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "fogas", "__init__.py")):
        print(f"no fogas package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, src)

    start = time.perf_counter()
    import workloads  # imports numpy, scipy and fogas

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        workload, tiny = workloads.WORKLOADS[args.workload]
        run = workloads.measure(workload, tiny, args.seed, args.seconds, bool(args.trace),
                                workdir, fresh_import=lambda: fresh_import(src))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checker = run["checker"]
    print("# env " + json.dumps(environment(args.seed)))
    print("# report " + json.dumps(report_for(args.workload, run, import_s)))
    for message in checker.errors:
        print(message, file=sys.stderr)
    metrics = metrics_for(run, bool(args.trace))
    if args.trace:
        write_spans(args.workload, args.seed, run["tracer"])
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": checker.attempted,
        "failed": len(checker.errors),
        "metrics": metrics,
    }))
    return 0


def write_spans(workload: str, seed: int, tracer) -> None:
    """The spans of the last traced pass, times relative to its first span."""
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    origin = tracer.spans[0][1]
    spans = [[name, start - origin, end - origin, parent]
             for name, start, end, parent in tracer.spans]
    with open(os.path.join(out_dir, f"{workload}-seed{seed}.spans.json"), "w") as f:
        json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": spans}, f)


if __name__ == "__main__":
    sys.exit(main())
